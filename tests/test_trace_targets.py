"""The benchmark's traced run wraps allocore functions by name and reads
``LatentSources.per_cell``; a refactor that drops either breaks
``perfbench/run.py --trace 1``. This runs the same instrumentation on a
one-sweep chain and on the scoring of its sample."""

import os
import threading

from allocore import (evaluation, gibbs, init_canonical, make_fiber_mask, split,
                      state)
from allocore.state import THIN_BLOCK, substream
from allocore.synthetic import SyntheticConfig, generate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_traced_masked_sweep_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    # spread factor columns, so that the held-out fibers hold positive
    # counts for ppd_positive
    X, _ = generate(SyntheticConfig(shape=(12, 10, 4), true_dims=(2, 2, 2),
                                    true_budget=3, column_scale=5.0,
                                    column_concentration=1.0, seed=0))
    mask = make_fiber_mask(X, 2, 0.1, 1)
    train, heldout = split(X, mask)
    init = init_canonical(X.shape, 4, seed=1)
    targets = spans.SETUP_TARGETS + spans.FIT_TARGETS + spans.EVAL_TARGETS
    originals = {(mod, attr): _owner(mod).__dict__[attr]
                 for mod, attr, *_ in targets}

    recorder = spans.SpanRecorder()
    undo = spans.instrument(recorder, targets)
    try:
        gibbs.run_chain(train, mask, init,
                        gibbs.ChainConfig(burn_in=0, total=1, thin=1, seed=1),
                        out_dir=str(tmp_path / "run"))
    finally:
        undo()

    stats = spans.span_stats(recorder.spans)
    for name in ("gibbs.run_chain", "gibbs.thin_counts", "gibbs.sample_locations",
                 "gibbs.sample_lambda", "gibbs.sample_phi", "gibbs.sample_pi",
                 "gibbs.proportional_train_loglik", "gibbs.mask.mode_weights",
                 "gibbs.mask.masked_rate_totals", "gibbs.mask.phi_corrections",
                 "state.save_state"):
        assert stats[name]["calls"] >= 1, name
    # thinning's fill is the one rate table a sweep makes: the log row sums
    # its blocks in reconstruct_cells without one
    assert stats["state.cell_rates"]["calls"] == 1
    # one all-q call per mode for the locations and one per mode for phi
    assert stats["gibbs.mask.mode_weights"]["calls"] == 2 * X.ndim
    assert recorder.counts["gibbs.thin_counts.draws"] == train.nnz * (init.Q - 1)
    # the chain's one sweep thins with the (seed 1, iteration 1) stream;
    # a draw is live when the count it splits has something left
    per_cell = gibbs.thin_counts(init, train, substream(1, 1, THIN_BLOCK)).per_cell
    live = 0
    for count, row in zip(train.counts, per_cell):
        remaining = count
        for q in range(init.Q - 1):
            live += int(remaining > 0)
            remaining -= row[q]
    assert 0 < live == recorder.counts["gibbs.thin_counts.live"]
    for (mod, attr), original in originals.items():
        assert _owner(mod).__dict__[attr] is original

    # the eval phase, as the benchmark runs it: every call through the
    # module attribute it is wrapped under. Blocks of two stems give both
    # scoring threads blocks to score.
    monkeypatch.setattr(state, "_BLOCK_BYTES", 8 * 2 * X.shape[2] * init.Q)
    recorder = spans.SpanRecorder()
    threads = set()
    begin = recorder.begin

    def begin_on_thread(name):
        threads.add(threading.get_ident())
        return begin(name)

    recorder.begin = begin_on_thread
    undo = spans.instrument(recorder, spans.EVAL_TARGETS)
    try:
        samples = evaluation.load_samples(str(tmp_path / "run"))
        evaluation.ppd(samples, heldout)
        evaluation.ppd_positive(samples, heldout)
        evaluation.ppd_constant_baseline(train, heldout)
        evaluation.train_loglik(samples.samples[0], train)
    finally:
        undo()

    # every span begins on the calling thread and lies inside its parent's:
    # the recorder keeps one stack of open spans, which a span begun on
    # another thread would corrupt
    assert threads == {threading.get_ident()}
    for name, start, end, parent in recorder.spans:
        if parent >= 0:
            _, parent_start, parent_end, _ = recorder.spans[parent]
            assert parent_start <= start <= end <= parent_end, name
    stats = spans.span_stats(recorder.spans)
    for _, _, name, *_ in spans.EVAL_TARGETS:
        if name != "evaluation.reconstruct_cells":
            assert stats[name]["calls"] >= 1, name
    # the fiber set and ppd_positive's cell set are both scored from each
    # sample's class tables, so eval makes no reconstruct_cells call
    assert "evaluation.reconstruct_cells" not in stats
    for (mod, attr), original in originals.items():
        assert _owner(mod).__dict__[attr] is original


def _owner(mod_name):
    import allocore

    owner = allocore
    for part in mod_name.split("."):
        owner = getattr(owner, part)
    return owner

