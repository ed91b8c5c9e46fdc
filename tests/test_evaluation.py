import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

from allocore import evaluation
from allocore import state as state_module
from allocore.evaluation import (
    export_classes,
    load_samples,
    poisson_logpmf,
    ppd,
    ppd_constant_baseline,
    ppd_positive,
    sample_dirs,
    top_classes,
    train_loglik,
)
from allocore.gibbs import PosteriorSamples
from allocore.state import (TINY, init_canonical, init_explicit, reconstruct_at,
                            row_blocks, save_state)
from allocore.tensors import HeldoutSet, SparseCountTensor, make_fiber_mask, split


def unit_state(shape, lam=1.0, seed=0):
    """Q=1 state with all-ones factors: reconstruction equals lam everywhere."""
    state = init_canonical(shape, 1, seed=seed)
    state.core_values[:] = lam
    for m in range(len(shape)):
        state.factors[m][:] = 1.0
    return state


def as_samples(*states):
    return PosteriorSamples(samples=list(states))


def held(cells):
    coords = np.array([c for c, _ in cells])
    counts = np.array([v for _, v in cells])
    return HeldoutSet(coords, counts)


class TestPpdWorkedExamples:
    def test_vanishing_rate_zero_count(self):
        state = unit_state((2, 2), lam=1e-300)
        value = ppd(as_samples(state), held([((0, 0), 0)]))
        assert abs(value - 1.0) < 1e-10

    def test_unit_rate_single_count(self):
        state = unit_state((2, 2), lam=1.0)
        value = ppd(as_samples(state), held([((0, 0), 1)]))
        assert abs(value - math.exp(-1.0)) < 1e-10

    def test_two_cell_mixture(self):
        state = unit_state((2, 2), lam=1.0)
        value = ppd(as_samples(state), held([((0, 0), 0), ((1, 1), 2)]))
        want = math.exp(0.5 * (-1.0 + math.log(math.exp(-1.0) / 2.0)))
        assert abs(value - want) < 1e-10
        assert abs(want - math.exp(-1.0) / math.sqrt(2.0)) < 1e-15

    def test_empty_heldout_rejected(self):
        state = unit_state((2, 2))
        with pytest.raises(ValueError):
            ppd(as_samples(state), held([]) if False else
                HeldoutSet(np.zeros((0, 2), dtype=np.int64),
                           np.zeros(0, dtype=np.int64)))


class TestPpdProperties:
    def _random_setup(self, seed=0, n=6, s=4):
        rng = np.random.default_rng(seed)
        states = [init_canonical((4, 4), 3, seed=i) for i in range(s)]
        coords = rng.integers(0, 4, size=(n, 2))
        counts = rng.integers(0, 4, size=n)
        return states, HeldoutSet(coords, counts)

    def test_permutation_invariance(self):
        states, heldout = self._random_setup()
        base = ppd(as_samples(*states), heldout)
        assert ppd(as_samples(*states[::-1]), heldout) == pytest.approx(base, rel=1e-12)
        perm = np.random.default_rng(1).permutation(heldout.n_cells)
        shuffled = HeldoutSet(heldout.coords[perm], heldout.counts[perm])
        assert ppd(as_samples(*states), shuffled) == pytest.approx(base, rel=1e-12)

    def test_identical_samples_collapse(self):
        states, heldout = self._random_setup()
        one = ppd(as_samples(states[0]), heldout)
        many = ppd(as_samples(*([states[0]] * 5)), heldout)
        assert many == pytest.approx(one, rel=1e-12)

    def test_extreme_rates_never_nan(self):
        logs = poisson_logpmf(np.array([0, 3, 17]),
                              np.array([1e-300, 1.0, 1e6]))
        assert np.isfinite(logs).all()
        state = unit_state((2, 2), lam=1e-300)
        big = unit_state((2, 2), lam=1e6)
        value = ppd(as_samples(state, big), held([((0, 0), 17), ((1, 1), 0)]))
        # the geometric mean may underflow to 0.0 here, but never to NaN
        assert not math.isnan(value) and 0.0 <= value <= 1.0

    def test_in_unit_interval(self):
        states, heldout = self._random_setup(seed=3)
        value = ppd(as_samples(*states), heldout)
        assert 0 < value <= 1.0


class TestPoissonLogpmf:
    """The log masses written into one array against the three-term
    expression, bit for bit."""

    @staticmethod
    def expression(counts, rates):
        counts = np.asarray(counts, dtype=np.float64)
        return xlogy(counts, rates) - rates - gammaln(counts + 1.0)

    def test_blocks_equal_the_expression(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 30, size=500)
        counts[::3] = 0
        rates = rng.gamma(0.7, 4.0, size=(6, 500))
        rates[1] = 1e-300
        rates[2] = 1e6
        rates[3, ::2] = 1e-300
        got = poisson_logpmf(counts, rates)
        assert got.shape == (6, 500)
        assert np.array_equal(got, self.expression(counts, rates))

    @pytest.mark.parametrize("rate", [0.0, 1e-300, 2.5, 1e6])
    def test_scalar_rate_equals_a_full_table(self, rate):
        counts = np.array([0, 0, 1, 3, 17, 250])
        table = np.full(counts.shape, rate)
        assert np.array_equal(poisson_logpmf(counts, rate),
                              self.expression(counts, table))


def reference_log_masses(samples, heldout):
    """Each cell's rates from one 2-D fancy gather of factor entries per
    mode, then one logsumexp over the full (S, n) table of log masses."""
    per_sample = np.empty((samples.S, heldout.n_cells))
    for s, state in enumerate(samples.samples):
        rates = np.tile(state.core_values, (heldout.n_cells, 1))
        for m in range(state.M):
            rates *= state.factors[m][heldout.coords[:, m][:, None],
                                      state.core_locations[:, m][None, :]]
        per_sample[s] = poisson_logpmf(heldout.counts, rates.sum(axis=1))
    return logsumexp(per_sample, axis=0) - math.log(samples.S)


def fiber_case(shape, free_mode, monkeypatch, stems_per_block):
    """Ten samples and a held-out set of 15 fibers of a random tensor, with
    the block size set to ``stems_per_block`` stems of 12 classes."""
    rng = np.random.default_rng(sum(shape) + free_mode)
    dense = rng.poisson(1.5, size=shape)
    X = SparseCountTensor(shape, np.argwhere(dense), dense[dense > 0])
    candidates = math.prod(shape) // shape[free_mode]
    mask = make_fiber_mask(X, free_mode, 15.5 / candidates, seed=3)
    _, heldout = split(X, mask)
    assert heldout.layout is mask and mask.n_stems == 15
    Q, d_free = 12, shape[free_mode]
    samples = as_samples(*[init_explicit(shape, (3,) * len(shape), Q,
                                         "allocore", seed=s)
                           for s in range(10)])
    monkeypatch.setattr(state_module, "_BLOCK_BYTES",
                        8 * Q * d_free * stems_per_block)
    return samples, heldout


class TestFiberPpdExact:
    """The fiber-blocked ppd against the cell-by-cell form, bit for bit.
    S = 10 because a logsumexp over one column adds its S terms pairwise,
    not row by row, which changes the bits from S = 9 on."""

    @pytest.mark.parametrize("shape, free_mode", [
        ((6, 5, 4), 0), ((6, 5, 4), 1), ((6, 5, 4), 2),
        ((4, 3, 5, 3), 0), ((4, 3, 5, 3), 2), ((4, 3, 5, 3), 3),
        ((7, 5, 1), 2),
    ])
    @pytest.mark.parametrize("stems_per_block", [2, 4, 7])
    def test_blocked_fibers_equal_cell_reference(self, shape, free_mode,
                                                 stems_per_block, monkeypatch):
        samples, heldout = fiber_case(shape, free_mode, monkeypatch,
                                      stems_per_block)
        # 15 stems in blocks of 2 (seven blocks, the last of 3), 4 (4, 4, 4,
        # 3) or 7 (7, 8): a one-stem last block joins the one before it.
        d_free = shape[free_mode]
        assert len(list(row_blocks(15, d_free * 12))) == {2: 7, 4: 4, 7: 2}[
            stems_per_block]

        want = reference_log_masses(samples, heldout)
        cells = HeldoutSet(heldout.coords, heldout.counts)
        got_fibers = evaluation._log_mixture_masses(samples, heldout)
        got_cells = evaluation._log_mixture_masses(samples, cells)
        assert np.array_equal(got_fibers, want)
        assert np.array_equal(got_cells, want)
        assert ppd(samples, heldout) == ppd(samples, cells)
        assert ppd(samples, heldout) == float(np.exp(want.mean()))

    @pytest.mark.parametrize("shape, free_mode", [((6, 5, 4), 1),
                                                  ((4, 3, 5, 3), 3)])
    def test_fiber_set_scores_equal_its_cell_set(self, shape, free_mode,
                                                 monkeypatch):
        samples, heldout = fiber_case(shape, free_mode, monkeypatch, 4)
        cells = HeldoutSet(heldout.coords, heldout.counts)
        train = SparseCountTensor.from_entries(shape, {(0,) * len(shape): 40})
        assert heldout.counts.any() and not heldout.counts.all()
        assert ppd(samples, heldout) == ppd(samples, cells)
        assert ppd_positive(samples, heldout) == ppd_positive(samples, cells)
        assert (ppd_constant_baseline(train, heldout)
                == ppd_constant_baseline(train, cells))

    def test_no_block_is_one_cell(self, monkeypatch):
        monkeypatch.setattr(state_module, "_BLOCK_BYTES", 8 * 12 * 7)
        assert list(row_blocks(15, 12)) == [(0, 7), (7, 15)]
        assert list(row_blocks(15, 2 * 12)) == [
            (0, 3), (3, 6), (6, 9), (9, 12), (12, 15)]
        # wider rows than a block still go two to a block
        assert list(row_blocks(15, 8 * 12)) == [
            (i, i + 2) for i in range(0, 12, 2)] + [(12, 15)]
        assert list(row_blocks(15, 12, 8 * 12 * 5)) == [(0, 5), (5, 10), (10, 15)]
        monkeypatch.setattr(state_module, "_BLOCK_BYTES", 8)
        assert list(row_blocks(5, 12)) == [(0, 2), (2, 5)]
        assert list(row_blocks(1, 12)) == [(0, 1)]
        assert list(row_blocks(0, 12)) == []


class TestTwoThreadScoring:
    """The fiber path's blocks are shared by the calling thread and one
    helper thread, opened and joined inside each call."""

    def test_error_in_a_block_is_raised_and_no_thread_left(self, monkeypatch):
        samples, heldout = fiber_case((6, 5, 4), 2, monkeypatch, 2)
        calls = itertools.count(1)
        logpmf = evaluation.poisson_logpmf

        def third_fails(counts, rates):
            if next(calls) == 3:
                raise FloatingPointError("third block")
            return logpmf(counts, rates)

        monkeypatch.setattr(evaluation, "poisson_logpmf", third_fails)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="third block"):
            ppd(samples, heldout)
        assert threading.active_count() == before
        # the blocks left were not scored once the error was seen
        assert next(calls) < 8

    def test_both_threads_score_under_the_callers_errstate(self, monkeypatch):
        samples, heldout = fiber_case((6, 5, 4), 2, monkeypatch, 2)
        want = reference_log_masses(samples, heldout)
        logpmf = evaluation.poisson_logpmf
        divide = {}
        calls = itertools.count(1)
        # each thread's first block waits for the other thread's first
        # block, so both threads score
        meet = threading.Barrier(2, timeout=30)

        def recording(counts, rates):
            next(calls)
            thread = threading.get_ident()
            if thread not in divide:
                divide[thread] = np.geterr()["divide"]
                meet.wait()
            return logpmf(counts, rates)

        monkeypatch.setattr(evaluation, "poisson_logpmf", recording)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with np.errstate(divide="raise"):
                got = evaluation._log_mixture_masses(samples, heldout)
        finally:
            sys.setswitchinterval(switch)
        assert list(divide.values()) == ["raise", "raise"]
        # seven blocks, each scored once
        assert next(calls) == 8
        assert np.array_equal(got, want)


class TestPpdPositive:
    def test_all_positive_equals_full(self):
        state = unit_state((2, 2))
        h = held([((0, 0), 1), ((1, 1), 2)])
        assert ppd_positive(as_samples(state), h) == pytest.approx(
            ppd(as_samples(state), h), rel=1e-12)

    def test_single_positive_cell(self):
        state = unit_state((2, 2))
        h = held([((0, 0), 0), ((1, 1), 1)])
        assert ppd_positive(as_samples(state), h) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_mixed_set_matches_subset_recompute(self):
        states, heldout = TestPpdProperties()._random_setup(seed=5)
        if heldout.positive().n_cells == 0:
            pytest.skip("no positive cells drawn")
        direct = ppd(as_samples(*states), heldout.positive())
        assert ppd_positive(as_samples(*states), heldout) == pytest.approx(
            direct, rel=1e-12)

    def test_no_positive_rejected(self):
        state = unit_state((2, 2))
        with pytest.raises(ValueError):
            ppd_positive(as_samples(state), held([((0, 0), 0)]))


class TestConstantBaseline:
    def test_unit_rate_zero_cell(self):
        # 9-cell tensor with 8 observed cells totalling 8 events: rate 1
        train = SparseCountTensor.from_entries((3, 3), {(1, 1): 8})
        h = held([((0, 0), 0), ((0, 1), 0), ((0, 2), 0)])
        # observed cells = 9 - 3 = 6 -> rate 8/6; build the exact case instead
        train = SparseCountTensor.from_entries((3, 3), {(1, 1): 6})
        value = ppd_constant_baseline(train, h)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_all_zero_train(self):
        train = SparseCountTensor((3, 3), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        h = held([((0, 0), 0), ((0, 1), 0)])
        assert ppd_constant_baseline(train, h) == pytest.approx(1.0)

    def test_mixed_hand_computation(self):
        train = SparseCountTensor.from_entries((2, 2), {(1, 0): 3})
        h = held([((0, 0), 0), ((0, 1), 2)])
        rate = 3 / 2  # 4 cells, 2 held out
        want = math.exp(0.5 * (-rate + 2 * math.log(rate) - rate - math.log(2)))
        assert ppd_constant_baseline(train, h) == pytest.approx(want, rel=1e-12)

    def test_peak_is_the_masses_and_one_scratch_array(self, wide_mask,
                                                      traced_peak):
        # no table of the one rate and no temporaries of cell length
        # beyond the log masses and the scratch for gammaln
        train, heldout = split(*wide_mask)
        assert heldout.n_cells >= 50_000
        peak = traced_peak(ppd_constant_baseline, train, heldout)
        assert peak <= 3 * 8 * heldout.n_cells


class TestTrainLoglik:
    def test_empty_tensor(self):
        state = unit_state((3, 3), lam=0.5)
        train = SparseCountTensor((3, 3), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        assert train_loglik(state, train) == pytest.approx(-0.5 * 9, rel=1e-12)

    def test_single_unit_cell(self):
        state = unit_state((2, 2), lam=1.0)
        train = SparseCountTensor.from_entries((2, 2), {(0, 0): 1})
        # 1*log(1) - total rate over all four cells
        assert train_loglik(state, train) == pytest.approx(-4.0, rel=1e-12)

    def test_matches_dense_brute_force(self):
        state = init_explicit((4, 3, 2), (2, 2, 2), 3, "allocore", seed=9)
        rng = np.random.default_rng(1)
        coords = np.unique(rng.integers(0, (4, 3, 2), size=(8, 3)), axis=0)
        train = SparseCountTensor((4, 3, 2), coords,
                                  rng.integers(1, 5, size=len(coords)))
        lookup = dict(zip(map(tuple, train.coords.tolist()), train.counts.tolist()))
        brute = 0.0
        for d in itertools.product(range(4), range(3), range(2)):
            y = lookup.get(d, 0)
            rate = reconstruct_at(state, d)
            brute += y * math.log(rate) - rate - math.lgamma(y + 1)
        log_factorials = gammaln(train.counts + 1.0).sum()
        assert train_loglik(state, train) - log_factorials == pytest.approx(
            brute, abs=1e-10)

    def test_sparse_equals_dense_proportional_form(self):
        state = init_canonical((5, 5), 4, seed=3)
        rng = np.random.default_rng(4)
        coords = np.unique(rng.integers(0, 5, size=(10, 2)), axis=0)
        train = SparseCountTensor((5, 5), coords,
                                  rng.integers(1, 4, size=len(coords)))
        lookup = dict(zip(map(tuple, train.coords.tolist()), train.counts.tolist()))
        brute = sum(lookup.get(d, 0) * math.log(reconstruct_at(state, d))
                    - reconstruct_at(state, d)
                    for d in itertools.product(range(5), range(5)))
        assert train_loglik(state, train) == pytest.approx(brute, abs=1e-10)

    def test_vanished_reconstruction_warns_and_is_minus_inf(self):
        state = init_canonical((3, 3), 2, seed=0)
        state.factors[0][1] = TINY
        state.factors[1][2] = TINY
        train = SparseCountTensor.from_entries((3, 3), {(0, 0): 2, (1, 2): 1})
        with pytest.warns(RuntimeWarning, match="vanished"):
            assert train_loglik(state, train) == -math.inf


class TestTopClasses:
    def test_single_location_collects_total(self):
        state = init_explicit((3, 3), (2, 2), 3, "allocore", seed=0)
        state.core_locations[:] = [[1, 0]] * 3
        state.core_values[:] = [1.0, 2.0, 4.0]
        classes = top_classes(state, n=10)
        assert len(classes) == 1
        assert classes[0].location == (1, 0)
        assert classes[0].value == pytest.approx(7.0)

    def test_ranked_by_value(self):
        state = init_explicit((3, 3), (2, 2), 2, "allocore", seed=0)
        state.core_locations[:] = [[0, 0], [1, 1]]
        state.core_values[:] = [3.0, 5.0]
        classes = top_classes(state, n=2)
        assert [c.value for c in classes] == [5.0, 3.0]
        assert classes[0].location == (1, 1)

    def test_values_sum_to_total_mass(self):
        state = init_explicit((4, 4, 4), (3, 3, 3), 8, "allocore", seed=2)
        classes = top_classes(state, n=100)
        assert sum(c.value for c in classes) == pytest.approx(
            state.core_values.sum(), rel=1e-12)

    def test_threshold_filters_entities(self):
        state = init_explicit((4, 4), (2, 2), 1, "allocore", seed=0)
        state.factors[0][:, :] = 1.0
        state.factors[0][:, state.core_locations[0, 0]] = [96.0, 1.9, 1.05, 1.05]
        strict = top_classes(state, n=1, display_threshold=0.02)
        assert [d for d, _ in strict[0].entities[0]] == [0]
        loose = top_classes(state, n=1, display_threshold=0.01)
        assert len(loose[0].entities[0]) == 4

    def test_weights_sorted_descending(self):
        state = init_explicit((5, 5), (2, 2), 2, "allocore", seed=4)
        classes = top_classes(state, n=2, display_threshold=0.0)
        for cls in classes:
            for kept in cls.entities:
                weights = [w for _, w in kept]
                assert weights == sorted(weights, reverse=True)

    def test_mass_concentration_counts(self):
        state = init_explicit((3, 3), (4, 4), 4, "allocore", seed=0)
        state.core_locations[:] = [[0, 0], [1, 1], [2, 2], [3, 3]]
        state.core_values[:] = [5.0, 3.0, 1.0, 1.0]
        # the top one, two and four classes cover half, 80% and all of it
        values = [c.value for c in top_classes(state, n=4)]
        assert list(np.cumsum(values) / sum(values)) == [0.5, 0.8, 0.9, 1.0]


class TestExportClasses:
    def test_files_written(self, tmp_path):
        state = init_explicit((4, 4), (3, 3), 3, "allocore", seed=5)
        out = tmp_path / "classes"
        classes = export_classes(state, out, n=10, display_threshold=0.0)
        index = (out / "index.tsv").read_text().splitlines()
        assert index[0] == "rank\tlocation\tvalue\tcumulative_share"
        assert len(index) == 1 + len(classes)
        assert index[-1].split("\t")[-1] == "1.000000"
        first = (out / "class_001.tsv").read_text().splitlines()
        assert first[0] == "mode\tentity\tweight"
        assert (out / "class_001_columns.tsv").exists()

    def test_vocab_labels_used(self, tmp_path):
        state = init_explicit((2, 2), (2, 2), 1, "allocore", seed=1)
        vocabs = [["alice", "bob"], ["x", "y"]]
        export_classes(state, tmp_path / "c", n=1, display_threshold=0.0,
                       vocabularies=vocabs)
        text = (tmp_path / "c" / "class_001.tsv").read_text()
        assert "alice" in text or "bob" in text


def test_load_samples_in_iteration_order(tmp_path):
    # sample_10000 sorts before sample_1001 as a string
    base = unit_state((2, 2))
    for index in (999, 10000, 1000, 1001):
        state = base.snapshot()
        state.next_iteration = index + 1
        save_state(state, tmp_path / "samples" / f"sample_{index:04d}")
    assert load_samples(tmp_path).iterations == [999, 1000, 1001, 10000]


def test_load_samples_reads_a_sample_stopped_between_renames(tmp_path):
    base = unit_state((2, 2))
    root = tmp_path / "samples"
    for index in (1, 2, 3):
        state = base.snapshot()
        state.next_iteration = index + 1
        save_state(state, root / f"sample_{index:04d}")
    # a rewrite of sample 2 stopped after moving the old state aside; one of
    # sample 3 stopped before removing it, and one of sample 1 mid-write
    os.rename(root / "sample_0002", root / ".sample_0002.old")
    save_state(base, root / ".sample_0003.old")
    save_state(base, root / ".sample_0001.tmp")
    assert load_samples(tmp_path).iterations == [1, 2, 3]
    assert sorted(os.listdir(root)) == ["sample_0001", "sample_0002", "sample_0003"]


def test_sample_dirs_by_index(tmp_path):
    base = unit_state((2, 2))
    root = tmp_path / "samples"
    for index in (1001, 10000, 2, 999):
        save_state(base, root / f"sample_{index:04d}")
    os.rename(root / "sample_0002", root / ".sample_0002.old")
    # neither a sample nor a stopped save's old directory: not listed
    for name in ("sample_notes", "sample_0003.old", ".sample_0004.tmp"):
        (root / name).mkdir()
    assert sample_dirs(tmp_path) == [str(root / f"sample_{index:04d}")
                                     for index in (2, 999, 1001, 10000)]
    assert (root / "sample_0002").is_dir() and not (root / ".sample_0002.old").exists()


def test_load_samples_missing_dir(tmp_path):
    with pytest.raises(ValueError, match="samples"):
        load_samples(tmp_path)
