import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocore.gibbs import (
    ChainConfig,
    MaskCorrections,
    lambda_conditional_params,
    location_log_weights,
    observed_rate_total,
    phi_conditional_params,
    pi_conditional_alphas,
    proportional_train_loglik,
    resample_location_subindex,
    run_chain,
    sample_lambda,
    sample_locations,
    sample_phi,
    sample_pi,
    thin_counts,
)
from allocore.state import (
    LOCATION_BLOCK,
    THIN_BLOCK,
    Hyperparameters,
    cell_rates,
    init_canonical,
    init_explicit,
    load_state,
    substream,
)
from allocore.tensors import FiberMask, SparseCountTensor, split


def no_mask(shape):
    return MaskCorrections(None, shape)


def random_instance(seed, shape=(6, 5, 4), Q=4, n=12, max_count=9):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, shape, size=(n, len(shape)))
    uniq = np.unique(cells, axis=0)
    train = SparseCountTensor(shape, uniq, rng.integers(1, max_count, len(uniq)))
    state = init_explicit(shape, (3, 4, 3)[: len(shape)], Q, "allocore",
                          Hyperparameters(f0=1.0), seed=seed)
    return train, state


class TestThinning:
    def test_single_class_takes_everything(self):
        train, state = random_instance(0, Q=1)
        state_q1 = init_explicit(train.shape, (3, 4, 3), 1, "allocore", seed=0)
        src = thin_counts(state_q1, train, substream(0, 1, THIN_BLOCK))
        assert np.array_equal(src.per_cell[:, 0], train.counts)

    def test_conservation_and_aggregates(self):
        train, state = random_instance(1)
        src = thin_counts(state, train, substream(1, 1, THIN_BLOCK))
        assert np.array_equal(src.per_cell.sum(axis=1), train.counts)
        assert np.array_equal(src.totals, src.per_cell.sum(axis=0))
        for m in range(3):
            marg = np.zeros_like(src.mode_marginals[m])
            for i, c in enumerate(train.coords):
                marg[c[m]] += src.per_cell[i]
            assert np.array_equal(marg, src.mode_marginals[m])
            assert src.mode_marginals[m].sum() == train.total()

    def test_equal_rates_split_is_even_in_expectation(self):
        # one cell, two classes with equal rates
        state = init_explicit((1, 1), (2, 2), 2, "allocore", seed=3)
        state.core_values[:] = 1.0
        for m in range(2):
            state.factors[m][:] = 1.0
        train = SparseCountTensor.from_entries((1, 1), {(0, 0): 5})
        rng = np.random.default_rng(7)
        draws = np.array([thin_counts(state, train, rng).per_cell[0]
                          for _ in range(4000)])
        assert np.array_equal(draws.sum(axis=1), np.full(4000, 5))
        se = np.sqrt(5 * 0.25 / 4000)
        assert abs(draws[:, 0].mean() - 2.5) < 4 * se

    def test_multinomial_mean_oracle(self):
        # y=4 split across rates (1, 3): E[y_1] = 4 * 1/4 = 1
        state = init_explicit((1, 1), (2, 2), 2, "allocore", seed=3)
        state.core_values[:] = [1.0, 3.0]
        for m in range(2):
            state.factors[m][:] = 1.0
        train = SparseCountTensor.from_entries((1, 1), {(0, 0): 4})
        rng = np.random.default_rng(11)
        total = 0
        n = 100_000
        for _ in range(n):
            total += thin_counts(state, train, rng).per_cell[0, 0]
        assert abs(total / n - 1.0) < 0.02

    def test_empty_train(self):
        state = init_canonical((3, 3), 2, seed=0)
        train = SparseCountTensor((3, 3), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        assert src.totals.sum() == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_conservation_property(self, seed):
        train, state = random_instance(seed)
        src = thin_counts(state, train, substream(seed, 1, THIN_BLOCK))
        assert np.array_equal(src.per_cell.sum(axis=1), train.counts)
        assert np.array_equal(src.factor_counts[0],
                              src.recompute_factor_counts(state)[0])


class TestAggregateConsistency:
    def test_incremental_matches_recompute_after_location_sweeps(self):
        train, state = random_instance(5, Q=6)
        corr = no_mask(train.shape)
        for it in range(1, 30):
            src = thin_counts(state, train, substream(9, it, THIN_BLOCK))
            sample_locations(state, src, corr, substream(9, it, LOCATION_BLOCK))
            recomputed = src.recompute_factor_counts(state)
            for m in range(3):
                assert np.array_equal(src.factor_counts[m], recomputed[m])
            sample_lambda(state, src, corr, substream(9, it, 3))
            sample_phi(state, src, corr, substream(9, it, 4))
            sample_pi(state, substream(9, it, 5))


class TestLambdaConditional:
    def test_no_data_unit_sums(self):
        state = init_explicit((2, 2), (2, 2), 1, "allocore", seed=0)
        for m in range(2):
            state.factors[m][:] = 0.5  # column sums 1
        train = SparseCountTensor((2, 2), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        shape, rate = lambda_conditional_params(state, src, no_mask((2, 2)))
        assert shape[0] == pytest.approx(1.0)
        assert rate[0] == pytest.approx(2.0)

    def test_conjugate_formula(self):
        # y_q = 10 with column sums (2, 3): Gamma(11, 1 + 6)
        state = init_explicit((2, 2), (2, 2), 1, "allocore", seed=0)
        state.factors[0][:] = 1.0
        state.factors[1][:] = 1.5
        train = SparseCountTensor.from_entries((2, 2), {(0, 0): 10})
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        shape, rate = lambda_conditional_params(state, src, no_mask((2, 2)))
        assert shape[0] == pytest.approx(11.0)
        assert rate[0] == pytest.approx(7.0)

    def test_draws_positive(self):
        train, state = random_instance(2)
        src = thin_counts(state, train, substream(2, 1, THIN_BLOCK))
        sample_lambda(state, src, no_mask(train.shape), substream(2, 1, 3))
        assert (state.core_values > 0).all()


class TestPhiConditional:
    def test_conjugate_formula(self):
        # y = 7 at the occupied entry, c = lambda * other-mode sum = 3
        state = init_explicit((1, 1), (1, 1), 1, "allocore", seed=0)
        state.core_values[:] = 3.0
        state.factors[1][:] = 1.0
        train = SparseCountTensor.from_entries((1, 1), {(0, 0): 7})
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        shape, rate = phi_conditional_params(state, src, no_mask((1, 1)), 0)
        assert shape[0, 0] == pytest.approx(8.0)
        assert rate[0, 0] == pytest.approx(13.0)

    def test_no_data_prior_plus_exposure(self):
        # Q=1, lambda=1, other-mode column sum 1: rate f0 + 1, mean 1/11
        state = init_explicit((1, 1), (1, 1), 1, "allocore", seed=0)
        state.core_values[:] = 1.0
        state.factors[1][:] = 1.0
        train = SparseCountTensor((1, 1), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        shape, rate = phi_conditional_params(state, src, no_mask((1, 1)), 0)
        assert shape[0, 0] == pytest.approx(1.0)
        assert rate[0, 0] == pytest.approx(11.0)
        assert 1.0 / 11.0 == pytest.approx(shape[0, 0] / rate[0, 0])

    def test_unoccupied_columns_fall_back_to_prior(self):
        train, state = random_instance(4, Q=1)
        src = thin_counts(state, train, substream(4, 1, THIN_BLOCK))
        shape, rate = phi_conditional_params(state, src, no_mask(train.shape), 0)
        k_used = state.core_locations[0, 0]
        for k in range(state.K[0]):
            if k != k_used:
                assert np.allclose(shape[:, k], state.hyper.e0)
                assert np.allclose(rate[:, k], state.hyper.f0)


class TestPiConditional:
    def test_alphas(self):
        state = init_explicit((2, 2), (2, 2), 3, "allocore",
                              Hyperparameters(alpha0=0.1), seed=0)
        state.core_locations[:, 0] = [1, 1, 1]
        alphas = pi_conditional_alphas(state, 0)
        assert np.allclose(alphas, [0.1, 3.1])
        mean = alphas / alphas.sum()
        assert np.allclose(mean, [0.1 / 3.2, 3.1 / 3.2])

    def test_single_component_simplex(self):
        state = init_explicit((2, 2), (1, 1), 2, "allocore", seed=0)
        sample_pi(state, substream(0, 1, 5))
        assert state.mode_priors[0] == pytest.approx([1.0])

    def test_mean_oracle(self):
        state = init_explicit((2, 2), (3, 3), 4, "allocore", seed=1)
        state.core_locations[:, 0] = [0, 0, 1, 2]
        alphas = pi_conditional_alphas(state, 0)
        want = alphas / alphas.sum()
        rng = np.random.default_rng(5)
        draws = np.array([rng.dirichlet(alphas) for _ in range(20_000)])
        var = want * (1 - want) / (alphas.sum() + 1)
        se = np.sqrt(var / 20_000)
        assert (np.abs(draws.mean(axis=0) - want) < 4 * se).all()


class TestLocationConditional:
    def test_single_candidate_never_moves(self):
        state = init_explicit((3, 3), (1, 1), 2, "allocore", seed=0)
        train = SparseCountTensor.from_entries((3, 3), {(0, 0): 4})
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = resample_location_subindex(state, src, no_mask((3, 3)), 0, 0, rng)
            assert k == 0

    def test_symmetric_state_uniform(self):
        # identical factor columns, uniform prior, no sources: uniform draw
        state = init_explicit((3, 3), (4, 4), 1, "allocore", seed=0)
        for m in range(2):
            state.factors[m][:] = 0.7
            state.mode_priors[m][:] = 0.25
        train = SparseCountTensor((3, 3), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        rng = np.random.default_rng(13)
        n = 50_000
        hits = np.zeros(4)
        for _ in range(n):
            hits[resample_location_subindex(state, src, no_mask((3, 3)),
                                            0, 0, rng)] += 1
        se = np.sqrt(0.25 * 0.75 / n)
        assert (np.abs(hits / n - 0.25) < 3.5 * se).all()

    def test_weights_match_direct_formula(self):
        train, state = random_instance(6, Q=3)
        src = thin_counts(state, train, substream(6, 1, THIN_BLOCK))
        corr = no_mask(train.shape)
        for q in range(3):
            for m in range(3):
                logw = location_log_weights(state, src, corr, q, m)
                lam = state.core_values[q]
                c = lam
                for mm in range(3):
                    if mm != m:
                        c *= state.factors[mm][:, state.core_locations[q, mm]].sum()
                for k in range(state.K[m]):
                    data = sum(src.mode_marginals[m][d, q]
                               * np.log(state.factors[m][d, k])
                               for d in range(state.shape[m]))
                    rate = c * state.factors[m][:, k].sum()
                    want = np.log(state.mode_priors[m][k]) + data - rate
                    assert logw[k] == pytest.approx(want, rel=1e-10)


class TestMaskCorrections:
    def _brute_setup(self, free_mode=2):
        shape = (3, 3, 2)
        rng = np.random.default_rng(0)
        cells = list(itertools.product(*[range(d) for d in shape]))
        counts = rng.integers(0, 4, size=len(cells))
        tensor = SparseCountTensor.from_entries(
            shape, [(c, int(v)) for c, v in zip(cells, counts) if v > 0])
        others = [m for m in range(3) if m != free_mode]
        all_stems = list(itertools.product(*[range(shape[m]) for m in others]))
        stems = np.array(all_stems[:-1])  # mask everything except one fiber
        mask = FiberMask(free_mode=free_mode, stems=stems)
        train, heldout = split(tensor, mask)
        state = init_explicit(shape, (2, 3, 2), 4, "allocore",
                              Hyperparameters(f0=1.0), seed=7)
        observed = sorted(set(cells) - {tuple(r) for r in heldout.coords})
        return shape, train, mask, state, observed

    @pytest.mark.parametrize("free_mode", [0, 1, 2])
    def test_rate_sums_match_direct_summation(self, free_mode):
        shape, train, mask, state, observed = self._brute_setup(free_mode)
        corr = MaskCorrections(mask, shape)
        src = thin_counts(state, train, substream(1, 1, THIN_BLOCK))

        # total observed rate
        brute_total = sum(cell_rates(state, np.array([c]))[0].sum()
                          for c in observed)
        assert observed_rate_total(state, corr) == pytest.approx(
            brute_total, rel=1e-12)

        # lambda rates
        _, rate = lambda_conditional_params(state, src, corr)
        for q in range(state.Q):
            s = sum(np.prod([state.factors[m][c[m], state.core_locations[q, m]]
                             for m in range(3)]) for c in observed)
            assert rate[q] == pytest.approx(state.hyper.b0 + s, rel=1e-12)

        # phi rates
        for m in range(3):
            _, rate_m = phi_conditional_params(state, src, corr, m)
            for d in range(shape[m]):
                for k in range(state.K[m]):
                    c_sum = 0.0
                    for q in range(state.Q):
                        if state.core_locations[q, m] != k:
                            continue
                        s = sum(
                            np.prod([state.factors[mm][c[mm],
                                                       state.core_locations[q, mm]]
                                     for mm in range(3) if mm != m])
                            for c in observed if c[m] == d)
                        c_sum += state.core_values[q] * s
                    assert rate_m[d, k] == pytest.approx(
                        state.hyper.f0 + c_sum, rel=1e-11, abs=1e-12)

        # location conditionals
        for q in range(state.Q):
            for m in range(3):
                logw = location_log_weights(state, src, corr, q, m)
                for k in range(state.K[m]):
                    rate_term = 0.0
                    data = 0.0
                    for d in range(shape[m]):
                        c_dq = sum(
                            state.core_values[q]
                            * np.prod([state.factors[mm][c[mm],
                                                         state.core_locations[q, mm]]
                                       for mm in range(3) if mm != m])
                            for c in observed if c[m] == d)
                        rate_term += state.factors[m][d, k] * c_dq
                        data += (src.mode_marginals[m][d, q]
                                 * np.log(state.factors[m][d, k]))
                    want = np.log(state.mode_priors[m][k]) + data - rate_term
                    assert logw[k] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_empty_mask_equals_uncorrected(self):
        train, state = random_instance(8)
        src = thin_counts(state, train, substream(8, 1, THIN_BLOCK))
        empty = FiberMask(free_mode=0, stems=np.zeros((0, 2), dtype=np.int64))
        for corr in (no_mask(train.shape), MaskCorrections(empty, train.shape)):
            assert not corr.active
            s1, r1 = lambda_conditional_params(state, src, corr)
            s0, r0 = lambda_conditional_params(state, src, no_mask(train.shape))
            assert np.array_equal(s1, s0) and np.array_equal(r1, r0)

    @pytest.mark.parametrize("shape", [(4, 3, 5, 2), (3, 4, 2, 3, 2)])
    def test_mode_weights_for_all_q_equal_one_q_at_a_time(self, shape):
        M, Q = len(shape), 5
        rng = np.random.default_rng(M)
        state = init_explicit(shape, (2,) * M, Q, "allocore",
                              Hyperparameters(f0=1.0), seed=M)
        for f in state.factors:
            f *= rng.gamma(0.5, 1.0, size=f.shape)
        colsums = [f.sum(axis=0) for f in state.factors]
        for free_mode in range(M):
            others = [d for m, d in enumerate(shape) if m != free_mode]
            stems = np.unique(rng.integers(0, others, size=(12, M - 1)), axis=0)
            corr = MaskCorrections(FiberMask(free_mode=free_mode, stems=stems), shape)
            s_free = colsums[free_mode][state.core_locations[:, free_mode]]
            totals = [corr.mode_weights(state, q, free_mode, colsums)[0] * s_free[q]
                      for q in range(Q)]
            assert np.array_equal(corr.masked_rate_totals(state, colsums), totals)
            for m in range(M):
                all_q = corr.mode_weights(state, np.arange(Q), m, colsums)
                assert all_q.shape == (Q, shape[m])
                loop = np.zeros((shape[m], 2))
                for q in range(Q):
                    one = corr.mode_weights(state, q, m, colsums)
                    assert np.array_equal(all_q[q], one)
                    loop[:, state.core_locations[q, m]] += state.core_values[q] * one
                assert np.array_equal(corr.phi_corrections(state, m, colsums), loop)


class TestChainConfig:
    def test_defaults_give_canonical_sample_count(self):
        cfg = ChainConfig()
        assert (cfg.burn_in, cfg.total, cfg.thin) == (1000, 4000, 20)
        assert cfg.n_samples == 200

    def test_thin_must_divide(self):
        with pytest.raises(ValueError):
            ChainConfig(total=10, thin=3)

    def test_freeze_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(freeze=frozenset({"bogus"}))


class TestRunChain:
    def test_sample_count(self):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=0, total=40, thin=20, log_every=0)
        post = run_chain(train, None, state, cfg)
        assert post.S == 2
        assert post.iterations == [20, 40]

    def test_determinism(self):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=2, total=4, thin=2, log_every=0)
        a = run_chain(train, None, state, cfg)
        b = run_chain(train, None, state, cfg)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.core_values, sb.core_values)
            assert np.array_equal(sa.core_locations, sb.core_locations)
            for m in range(3):
                assert np.array_equal(sa.factors[m], sb.factors[m])

    def test_resume_matches_uninterrupted(self, tmp_path):
        train, state = random_instance(3)
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        full_cfg = ChainConfig(burn_in=2, total=4, thin=1, log_every=0)
        run_chain(train, None, state, full_cfg, out_dir=str(full_dir))

        run_chain(train, None, state,
                  ChainConfig(burn_in=2, total=2, thin=1, log_every=0),
                  out_dir=str(part_dir))
        resumed = load_state(part_dir / "checkpoint")
        run_chain(train, None, resumed, full_cfg, out_dir=str(part_dir))

        for idx in range(1, 5):
            a = load_state(full_dir / "samples" / f"sample_{idx:04d}")
            b = load_state(part_dir / "samples" / f"sample_{idx:04d}")
            assert np.array_equal(a.core_values, b.core_values)
            assert np.array_equal(a.core_locations, b.core_locations)
            for m in range(3):
                assert np.array_equal(a.factors[m], b.factors[m])
        assert not (part_dir / "INCOMPLETE").exists()

    def test_resume_after_kill_between_checkpoints_keeps_log_rows_once(
            self, tmp_path):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=0, total=6, thin=2)
        run_chain(train, None, state, cfg, out_dir=str(tmp_path / "full"))

        def kill_at_4(it, snap):
            if it == 4:
                raise RuntimeError("killed")

        part = tmp_path / "part"
        with pytest.raises(RuntimeError, match="killed"):
            run_chain(train, None, state, cfg, out_dir=str(part),
                      sample_sink=kill_at_4)
        resumed = load_state(part / "checkpoint")
        assert resumed.next_iteration == 3
        run_chain(train, None, resumed, cfg, out_dir=str(part))

        def rows(run):
            lines = (tmp_path / run / "chain_log.tsv").read_text().splitlines()
            return [line.split("\t")[:2] for line in lines[2:]]
        assert rows("part") == rows("full")
        assert [r[0] for r in rows("full")] == [str(i) for i in range(1, 7)]

    def test_chain_log_written(self, tmp_path):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=1, total=2, thin=1)
        run_chain(train, None, state, cfg, out_dir=str(tmp_path / "run"))
        lines = (tmp_path / "run" / "chain_log.tsv").read_text().splitlines()
        assert lines[0].startswith("# sweep=thin,locations,lambda,phi,pi")
        assert lines[1].split("\t")[:3] == ["iteration", "loglik", "q_eff"]
        assert len(lines) == 2 + 3

    def test_mismatched_shapes_rejected(self):
        train, _ = random_instance(3)
        state = init_canonical((2, 2), 2, seed=0)
        with pytest.raises(ValueError):
            run_chain(train, None, state, ChainConfig(burn_in=0, total=1, thin=1))

    def test_bad_out_dir_raises(self, tmp_path):
        train, state = random_instance(3)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            run_chain(train, None, state,
                      ChainConfig(burn_in=0, total=1, thin=1),
                      out_dir=str(blocker / "run"))

    def test_frozen_blocks_stay_fixed(self):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=0, total=2, thin=2, log_every=0,
                          freeze=frozenset({"phi", "pi", "locations"}))
        post = run_chain(train, None, state, cfg)
        final = post.samples[-1]
        for m in range(3):
            assert np.array_equal(final.factors[m], state.factors[m])
            assert np.array_equal(final.mode_priors[m], state.mode_priors[m])
        assert np.array_equal(final.core_locations, state.core_locations)
        assert not np.array_equal(final.core_values, state.core_values)

    def test_locked_modes_skip_location_updates(self):
        train, _ = random_instance(3)
        state = init_canonical(train.shape, 3, seed=5, core_mode="cp_locked")
        cfg = ChainConfig(burn_in=0, total=3, thin=3, log_every=0)
        post = run_chain(train, None, state, cfg)
        assert np.array_equal(post.samples[-1].core_locations,
                              state.core_locations)


class TestScaling:
    def test_doubling_budget_scales_linearly(self):
        rng = np.random.default_rng(10)
        shape = (25, 25, 25)
        cells = np.unique(rng.integers(0, 25, size=(2600, 3)), axis=0)[:2000]
        train = SparseCountTensor(shape, cells,
                                  rng.integers(1, 5, size=len(cells)))

        def per_iter(q):
            init = init_canonical(shape, q, seed=1)
            cfg = ChainConfig(burn_in=0, total=5, thin=5, log_every=0)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_chain(train, None, init, cfg)
                best = min(best, (time.perf_counter() - t0) / 5)
            return best

        ratio = per_iter(100) / per_iter(50)
        assert 1.6 <= ratio <= 2.6

    def test_huge_latent_space_is_cheap(self):
        # Q-sized structures only; a sweep through a 50^4-cell latent space
        # stays fast because nothing of core size is ever built
        rng = np.random.default_rng(4)
        shape = (30, 30, 30, 30)
        cells = np.unique(rng.integers(0, 30, size=(110, 4)), axis=0)[:100]
        train = SparseCountTensor(shape, cells, np.ones(100, dtype=np.int64))
        state = init_explicit(shape, (50, 50, 50, 50), 20, "allocore", seed=2)
        t0 = time.perf_counter()
        run_chain(train, None, state,
                  ChainConfig(burn_in=0, total=1, thin=1, log_every=0))
        assert time.perf_counter() - t0 < 1.0

    def test_dense_mode_rejected_at_same_scale(self):
        with pytest.raises(ValueError, match="exceeds"):
            init_explicit((30, 30, 30, 30), (50, 50, 50, 50), 20,
                          "tucker_dense", seed=2)


class TestTrainLoglik:
    def test_empty_tensor_is_negative_total_rate(self):
        state = init_canonical((3, 3), 2, seed=0)
        train = SparseCountTensor((3, 3), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        ll = proportional_train_loglik(state, train, no_mask((3, 3)))
        assert ll == pytest.approx(-observed_rate_total(state))
