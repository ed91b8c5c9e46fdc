import itertools
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocore import state as state_module
from allocore.gibbs import (
    ChainConfig,
    MaskCorrections,
    lambda_conditional_params,
    location_log_weights,
    observed_rate_total,
    phi_conditional_params,
    pi_conditional_alphas,
    proportional_train_loglik,
    read_chain_log,
    run_chain,
    sample_lambda,
    sample_locations,
    sample_phi,
    sample_pi,
    thin_counts,
)
from allocore.state import (
    LAMBDA_BLOCK,
    LOCATION_BLOCK,
    PHI_BLOCK,
    PI_BLOCK,
    THIN_BLOCK,
    TINY,
    Hyperparameters,
    cell_rates,
    init_canonical,
    init_explicit,
    load_state,
    reconstruct_cells,
    row_blocks,
    save_state,
    substream,
)
from allocore.tensors import FiberMask, SparseCountTensor, split, write_coo

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def no_mask():
    return MaskCorrections(None)


def random_instance(seed, shape=(6, 5, 4), Q=4, n=12, max_count=9):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, shape, size=(n, len(shape)))
    uniq = np.unique(cells, axis=0)
    train = SparseCountTensor(shape, uniq, rng.integers(1, max_count, len(uniq)))
    state = init_explicit(shape, (3, 4, 3)[: len(shape)], Q, "allocore",
                          Hyperparameters(f0=1.0), seed=seed)
    return train, state


class RecordingRng:
    """Delegates to a generator and keeps the n and p of every binomial
    call, so two thinning algorithms can be shown to consume one stream."""

    def __init__(self, seed):
        self.rng = substream(seed, 1, THIN_BLOCK)
        self.calls = []

    def binomial(self, n, p):
        self.calls.append((np.array(n), np.array(p)))
        return self.rng.binomial(n, p)


def cell_major_thin(state, train, rng):
    """Reference: thinning on (nnz, Q) tables as it was first written, with
    a reversed-row cumsum for the suffixes, one binomial per column and
    np.add.at marginals."""
    Q = state.Q
    per_cell = np.zeros((train.nnz, Q), dtype=np.int64)
    p = cell_rates(state, train.coords).T
    suffix = np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
    np.divide(p, suffix, out=p, where=suffix > 0)
    remaining = train.counts.copy()
    for q in range(Q - 1):
        draw = rng.binomial(remaining, np.ascontiguousarray(p[:, q]))
        per_cell[:, q] = draw
        remaining -= draw
    per_cell[:, Q - 1] = remaining
    marginals = []
    for m, d in enumerate(state.shape):
        marg = np.zeros((d, Q), dtype=np.int64)
        np.add.at(marg, train.coords[:, m], per_cell)
        marginals.append(marg)
    return per_cell, per_cell.sum(axis=0), marginals


def assert_thins_like_cell_major(state, train, seed):
    got_rng, ref_rng = RecordingRng(seed), RecordingRng(seed)
    src = thin_counts(state, train, got_rng)
    per_cell, totals, marginals = cell_major_thin(state, train, ref_rng)
    assert len(got_rng.calls) == len(ref_rng.calls) == state.Q - 1
    for (n, p), (n_ref, p_ref) in zip(got_rng.calls, ref_rng.calls):
        assert np.array_equal(n, n_ref) and np.array_equal(p, p_ref)
    pairs = [(src.per_cell, per_cell), (src.totals, totals)]
    pairs += list(zip(src.mode_marginals, marginals, strict=True))
    for got, want in pairs:
        assert got.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)
    return src


def peak_instance():
    """60,000 non-zeros at Q = 64: one nnz x Q table is 30.7 MB, far above
    the block-sized temporaries."""
    rng = np.random.default_rng(0)
    shape, Q = (100, 100, 20), 64
    keys = np.sort(rng.choice(np.prod(shape), size=60_000, replace=False))
    cells = np.stack(np.unravel_index(keys, shape), axis=1)
    train = SparseCountTensor(shape, cells, rng.integers(1, 40, len(cells)))
    return train, init_canonical(shape, Q, seed=0)


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

    def test_underflowed_last_rate_gets_no_sources(self):
        # the last class sits on factor columns at TINY in both modes, so its
        # rate TINY**2 underflows to 0 and so does its suffix sum
        state = init_explicit((1, 1), (2, 2), 2, "allocore", seed=0)
        state.core_locations[:] = [[0, 0], [1, 1]]
        for m in range(2):
            state.factors[m][:] = [[1.0, TINY]]
        train = SparseCountTensor.from_entries((1, 1), {(0, 0): 6})
        assert cell_rates(state, train.coords)[1, 0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        assert np.array_equal(src.per_cell, [[6, 0]])
        assert np.array_equal(src.totals, [6, 0])

    @pytest.mark.parametrize("M", [2, 3, 4])
    # with blocks of 5 rows the rate table's fill (in half blocks, 2 rows)
    # crosses block boundaries, the last block short; with counts of 1-2
    # most class rows draw nothing and some classes no count at all
    @pytest.mark.parametrize("Q, block_rows, max_count", [
        pytest.param(Q, rows, 60, id=str(Q) if rows is None else f"{Q}-blocks{rows}")
        for Q in (1, 2, 7, 40) for rows in (None, 5)]
        + [pytest.param(40, None, 2, id="40-lowcount")])
    def test_equals_cell_major_reference(self, M, Q, block_rows, max_count,
                                         monkeypatch):
        rng = np.random.default_rng(100 * M + Q)
        shape = tuple(int(d) for d in rng.integers(3, 9, size=M))
        cells = np.unique(rng.integers(0, shape, size=(80, M)), axis=0)
        counts = rng.integers(1, max_count + 1, len(cells))
        train = SparseCountTensor(shape, cells, counts)
        state = init_explicit(shape, (3, 4, 3, 2)[:M], Q, "allocore", seed=M)
        state.core_values[:] = rng.gamma(0.5, 1.0, Q)
        if block_rows is not None:
            monkeypatch.setattr(state_module, "_BLOCK_BYTES", 8 * Q * block_rows)
            assert len(list(row_blocks(train.nnz, Q))) > 2
        src = assert_thins_like_cell_major(state, train, seed=Q)
        if max_count == 2:
            assert (src.totals == 0).any()
            assert np.count_nonzero(src.per_cell) <= 0.05 * src.per_cell.size

    def test_equals_cell_major_reference_on_empty_and_underflowed(self):
        # class 0 has rate 1 everywhere; classes 1 and 2 sit on factor
        # columns that are TINY in mode 1, and in mode 0 at rows 0 and 2,
        # so there both their rates and their suffix sums underflow to 0
        state = init_explicit((3, 2), (2, 2), 3, "allocore", seed=0)
        state.core_locations[:] = [[0, 0], [1, 1], [1, 1]]
        state.core_values[:] = [1.0, 2.0, 3.0]
        state.factors[0][:] = [[1.0, TINY], [1.0, 1.0], [1.0, TINY]]
        state.factors[1][:] = [[1.0, TINY], [1.0, TINY]]
        train = SparseCountTensor.from_entries(
            (3, 2), {(0, 0): 6, (0, 1): 2, (1, 0): 9, (1, 1): 1, (2, 1): 4})
        suffix = cell_rates(state, train.coords)[1:].sum(axis=0)
        assert (suffix == 0).any() and (suffix > 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_thins_like_cell_major(state, train, seed=0)
        empty = SparseCountTensor((3, 2), np.zeros((0, 2), dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        assert_thins_like_cell_major(state, empty, seed=0)

    def test_peak_allocation_is_one_table(self, traced_peak):
        # the draws are written over the rate table's spent rows
        train, state = peak_instance()
        peak = traced_peak(thin_counts, state, train, substream(0, 1, THIN_BLOCK))
        assert peak <= 1.25 * train.nnz * state.Q * 8

    def test_rate_table_calls_peak_at_one_table(self, traced_peak):
        # the table is filled in row blocks, so no full-size gather runs
        # beside it; the totals are summed block by block, with no table
        train, state = peak_instance()
        table = train.nnz * state.Q * 8
        assert traced_peak(cell_rates, state, train.coords) <= 1.25 * table
        assert traced_peak(reconstruct_cells, state, train.coords) <= 0.1 * table
        assert traced_peak(proportional_train_loglik, state, train) <= 0.1 * table


class TestAggregateConsistency:
    def test_phi_shape_groups_sources_by_current_locations(self):
        train, state = random_instance(5, Q=6)
        corr = no_mask()
        for it in range(1, 30):
            src = thin_counts(state, train, substream(9, it, THIN_BLOCK))
            sample_locations(state, src, corr, substream(9, it, LOCATION_BLOCK))
            for m in range(3):
                grouped = np.zeros((train.shape[m], state.K[m]))
                for i, c in enumerate(train.coords):
                    for q in range(state.Q):
                        grouped[c[m], state.core_locations[q, m]] += src.per_cell[i, q]
                shape, _ = phi_conditional_params(state, src, corr, m)
                assert np.array_equal(shape, state.hyper.e0 + grouped)
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
        shape, rate = lambda_conditional_params(state, src, no_mask())
        assert shape[0] == pytest.approx(1.0)
        assert rate[0] == pytest.approx(2.0)

    def test_conjugate_formula(self):
        # y_q = 10 with column sums (2, 3): Gamma(11, 1 + 6)
        state = init_explicit((2, 2), (2, 2), 1, "allocore", seed=0)
        state.factors[0][:] = 1.0
        state.factors[1][:] = 1.5
        train = SparseCountTensor.from_entries((2, 2), {(0, 0): 10})
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        shape, rate = lambda_conditional_params(state, src, no_mask())
        assert shape[0] == pytest.approx(11.0)
        assert rate[0] == pytest.approx(7.0)

    def test_draws_positive(self):
        train, state = random_instance(2)
        src = thin_counts(state, train, substream(2, 1, THIN_BLOCK))
        sample_lambda(state, src, no_mask(), substream(2, 1, 3))
        assert (state.core_values > 0).all()


class TestPhiConditional:
    def test_conjugate_formula(self):
        # y = 7 at the occupied entry, c = lambda * other-mode sum = 3
        state = init_explicit((1, 1), (1, 1), 1, "allocore", seed=0)
        state.core_values[:] = 3.0
        state.factors[1][:] = 1.0
        train = SparseCountTensor.from_entries((1, 1), {(0, 0): 7})
        src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))
        shape, rate = phi_conditional_params(state, src, no_mask(), 0)
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
        shape, rate = phi_conditional_params(state, src, no_mask(), 0)
        assert shape[0, 0] == pytest.approx(1.0)
        assert rate[0, 0] == pytest.approx(11.0)
        assert 1.0 / 11.0 == pytest.approx(shape[0, 0] / rate[0, 0])

    def test_unoccupied_columns_fall_back_to_prior(self):
        train, state = random_instance(4, Q=1)
        src = thin_counts(state, train, substream(4, 1, THIN_BLOCK))
        shape, rate = phi_conditional_params(state, src, no_mask(), 0)
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
            sample_locations(state, src, no_mask(), rng)
            assert (state.core_locations == 0).all()

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
        corr = no_mask()
        for _ in range(n):
            sample_locations(state, src, corr, rng)
            hits[state.core_locations[0, 0]] += 1
        se = np.sqrt(0.25 * 0.75 / n)
        assert (np.abs(hits / n - 0.25) < 3.5 * se).all()

    def test_weights_match_direct_formula(self):
        train, state = random_instance(6, Q=3)
        src = thin_counts(state, train, substream(6, 1, THIN_BLOCK))
        corr = no_mask()
        for q in range(3):
            for m in range(3):
                logw = location_log_weights(state, src, corr, m)[q]
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


def q_major_location_sweep(state, sources, corrections, rng):
    """Reference location sweep, q by q and within q mode by mode: each
    sub-index reads its conditional from the current state and draws one
    uniform, normalised and searched as a single categorical."""
    for q in range(state.Q):
        for m in range(state.M):
            logw = location_log_weights(state, sources, corrections, m)[q]
            w = np.exp(logw - logw.max())
            p = w / w.sum()
            k = np.searchsorted(np.cumsum(p), rng.random(), side="right")
            state.core_locations[q, m] = min(k, len(p) - 1)


class TestLocationSweepOrder:
    @pytest.mark.parametrize("shape", [(6, 5, 4), (5, 4, 3, 4)])
    def test_all_q_sweep_equals_q_major_reference(self, shape):
        M = len(shape)
        rng = np.random.default_rng(M)
        cells = np.unique(rng.integers(0, shape, size=(60, M)), axis=0)
        tensor = SparseCountTensor(shape, cells, rng.integers(1, 9, len(cells)))
        moves = 0
        for free_mode in range(M):
            others = [d for m, d in enumerate(shape) if m != free_mode]
            stems = np.unique(rng.integers(0, others, size=(4, M - 1)), axis=0)
            mask = FiberMask(free_mode=free_mode, stems=stems)
            train, _ = split(tensor, mask)
            corr = MaskCorrections(mask)
            assert corr.active
            state = init_explicit(shape, (3, 4, 3, 2)[:M], 6, "allocore",
                                  Hyperparameters(f0=1.0), seed=free_mode)
            for it in range(1, 6):
                src = thin_counts(state, train, substream(M, it, THIN_BLOCK))
                ref = state.snapshot()
                q_major_location_sweep(ref, src, corr, substream(M, it, LOCATION_BLOCK))
                before = state.core_locations.copy()
                sample_locations(state, src, corr, substream(M, it, LOCATION_BLOCK))
                assert np.array_equal(state.core_locations, ref.core_locations)
                moves += np.count_nonzero(state.core_locations != before)
                sample_lambda(state, src, corr, substream(M, it, LAMBDA_BLOCK))
                sample_phi(state, src, corr, substream(M, it, PHI_BLOCK))
                sample_pi(state, substream(M, it, PI_BLOCK))
        assert moves > 0


class TestMaskCorrections:
    def _brute_setup(self, free_mode=2, shape=(3, 3, 2)):
        M = len(shape)
        rng = np.random.default_rng(0)
        cells = list(itertools.product(*[range(d) for d in shape]))
        counts = rng.integers(0, 4, size=len(cells))
        tensor = SparseCountTensor.from_entries(
            shape, [(c, int(v)) for c, v in zip(cells, counts) if v > 0])
        others = [m for m in range(M) if m != free_mode]
        all_stems = list(itertools.product(*[range(shape[m]) for m in others]))
        stems = np.array(all_stems[:-1])  # mask everything except one fiber
        mask = FiberMask(free_mode=free_mode, stems=stems)
        train, heldout = split(tensor, mask)
        state = init_explicit(shape, (2, 3, 2, 2)[:M], 4, "allocore",
                              Hyperparameters(f0=1.0), seed=7)
        observed = sorted(set(cells) - {tuple(r) for r in heldout.coords})
        return shape, train, mask, state, observed

    @pytest.mark.parametrize("shape, free_mode", [
        pytest.param((3, 3, 2), 0, id="0"),
        pytest.param((3, 3, 2), 1, id="1"),
        pytest.param((3, 3, 2), 2, id="2"),
        # one stem mode, whose mode weights take the empty stem product
        pytest.param((4, 5), 0, id="two-modes-0"),
        pytest.param((4, 5), 1, id="two-modes-1"),
        # three stem modes, so leaving one out can skip a middle one
        pytest.param((3, 3, 2, 2), 0, id="four-modes-0"),
        pytest.param((3, 3, 2, 2), 3, id="four-modes-3"),
    ])
    def test_rate_sums_match_direct_summation(self, shape, free_mode):
        shape, train, mask, state, observed = self._brute_setup(free_mode, shape)
        M = len(shape)
        corr = MaskCorrections(mask)
        src = thin_counts(state, train, substream(1, 1, THIN_BLOCK))

        def others_product(q, c, skip=-1):
            return np.prod([state.factors[mm][c[mm], state.core_locations[q, mm]]
                            for mm in range(M) if mm != skip])

        # total observed rate
        brute_total = sum(cell_rates(state, np.array([c]))[:, 0].sum()
                          for c in observed)
        assert observed_rate_total(state, corr) == pytest.approx(
            brute_total, rel=1e-12)

        # lambda rates
        _, rate = lambda_conditional_params(state, src, corr)
        for q in range(state.Q):
            s = sum(others_product(q, c) for c in observed)
            assert rate[q] == pytest.approx(state.hyper.b0 + s, rel=1e-12)

        # phi rates
        for m in range(M):
            _, rate_m = phi_conditional_params(state, src, corr, m)
            for d in range(shape[m]):
                for k in range(state.K[m]):
                    c_sum = 0.0
                    for q in range(state.Q):
                        if state.core_locations[q, m] != k:
                            continue
                        s = sum(others_product(q, c, m)
                                for c in observed if c[m] == d)
                        c_sum += state.core_values[q] * s
                    assert rate_m[d, k] == pytest.approx(
                        state.hyper.f0 + c_sum, rel=1e-11, abs=1e-12)

        # location conditionals
        for q in range(state.Q):
            for m in range(M):
                logw = location_log_weights(state, src, corr, m)[q]
                for k in range(state.K[m]):
                    rate_term = 0.0
                    data = 0.0
                    for d in range(shape[m]):
                        c_dq = sum(state.core_values[q] * others_product(q, c, m)
                                   for c in observed if c[m] == d)
                        rate_term += state.factors[m][d, k] * c_dq
                        data += (src.mode_marginals[m][d, q]
                                 * np.log(state.factors[m][d, k]))
                    want = np.log(state.mode_priors[m][k]) + data - rate_term
                    assert logw[k] == pytest.approx(want, rel=1e-9, abs=1e-9)

        # a short masked chain
        post = run_chain(train, mask, state, ChainConfig(burn_in=1, total=4, thin=2))
        assert post.iterations == [3, 5]
        for sample in post.samples:
            sample.validate()
            assert np.isfinite(observed_rate_total(sample, corr))

    def test_stem_sums_run_over_c_ordered_rows(self):
        # NumPy sums a C-ordered row pairwise; any other layout of the
        # (Q, S) product, or a sequential sum, changes the last bits
        shape, Q, free_mode = (30, 20, 6), 7, 2
        rng = np.random.default_rng(3)
        state = init_explicit(shape, (4, 5, 3), Q, "allocore",
                              Hyperparameters(f0=1.0), seed=3)
        for f in state.factors:
            f *= rng.gamma(0.3, 1.0, size=f.shape)
        stems = np.unique(rng.integers(0, (30, 20), size=(400, 2)), axis=0)
        assert len(stems) >= 200
        corr = MaskCorrections(FiberMask(free_mode=free_mode, stems=stems))
        kappa = state.core_locations
        ref = np.empty((Q, len(stems)), order="F")
        for q in range(Q):
            for s, (i, j) in enumerate(stems):
                ref[q, s] = (state.factors[0][i, kappa[q, 0]]
                             * state.factors[1][j, kappa[q, 1]])
        want = np.ascontiguousarray(ref).sum(axis=1)
        assert not np.array_equal(ref.sum(axis=1), want)
        colsums = [f.sum(axis=0) for f in state.factors]
        s_free = colsums[free_mode][kappa[:, free_mode]]
        assert np.array_equal(corr.masked_rate_totals(state, colsums), want * s_free)
        w = corr.mode_weights(state, free_mode, colsums)
        assert np.array_equal(w, np.broadcast_to(want[:, None], w.shape))

    def test_corrections_peak_at_two_stem_tables(self, traced_peak):
        # each call gathers only the (Q, S) columns it multiplies, and the
        # stem-mode weights bincount the product one class row at a time
        shape, Q = (60, 60, 10), 64
        rng = np.random.default_rng(4)
        stems = np.unique(rng.integers(0, 60, size=(3000, 2)), axis=0)
        state = init_canonical(shape, Q, seed=4)
        corr = MaskCorrections(FiberMask(free_mode=2, stems=stems))
        colsums = [f.sum(axis=0) for f in state.factors]
        table = Q * len(stems) * 8
        assert traced_peak(corr.masked_rate_totals, state, colsums) <= 2.1 * table
        assert traced_peak(corr.mode_weights, state, 0, colsums) <= 2.1 * table

    def test_empty_mask_equals_uncorrected(self):
        train, state = random_instance(8)
        src = thin_counts(state, train, substream(8, 1, THIN_BLOCK))
        empty = FiberMask(free_mode=0, stems=np.zeros((0, 2), dtype=np.int64))
        for corr in (no_mask(), MaskCorrections(empty)):
            assert not corr.active
            s1, r1 = lambda_conditional_params(state, src, corr)
            s0, r0 = lambda_conditional_params(state, src, no_mask())
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
            corr = MaskCorrections(FiberMask(free_mode=free_mode, stems=stems))
            s_free = colsums[free_mode][state.core_locations[:, free_mode]]
            w_free = corr.mode_weights(state, free_mode, colsums)
            totals = [w_free[q, 0] * s_free[q] for q in range(Q)]
            assert np.array_equal(corr.masked_rate_totals(state, colsums), totals)
            for m in range(M):
                w = corr.mode_weights(state, m, colsums)
                assert w.shape == (Q, shape[m])
                loop = np.zeros((shape[m], 2))
                for q in range(Q):
                    loop[:, state.core_locations[q, m]] += state.core_values[q] * w[q]
                assert np.array_equal(corr.phi_corrections(state, m, colsums), loop)


class TestChainConfig:
    def test_defaults_give_canonical_sample_count(self):
        cfg = ChainConfig()
        assert (cfg.burn_in, cfg.total, cfg.thin) == (1000, 4000, 20)

    def test_thin_must_divide(self):
        with pytest.raises(ValueError):
            ChainConfig(total=10, thin=3)


class TestRunChain:
    def test_sample_count(self):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=0, total=40, thin=20)
        post = run_chain(train, None, state, cfg)
        assert post.S == 2
        assert post.iterations == [20, 40]

    def test_iterations_follow_states(self):
        train, state = random_instance(3)
        post = run_chain(train, None, state, ChainConfig(burn_in=1, total=4, thin=2))
        assert post.iterations == [3, 5]
        post.samples[0].next_iteration = 8
        post.samples.append(post.samples[1].snapshot())
        assert post.iterations == [7, 5, 5]

    def test_determinism(self):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=2, total=4, thin=2)
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
        full_cfg = ChainConfig(burn_in=2, total=4, thin=1)
        run_chain(train, None, state, full_cfg, out_dir=str(full_dir))

        run_chain(train, None, state,
                  ChainConfig(burn_in=2, total=2, thin=1),
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

    def test_resume_after_hard_kill_keeps_log_rows(self, tmp_path):
        # SIGKILL runs no finally and flushes no buffer: the rows before the
        # checkpoint reach the disk only if run_chain wrote them out itself
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=0, total=6, thin=2)
        run_chain(train, None, state, cfg, out_dir=str(tmp_path / "full"))

        write_coo(train, tmp_path / "train.coo")
        save_state(state, tmp_path / "init")
        script = "\n".join([
            "import os, signal, sys",
            "from allocore import gibbs, state, tensors",
            "def kill_at_4(it, snap):",
            "    if it == 4:",
            "        os.kill(os.getpid(), signal.SIGKILL)",
            "gibbs.run_chain(tensors.load_coo(sys.argv[1]), None,",
            "                state.load_state(sys.argv[2]),",
            "                gibbs.ChainConfig(burn_in=0, total=6, thin=2),",
            "                out_dir=sys.argv[3], sample_sink=kill_at_4)",
        ])
        part = tmp_path / "part"
        killed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "train.coo"),
             str(tmp_path / "init"), str(part)],
            env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
        assert killed.returncode == -signal.SIGKILL
        resumed = load_state(part / "checkpoint")
        assert resumed.next_iteration == 3
        run_chain(train, None, resumed, cfg, out_dir=str(part))

        def rows(run):
            lines = (tmp_path / run / "chain_log.tsv").read_text().splitlines()
            return [line.split("\t")[:2] for line in lines[2:]]
        assert rows("part") == rows("full")
        assert [r[0] for r in rows("full")] == [str(i) for i in range(1, 7)]

    def test_resume_drops_a_cut_last_log_row(self, tmp_path):
        # the write buffer can flush partway through a row: a kill after the
        # checkpoint at sweep 10 leaves row 11 cut after its first digit
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=0, total=20, thin=10)
        run_chain(train, None, state, cfg, out_dir=str(tmp_path / "full"))
        part = tmp_path / "part"
        run_chain(train, None, state, ChainConfig(burn_in=0, total=10, thin=10),
                  out_dir=str(part))
        with open(part / "chain_log.tsv", "a") as f:
            f.write("1")
        resumed = load_state(part / "checkpoint")
        assert resumed.next_iteration == 11
        run_chain(train, None, resumed, cfg, out_dir=str(part))

        def rows(run):
            lines = (tmp_path / run / "chain_log.tsv").read_text().splitlines()
            return [line.split("\t")[:2] for line in lines[2:]]
        assert rows("part") == rows("full")
        assert [r[0] for r in rows("part")] == [str(i) for i in range(1, 21)]

    def test_log_rows_on_disk_before_each_sample(self, tmp_path):
        # sweep 7 saves sample 1 but no checkpoint; a process that dies
        # right after that save must still leave row 7 in the log
        train, state = random_instance(3)
        write_coo(train, tmp_path / "train.coo")
        save_state(state, tmp_path / "init")
        script = "\n".join([
            "import os, sys",
            "from allocore import gibbs, state, tensors",
            "save = gibbs.save_state",
            "def save_then_exit(st, *dirs):",
            "    save(st, *dirs)",
            "    if str(dirs[0]).endswith('sample_0001'):",
            "        os._exit(0)",
            "gibbs.save_state = save_then_exit",
            "gibbs.run_chain(tensors.load_coo(sys.argv[1]), None,",
            "                state.load_state(sys.argv[2]),",
            "                gibbs.ChainConfig(burn_in=5, total=6, thin=2),",
            "                out_dir=sys.argv[3])",
        ])
        part = tmp_path / "part"
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "train.coo"),
                        str(tmp_path / "init"), str(part)],
                       env={**os.environ, "PYTHONPATH": SRC}, timeout=300, check=True)
        assert load_state(part / "samples" / "sample_0001").next_iteration == 8
        assert load_state(part / "checkpoint").next_iteration == 7
        _, rows = read_chain_log(part / "chain_log.tsv")
        assert [row.split("\t", 1)[0] for row in rows] == [str(i) for i in range(1, 8)]

    def test_read_chain_log_drops_a_cut_row(self, tmp_path):
        log = tmp_path / "chain_log.tsv"
        head = ["# sweep=thin seed=1\n", "iteration\tloglik\tq_eff\tk_eff_1\tseconds\n"]
        rows = ["1\t-2.5\t3\t2\t0.1\n", "2\t-2.0\t3\t2\t0.2\n"]
        log.write_text("".join(head + rows) + "3\t-1.9\t3")
        assert read_chain_log(log) == (head, rows)

    @pytest.mark.parametrize("stop_in", ["files", "copy", "renames"])
    def test_resume_after_checkpoint_write_stopped_partway(
            self, tmp_path, monkeypatch, stop_in):
        train, state = random_instance(3)
        cfg = ChainConfig(burn_in=2, total=4, thin=1)
        run_chain(train, None, state, cfg, out_dir=str(tmp_path / "full"))

        def stop_nth(fn, nth, suffix):
            calls = []

            def stopping(*args, **kwargs):
                if any(isinstance(a, (str, os.PathLike))
                       and os.fspath(a).endswith(suffix) for a in args):
                    calls.append(args)
                    if len(calls) == nth:
                        raise OSError("write stopped")
                return fn(*args, **kwargs)
            return stopping

        # sweeps 1 and 2 are burn-in, so their checkpoints are rendered;
        # from sweep 3 on each checkpoint is a copy of the sweep's sample
        second = os.path.join(".checkpoint.tmp", "factors_2.txt")
        if stop_in == "files":
            # sweep 2's rendering stops between its second and third data file
            monkeypatch.setattr(np, "savetxt", stop_nth(np.savetxt, 2, second))
            left, resumed_at = {"checkpoint", ".checkpoint.tmp"}, 2
        elif stop_in == "copy":
            # sweep 3's copy of its sample fails on the second factor file
            monkeypatch.setattr(shutil, "copyfile", stop_nth(shutil.copyfile, 1, second))
            left, resumed_at = {"checkpoint", ".checkpoint.tmp"}, 3
        else:
            # sweep 3's checkpoint stops after the previous one went aside
            monkeypatch.setattr(os, "rename", stop_nth(os.rename, 3, ".checkpoint.tmp"))
            left, resumed_at = {".checkpoint.old", ".checkpoint.tmp"}, 3
        part = tmp_path / "part"
        with pytest.raises(OSError, match="write stopped"):
            run_chain(train, None, state, cfg, out_dir=str(part))
        monkeypatch.undo()
        names = set(os.listdir(part))
        assert left <= names and ("checkpoint" in names) == ("checkpoint" in left)

        resumed = load_state(part / "checkpoint")
        assert resumed.next_iteration == resumed_at
        run_chain(train, None, resumed, cfg, out_dir=str(part))
        assert not [name for name in os.listdir(part) if name.startswith(".")]
        for name in ["checkpoint"] + [f"samples/sample_{i:04d}" for i in range(1, 5)]:
            a, b = load_state(tmp_path / "full" / name), load_state(part / name)
            assert a.next_iteration == b.next_iteration
            assert np.array_equal(a.core_values, b.core_values)
            assert np.array_equal(a.core_locations, b.core_locations)
            for m in range(3):
                assert np.array_equal(a.factors[m], b.factors[m])
                assert np.array_equal(a.mode_priors[m], b.mode_priors[m])

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

    def test_locked_modes_skip_location_updates(self):
        train, _ = random_instance(3)
        state = init_canonical(train.shape, 3, seed=5, core_mode="cp_locked")
        cfg = ChainConfig(burn_in=0, total=3, thin=3)
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

        # CPU time of this process, not wall time, so that other load on the
        # machine does not count as work; the two budgets alternate so slow
        # drift in the machine's speed reaches both alike.
        inits = {q: init_canonical(shape, q, seed=1) for q in (100, 50)}
        cfg = ChainConfig(burn_in=0, total=10, thin=10)
        best = {q: float("inf") for q in inits}
        for _ in range(5):
            for q, init in inits.items():
                t0 = time.process_time()
                run_chain(train, None, init, cfg)
                best[q] = min(best[q], time.process_time() - t0)

        ratio = best[100] / best[50]
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
                  ChainConfig(burn_in=0, total=1, thin=1))
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
        ll = proportional_train_loglik(state, train, no_mask())
        assert ll == pytest.approx(-observed_rate_total(state))
