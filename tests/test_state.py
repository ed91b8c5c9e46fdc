import hashlib
import itertools
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocore import cli, gibbs
from allocore import state as state_module
from allocore.gibbs import ChainConfig, run_chain
from allocore.state import (
    Hyperparameters,
    IntegrityError,
    cell_rates,
    class_tables,
    core_value_at,
    draw_categorical,
    effective_dims,
    init_canonical,
    init_explicit,
    load_state,
    rate_product,
    reconstruct_at,
    reconstruct_cells,
    row_blocks,
    save_state,
)
from allocore.tensors import SparseCountTensor


def dense_reconstruction(state, d):
    """Oracle: evaluate the full Tucker sum over every core cell, with the
    core built cell by cell from the allocation rule."""
    total = 0.0
    for kappa in itertools.product(*[range(k) for k in state.K]):
        lam = core_value_at(state, kappa)
        if lam == 0.0:
            continue
        term = lam
        for m in range(state.M):
            term *= state.factors[m][d[m], kappa[m]]
        total += term
    return total


class TestInitCanonical:
    def test_diagonal_layout(self):
        state = init_canonical((3, 4, 5, 6), Q=5, seed=0)
        assert state.K == (5, 5, 5, 5)
        expected = np.arange(5)[:, None] * np.ones(4, dtype=np.int64)
        assert np.array_equal(state.core_locations, expected)

    def test_cp_locked_same_layout(self):
        a = init_canonical((3, 3), Q=4, seed=1, core_mode="allocore")
        b = init_canonical((3, 3), Q=4, seed=1, core_mode="cp_locked")
        assert np.array_equal(a.core_locations, b.core_locations)
        assert b.core_mode == "cp_locked"

    def test_seed_determinism(self):
        a = init_canonical((4, 4, 4), Q=3, seed=11)
        b = init_canonical((4, 4, 4), Q=3, seed=11)
        assert np.array_equal(a.core_values, b.core_values)
        for m in range(3):
            assert np.array_equal(a.factors[m], b.factors[m])
            assert np.array_equal(a.mode_priors[m], b.mode_priors[m])
        c = init_canonical((4, 4, 4), Q=3, seed=12)
        assert not np.array_equal(a.core_values, c.core_values)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            init_canonical((2, 2), Q=0)

    def test_draws_from_priors(self):
        # gamma/Dirichlet moments across many seeded inits
        hyper = Hyperparameters(a0=2.0, b0=1.0, e0=1.0, f0=10.0, alpha0=0.5)
        lams = []
        phis = []
        for seed in range(400):
            st_ = init_canonical((3, 3), Q=2, hyper=hyper, seed=seed)
            lams.append(st_.core_values)
            phis.append(st_.factors[0])
        lam_mean = np.mean(lams)
        phi_mean = np.mean(phis)
        assert abs(lam_mean - 2.0) < 3 * np.sqrt(2.0 / (400 * 2))
        assert abs(phi_mean - 0.1) < 3 * np.sqrt(0.01 / (400 * 6))


class TestInitExplicit:
    def test_dense_core_enumerates(self):
        state = init_explicit((25, 25, 8, 5), (20, 20, 6, 3), Q=1,
                              core_mode="tucker_dense", seed=0)
        assert state.Q == 7200
        assert effective_dims(state)[0] == 7200

    def test_dense_core_limit(self, monkeypatch):
        monkeypatch.setattr(state_module, "CORE_CELL_LIMIT", 7199)
        with pytest.raises(ValueError, match="7200"):
            init_explicit((25, 25, 8, 5), (20, 20, 6, 3), Q=1,
                          core_mode="tucker_dense", seed=0)

    @pytest.mark.parametrize("core_mode, Q", [
        ("allocore", 3), ("cp_locked", 3), ("tucker_dense", 27)])
    def test_no_k_is_canonical(self, core_mode, Q):
        state = init_explicit((4, 5, 3), None, 3, core_mode, seed=2)
        assert state.K == (3, 3, 3) and state.Q == Q
        assert effective_dims(state)[0] == Q
        if core_mode != "tucker_dense":
            assert np.array_equal(state.core_locations,
                                  np.arange(3)[:, None] * np.ones(3, dtype=np.int64))

    def test_sparse_large_core(self):
        state = init_explicit((60, 60, 8, 12), (50, 50, 6, 10), Q=400,
                              core_mode="allocore", seed=0)
        assert state.Q == 400
        density = state.Q / math.prod(state.K)
        assert abs(density - 0.0027) < 1e-4

    def test_single_allocation(self):
        state = init_explicit((3, 3), (2, 2), Q=1, core_mode="allocore", seed=0)
        assert effective_dims(state)[0] == 1

    def test_cp_locked_needs_hypercube(self):
        with pytest.raises(ValueError, match="hypercube|equal"):
            init_explicit((3, 3), (2, 3), Q=2, core_mode="cp_locked", seed=0)

    def test_cp_locked_diagonal_budget(self):
        with pytest.raises(ValueError):
            init_explicit((3, 3), (2, 2), Q=3, core_mode="cp_locked", seed=0)
        state = init_explicit((3, 3), (4, 4), Q=4, core_mode="cp_locked", seed=0)
        assert np.array_equal(state.core_locations,
                              np.arange(4)[:, None] * np.ones(2, dtype=np.int64))

    def test_memory_stays_budget_sized(self):
        # no structure of core size prod(K) in allocore mode
        state = init_explicit((30, 30, 30, 30), (50, 50, 50, 50), Q=20,
                              core_mode="allocore", seed=0)
        assert state.core_values.shape == (20,)
        assert state.core_locations.shape == (20, 4)


def test_snapshot_shares_no_array():
    state = init_explicit((5, 4, 3), (3, 2, 2), Q=4, core_mode="allocore", seed=42)
    snap = state.snapshot()
    pairs = [(state.core_values, snap.core_values),
             (state.core_locations, snap.core_locations),
             *zip(state.factors, snap.factors), *zip(state.mode_priors, snap.mode_priors)]
    for a, b in pairs:
        assert np.array_equal(a, b) and a.dtype == b.dtype and b.flags.c_contiguous
        assert not np.shares_memory(a, b)
    assert (snap.shape, snap.hyper, snap.core_mode, snap.seed, snap.next_iteration) == (
        state.shape, state.hyper, state.core_mode, state.seed, state.next_iteration)


class TestDrawCategorical:
    def test_equals_searchsorted_on_the_cumulative_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            u = rng.random(40)
            probs = rng.dirichlet(np.full(k, rng.choice([0.05, 1.0])))
            want = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), k - 1)
            assert np.array_equal(draw_categorical(probs, u), want)
            # one simplex per row, one uniform per row
            table = rng.dirichlet(np.ones(k), size=40)
            want = [min(np.searchsorted(np.cumsum(p), x, side="right"), k - 1)
                    for p, x in zip(table, u)]
            assert np.array_equal(draw_categorical(table, u), want)

    def test_sum_rounded_below_one_draws_the_last_entry(self):
        probs = np.array([0.25, 0.25, 0.4999])
        assert draw_categorical(probs, np.array([0.9999, 0.5])).tolist() == [2, 2]


class TestCoreValueAt:
    def test_two_allocations_same_cell(self):
        state = init_canonical((2, 2), Q=2, seed=0)
        state.core_locations[:] = [[0, 0], [0, 0]]
        state.core_values[:] = [0.3, 0.7]
        assert core_value_at(state, (0, 0)) == pytest.approx(1.0)

    def test_unoccupied_is_zero(self):
        state = init_canonical((2, 2), Q=2, seed=0)
        assert core_value_at(state, (0, 1)) == 0.0

    def test_three_allocations_two_cells(self):
        state = init_explicit((2, 2), (2, 2), Q=3, core_mode="allocore", seed=0)
        state.core_locations[:] = [[0, 1], [1, 0], [0, 1]]
        state.core_values[:] = [1.0, 2.0, 4.0]
        assert core_value_at(state, (0, 1)) == pytest.approx(5.0)
        assert core_value_at(state, (1, 0)) == pytest.approx(2.0)

    def test_out_of_range(self):
        state = init_canonical((2, 2), Q=2, seed=0)
        with pytest.raises(ValueError):
            core_value_at(state, (0, 5))


class TestReconstruct:
    def test_single_class_unit_factors(self):
        state = init_canonical((2, 2), Q=1, seed=0)
        state.core_values[:] = 2.0
        for m in range(2):
            state.factors[m][:] = 1.0
        assert reconstruct_at(state, (0, 0)) == pytest.approx(2.0)

    def test_single_product(self):
        state = init_canonical((1, 1), Q=1, seed=0)
        state.core_values[:] = 2.0
        state.factors[0][:] = 0.5
        state.factors[1][:] = 0.25
        assert reconstruct_at(state, (0, 0)) == pytest.approx(0.25)

    def test_matches_dense_oracle(self):
        state = init_explicit((3, 4, 2), (2, 3, 2), Q=4, core_mode="allocore",
                              seed=5)
        for d in itertools.product(range(3), range(4), range(2)):
            dense = dense_reconstruction(state, d)
            sparse = reconstruct_at(state, d)
            assert abs(sparse - dense) <= 1e-12 * max(dense, 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10 ** 6))
    def test_sparse_dense_equivalence_property(self, M, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in rng.integers(2, 5, size=M))
        K = tuple(int(k) for k in rng.integers(1, 7, size=M))
        Q = int(rng.integers(1, 7))
        state = init_explicit(shape, K, Q, core_mode="allocore", seed=seed)
        for d in itertools.product(*[range(x) for x in shape]):
            dense = dense_reconstruction(state, d)
            assert abs(reconstruct_at(state, d) - dense) <= 1e-12 * max(dense, 1e-12)

    def test_cp_locked_matches_cp_sum(self):
        # diagonal core: reconstruction is the plain per-factor CP sum
        state = init_canonical((5, 6, 4), Q=3, seed=9, core_mode="cp_locked")
        for d in [(0, 0, 0), (4, 5, 3), (2, 3, 1)]:
            cp = sum(state.core_values[k]
                     * state.factors[0][d[0], k]
                     * state.factors[1][d[1], k]
                     * state.factors[2][d[2], k]
                     for k in range(3))
            assert reconstruct_at(state, d) == pytest.approx(cp, rel=1e-14)

    def test_batch_matches_scalar(self):
        state = init_canonical((4, 4), Q=3, seed=2)
        coords = np.array([[0, 0], [3, 2], [1, 1]])
        batch = reconstruct_cells(state, coords)
        for i, d in enumerate(coords):
            assert batch[i] == reconstruct_at(state, d)

    def test_out_of_range(self):
        state = init_canonical((2, 2), Q=1, seed=0)
        with pytest.raises(ValueError):
            reconstruct_at(state, (2, 0))


def fancy_gather_rates(state, coords):
    """Reference: a tiled row of core values times one 2-D fancy gather of
    factor entries per mode, modes in ascending order."""
    rates = np.tile(state.core_values, (coords.shape[0], 1))
    for m in range(state.M):
        rates *= state.factors[m][coords[:, m][:, None],
                                  state.core_locations[:, m][None, :]]
    return rates


class TestCellRates:
    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    # 40 rows in blocks of 3 (12 full, then 4: a one-row last block joins
    # the one before it) or 7 (5 full, then 5); the fill runs in half
    # blocks, of 2 rows (the least a block holds) and 3 rows
    @pytest.mark.parametrize("n, block_rows", [
        pytest.param(0, None, id="0"),
        pytest.param(1, None, id="1"),
        pytest.param(40, None, id="40"),
        pytest.param(40, 3, id="40-blocks3"),
        pytest.param(40, 7, id="40-blocks7"),
    ])
    def test_class_tables_equal_fancy_gather(self, M, n, block_rows, monkeypatch):
        rng = np.random.default_rng(10 * M + n)
        shape = tuple(int(d) for d in rng.integers(2, 6, size=M))
        K = tuple(int(k) for k in rng.integers(2, 5, size=M))
        state = init_explicit(shape, K, Q=11, core_mode="allocore", seed=M)
        coords = np.stack([rng.integers(0, d, size=n) for d in shape], axis=1)
        if block_rows is not None:
            monkeypatch.setattr(state_module, "_BLOCK_BYTES", 8 * 11 * block_rows)
            assert len(list(row_blocks(n, 11))) == n // block_rows + (
                n % block_rows > 1)
        rates = cell_rates(state, coords)
        assert np.array_equal(rates, fancy_gather_rates(state, coords).T)
        assert rates.shape == (11, n)
        # a fresh q-major table: callers may read or write each class's
        # rates as one contiguous row
        assert rates.flags.c_contiguous and rates.flags.writeable

    # Q around NumPy's pairwise unroll of 8 and block of 128 terms; 40 cells
    # filled in blocks of 3 (12 full, then 4), or 1 cell, or one block of 40
    @pytest.mark.parametrize("Q", [*range(1, 10), 15, 16, 17, 127, 128, 129,
                                   255, 256, 257, 400, 1000])
    @pytest.mark.parametrize("n, block_cells", [(40, 3), (1, 3), (40, None)])
    def test_cell_sums_equal_c_order_row_sums(self, Q, n, block_cells,
                                              monkeypatch):
        """``reconstruct_cells`` sums each block of cells that ``cell_rates``
        writes into its table; it equals the row sums of a C-ordered copy of
        the table."""
        rng = np.random.default_rng(Q)
        state = init_explicit((7, 6, 5), (4, 3, 3), Q=Q, core_mode="allocore",
                              seed=Q)
        # rates over many orders of magnitude, so the adding order shows
        state.core_values[:] = np.exp(rng.normal(0.0, 8.0, Q))
        coords = np.stack([rng.integers(0, d, size=n) for d in state.shape], axis=1)
        if block_cells is not None:
            monkeypatch.setattr(state_module, "_BLOCK_BYTES", 2 * 8 * Q * block_cells)
            fill = row_blocks(n, Q, state_module._BLOCK_BYTES // 2)
            assert len(list(fill)) == max(n // block_cells, 1)
        want = np.ascontiguousarray(cell_rates(state, coords).T).sum(axis=1)
        assert np.array_equal(reconstruct_cells(state, coords), want)

    def test_core_values_fold_into_the_first_class_table(self):
        state = init_explicit((5, 4, 3), (3, 2, 2), Q=6, core_mode="allocore",
                              seed=3)
        kappa = state.core_locations
        tables = class_tables(state)
        assert np.array_equal(
            tables[0], state.core_values * state.factors[0][:, kappa[:, 0]])
        for m in (1, 2):
            assert np.array_equal(tables[m], state.factors[m][:, kappa[:, m]])

    # free mode 0 indexed by a slice, as ``evaluation._fiber_yhats`` does; on
    # one mode the product is the gather of table 0 alone
    @pytest.mark.parametrize("shape", [(5, 4, 3), (5,)])
    def test_rate_product_of_a_fiber_block_is_fresh(self, shape):
        M = len(shape)
        state = init_explicit(shape, (3,) * M, Q=6, core_mode="allocore", seed=4)
        rng = np.random.default_rng(4)
        stems = rng.integers(0, shape[1:], size=(7, M - 1))
        index = [slice(None)] + [stems[:, [j]] for j in range(M - 1)]
        tables = class_tables(state)
        before = [t.copy() for t in tables]
        rates = rate_product(tables, index)
        assert rates.flags.c_contiguous and rates.flags.writeable
        assert not any(np.shares_memory(rates, t) for t in tables)
        # each stem's fiber in turn, each cell's rates as cell_rates has them
        n_stems = len(stems) if M > 1 else 1
        cells = np.column_stack([np.tile(np.arange(shape[0]), n_stems),
                                 np.repeat(stems[:n_stems], shape[0], axis=0)])
        assert np.array_equal(rates.reshape(-1, state.Q), cell_rates(state, cells).T)
        rates[...] = -1.0
        assert all(np.array_equal(t, b) for t, b in zip(tables, before))


class TestEffectiveDims:
    def test_all_identical(self):
        state = init_explicit((2, 2), (3, 3), Q=4, core_mode="allocore", seed=0)
        state.core_locations[:] = [[1, 2]] * 4
        q_eff, k_eff = effective_dims(state)
        assert q_eff == 1 and k_eff == (1, 1)

    def test_canonical_diagonal(self):
        state = init_canonical((3, 3, 3), Q=5, seed=0)
        q_eff, k_eff = effective_dims(state)
        assert q_eff == 5 and k_eff == (5, 5, 5)

    def test_hand_worked(self):
        state = init_explicit((2, 2), (2, 2), Q=3, core_mode="allocore", seed=0)
        state.core_locations[:] = [[0, 0], [0, 1], [0, 0]]
        q_eff, k_eff = effective_dims(state)
        assert q_eff == 2 and k_eff == (1, 2)

    def test_budget_bound_always_holds(self):
        for seed in range(10):
            state = init_explicit((3, 3, 3), (4, 4, 4), Q=6,
                                  core_mode="allocore", seed=seed)
            assert effective_dims(state)[0] <= state.Q


def dir_bytes(dirpath):
    """Every file of a state directory, by name."""
    return {path.name: path.read_bytes() for path in Path(dirpath).iterdir()}


class TestStateIO:
    def test_round_trip(self, tmp_path):
        state = init_explicit((5, 4, 3), (3, 2, 2), Q=4, core_mode="allocore",
                              seed=42)
        state.next_iteration = 17
        save_state(state, tmp_path / "st")
        back = load_state(tmp_path / "st")
        assert back.shape == state.shape
        assert back.core_mode == state.core_mode
        assert back.seed == state.seed and back.next_iteration == 17
        assert np.array_equal(back.core_values, state.core_values)
        assert np.array_equal(back.core_locations, state.core_locations)
        for m in range(3):
            assert np.array_equal(back.factors[m], state.factors[m])
            assert np.array_equal(back.mode_priors[m], state.mode_priors[m])
        arrays = [back.core_values, back.core_locations, *back.factors, *back.mode_priors]
        assert all(a.flags.c_contiguous for a in arrays)
        rng = np.random.default_rng(0)
        cells = np.stack([rng.integers(0, d, size=20) for d in state.shape], axis=1)
        assert np.array_equal(reconstruct_cells(back, cells),
                              reconstruct_cells(state, cells))

    def test_several_targets_get_the_single_save_bytes(self, tmp_path):
        state = init_explicit((5, 4, 3), (3, 2, 2), Q=4, core_mode="allocore",
                              seed=42)
        state.next_iteration = 9
        sample, checkpoint = tmp_path / "samples" / "sample_0001", tmp_path / "checkpoint"
        sample.parent.mkdir()
        save_state(init_canonical((5, 4, 3), Q=2, seed=0), checkpoint)
        save_state(state, sample, checkpoint)
        for target in (sample, checkpoint):
            alone = tmp_path / "alone" / target.name
            save_state(state, alone)
            assert dir_bytes(target) == dir_bytes(alone)
            assert "manifest.txt" in dir_bytes(target)
        assert sorted(os.listdir(tmp_path)) == ["alone", "checkpoint", "samples"]
        assert os.listdir(sample.parent) == ["sample_0001"]

    def test_chain_saves_equal_single_saves(self, tmp_path, monkeypatch):
        # burn-in 3 with thin 2: samples fall on sweeps 5 and 7 and
        # checkpoints on even sweeps and the last, so only sweep 7 saves both
        train = SparseCountTensor.from_entries(
            (4, 3, 2), {(0, 0, 0): 3, (1, 2, 1): 1, (3, 1, 0): 2})
        init = init_canonical(train.shape, 3, seed=4)
        saves = []

        def checked_save(state, *dirpaths):
            save_state(state, *dirpaths)
            names = [os.path.relpath(d, tmp_path / "run") for d in dirpaths]
            saves.append((state.next_iteration, names))
            for name, target in zip(names, dirpaths):
                alone = tmp_path / "alone" / f"{state.next_iteration}-{name}"
                save_state(state, alone)
                assert dir_bytes(target) == dir_bytes(alone)
                assert load_state(target).next_iteration == state.next_iteration

        monkeypatch.setattr(gibbs, "save_state", checked_save)
        run_chain(train, None, init, ChainConfig(burn_in=3, total=4, thin=2),
                  out_dir=str(tmp_path / "run"))
        sample = os.path.join("samples", "sample_{:04d}").format
        assert saves == [(3, ["checkpoint"]), (5, ["checkpoint"]), (6, [sample(1)]),
                         (7, ["checkpoint"]), (8, [sample(2), "checkpoint"])]

    def test_hyper_round_trip(self, tmp_path):
        hyper = Hyperparameters(a0=0.5, b0=2.0, e0=1.5, f0=3.0, alpha0=0.2)
        state = init_explicit((3, 3), (2, 2), Q=2, core_mode="allocore",
                              hyper=hyper, seed=0)
        save_state(state, tmp_path / "st")
        back = load_state(tmp_path / "st")
        assert back.hyper == hyper

    @staticmethod
    def _older_layout(manifest, alpha0, divide):
        """Rewrite a manifest the way states were saved before alpha0 became
        one scalar: alpha0 once per mode, then divide_alpha_by_k."""
        text = manifest.read_text()
        line = next(ln for ln in text.splitlines() if ln.startswith("alpha0="))
        manifest.write_text(text.replace(
            line + "\n", f"alpha0={alpha0}\ndivide_alpha_by_k={divide}\n"))

    def test_older_layout_loads_and_resumes(self, tmp_path):
        train = SparseCountTensor.from_entries(
            (4, 3, 2), {(0, 0, 0): 3, (1, 2, 1): 1, (3, 1, 0): 2})
        init = init_canonical(train.shape, 3, Hyperparameters(alpha0=0.3), seed=4)
        full = run_chain(train, None, init, ChainConfig(burn_in=0, total=4, thin=1))
        run_chain(train, None, init, ChainConfig(burn_in=0, total=2, thin=1),
                  out_dir=tmp_path)
        self._older_layout(tmp_path / "checkpoint" / "manifest.txt",
                           "0.3 0.3 0.3", 0)
        back = load_state(tmp_path / "checkpoint")
        assert back.hyper == Hyperparameters(alpha0=0.3)
        resumed = run_chain(train, None, back,
                            ChainConfig(burn_in=0, total=4, thin=1))
        assert resumed.iterations == [3, 4]
        for a, b in zip(full.samples[2:], resumed.samples):
            assert np.array_equal(a.core_values, b.core_values)
            assert np.array_equal(a.core_locations, b.core_locations)
            for m in range(3):
                assert np.array_equal(a.factors[m], b.factors[m])
                assert np.array_equal(a.mode_priors[m], b.mode_priors[m])

    @pytest.mark.parametrize("alpha0, divide, key", [
        ("0.1 0.1", 1, "divide_alpha_by_k"), ("0.1 0.2", 0, "alpha0")])
    def test_other_models_refused(self, tmp_path, alpha0, divide, key):
        save_state(init_canonical((3, 3), Q=2, seed=0), tmp_path / "st")
        self._older_layout(tmp_path / "st" / "manifest.txt", alpha0, divide)
        with pytest.raises(ValueError, match=key):
            load_state(tmp_path / "st")

    @pytest.mark.parametrize("key", ["a0", "b0", "e0", "f0", "alpha0"])
    def test_missing_hyperparameter_named(self, tmp_path, key):
        save_state(init_canonical((3, 3), Q=2, seed=0), tmp_path / "st")
        man = tmp_path / "st" / "manifest.txt"
        man.write_text("".join(line for line in man.read_text().splitlines(True)
                               if not line.startswith(f"{key}=")))
        with pytest.raises(ValueError, match=f"manifest missing key '{key}'"):
            load_state(tmp_path / "st")

    def test_corruption_detected(self, tmp_path):
        state = init_canonical((3, 3), Q=2, seed=0)
        save_state(state, tmp_path / "st")
        core = tmp_path / "st" / "core.txt"
        text = core.read_text()
        core.write_text(text.replace(text[1], "9", 1))
        with pytest.raises(IntegrityError):
            load_state(tmp_path / "st")

    def test_version_mismatch(self, tmp_path):
        state = init_canonical((3, 3), Q=2, seed=0)
        save_state(state, tmp_path / "st")
        man = tmp_path / "st" / "manifest.txt"
        man.write_text(man.read_text().replace("version=1", "version=99"))
        with pytest.raises(ValueError, match="version"):
            load_state(tmp_path / "st")

    def test_wrong_mode_count(self, tmp_path):
        state = init_canonical((3, 3), Q=2, seed=0)
        save_state(state, tmp_path / "st")
        man = tmp_path / "st" / "manifest.txt"
        man.write_text(man.read_text().replace("M=2", "M=3"))
        with pytest.raises(ValueError):
            load_state(tmp_path / "st")

    # each edit maps a data file's rows of fields to the malformed rows
    MALFORMED = {
        "core-row-missing-field": ("core.txt", lambda rows: [rows[0][:-1]] + rows[1:]),
        "core-location-not-integer": ("core.txt",
                                      lambda rows: [rows[0][:-1] + ["1.5"]] + rows[1:]),
        "core-value-not-numeric": ("core.txt",
                                   lambda rows: [["abc"] + rows[0][1:]] + rows[1:]),
        "prior-row-wrong-length": ("priors.txt", lambda rows: [rows[0][:-1]] + rows[1:]),
        "factor-rows-not-shape": ("factors_1.txt", lambda rows: rows[:-1]),
        "factor-columns-not-K": ("factors_2.txt", lambda rows: [r[:-1] for r in rows]),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_data_file_named(self, tmp_path, capsys, case):
        name, edit = self.MALFORMED[case]
        st_dir = tmp_path / "st"
        save_state(init_explicit((5, 4, 3), (3, 2, 2), Q=4, core_mode="allocore",
                                 seed=42), st_dir)
        rows = [line.split() for line in (st_dir / name).read_text().splitlines()]
        (st_dir / name).write_text("".join(" ".join(row) + "\n" for row in edit(rows)))
        # a checksum over the edited files, so that the parse is what refuses them
        data = ["factors_1.txt", "factors_2.txt", "factors_3.txt", "core.txt", "priors.txt"]
        digest = hashlib.sha256(b"".join((st_dir / n).read_bytes() for n in data))
        man = st_dir / "manifest.txt"
        man.write_text(re.sub(r"checksum=\w+", f"checksum={digest.hexdigest()}",
                              man.read_text()))
        with pytest.raises(ValueError, match=re.escape(str(st_dir))):
            load_state(st_dir)
        capsys.readouterr()
        assert cli.main(["classes", "--state", str(st_dir),
                         "--out", str(tmp_path / "classes")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestHyperparameters:
    def test_defaults(self):
        h = Hyperparameters()
        assert (h.a0, h.b0, h.e0, h.f0, h.alpha0) == (1.0, 1.0, 1.0, 10.0, 0.1)

    def test_positivity(self):
        with pytest.raises(ValueError):
            Hyperparameters(a0=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(alpha0=-1.0)

    def test_alpha_vector_variants(self):
        h = Hyperparameters(alpha0=0.4)
        assert np.array_equal(h.alpha_vector(4), np.full(4, 0.4))
        h = Hyperparameters(alpha0=2)
        assert h.alpha_vector(3).dtype == np.float64
        assert np.array_equal(h.alpha_vector(3), [2.0, 2.0, 2.0])
