"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The stochastic tests use fixed seeds, so green runs are reproducible. Runtime
bounds are asserted alongside the statistical checks.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import poisson

from allocore.evaluation import (
    ppd,
    ppd_constant_baseline,
    ppd_positive,
)
from allocore.gibbs import (
    ChainConfig,
    MaskCorrections,
    PosteriorSamples,
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
    Hyperparameters,
    effective_dims,
    init_canonical,
    init_explicit,
    reconstruct_cells,
    substream,
)
from allocore.synthetic import default_config, generate, recovery_trace
from allocore.tensors import HeldoutSet, SparseCountTensor, make_fiber_mask, split


def report(num, name, ok):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def no_mask():
    return MaskCorrections(None)


# ---------------------------------------------------------------------------
# 1. Location-conditional oracle: 100k successive draws of one sub-index on a
#    frozen 2x2 state match the brute-force normalized conditional within
#    total-variation 0.01. Mode 2 has a single candidate, so each location
#    sweep redraws only the mode-1 sub-index.
# ---------------------------------------------------------------------------

def test_criterion_01_location_conditional_oracle():
    t0 = time.time()
    shape = (2, 2)
    state = init_explicit(shape, (2, 1), 1, "allocore", seed=0)
    state.factors[0] = np.array([[1.0, 0.55], [0.5, 0.9]])
    state.factors[1] = np.array([[0.9], [0.7]])
    state.core_values[:] = 1.3
    state.core_locations[:] = [[0, 0]]
    state.mode_priors[0] = np.array([0.55, 0.45])
    state.mode_priors[1] = np.array([1.0])
    train = SparseCountTensor.from_entries(shape, {(0, 0): 3, (0, 1): 1, (1, 1): 2})
    src = thin_counts(state, train, substream(0, 1, THIN_BLOCK))  # Q=1: exact

    # brute force: pi_k * prod_d Pois(y_marg_d; phi[d,k] * c), c from mode 2
    lam = state.core_values[0]
    c = lam * state.factors[1][:, state.core_locations[0, 1]].sum()
    y_marg = src.mode_marginals[0][:, 0]
    weights = np.array([
        state.mode_priors[0][k] * np.prod(poisson.pmf(y_marg, state.factors[0][:, k] * c))
        for k in range(2)
    ])
    target = weights / weights.sum()
    assert 0.05 < target[0] < 0.95  # non-degenerate oracle

    rng = np.random.default_rng(2024)
    n = 100_000
    hits = np.zeros(2)
    corr = no_mask()
    for _ in range(n):
        sample_locations(state, src, corr, rng)
        hits[state.core_locations[0, 0]] += 1
    tv = 0.5 * np.abs(hits / n - target).sum()
    elapsed = time.time() - t0
    report(1, f"location conditional TV={tv:.4f} ({elapsed:.1f}s)",
           tv < 0.01 and elapsed < 30)


# ---------------------------------------------------------------------------
# 2. Conjugate-update oracles: empirical moments of 50k redraws of one factor
#    entry, one core value, and one prior simplex match the closed forms
#    within 3 standard errors.
# ---------------------------------------------------------------------------

def _fixture_for_conjugates():
    shape = (3, 2)
    state = init_explicit(shape, (2, 2), 2, "allocore",
                          Hyperparameters(f0=2.0), seed=5)
    state.core_locations[:] = [[0, 1], [1, 0]]
    train = SparseCountTensor.from_entries(
        shape, {(0, 0): 6, (1, 1): 3, (2, 0): 2})
    src = thin_counts(state, train, substream(5, 1, THIN_BLOCK))
    return shape, state, src, train


def test_criterion_02_conjugate_update_oracles():
    t0 = time.time()
    shape, state, src, train = _fixture_for_conjugates()
    corr = no_mask()
    h = state.hyper
    n = 50_000
    ok = True

    # core value q=0: Gamma(a0 + y_0, b0 + prod of column sums), independently
    # recomputed here from the raw source table and factor matrices
    y0 = int(src.per_cell[:, 0].sum())
    rate0 = h.b0 + np.prod([state.factors[m][:, state.core_locations[0, m]].sum()
                            for m in range(2)])
    a, b = h.a0 + y0, rate0
    rng = substream(1234, 1, LAMBDA_BLOCK)
    draws = np.empty(n)
    for i in range(n):
        sample_lambda(state, src, corr, rng)
        draws[i] = state.core_values[0]
    mean, var = a / b, a / b ** 2
    mu4 = 3 * a * (a + 2) / b ** 4
    z_mean = (draws.mean() - mean) / math.sqrt(var / n)
    z_var = (draws.var(ddof=1) - var) / math.sqrt((mu4 - var ** 2) / n)
    print(f"  lambda: z_mean={z_mean:.2f} z_var={z_var:.2f}")
    ok &= abs(z_mean) < 3 and abs(z_var) < 3

    # factor entry (0, k*) of mode 0, with the other mode held at its
    # original values for every redraw
    k_star = state.core_locations[0, 0]
    y_phi = sum(int(src.per_cell[i, q])
                for q in range(2) if state.core_locations[q, 0] == k_star
                for i in range(train.nnz) if train.coords[i, 0] == 0)
    c_phi = sum(state.core_values[q]
                * state.factors[1][:, state.core_locations[q, 1]].sum()
                for q in range(2) if state.core_locations[q, 0] == k_star)
    a, b = h.e0 + y_phi, h.f0 + c_phi
    originals = [f.copy() for f in state.factors]
    lam_orig = state.core_values.copy()
    rng = substream(1234, 1, PHI_BLOCK)
    draws = np.empty(n)
    for i in range(n):
        state.factors = [f.copy() for f in originals]
        state.core_values = lam_orig.copy()
        sample_phi(state, src, corr, rng)
        draws[i] = state.factors[0][0, k_star]
    mean, var = a / b, a / b ** 2
    mu4 = 3 * a * (a + 2) / b ** 4
    z_mean = (draws.mean() - mean) / math.sqrt(var / n)
    z_var = (draws.var(ddof=1) - var) / math.sqrt((mu4 - var ** 2) / n)
    print(f"  phi:    z_mean={z_mean:.2f} z_var={z_var:.2f}")
    ok &= abs(z_mean) < 3 and abs(z_var) < 3
    state.factors = [f.copy() for f in originals]

    # mode-0 prior simplex: Dirichlet(alpha0 + occupancy counts)
    counts = np.bincount(state.core_locations[:, 0], minlength=2)
    alpha = h.alpha0 + counts
    a0_sum = alpha.sum()
    mean = alpha / a0_sum
    var = alpha * (a0_sum - alpha) / (a0_sum ** 2 * (a0_sum + 1))
    rng = substream(1234, 1, PI_BLOCK)
    draws = np.empty((n, 2))
    for i in range(n):
        sample_pi(state, rng)
        draws[i] = state.mode_priors[0]
    z = (draws.mean(axis=0) - mean) / np.sqrt(var / n)
    print(f"  pi:     z={np.round(z, 2)}")
    ok &= (np.abs(z) < 3).all()

    elapsed = time.time() - t0
    report(2, f"conjugate moment oracles ({elapsed:.1f}s)",
           ok and elapsed < 30)


# ---------------------------------------------------------------------------
# 3. Thinning conservation: the per-class sources of every training non-zero
#    sum back to the observed count, exactly, at every one of 1,000 sweeps.
# ---------------------------------------------------------------------------

def test_criterion_03_thinning_conservation():
    rng = np.random.default_rng(17)
    shape = (15, 15, 4)
    cells = np.unique(rng.integers(0, (15, 15, 4), size=(80, 3)), axis=0)
    train = SparseCountTensor(shape, cells, rng.integers(1, 30, len(cells)))
    state = init_explicit(shape, (5, 5, 3), 6, "allocore",
                          Hyperparameters(f0=1.0), seed=3)
    corr = no_mask()
    seed = 31
    for it in range(1, 1001):
        src = thin_counts(state, train, substream(seed, it, THIN_BLOCK))
        assert np.array_equal(src.per_cell.sum(axis=1), train.counts)
        sample_locations(state, src, corr, substream(seed, it, LOCATION_BLOCK))
        sample_lambda(state, src, corr, substream(seed, it, LAMBDA_BLOCK))
        sample_phi(state, src, corr, substream(seed, it, PHI_BLOCK))
        sample_pi(state, substream(seed, it, PI_BLOCK))
    report(3, "thinning conservation over 1,000 sweeps", True)


# ---------------------------------------------------------------------------
# 4. Geweke joint-distribution test: marginal-conditional versus
#    successive-conditional means agree within 3 standard errors on a
#    (4,4,3) instance with Q=3, K=(3,3,2).
# ---------------------------------------------------------------------------

def test_criterion_04_geweke():
    t0 = time.time()
    shape, K, Q = (4, 4, 3), (3, 3, 2), 3
    hyper = Hyperparameters(a0=1.0, b0=1.0, e0=1.0, f0=1.0, alpha0=0.1)
    all_coords = np.array(list(itertools.product(*[range(d) for d in shape])))
    n = 20_000

    def stats(state):
        occ = np.bincount(state.core_locations[:, 0], minlength=3)
        return [state.core_values[0], state.factors[0].sum(), *occ]

    def draw_data(state, rng):
        y = rng.poisson(reconstruct_cells(state, all_coords))
        keep = y > 0
        return SparseCountTensor(shape, all_coords[keep], y[keep])

    mc = np.array([stats(init_explicit(shape, K, Q, "allocore", hyper, seed=i))
                   for i in range(n)])

    corr = no_mask()
    state = init_explicit(shape, K, Q, "allocore", hyper, seed=123456)
    chain_seed = 654321
    rng_data = np.random.default_rng(24)
    y = draw_data(state, rng_data)
    sc = np.empty((n, 5))
    for it in range(1, n + 1):
        src = thin_counts(state, y, substream(chain_seed, it, THIN_BLOCK))
        sample_locations(state, src, corr, substream(chain_seed, it, LOCATION_BLOCK))
        sample_lambda(state, src, corr, substream(chain_seed, it, LAMBDA_BLOCK))
        sample_phi(state, src, corr, substream(chain_seed, it, PHI_BLOCK))
        sample_pi(state, substream(chain_seed, it, PI_BLOCK))
        y = draw_data(state, rng_data)
        sc[it - 1] = stats(state)

    # batch means absorb the location chain's autocorrelation (IACT ~ 300)
    n_batches = 20
    batches = sc[: n // n_batches * n_batches].reshape(n_batches, -1, 5).mean(axis=1)
    ok = True
    for j, name in enumerate(["lambda_1", "sum_phi_1", "occ_1", "occ_2", "occ_3"]):
        se = math.sqrt(mc[:, j].var(ddof=1) / n
                       + batches[:, j].var(ddof=1) / n_batches)
        z = (mc[:, j].mean() - sc[:, j].mean()) / se
        print(f"  {name}: mc={mc[:, j].mean():.4f} sc={sc[:, j].mean():.4f} "
              f"z={z:+.2f}")
        ok &= abs(z) < 3
    elapsed = time.time() - t0
    report(4, f"Geweke joint-distribution test ({elapsed:.0f}s)",
           ok and elapsed < 300)


# ---------------------------------------------------------------------------
# 5. Sparse/dense reconstruction equivalence on 100 random states: the
#    budgeted-core evaluation equals the dense Tucker contraction at every
#    cell within 1e-12 relative error.
# ---------------------------------------------------------------------------

def test_criterion_05_sparse_dense_equivalence():
    from allocore.state import core_value_at

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 5))
        shape = tuple(int(d) for d in rng.integers(2, 5, size=M))
        K = tuple(int(k) for k in rng.integers(1, 7, size=M))
        Q = int(rng.integers(1, 9))
        state = init_explicit(shape, K, Q, "allocore", seed=seed)

        core = np.zeros(K)
        for kappa in itertools.product(*[range(k) for k in K]):
            core[kappa] = core_value_at(state, kappa)
        dense = core
        for m in range(M):
            dense = np.tensordot(dense, state.factors[m], axes=([0], [1]))

        cells = np.array(list(itertools.product(*[range(d) for d in shape])))
        sparse = reconstruct_cells(state, cells)
        dense_flat = dense.reshape(-1)
        rel = np.abs(sparse - dense_flat) / np.maximum(np.abs(dense_flat), 1e-300)
        worst = max(worst, float(rel.max()))
    report(5, f"sparse/dense equivalence, worst rel err {worst:.2e}",
           worst <= 1e-12)


# ---------------------------------------------------------------------------
# 6. CP equivalence: with locations locked on the diagonal, the engine's
#    factor and core-value updates are bit-identical to an independently
#    coded CP-form sampler over 100 iterations.
# ---------------------------------------------------------------------------

def test_criterion_06_cp_equivalence():
    rng = np.random.default_rng(8)
    shape = (10, 10, 5)
    cells = np.unique(rng.integers(0, (10, 10, 5), size=(60, 3)), axis=0)
    train = SparseCountTensor(shape, cells,
                              rng.integers(1, 6, size=len(cells)))
    K = Q = 5
    seed = 77
    engine = init_canonical(shape, Q, seed=seed, core_mode="cp_locked")
    corr = no_mask()

    # CP-form sampler: k latent classes, rate lambda_k * prod_m U_m[d_m, k];
    # no location indirection anywhere
    U = [f.copy() for f in engine.factors]
    lam = engine.core_values.copy()
    a0 = b0 = e0 = 1.0
    f0 = 10.0
    idx = [train.coords[:, m] for m in range(3)]
    y = train.counts

    def cp_iteration(it):
        nonlocal U, lam
        rates = np.tile(lam, (train.nnz, 1))
        for m in range(3):
            rates *= U[m][idx[m], :]
        suffix = np.cumsum(rates[:, ::-1], axis=1)[:, ::-1]
        r = substream(seed, it, THIN_BLOCK)
        per_cell = np.zeros((train.nnz, Q), dtype=np.int64)
        remaining = y.copy()
        for q in range(Q - 1):
            denom = suffix[:, q]
            with np.errstate(invalid="ignore", divide="ignore"):
                p = np.where(denom > 0, rates[:, q] / np.where(denom > 0, denom, 1.0), 0.0)
            draw = r.binomial(remaining, np.clip(p, 0.0, 1.0))
            per_cell[:, q] = draw
            remaining -= draw
        per_cell[:, Q - 1] = remaining

        r = substream(seed, it, LAMBDA_BLOCK)
        prod = np.ones(Q)
        for m in range(3):
            prod = prod * U[m].sum(axis=0)
        lam = np.maximum(r.gamma(a0 + per_cell.sum(axis=0), 1.0 / (b0 + prod)),
                         1e-300)

        r = substream(seed, it, PHI_BLOCK)
        for m in range(3):
            ym = np.zeros((shape[m], Q), dtype=np.int64)
            np.add.at(ym, idx[m], per_cell)
            contrib = lam.copy()
            for mm in range(3):
                if mm != m:
                    contrib = contrib * U[mm].sum(axis=0)
            c = np.broadcast_to(contrib, (shape[m], Q))
            U[m] = np.maximum(r.gamma(e0 + ym, 1.0 / (f0 + c)), 1e-300)

    identical = True
    for it in range(1, 101):
        src = thin_counts(engine, train, substream(seed, it, THIN_BLOCK))
        sample_lambda(engine, src, corr, substream(seed, it, LAMBDA_BLOCK))
        sample_phi(engine, src, corr, substream(seed, it, PHI_BLOCK))
        cp_iteration(it)
        identical &= np.array_equal(lam, engine.core_values)
        identical &= all(np.array_equal(U[m], engine.factors[m])
                         for m in range(3))
        if not identical:
            break
    report(6, "CP-form sampler bit-identity over 100 iterations", identical)


# ---------------------------------------------------------------------------
# 7. Complexity envelope: per-iteration time is linear in the budget and
#    nearly flat in the core dimensions (no dependence on prod(K_m)).
# ---------------------------------------------------------------------------

def test_criterion_07_complexity_envelope():
    t0 = time.time()
    rng = np.random.default_rng(12)
    shape = (30, 30, 30)
    cells = np.unique(rng.integers(0, 30, size=(6500, 3)), axis=0)[:5000]
    train = SparseCountTensor(shape, cells, rng.integers(1, 6, size=len(cells)))
    assert train.nnz == 5000

    def per_iter(inits, iters=6, reps=20):
        """Per-sweep CPU time of a chain from each state, the best of
        ``reps`` runs. The states take turns, so that a disturbance of the
        host slows one run of several points, not every run of one."""
        cfg = ChainConfig(burn_in=0, total=iters, thin=iters)
        best = np.full(len(inits), np.inf)
        for _ in range(reps):
            for i, init in enumerate(inits):
                start = time.process_time()
                run_chain(train, None, init, cfg)
                best[i] = min(best[i], (time.process_time() - start) / iters)
        return best

    qs = np.array([10, 20, 40, 80])
    inits = [init_canonical(shape, int(q), seed=3) for q in qs]
    inits += [init_explicit(shape, (k,) * 3, 20, "allocore", seed=3) for k in (50, 500)]
    *times, time_k50, time_k500 = per_iter(inits)
    times = np.array(times)
    design = np.vstack([np.ones(len(qs)), qs]).T
    coef, *_ = np.linalg.lstsq(design, times, rcond=None)
    resid = times - design @ coef
    r2 = 1.0 - (resid ** 2).sum() / ((times - times.mean()) ** 2).sum()
    k_ratio = time_k500 / time_k50

    elapsed = time.time() - t0
    print(f"  per-iteration ms: {np.round(times * 1e3, 2)} for Q={list(qs)}")
    print(f"  R2={r2:.4f}  K 50->500 ratio={k_ratio:.2f}")
    report(7, f"complexity envelope ({elapsed:.0f}s)",
           r2 >= 0.95 and k_ratio < 2.0 and elapsed < 300)


# ---------------------------------------------------------------------------
# 8. Synthetic recovery: fitting the default ground-truth design with budget
#    and dimensions of 20 recovers the true effective budget (6) and the
#    mode-1/2 dimensions (4) within +/-2 in posterior median.
# ---------------------------------------------------------------------------

def test_criterion_08_synthetic_recovery():
    t0 = time.time()
    tensor, truth = generate(default_config(seed=0))
    true_q, true_k = effective_dims(truth)
    assert true_q == 6
    init = init_canonical(tensor.shape, 20, seed=100)
    cfg = ChainConfig(burn_in=1000, total=1000, thin=10)
    post = run_chain(tensor, None, init, cfg)
    q_eff, k_eff = recovery_trace(post)
    med_q = float(np.median(q_eff))
    med_k = np.median(k_eff, axis=0)
    elapsed = time.time() - t0
    print(f"  median q_eff={med_q} (truth 6), median k_eff={med_k} "
          f"(truth {true_k})")
    ok = (abs(med_q - 6) <= 2
          and abs(med_k[0] - 4) <= 2
          and abs(med_k[1] - 4) <= 2
          and elapsed < 600)
    report(8, f"synthetic recovery ({elapsed:.0f}s)", ok)


# ---------------------------------------------------------------------------
# 9. Predictive sanity: across 8 seeded 1% fiber splits, the model's PPD
#    beats the rate-matched constant baseline on the full heldout set and on
#    its positive cells (each compared on the matching cell set) in at least
#    7 splits.
# ---------------------------------------------------------------------------

def test_criterion_09_predictive_sanity():
    from allocore.synthetic import SyntheticConfig

    t0 = time.time()
    # a structured instance dense enough that every 1% split holds out
    # positive cells (positive-only PPD is undefined otherwise)
    config = SyntheticConfig(shape=(30, 30, 6), true_dims=(4, 4, 3),
                             true_budget=8, column_scale=6.0,
                             column_concentration=0.3, seed=1)
    tensor, _ = generate(config)

    wins_full = wins_pos = 0
    for seed in range(1, 9):
        mask = make_fiber_mask(tensor, 2, 0.01, seed=seed)
        train, heldout = split(tensor, mask)
        assert heldout.positive().n_cells > 0
        init = init_canonical(tensor.shape, 10, seed=1000 + seed)
        cfg = ChainConfig(burn_in=400, total=400, thin=20)
        post = run_chain(train, mask, init, cfg)
        full_model = ppd(post, heldout)
        full_base = ppd_constant_baseline(train, heldout)
        pos_model = ppd_positive(post, heldout)
        pos_base = ppd_constant_baseline(train, heldout.positive())
        wins_full += full_model > full_base
        wins_pos += pos_model > pos_base
        print(f"  split seed {seed}: full {full_model:.4f} vs {full_base:.4f} | "
              f"positive {pos_model:.4g} vs {pos_base:.4g}")
    elapsed = time.time() - t0
    report(9, f"predictive sanity, wins full={wins_full}/8 "
              f"positive={wins_pos}/8 ({elapsed:.0f}s)",
           wins_full >= 7 and wins_pos >= 7 and elapsed < 900)


# ---------------------------------------------------------------------------
# 10. PPD formula oracle: the three worked examples reproduce to 1e-10.
# ---------------------------------------------------------------------------

def test_criterion_10_ppd_formula_oracle():
    def unit_state(lam):
        state = init_canonical((2, 2), 1, seed=0)
        state.core_values[:] = lam
        for m in range(2):
            state.factors[m][:] = 1.0
        return state

    def held(cells):
        return HeldoutSet(np.array([c for c, _ in cells]),
                          np.array([v for _, v in cells]))

    one = PosteriorSamples(samples=[unit_state(1e-300)])
    v1 = ppd(one, held([((0, 0), 0)]))
    ok = abs(v1 - 1.0) < 1e-10

    unit = PosteriorSamples(samples=[unit_state(1.0)])
    v2 = ppd(unit, held([((0, 0), 1)]))
    ok &= abs(v2 - math.exp(-1.0)) < 1e-10

    v3 = ppd(unit, held([((0, 0), 0), ((1, 1), 2)]))
    want = math.exp(0.5 * (-1.0 + math.log(math.exp(-1.0) / 2.0)))
    ok &= abs(v3 - want) < 1e-10
    report(10, "PPD worked-example oracle", ok)
