import math
from dataclasses import replace

import numpy as np
import pytest

from allocore.gibbs import PosteriorSamples, observed_rate_total
from allocore.state import init_canonical
from allocore.synthetic import (
    SyntheticConfig,
    default_config,
    generate,
    recovery_trace,
    write_config,
    write_histograms,
    write_trace,
)


class TestGenerate:
    def test_default_fixed_columns_sum_to_scale(self):
        config = default_config()
        _, truth = generate(config)
        colsums = truth.state.factors[2].sum(axis=0)
        assert np.allclose(colsums, 5.0)
        assert truth.state.factors[2].shape == (5, 2)
        # random columns are rescaled to the same column mass
        for m in range(2):
            assert np.allclose(truth.state.factors[m].sum(axis=0), 5.0)

    def test_deterministic(self):
        a, _ = generate(default_config(seed=4))
        b, _ = generate(default_config(seed=4))
        assert np.array_equal(a.coords, b.coords) and np.array_equal(a.counts, b.counts)
        c, _ = generate(default_config(seed=5))
        assert not (np.array_equal(a.coords, c.coords)
                    and np.array_equal(a.counts, c.counts))

    def test_single_class_total_oracle(self):
        # Q*=1 with unit-scale columns: grand total ~ Pois(lam * 125)
        config = SyntheticConfig(shape=(10, 10, 5), true_dims=(2, 2, 2),
                                 true_budget=1, seed=0)
        devs = []
        for seed in range(60):
            tensor, truth = generate(replace(config, seed=seed))
            lam = truth.state.core_values[0]
            mean = 125.0 * lam
            devs.append((tensor.total() - mean) / math.sqrt(mean))
        devs = np.array(devs)
        assert (np.abs(devs) < 5).all()
        assert abs(devs.mean()) < 4 / math.sqrt(len(devs))

    def test_expected_grand_total_band(self):
        config = default_config()
        inside = 0
        for seed in range(200):
            tensor, truth = generate(replace(config, seed=seed))
            mean = observed_rate_total(truth.state)
            if abs(tensor.total() - mean) <= 4 * math.sqrt(mean):
                inside += 1
        assert inside >= 198

    def test_sparsity_gate(self):
        config = default_config()
        size = math.prod(config.shape)
        sparse_enough = sum(
            generate(replace(config, seed=seed))[0].nnz / size < 0.1
            for seed in range(200))
        assert sparse_enough >= 190

    def test_truth_consistency(self):
        tensor, truth = generate(default_config(seed=2))
        assert truth.state.shape == tensor.shape
        assert truth.q_eff <= truth.state.Q
        assert all(k <= kk for k, kk in zip(truth.k_eff, truth.state.K))

    def test_fixed_column_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SyntheticConfig(shape=(4, 4), true_dims=(2, 2),
                            fixed_columns={0: np.ones((3, 2))})
        with pytest.raises(ValueError, match="positive"):
            SyntheticConfig(shape=(4, 4), true_dims=(2, 2),
                            fixed_columns={0: np.zeros((4, 2))})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(shape=(4, 4), true_dims=(2,))
        with pytest.raises(ValueError):
            SyntheticConfig(true_budget=0)


class TestRecoveryTrace:
    def test_constant_for_identical_samples(self):
        state = init_canonical((4, 4), 3, seed=0)
        post = PosteriorSamples(samples=[state.snapshot() for _ in range(5)])
        q_eff, k_eff = recovery_trace(post)
        assert (q_eff == q_eff[0]).all()
        assert (k_eff == k_eff[0]).all()

    def test_canonical_init_occupies_diagonal(self):
        state = init_canonical((4, 4, 4), 6, seed=0)
        post = PosteriorSamples(samples=[state])
        q_eff, k_eff = recovery_trace(post)
        assert q_eff[0] == 6
        assert (k_eff[0] == 6).all()

    def test_exports(self, tmp_path):
        states = [init_canonical((4, 4), 3, seed=s) for s in range(3)]
        for s, state in enumerate(states):
            state.next_iteration = 10 * (s + 1) + 1
        post = PosteriorSamples(samples=states)
        q_eff, k_eff = recovery_trace(post)
        write_trace(post.iterations, q_eff, k_eff, tmp_path / "trace.tsv")
        write_histograms(q_eff, k_eff, tmp_path / "hist.tsv")
        trace = (tmp_path / "trace.tsv").read_text().splitlines()
        assert trace[0] == "sample\titeration\tk_eff_1\tk_eff_2\tq_eff"
        assert [row.split("\t")[1] for row in trace[1:]] == ["10", "20", "30"]
        hist = (tmp_path / "hist.tsv").read_text().splitlines()
        assert hist[0] == "statistic\tvalue\tcount"
        assert any(line.startswith("q_eff") for line in hist[1:])


def test_config_echo(tmp_path):
    config = default_config(seed=9)
    write_config(config, tmp_path / "config.txt")
    text = (tmp_path / "config.txt").read_text()
    assert "shape=40 40 5" in text
    assert "true_budget=6" in text
    assert "seed=9" in text
    assert "fixed_modes=3" in text
