import json
import os

import phases
import run
from workloads import WORKLOADS, Workload, input_paths

TINY = Workload(name="tiny", shape=(12, 10, 4), true_dims=(2, 2, 2),
                true_budget=3, column_scale=20.0, column_concentration=0.5,
                data_seed=4, Q=5, sweeps=4, thin=2, setup_reps=2,
                eval_reps=2, mask_frac=0.2)


def _fit_and_eval(tmp_path, tag, paths, trace=False):
    req = {"workload": TINY.to_json(), "seed": 7, "coo": paths["coo"],
           "mask": paths["mask"], "trace": trace,
           "out": str(tmp_path / tag), "spans": str(tmp_path / f"{tag}.tsv")}
    return phases.fit(req), phases.evaluate(req)


def test_gate_values_stable_across_runs_and_tracing(tmp_path):
    paths = input_paths(TINY, str(tmp_path))
    phases.prepare({"workload": TINY.to_json(), "paths": paths})
    fit_a, ev_a = _fit_and_eval(tmp_path, "a", paths)
    fit_b, ev_b = _fit_and_eval(tmp_path, "b", paths)
    fit_t, ev_t = _fit_and_eval(tmp_path, "t", paths, trace=True)
    assert fit_a["state_sha256"] == fit_b["state_sha256"] == fit_t["state_sha256"]
    assert ev_a["values"]["ppd"] == ev_b["values"]["ppd"] == ev_t["values"]["ppd"]
    assert fit_a["log_ok"] and fit_a["mask_ok"] and fit_a["samples"] == 2
    assert ev_a["samples"] == 2
    # Untraced evals repeat and give the same values each time; a traced
    # eval runs once.
    assert len(ev_a["eval_s"]) == 2 and ev_a["values_repeat"]
    assert len(ev_t["eval_s"]) == 1
    assert fit_t["spans"]["state.cell_rates"]["calls"] == 2 * TINY.sweeps

    ops, note = run.check(TINY, 7, [fit_a, fit_t], ev_a,
                          {"environment": fit_a["fingerprint"], "workloads": {
                              "tiny": {"7": {"state_sha256": fit_a["state_sha256"],
                                             "ppd": ev_a["values"]["ppd"]}}}},
                          record=False)
    assert all(ok for _, ok, _ in ops) and "compared exactly" in note
    ops, _ = run.check(TINY, 7, [fit_a], ev_a,
                       {"environment": fit_a["fingerprint"], "workloads": {
                           "tiny": {"7": {"state_sha256": "0" * 64,
                                          "ppd": ev_a["values"]["ppd"]}}}},
                       record=False)
    assert [op for op, ok, _ in ops if not ok] == ["fit"]


def test_per_layer_metrics_cover_every_name(tmp_path):
    paths = input_paths(TINY, str(tmp_path))
    phases.prepare({"workload": TINY.to_json(), "paths": paths})
    fit_t, ev_t = _fit_and_eval(tmp_path, "t", paths, trace=True)
    metrics = run.per_layer_metrics(TINY, fit_t, ev_t, {"generate_s": 1.0}, 0.0)
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["state.cell_rates.calls"] == 2
    assert metrics["gibbs.mask.mode_weights.calls"] == 2 * TINY.Q * 3
    assert 0 < metrics["gibbs.thin_counts.live_frac"] <= 1


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
