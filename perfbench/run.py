"""Fit-and-eval benchmark for allocore.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) with chain seed N: the fit phase
(``load_coo`` -> ``make_fiber_mask`` -> ``split`` -> ``init_canonical`` ->
``run_chain``) and then the eval phase (``load_samples`` -> ``ppd`` /
``ppd_positive`` / ``ppd_constant_baseline``, or ``train_loglik`` per sample
where nothing is held out), each in a child process of
its own with BLAS pinned to one thread. It checks the correctness gate,
prints every metric by name and unit, and ends with one JSON line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``. Each workload runs a fixed chain, because the gate hashes
its final state; ``--seconds`` is the time that work takes on the reference
machine and does not change it. ``--record-gate`` stores this run's gate
values for the seed when none are recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from gate import BLAS_THREADS, load_gate, save_gate
from workloads import WORKLOADS, Workload, input_paths

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA_DIR = os.path.join(HERE, "data")
RUNS_DIR = os.path.join(HERE, "runs")

# A run must end within 180 s; children are killed past this deadline.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sweep_s.p50": "s",
    "fit_s": "s",
    "eval_s": "s",
    "fit_rss_mb": "MB",
    "eval_rss_mb": "MB",
}

# Fit-phase layers are reported per sweep, set-up layers per set-up, and
# eval layers per eval phase. ``.s`` is self time: a span minus its children.
PER_LAYER = {
    "gibbs.run_chain.s": "s/sweep",
    "gibbs.thin_counts.s": "s/sweep",
    "gibbs.thin_counts.draws": "count/sweep",
    "gibbs.thin_counts.live_frac": "ratio",
    "gibbs.thin_counts.bytes": "B/sweep",
    "gibbs.proportional_train_loglik.s": "s/sweep",
    "gibbs.sample_locations.s": "s/sweep",
    "gibbs.sample_locations.moves": "count/sweep",
    "gibbs.sample_locations.move_frac": "ratio",
    "gibbs.mask.mode_weights.calls": "count/sweep",
    "gibbs.mask.mode_weights.s": "s/sweep",
    "gibbs.mask.masked_rate_totals.s": "s/sweep",
    "gibbs.mask.phi_corrections.s": "s/sweep",
    "gibbs.sample_lambda.s": "s/sweep",
    "gibbs.sample_phi.s": "s/sweep",
    "gibbs.sample_pi.s": "s/sweep",
    "state.cell_rates.calls": "count/sweep",
    "state.cell_rates.s": "s/sweep",
    "state.cell_rates.cells": "count/sweep",
    "state.save_state.calls": "count/sweep",
    "state.save_state.s": "s/sweep",
    "state.save_state.bytes": "B/sweep",
    "state.load_state.s": "s",
    "state.load_state.bytes": "B",
    "evaluation.load_samples.s": "s",
    "evaluation.ppd.s": "s",
    "evaluation.ppd_positive.s": "s",
    "evaluation.train_loglik.s": "s",
    "evaluation.reconstruct_cells.calls": "count",
    "evaluation.reconstruct_cells.s": "s",
    "evaluation.reconstruct_cells.cells": "count",
    "tensors.load_coo.s": "s/setup",
    "tensors.split.s": "s/setup",
    "tensors.make_fiber_mask.s": "s/setup",
    "tensors.nnz": "count",
    "tensors.held_cells": "count",
    "tensors.stems": "count",
    "synthetic.generate.s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(phase: str, request: dict, tag: str, run_dir: str,
              deadline: float) -> dict:
    """Run one phase in a fresh interpreter and return its result. The
    child's output goes to stderr so stdout carries only the report."""
    req_path = os.path.join(run_dir, f"{tag}.request.json")
    res_path = os.path.join(run_dir, f"{tag}.result.json")
    with open(req_path, "w") as f:
        json.dump(request, f)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"{tag}: no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "phases.py"), phase,
             req_path, res_path],
            cwd=ROOT, env=_child_env(), stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{tag}: killed at the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{tag}: exited with code {proc.returncode}")
    with open(res_path) as f:
        return json.load(f)


def ensure_inputs(wl: Workload, run_dir: str, deadline: float) -> dict:
    """Generate the workload's inputs once per checkout; later runs reuse
    them, so generation never falls inside a measured phase."""
    os.makedirs(DATA_DIR, exist_ok=True)
    paths = input_paths(wl, DATA_DIR)
    if not all(os.path.exists(p) for p in paths.values()):
        run_child("prepare", {"workload": wl.to_json(), "paths": paths},
                  "prepare", run_dir, deadline)
    with open(paths["record"]) as f:
        return {**paths, "generated": json.load(f)}


def _stat(stats: dict, name: str, key: str, per: float) -> float:
    return stats.get(name, {}).get(key, 0) / per


def per_layer_metrics(wl: Workload, fit: dict, ev: dict, generated: dict,
                      overhead_s: float) -> dict[str, float]:
    n = wl.sweeps
    fs, fc, es, ec = fit["spans"], fit["counts"], ev["spans"], ev["counts"]
    draws = fc.get("gibbs.thin_counts.draws", 0)
    slots = fc.get("gibbs.sample_locations.slots", 0)
    out = {
        "gibbs.thin_counts.draws": draws / n,
        "gibbs.thin_counts.live_frac":
            fc.get("gibbs.thin_counts.live", 0) / draws if draws else 0.0,
        "gibbs.thin_counts.bytes": fc.get("gibbs.thin_counts.bytes", 0) / n,
        "gibbs.sample_locations.moves": fc.get("gibbs.sample_locations.moves", 0) / n,
        "gibbs.sample_locations.move_frac":
            fc.get("gibbs.sample_locations.moves", 0) / slots if slots else 0.0,
        "gibbs.mask.mode_weights.calls": _stat(fs, "gibbs.mask.mode_weights", "calls", n),
        "state.cell_rates.calls": _stat(fs, "state.cell_rates", "calls", n),
        "state.cell_rates.cells": fc.get("state.cell_rates.cells", 0) / n,
        "state.save_state.calls": _stat(fs, "state.save_state", "calls", n),
        "state.save_state.bytes": fc.get("state.save_state.bytes", 0) / n,
        "state.load_state.bytes": ec.get("state.load_state.bytes", 0),
        "evaluation.reconstruct_cells.calls":
            _stat(es, "evaluation.reconstruct_cells", "calls", 1),
        "evaluation.reconstruct_cells.cells":
            ec.get("evaluation.reconstruct_cells.cells", 0),
        "tensors.nnz": fit["nnz"],
        "tensors.held_cells": fit["held_cells"],
        "tensors.stems": fit["stems"],
        "synthetic.generate.s": generated["generate_s"],
        "trace.overhead_s": overhead_s,
    }
    # The rest are ".s" metrics: a span's self time per sweep, per set-up
    # or per eval phase.
    per_unit = {"s/sweep": (fs, n), "s/setup": (fs, wl.setup_reps), "s": (es, 1)}
    for name, unit in PER_LAYER.items():
        if name not in out:
            stats, per = per_unit[unit]
            out[name] = _stat(stats, name[:-len(".s")], "self", per)
    return {name: out[name] for name in PER_LAYER}


# The eval value each workload's gate records: ppd where fibers are held
# out, the summed training log-likelihood of the samples where none are.
GATED_VALUES = ("ppd", "train_loglik")


def _in_range(name: str, text: str) -> bool:
    v = float(text)
    return math.isfinite(v) and (name == "train_loglik" or 0.0 < v <= 1.0)


def check(wl: Workload, seed: int, fits: list[dict], ev: dict,
          gate: dict, record: bool) -> tuple[list[tuple[str, bool, str]], str]:
    """The correctness gate. Returns one (operation, ok, why) per operation
    attempted, and a line saying how the recorded values were used."""
    env = fits[0]["fingerprint"]
    recorded = gate["workloads"].get(wl.name, {}).get(str(seed))
    exact = recorded if recorded and gate["environment"] == env else {}
    n_samples = wl.sweeps // wl.thin
    ops = []
    for i, f in enumerate(fits):
        problems = []
        if not f["log_ok"]:
            problems.append("non-finite or missing loglik rows")
        if f["mask_ok"] is False:
            problems.append("make_fiber_mask differs from the cached mask")
        if f["samples"] != n_samples:
            problems.append(f"{f['samples']} samples saved, want {n_samples}")
        if f["state_sha256"] != fits[0]["state_sha256"]:
            problems.append("traced chain differs from the untraced one")
        if exact and f["state_sha256"] != exact["state_sha256"]:
            problems.append("state sha256 differs from the recorded value")
        ops.append(("fit (traced)" if i else "fit", not problems,
                    "; ".join(problems)))

    ops.append(("load_samples", ev["samples"] == n_samples,
                f"{ev['samples']} samples loaded, want {n_samples}"))
    ops.append(("eval repeats", ev["values_repeat"],
                "repeated evals of the same samples gave different values"))
    values = ev["values"]
    for name, text in values.items():
        ok, why = _in_range(name, text), f"{text} is out of range"
        if name in exact and text != exact[name]:
            ok, why = False, f"{text} differs from the recorded {exact[name]}"
        ops.append((name, ok, why))

    if exact:
        note = "gate: recorded state sha256 and eval value compared exactly"
    elif recorded:
        note = "gate: recorded in another numerical environment; invariants only"
    else:
        note = "gate: nothing recorded for this seed; invariants only"
    if record and not recorded and all(ok for _, ok, _ in ops):
        if gate["environment"] not in (None, env):
            raise SystemExit("--record-gate: gate.json holds another environment")
        gate["environment"] = env
        entry = {"state_sha256": fits[0]["state_sha256"]}
        entry.update((k, values[k]) for k in GATED_VALUES if k in values)
        gate["workloads"].setdefault(wl.name, {})[str(seed)] = entry
        save_gate(gate)
        note = "gate: values recorded for this seed"
    return ops, note


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-gate", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "allocore", "__init__.py")):
        print(f"perfbench: no allocore sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(RUNS_DIR, f"{wl.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    try:
        inputs = ensure_inputs(wl, run_dir, deadline)
        base = {"workload": wl.to_json(), "seed": args.seed,
                "coo": inputs["coo"], "mask": inputs.get("mask")}
        fits = []
        for traced in range(args.trace + 1):
            tag = "fit_traced" if traced else "fit"
            fits.append(run_child("fit", {
                **base, "trace": bool(traced),
                "out": os.path.join(run_dir, tag),
                "spans": os.path.join(run_dir, f"{tag}.spans.tsv")},
                tag, run_dir, deadline))
        tag = "eval_traced" if args.trace else "eval"
        ev = run_child("eval", {
            **base, "trace": bool(args.trace),
            "out": os.path.join(run_dir, "fit_traced" if args.trace else "fit"),
            "spans": os.path.join(run_dir, f"{tag}.spans.tsv")},
            tag, run_dir, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for tag in ("fit", "fit_traced"):
            shutil.rmtree(os.path.join(run_dir, tag), ignore_errors=True)

    ops, gate_note = check(wl, args.seed, fits, ev, load_gate(), args.record_gate)
    failed = sum(1 for _, ok, _ in ops if not ok)

    fit = fits[0]
    sweeps = [iv / wl.thin for iv in fit["sink_intervals"]]
    e2e = {
        "setup_s": statistics.median(fit["setup_s"]),
        "sweep_s.p50": statistics.median(sweeps),
        "fit_s": fit["fit_s"],
        "eval_s": statistics.median(ev["eval_s"]),
        "fit_rss_mb": fit["rss_mb"],
        "eval_rss_mb": ev["rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(fit['setup_s'])} set-ups at the reference "
                   f"host speed (wall-time median "
                   f"{statistics.median(fit['setup_wall_s']):.4f} s)",
        "sweep_s.p50": f"median of {len(sweeps)} intervals of {wl.thin} sweep(s)",
        "fit_s": f"run_chain, {wl.sweeps} sweeps",
        "eval_s": f"median of {len(ev['eval_s'])} evals: " + (
            "load_samples + ppd calls" if wl.mask_frac is not None
            else "load_samples + train_loglik (no mask, nothing held out)"),
    }
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{fit['nnz']} nnz (data seed {wl.data_seed}, generated in "
          f"{inputs['generated']['generate_s']:.2f} s), {fit['stems']} stems, Q={wl.Q}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {_fmt(e2e[name]):>12} {unit:<5} {notes.get(name, '')}")
    print(f"  {'fail_frac':<14} {_fmt(failed / len(ops)):>12} ratio "
          f"{failed} of {len(ops)} operations failed")
    for op, ok, why in ops:
        if not ok:
            print(f"  FAILED {op}: {why}")
    print(f"  {gate_note}")

    if args.trace:
        overhead = fits[1]["fit_s"] - fit["fit_s"]
        metrics = per_layer_metrics(wl, fits[1], ev, inputs["generated"], overhead)
        print(f"  traced fit_s {fits[1]['fit_s']:.4f} s, untraced {fit['fit_s']:.4f} s")
        for phase, res in (("fit", fits[1]), ("eval", ev)):
            print(f"  {phase} spans{'':<36} calls      total_s       self_s")
            for name, st in sorted(res["spans"].items()):
                print(f"    {name:<40} {st['calls']:>6} {st['total']:>12.4f} "
                      f"{st['self']:>12.4f}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36} {_fmt(metrics[name]):>12} {unit}")
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in PER_LAYER.items()}
    else:
        report = {name: {"value": e2e[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
