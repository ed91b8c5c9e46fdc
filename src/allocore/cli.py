"""Command-line surface: ingest, mask, fit, eval, synth, classes, trace.

Every command writes a manifest into its output directory recording the
exact invocation, one key=value per line (a newline in a value is written
as backslash-n). Mode indices and coordinates are 1-based on the command
line and in all files. The environment variable ALLOCORE_THREADS, a positive
integer (default 1), bounds the worker processes used for fit sweeps over
several Q values. Each fit chain runs on its calling thread and one helper
thread of its own (see ``state.beside``), so ALLOCORE_THREADS = n can run up
to 2n threads. The variable does not bound eval, which scores held-out fibers
on the calling thread and one helper thread as well (see ``evaluation``).
trace reads the chain log and the samples' manifests, not their states.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .evaluation import (
    export_classes,
    load_samples,
    ppd,
    ppd_constant_baseline,
    ppd_positive,
    sample_dirs,
)
from .gibbs import CHAIN_LOG_NAME, ChainConfig, read_chain_log, run_chain
from .state import (Hyperparameters, effective_dims, init_explicit, load_state,
                    recover_state, save_state)
from .synthetic import (
    SyntheticConfig,
    default_config,
    generate,
    write_config,
    write_histograms,
    write_trace,
)
from .tensors import (
    EventSchema,
    TimeBinning,
    load_coo,
    load_events,
    load_mask,
    load_vocab,
    make_fiber_mask,
    read_manifest,
    split,
    write_coo,
    write_manifest,
    write_mask,
    write_vocab,
)

MODE_WORDS = {"allocore": "allocore", "cp": "cp_locked", "tucker": "tucker_dense"}

RESULT_COLUMNS = ("run", "dataset", "mode", "Q", "K", "seed", "S",
                  "ppd_full", "ppd_positive", "ppd_baseline", "wall_seconds")


def _threads() -> int:
    text = os.environ.get("ALLOCORE_THREADS", "1")
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"ALLOCORE_THREADS must be a positive integer, got {text!r}")
    return n


def _write_manifest(out_dir, command: str, argv: list[str], extra: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(os.path.join(out_dir, "manifest.txt"), {
        "command": command,
        "argv": shlex.join(argv),
        "artifact_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **extra,
    })


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects a comma list of integers, got {text!r}") from None


def _free_mode(mask_mode: int | None, M: int) -> int:
    """The 0-based free mode that the 1-based --mask-mode flag names."""
    if mask_mode is None or not 1 <= mask_mode <= M:
        raise ValueError(f"--mask-mode must name a mode in 1..{M}, got {mask_mode}")
    return mask_mode - 1


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _schema_from_args(args) -> tuple[EventSchema, TimeBinning | None]:
    if args.mode_cols is None:
        raise ValueError("--format events needs --mode-cols")
    mode_cols = [c.strip() for c in args.mode_cols.split(",")]
    time_mode = None
    binning = None
    if args.time_col is not None:
        if args.time_col not in mode_cols:
            raise ValueError(f"--time-col {args.time_col!r} is not a mode column")
        time_mode = mode_cols.index(args.time_col)
        binning = TimeBinning(unit=args.time_bin or "month", start=args.time_start,
                              end=args.time_end)
    vocabs = {}
    for spec in args.vocab or []:
        m_txt, eq, path = spec.partition("=")
        m = int(m_txt) - 1 if m_txt.strip().isdecimal() else -1
        if not eq or not 0 <= m < len(mode_cols):
            raise ValueError(f"--vocab expects MODE=PATH with MODE in 1..{len(mode_cols)}, "
                             f"got {spec!r}")
        if m in vocabs:
            raise ValueError(f"--vocab names mode {m + 1} more than once")
        if m == time_mode:
            raise ValueError(f"--vocab {spec!r}: mode {m + 1} is binned by --time-col")
        labels = load_vocab(path)
        if repeated := [lab for lab, n in Counter(labels).items() if n > 1]:
            raise ValueError(f"--vocab {spec!r}: label {repeated[0]!r} appears more than once")
        vocabs[m] = tuple(labels)
    delimiter = args.delimiter
    if delimiter is None:
        delimiter = "," if str(args.data).endswith(".csv") else "\t"
    schema = EventSchema(mode_columns=tuple(mode_cols),
                         count_column=args.count_col,
                         delimiter=delimiter,
                         vocabularies=vocabs or None,
                         time_mode=time_mode)
    return schema, binning


# the flags only --format events reads
_EVENT_FLAGS = ("mode_cols", "count_col", "delimiter", "vocab", "time_col",
                "time_bin", "time_start", "time_end")


def cmd_ingest(args, argv) -> int:
    if args.format == "events":
        schema, binning = _schema_from_args(args)
        tensor, vocabs = load_events(args.data, schema, binning)
    else:
        if given := [f for f in _EVENT_FLAGS if getattr(args, f) is not None]:
            raise ValueError("--format coo takes no "
                             + ", ".join("--" + f.replace("_", "-") for f in given))
        tensor = load_coo(args.data)
        vocabs = [[str(i + 1) for i in range(d)] for d in tensor.shape]
    os.makedirs(args.out, exist_ok=True)
    write_coo(tensor, os.path.join(args.out, "tensor.coo"))
    for m, vocab in enumerate(vocabs):
        write_vocab(vocab, os.path.join(args.out, f"vocab_{m + 1}.txt"))
    _write_manifest(args.out, "ingest", argv, {
        "data": os.path.abspath(args.data),
        "shape": " ".join(str(d) for d in tensor.shape),
        "nnz": tensor.nnz,
    })
    print(f"shape: {'x'.join(str(d) for d in tensor.shape)}")
    print(f"nnz: {tensor.nnz}")
    print(f"density: {tensor.density():.4f}")
    return 0


# ---------------------------------------------------------------------------
# mask
# ---------------------------------------------------------------------------

def cmd_mask(args, argv) -> int:
    if args.num_masks < 1:
        raise ValueError(f"--num-masks must be at least 1, got {args.num_masks}")
    tensor = load_coo(args.data)
    free_mode = _free_mode(args.mask_mode, tensor.ndim)
    # every mask is drawn, and so checked, before anything is written
    masks = [make_fiber_mask(tensor, free_mode, args.mask_frac, args.mask_seed + i)
             for i in range(args.num_masks)]
    os.makedirs(args.out, exist_ok=True)
    for i, mask in enumerate(masks):
        path = os.path.join(args.out, f"mask_{i + 1:02d}.txt")
        write_mask(mask, path)
        train, heldout = split(tensor, mask)
        print(f"mask_{i + 1:02d}: seed={args.mask_seed + i} stems={mask.n_stems} "
              f"train_nnz={train.nnz} heldout_cells={heldout.n_cells} "
              f"heldout_positive={np.count_nonzero(heldout.counts)}")
    _write_manifest(args.out, "mask", argv, {
        "data": os.path.abspath(args.data),
        "free_mode": args.mask_mode,
        "fraction": args.mask_frac,
        "first_seed": args.mask_seed,
        "num_masks": args.num_masks,
    })
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _settings(state, data, mask, burnin, thin) -> dict:
    """The settings a resumed chain must keep: the data, the mask, the
    state's core mode, Q, K, seed and hyperparameters, burn-in and thin."""
    return {"data": data,
            "mask": None if mask is None else (mask.free_mode, mask.stems.tobytes()),
            "mode": state.core_mode, "Q": state.Q, "K": state.K, "seed": state.seed,
            "burnin": str(burnin), "thin": str(thin), **asdict(state.hyper)}


def _check_resume(out, init, fresh, params: dict, mask) -> None:
    """Refuse to continue the chain at ``init``, the checkpoint, under other
    settings than the ones it and the run's manifest record; ``fresh`` is
    the state that the flags would start a new chain from. Only --iters may
    change."""
    man = read_manifest(out)
    stored_mask = load_mask(os.path.join(out, man["mask"])) if man.get("mask") else None
    stored = _settings(init, man.get("data"), stored_mask, man.get("burnin"),
                       man.get("thin"))
    wanted = _settings(fresh, os.path.abspath(params["data"]), mask,
                       params["burnin"], params["thin"])
    differ = [k for k in wanted if wanted[k] != stored[k]]
    if differ:
        raise ValueError(f"{out}: cannot resume with settings that differ from "
                         f"the run's: {', '.join(differ)}")


def _fit_single(params: dict) -> str:
    out = params["out"]
    if not params["resume"] and any(os.path.exists(os.path.join(out, name))
                                    for name in ("checkpoint", "samples")):
        raise ValueError(f"{out}: holds a run already; continue it with --resume "
                         f"or fit into another --out")
    tensor = load_coo(params["data"])

    mask = None
    if params["mask"] is not None:
        mask = load_mask(params["mask"])
    elif params["mask_frac"] is not None:
        mask = make_fiber_mask(tensor, _free_mode(params["mask_mode"], tensor.ndim),
                               params["mask_frac"], params["mask_seed"])

    hyper_flags = {f.name: params[f.name] for f in fields(Hyperparameters)}
    init = init_explicit(tensor.shape, params["K"], params["Q"],
                         MODE_WORDS[params["mode"]], Hyperparameters(**hyper_flags),
                         params["seed"])
    resume_from = os.path.join(out, "checkpoint")
    resuming = params["resume"] and recover_state(resume_from)
    if resuming:
        fresh, init = init, load_state(resume_from)
        _check_resume(out, init, fresh, params, mask)
        last = params["burnin"] + params["iters"]
        if last < init.next_iteration - 1:
            raise ValueError(f"{out}: the checkpoint is at iteration "
                             f"{init.next_iteration - 1}, past iteration {last} "
                             f"where --burnin and --iters end")

    config = ChainConfig(burn_in=params["burnin"], total=params["iters"],
                         thin=params["thin"])
    os.makedirs(out, exist_ok=True)
    mask_record = ""
    train = tensor
    if mask is not None:
        mask_record = "mask.txt"
        if not resuming:
            write_mask(mask, os.path.join(out, mask_record))
        train, _ = split(tensor, mask)

    _write_manifest(out, "fit", params["argv"], {
        "data": os.path.abspath(params["data"]),
        "mask": mask_record,
        "mode": params["mode"],
        "Q": init.Q,
        "K": "x".join(str(k) for k in init.K),
        "seed": init.seed,
        "burnin": params["burnin"],
        "iters": params["iters"],
        "thin": params["thin"],
        **hyper_flags,
    })
    saved = run_chain(train, mask, init, config, out_dir=out).iterations
    span = f" (iterations {saved[0]}..{saved[-1]})" if saved else ""
    print(f"{out}: saved {len(saved)} samples{span}")
    return out


def cmd_fit(args, argv) -> int:
    q_values = _int_list(args.Q, "--Q")
    if not q_values:
        raise ValueError("--Q must name at least one budget")
    if min(q_values) < 1:
        raise ValueError(f"--Q budgets must be at least 1, got {args.Q!r}")
    repeated = sorted({q for q in q_values if q_values.count(q) > 1})
    if repeated:  # two chains would share one Q<budget> directory
        raise ValueError(f"--Q names budget {', '.join(map(str, repeated))} more than once")
    base = dict(vars(args), K=_int_list(args.K, "--K") if args.K else None, argv=argv)
    # one budget fits into --out itself, several into a Q<budget> directory each
    one = len(q_values) == 1
    jobs = [{**base, "Q": q, "out": args.out if one else os.path.join(args.out, f"Q{q:04d}")}
            for q in q_values]
    workers = min(_threads(), len(jobs))
    if workers == 1:
        for job in jobs:
            _fit_single(job)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_fit_single, jobs))
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _existing_result_keys(path) -> set[str]:
    """The runs with a row in the results table at ``path``. A last line
    with no newline is a write stopped partway: it is cut off the file, so
    the next row starts a line of its own and that run is scored again."""
    if not os.path.exists(path):
        return set()
    with open(path, "rb+") as f:
        text = f.read()
        whole = text.rfind(b"\n") + 1
        f.truncate(whole)
    rows = text[:whole].decode().splitlines()[1:]
    return {line.split("\t", 1)[0] for line in rows if line.strip()}


def _run_key(run_dir) -> str:
    return os.path.basename(os.path.normpath(run_dir))


def _eval_run(run_dir) -> dict:
    if not os.path.exists(os.path.join(run_dir, "manifest.txt")):
        raise ValueError(f"{run_dir}: no manifest; not a fit output directory")
    man = read_manifest(run_dir)
    if not man.get("mask"):
        raise ValueError(f"{run_dir}: run was fit without a mask; nothing held out")
    if os.path.exists(os.path.join(run_dir, "INCOMPLETE")):
        raise ValueError(f"{run_dir}: INCOMPLETE marker: the fit has not finished; "
                         f"finish it with fit --resume")
    tensor = load_coo(man["data"])
    mask = load_mask(os.path.join(run_dir, man["mask"]))
    train, heldout = split(tensor, mask)
    try:
        samples = load_samples(run_dir)
    except ValueError as exc:
        raise ValueError(f"{run_dir}: missing samples ({exc})") from None

    log_path = os.path.join(run_dir, CHAIN_LOG_NAME)
    rows = read_chain_log(log_path)[1] if os.path.exists(log_path) else []
    wall = sum(float(row.rsplit("\t", 1)[1]) for row in rows)
    # a held-out set with no positive cell has no ppd_positive; the rest of
    # the row is still well defined
    positive = ppd_positive(samples, heldout) if heldout.counts.any() else math.nan
    return {
        "run": _run_key(run_dir),
        "dataset": os.path.basename(man["data"]),
        "mode": man.get("mode", "?"),
        "Q": man.get("Q", "?"),
        "K": man.get("K", "?"),
        "seed": man.get("seed", "?"),
        "S": samples.S,
        "ppd_full": f"{ppd(samples, heldout):.8g}",
        "ppd_positive": f"{positive:.8g}",
        "ppd_baseline": f"{ppd_constant_baseline(train, heldout):.8g}",
        "wall_seconds": f"{wall:.3f}",
    }


def cmd_eval(args, argv) -> int:
    runs = list(args.runs)
    first_with_key = {}
    for run_dir in runs:
        first = first_with_key.setdefault(_run_key(run_dir), run_dir)
        if os.path.realpath(first) != os.path.realpath(run_dir):
            raise ValueError(f"{first} and {run_dir} would both be row "
                             f"{_run_key(run_dir)!r}; score them into separate --out tables")

    def q_of(run_dir):
        try:
            return int(read_manifest(run_dir).get("Q", "0"))
        except (OSError, ValueError):
            return 0

    runs.sort(key=q_of)
    existing = _existing_result_keys(args.out)
    appended = 0
    with open(args.out, "a") as f:
        if f.tell() == 0:  # a new or empty file
            f.write("\t".join(RESULT_COLUMNS) + "\n")
        for run_dir in runs:
            key = _run_key(run_dir)
            if key in existing:
                print(f"{key}: already evaluated, skipping")
                continue
            row = _eval_run(run_dir)
            f.write("\t".join(str(row[c]) for c in RESULT_COLUMNS) + "\n")
            f.flush()
            existing.add(key)
            appended += 1
            print(f"{row['run']}: ppd_full={row['ppd_full']} "
                  f"ppd_positive={row['ppd_positive']} "
                  f"baseline={row['ppd_baseline']}")
    print(f"appended {appended} row(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args, argv) -> int:
    # any generator flag given makes a config of the given flags and
    # SyntheticConfig's defaults; with none, the default design
    flags = {
        "shape": tuple(_int_list(args.shape, "--shape")) if args.shape else None,
        "true_dims": (tuple(_int_list(args.true_dims, "--true-dims"))
                      if args.true_dims else None),
        "true_budget": args.true_Q,
        "column_scale": args.scale,
        "column_concentration": args.concentration,
        "lambda_shape": args.lambda_shape,
        "lambda_rate": args.lambda_rate,
    }
    given = {k: v for k, v in flags.items() if v is not None}
    config = (SyntheticConfig(**given, seed=args.seed) if given
              else default_config(seed=args.seed))
    tensor, truth = generate(config)
    q_eff, k_eff = effective_dims(truth)
    os.makedirs(args.out, exist_ok=True)
    write_coo(tensor, os.path.join(args.out, "tensor.coo"))
    write_config(config, os.path.join(args.out, "config.txt"))
    save_state(truth, os.path.join(args.out, "truth"))
    _write_manifest(args.out, "synth", argv, {
        "shape": " ".join(str(d) for d in config.shape),
        "true_dims": " ".join(str(k) for k in config.true_dims),
        "true_budget": config.true_budget,
        "seed": config.seed,
        "nnz": tensor.nnz,
        "total": tensor.total(),
        "q_eff": q_eff,
        "k_eff": " ".join(str(k) for k in k_eff),
    })
    print(f"shape: {'x'.join(str(d) for d in config.shape)}")
    print(f"true_dims: {','.join(str(k) for k in config.true_dims)} "
          f"true_budget: {config.true_budget}")
    print(f"nnz: {tensor.nnz} total: {tensor.total()}")
    print(f"effective: q_eff={q_eff} k_eff={','.join(str(k) for k in k_eff)}")
    return 0


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

def cmd_classes(args, argv) -> int:
    if args.state:
        state = load_state(args.state)
    elif args.run:
        state = load_state(sample_dirs(args.run)[-1])
    else:
        raise ValueError("classes needs --state or --run")
    vocabs = None
    if args.vocab:
        vocabs = []
        for m, d in enumerate(state.shape):
            path = os.path.join(args.vocab, f"vocab_{m + 1}.txt")
            labels = load_vocab(path) if os.path.exists(path) else [
                str(i + 1) for i in range(d)]
            if len(labels) != d:
                raise ValueError(f"{path}: {len(labels)} labels for mode {m + 1} "
                                 f"of size {d}")
            vocabs.append(labels)
    classes = export_classes(state, args.out, args.n, args.threshold, vocabs)
    _write_manifest(args.out, "classes", argv, {
        "n": args.n,
        "threshold": args.threshold,
        "exported": len(classes),
    })
    print(f"exported {len(classes)} classes to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# trace (recovery diagnostics for a fitted run)
# ---------------------------------------------------------------------------

def cmd_trace(args, argv) -> int:
    try:
        iterations = [int(read_manifest(path)["next_iteration"]) - 1
                      for path in sample_dirs(args.run)]
    except KeyError as exc:
        raise ValueError(f"{args.run}: a sample manifest is missing key {exc}") from None
    log_path = os.path.join(args.run, CHAIN_LOG_NAME)
    logged = {int(row.split("\t", 1)[0]): row.split("\t")[2:-1]
              for row in read_chain_log(log_path)[1]}
    if missing := sorted(set(iterations) - logged.keys()):
        raise ValueError(f"{log_path}: no whole row for saved iteration {missing[0]}")
    dims = np.array([logged[it] for it in iterations], dtype=np.int64)
    q_eff, k_eff = dims[:, 0], dims[:, 1:]
    os.makedirs(args.out, exist_ok=True)
    write_trace(iterations, q_eff, k_eff, os.path.join(args.out, "trace.tsv"))
    write_histograms(q_eff, k_eff, os.path.join(args.out, "histograms.tsv"))
    _write_manifest(args.out, "trace", argv, {"run": os.path.abspath(args.run)})
    print(f"wrote trace and histograms for {len(iterations)} samples to {args.out}")
    print(f"{'statistic':<10} {'median':>7} {'iqr':>12}")
    rows = [("q_eff", q_eff)] + [(f"k_eff_{m + 1}", k) for m, k in enumerate(k_eff.T)]
    for name, series in rows:
        lo, hi = np.percentile(series, [25, 75])
        print(f"{name:<10} {np.median(series):>7.1f} {f'[{lo:.0f}, {hi:.0f}]':>12}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_schema_flags(p):
    p.add_argument("--mode-cols", help="comma list of event columns, one per mode")
    p.add_argument("--count-col", default=None, help="optional count column")
    p.add_argument("--delimiter", default=None,
                   help="field delimiter (default: ',' for .csv, tab otherwise)")
    p.add_argument("--vocab", action="append", default=None, metavar="MODE=PATH",
                   help="fixed vocabulary file for a 1-based mode; repeatable")
    p.add_argument("--time-col", default=None, help="mode column holding dates")
    p.add_argument("--time-bin", default=None, choices=["month", "year"],
                   help="time bin width (default: month)")
    p.add_argument("--time-start", default=None, help="first bin, e.g. 2000-01")
    p.add_argument("--time-end", default=None, help="last bin, e.g. 2006-12")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="allocore",
        description="Sparse-core Poisson Tucker decomposition toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate an event log into a COO tensor")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["coo", "events"], default="events")
    _add_schema_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("mask", help="generate seeded fiber-holdout masks")
    p.add_argument("--data", required=True)
    p.add_argument("--mask-mode", type=int, required=True,
                   help="1-based free mode of the held-out fibers")
    p.add_argument("--mask-frac", type=float, default=0.01)
    p.add_argument("--mask-seed", type=int, default=1)
    p.add_argument("--num-masks", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("fit", help="run a Gibbs chain")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["allocore", "cp", "tucker"],
                   default="allocore")
    p.add_argument("--Q", required=True,
                   help="core budget; a comma list runs one chain per value")
    p.add_argument("--K", default=None,
                   help="comma list of per-mode core dimensions "
                        "(default: K_m = Q in every mode)")
    for f in fields(Hyperparameters):
        p.add_argument(f"--{f.name}", type=float, default=f.default)
    p.add_argument("--burnin", type=int, default=1000)
    p.add_argument("--iters", type=int, default=4000)
    p.add_argument("--thin", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mask", default=None, help="mask file to hold out")
    p.add_argument("--mask-frac", type=float, default=None)
    p.add_argument("--mask-mode", type=int, default=None,
                   help="1-based free mode of the fibers --mask-frac holds out")
    p.add_argument("--mask-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score fitted runs on their heldout fibers")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True, help="results table to append to")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a ground-truth tensor")
    p.add_argument("--out", required=True)
    p.add_argument("--shape", default=None)
    p.add_argument("--true-dims", default=None)
    p.add_argument("--true-Q", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--concentration", type=float, default=None)
    p.add_argument("--lambda-shape", type=float, default=None)
    p.add_argument("--lambda-rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("classes", help="export ranked latent classes")
    p.add_argument("--run", default=None, help="fitted run (uses last sample)")
    p.add_argument("--state", default=None, help="explicit state directory")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--vocab", default=None,
                   help="directory holding vocab_<m>.txt label files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("trace", help="export effective-dimension traces from the chain log")
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
