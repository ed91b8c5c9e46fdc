"""Golden chains: short chains whose saved states and chain logs were hashed
once and are compared on every run, so a change that moves one bit of a
saved state or of a logged row fails here.

Each chain's digests are a SHA-256 over the version-1 text rendering of
every state ``load_state`` reads back from its run directory (the samples in
chain order, then the checkpoint) and a SHA-256 over its chain log with the
``seconds`` column cut off. The chains cover each core mode at M = 3, 4 and
5, with and without a fiber mask, plus one ``fit`` resumed from its
checkpoint and one ``fit --Q 2,3``.

The bits depend on the numerical environment, so the digests are compared
only where ``perfbench/gate.py::fingerprint`` matches the one recorded with
them. Each chain runs twice: once as the sampler chooses, and once with
thinning's helper thread on from the first cell and rate blocks of a few
cells, a path that the small tensors here would not take otherwise.

``python tests/test_golden_chains.py`` records the digests again, into
``golden_chains.json`` beside this file.
"""

import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from allocore import gibbs, state
from allocore.cli import main
from allocore.evaluation import sample_dirs
from allocore.gibbs import CHAIN_LOG_NAME, ChainConfig, read_chain_log, run_chain
from allocore.state import CORE_MODES, init_explicit, load_state
from allocore.synthetic import SyntheticConfig, generate
from allocore.tensors import make_fiber_mask, split, write_coo

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_chains.json")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

SHAPES = {3: (9, 8, 6), 4: (6, 5, 4, 4), 5: (5, 4, 4, 3, 3)}

CHAINS = [f"{mode}-M{M}-{'mask' if masked else 'nomask'}"
          for mode in CORE_MODES for M in SHAPES for masked in (False, True)]
CLI_RUNS = ["fit-resumed", "fit-Q2,3"]


def fingerprint() -> dict:
    sys.path.insert(0, PERFBENCH)
    try:
        import gate
    finally:
        sys.path.remove(PERFBENCH)
    return gate.fingerprint()


@functools.lru_cache
def tensor(M: int):
    """A generated M-mode tensor of a few hundred events."""
    X, _ = generate(SyntheticConfig(shape=SHAPES[M], true_dims=(2,) * M,
                                    true_budget=3, column_scale=300 ** (1 / M),
                                    column_concentration=1.0, seed=M))
    return X


def render(st) -> bytes:
    """``st`` as version 1 of the state format writes it: each factor
    matrix, the core table and the priors as ``%.17g`` text, then the
    manifest's values."""
    buf = io.BytesIO()
    for f in st.factors:
        np.savetxt(buf, f, fmt="%.17g")
    np.savetxt(buf, np.column_stack([st.core_values, st.core_locations + 1]),
               fmt=["%.17g"] + ["%d"] * st.M)
    for p in st.mode_priors:
        np.savetxt(buf, p[None], fmt="%.17g")
    manifest = (st.core_mode, st.shape, st.K, st.Q, asdict(st.hyper), st.seed,
                st.next_iteration)
    buf.write(repr(manifest).encode())
    return buf.getvalue()


def run_digests(run_dir) -> dict:
    states = hashlib.sha256()
    for path in sample_dirs(run_dir) + [os.path.join(run_dir, "checkpoint")]:
        states.update(render(load_state(path)))
    head, rows = read_chain_log(os.path.join(run_dir, CHAIN_LOG_NAME))
    log = hashlib.sha256()
    for line in head + rows:
        log.update((line if line[0] == "#" else line.rsplit("\t", 1)[0]).encode())
    return {"states": states.hexdigest(), "log": log.hexdigest()}


def chain_digests(name: str, tmp) -> dict:
    mode, M, masked = name.split("-")
    M = int(M[1:])
    X = tensor(M)
    mask = make_fiber_mask(X, M - 1, 0.2, 1) if masked == "mask" else None
    train = X if mask is None else split(X, mask)[0]
    K, Q = ((2,) * M, 1) if mode == "tucker_dense" else ((3,) * M, 3 + (mode == "allocore"))
    init = init_explicit(X.shape, K, Q, mode, seed=7)
    run_chain(train, mask, init, ChainConfig(burn_in=1, total=4, thin=2),
              out_dir=os.path.join(tmp, "run"))
    return run_digests(os.path.join(tmp, "run"))


def cli_digests(name: str, tmp) -> dict:
    data = os.path.join(tmp, "x.coo")
    write_coo(tensor(3), data)
    fit = ["fit", "--data", data, "--K", "3,3,3", "--burnin", "1", "--thin", "2",
           "--seed", "3", "--mask-frac", "0.2", "--mask-mode", "3"]
    out = os.path.join(tmp, "run")
    if name == "fit-resumed":
        assert main(fit + ["--Q", "4", "--iters", "2", "--out", out]) == 0
        assert main(fit + ["--Q", "4", "--iters", "4", "--out", out, "--resume"]) == 0
        return run_digests(out)
    assert main(fit + ["--Q", "2,3", "--iters", "4", "--out", out]) == 0
    return {q: run_digests(os.path.join(out, q)) for q in ("Q0002", "Q0003")}


def digests(name: str, tmp) -> dict:
    return (cli_digests if name in CLI_RUNS else chain_digests)(name, tmp)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        recorded = json.load(f)
    here = fingerprint()
    if recorded["environment"] != here:
        pytest.skip(f"golden digests were recorded in the numerical environment "
                    f"{recorded['environment']}, not in this one, {here}")
    return recorded["digests"]


@pytest.mark.parametrize("helper", ["chosen", "forced"])
@pytest.mark.parametrize("name", CHAINS + CLI_RUNS)
def test_chain_matches_its_recorded_digests(name, helper, golden, tmp_path,
                                            monkeypatch):
    monkeypatch.delenv("ALLOCORE_THREADS", raising=False)
    if helper == "forced":
        monkeypatch.setattr(gibbs, "_HELPER_MIN_CELLS", 0)
        # blocks of a few cells even at the largest Q here, 32
        monkeypatch.setattr(state, "_BLOCK_BYTES", 8 * 2 * 32)
    assert digests(name, str(tmp_path)) == golden[name]


def record() -> None:
    """Run every golden chain and write its digests, with this
    environment's fingerprint, to ``golden_chains.json``."""
    os.environ.pop("ALLOCORE_THREADS", None)
    recorded = {}
    for name in CHAINS + CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = digests(name, tmp)
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"environment": fingerprint(), "digests": recorded}, f,
                  indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    record()
