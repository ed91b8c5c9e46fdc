"""Correctness gate: recorded per-workload, per-seed chain results.

The ROADMAP forbids any change to the sampler's random stream, so the gate
compares exactly: the SHA-256 of the final checkpoint's data files and the
``ppd`` of the saved samples must equal the values recorded for the same
workload and chain seed. Both depend on the numerical environment (NumPy and
SciPy builds, the BLAS library and the CPU features it dispatches on, and the
pinned BLAS thread count), which is recorded beside them; in any other
environment the exact comparison is skipped and only the run's own
invariants are checked.
"""

from __future__ import annotations

import hashlib
import json
import os

__all__ = ["BLAS_THREADS", "GATE_PATH", "state_digest", "fingerprint",
           "load_gate", "save_gate"]

BLAS_THREADS = 1

GATE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gate.json")


def state_digest(dirpath) -> str:
    """SHA-256 over a saved state's data files, in the order ``save_state``
    checksums them: factors_1..M, core, priors. The manifest is left out
    because it restates these bytes through its own checksum line."""
    M = sum(1 for name in os.listdir(dirpath) if name.startswith("factors_"))
    names = [f"factors_{m + 1}.txt" for m in range(M)] + ["core.txt", "priors.txt"]
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(dirpath, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fingerprint() -> dict:
    """The numerical environment the gate values depend on."""
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_features": sorted(config["SIMD Extensions"]["found"]),
    }


def load_gate(path=GATE_PATH) -> dict:
    if not os.path.exists(path):
        return {"environment": None, "workloads": {}}
    with open(path) as f:
        return json.load(f)


def save_gate(gate: dict, path=GATE_PATH) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(gate, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
