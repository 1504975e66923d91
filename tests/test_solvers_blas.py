"""The BLAS thread pin (repro.solvers.blas).

OpenBLAS's threaded kernels sum in a different order from the
single-threaded ones, so unpinned k >= 2 serve runs decide different y
on hosts with different core counts (and run many times slower).
Importing ``repro.solvers`` pins both bundled OpenBLAS builds to one
thread, whatever ``OPENBLAS_NUM_THREADS`` says.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.solvers.blas import blas_info

SRC = Path(__file__).resolve().parent.parent / "src"

#: Serves 6 slots of the paper topology at k = 2 (one coupled SLA
#: component, so every slot is a barrier solve through BLAS/LAPACK) and
#: prints a digest of the y decisions and the BLAS state in effect.
SCRIPT = """
import hashlib, json
import numpy as np
from repro.core import RegularizedOnline
from repro.serve import ServeLoop
from repro.solvers.blas import blas_info
from repro.topology.builder import PaperTopologyBuilder

trace = 40 + 30 * np.sin(np.arange(6) * 2 * np.pi / 24) + np.arange(6)
instance = PaperTopologyBuilder(k=2).build(trace)
y = ServeLoop(RegularizedOnline(), instance).run().trajectory.y
print(json.dumps({"y": hashlib.sha256(y.tobytes()).hexdigest(),
                  "blas": blas_info()}))
"""


def test_import_pins_every_bundled_openblas_to_one_thread():
    info = blas_info()
    if not info:
        pytest.skip("no bundled OpenBLAS with scipy_openblas_* symbols")
    for label, entry in info.items():
        assert entry["threads"] == 1, (label, entry)
        assert entry["config"].startswith("OpenBLAS"), entry


def test_k2_serve_decisions_do_not_depend_on_openblas_env():
    import json

    runs = {}
    for setting in (None, "2", "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        runs[setting] = json.loads(proc.stdout.strip().splitlines()[-1])
    assert runs[None]["y"] == runs["2"]["y"] == runs["1"]["y"]
    for run in runs.values():
        assert all(entry["threads"] == 1 for entry in run["blas"].values())
