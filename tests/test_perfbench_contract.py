"""The names the benchmark harness (``perfbench/``) reaches into ``src`` by.

perfbench times layers by replacing the calls in ``perfbench.spans.PATCHES``
for one episode, and reports the batched backend's fallbacks per reason
in ``FALLBACK_REASONS``.  Its own tests never run a traced episode, so a
renamed call or a new fallback reason would only surface as a broken or
silently incomplete benchmark run.  These checks catch both here.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402

from repro.core import SubproblemConfig  # noqa: E402
from repro.core.subproblem import RegularizedSubproblem  # noqa: E402
from repro.model import Allocation  # noqa: E402
from repro.solvers.backends import batched  # noqa: E402

from conftest import make_instance, make_network  # noqa: E402


def test_every_patch_target_resolves():
    for name, module, owner, attr in spans.PATCHES:
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        assert callable(getattr(target, attr, None)), name


def test_every_fallback_reason_is_reported():
    source = Path(batched.__file__).read_text(encoding="utf-8")
    reasons = set(re.findall(r'\bbail\("([^"]+)"\)', source))
    assert reasons, "no bail(...) sites found"
    assert reasons <= set(spans.FALLBACK_REASONS), reasons - set(
        spans.FALLBACK_REASONS
    )


def test_batched_solve_is_looked_up_every_slot(monkeypatch):
    # perfbench wraps the class attribute; a subproblem built before the
    # wrapper is installed must still reach it.
    net = make_network(n_tier1=6, k=1)
    inst = make_instance(net, horizon=2, seed=1)
    sub = RegularizedSubproblem(net, SubproblemConfig(backend="batched"))
    calls = []
    solve = batched.BatchedNewtonBackend.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(batched.BatchedNewtonBackend, "solve", counted)
    prev = Allocation.zeros(net.n_edges)
    for t in range(inst.horizon):
        prev, _ = sub.solve_reduced(
            inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev
        )
    assert len(calls) == inst.horizon
    assert np.all(np.isfinite(prev.x))
