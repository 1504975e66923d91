"""The shared solve-engine layer.

Every algorithm in this library is a :class:`Controller` — a per-slot
decision rule with carried state — driven by a :class:`SolveSession`
that owns the solve lifecycle: subproblem structure reuse, warm-start
state, step timing/statistics and trajectory assembly.  See
:mod:`repro.engine.session` for the streaming API and
:mod:`repro.engine.stats` for the per-step statistics records.

Config surface
--------------
The engine re-exports the one documented config type per algorithm
family:

* :class:`SubproblemConfig` — the two-tier regularized algorithms
  (``RegularizedOnline``, the chain, RFHC/RRHC).
* :class:`NTierConfig` — the N-tier regularized online algorithm.
* :class:`SolverOptions` — the convex-solver method (barrier or
  trust-constr, with or without fallback) embedded in both.
"""

from repro.core.subproblem import SubproblemConfig
from repro.engine.session import Controller, SlotData, SolveSession, source_network
from repro.engine.stats import RunStats, SolveRecord, StatsProbe, StepStats
from repro.ntier.online import NTierConfig
from repro.solvers.convex import SolverOptions

__all__ = [
    "Controller",
    "SlotData",
    "SolveSession",
    "source_network",
    "RunStats",
    "SolveRecord",
    "StatsProbe",
    "StepStats",
    "SubproblemConfig",
    "NTierConfig",
    "SolverOptions",
]
