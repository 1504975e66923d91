"""Optimization substrate.

No external modeling language is available offline, so this package
provides the two solver layers everything else is built on:

* :mod:`repro.solvers.lp` — a sparse LP modeling layer over
  ``scipy.optimize.linprog`` (HiGHS), used by the offline optimum, the
  greedy one-shot baseline, FHC/RHC and the pinned-window problems of
  RFHC/RRHC;
* :mod:`repro.solvers.convex` — smooth convex programs with linear
  constraints (the regularized subproblems P2(t)), solved by our own
  log-barrier Newton method (:mod:`repro.solvers.barrier`) with a
  ``scipy.optimize.minimize(trust-constr)`` cross-check backend;
* :mod:`repro.solvers.kkt` — first-order optimality verification used
  in tests;
* :mod:`repro.solvers.backends` — the closed-form solve of P2(t) on an
  all-star SLA graph (eq. (6)); every other graph, and every slot the
  closed form does not cover, takes the coupled barrier solve.

Importing the package pins numpy's and scipy's bundled OpenBLAS to one
thread (:mod:`repro.solvers.blas`), so decisions do not depend on the
host's core count.
"""

from repro.solvers.blas import pin_threads
from repro.solvers.lp import LinearProgram, LPSolution, LPError
from repro.solvers.convex import (
    ConvexSolverError,
    SeparableObjective,
    SmoothConvexProgram,
    SolverOptions,
)
from repro.solvers.kkt import first_order_certificate

__all__ = [
    "LinearProgram",
    "LPSolution",
    "LPError",
    "SmoothConvexProgram",
    "SeparableObjective",
    "SolverOptions",
    "ConvexSolverError",
    "first_order_certificate",
]

pin_threads()
