"""First-order optimality verification for convex programs.

For a convex problem with linear constraints, a feasible point ``v`` is
optimal iff there is no feasible descent direction: the LP

.. math::

    \\min_d \\; \\nabla f(v)^T d \\quad \\text{s.t.} \\quad
    A_{act} d \\le 0, \\; d_k \\ge 0 \\;(lb\\text{ active}), \\;
    d_k \\le 0 \\;(ub\\text{ active}), \\; \\|d\\|_\\infty \\le 1

has optimal value 0.  :func:`first_order_certificate` returns that
optimal value (a small negative number indicates how far from
stationary the candidate is).  The test suite uses this to certify the
barrier solver and trust-constr against each other without trusting
either implementation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.solvers.convex import SmoothConvexProgram


def first_order_certificate(
    prog: SmoothConvexProgram,
    v: np.ndarray,
    active_tol: float = 1e-6,
) -> float:
    """Best attainable directional derivative from ``v`` (0 = optimal).

    Parameters
    ----------
    prog:
        The convex program.
    v:
        Candidate solution (must be feasible up to ``active_tol``).
    active_tol:
        Constraints within this slack of equality count as active.

    Returns
    -------
    float
        The minimum of ``grad . d`` over unit-box feasible directions;
        values above ``-1e-6`` (scaled by the gradient norm) certify
        first-order optimality.
    """
    v = np.asarray(v, dtype=float)
    g = prog.objective.grad(v)
    n = g.shape[0]
    # Normalize by the objective's natural gradient scale, floored so a
    # near-zero gradient (interior optimum) is not amplified into a
    # spurious descent direction.
    scale = max(
        float(np.linalg.norm(g, np.inf)),
        float(np.linalg.norm(prog.objective.linear, np.inf)),
        1e-12,
    )

    rows = []
    if prog.A.shape[0]:
        slack = prog.b - prog.A @ v
        active = slack <= active_tol * (1.0 + np.abs(prog.b))
        if np.any(active):
            rows.append(sp.csr_matrix(prog.A[active]))
    A_ub = sp.vstack(rows, format="csr") if rows else None
    b_ub = np.zeros(A_ub.shape[0]) if A_ub is not None else None

    lb_active = np.isfinite(prog.lb) & (v - prog.lb <= active_tol * (1.0 + np.abs(prog.lb)))
    ub_active = np.isfinite(prog.ub) & (prog.ub - v <= active_tol * (1.0 + np.abs(prog.ub)))
    lo = np.where(lb_active, 0.0, -1.0)
    hi = np.where(ub_active, 0.0, 1.0)
    # A coordinate can be both active-low and active-high (fixed var).
    hi = np.maximum(hi, lo)

    res = linprog(
        g / scale,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    if not res.success:  # pragma: no cover - the LP is always feasible (d=0)
        raise RuntimeError(f"certificate LP failed: {res.message}")
    return float(res.fun)
