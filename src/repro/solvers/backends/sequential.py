"""The reference backend: one coupled barrier solve per slot.

This is the historical solve path, moved behind the
:class:`~repro.solvers.backends.base.SolverBackend` protocol unchanged:
``solve`` delegates to the subproblem's own coupled solve
(:meth:`RegularizedSubproblem._solve_reduced_coupled`), so results are
bitwise identical to the pre-backend-layer code and every other backend
is validated against it.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class SequentialBackend:
    """Solve each slot as one coupled convex program (the default)."""

    name = "sequential"

    def compile(self, subproblem: Any) -> Any:
        """The subproblem *is* the handle: its per-keep-pattern program
        cache already holds all compiled state."""
        return subproblem

    def solve(
        self,
        handle: Any,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Any,
        warm: "np.ndarray | None" = None,
        probe: Any = None,
    ) -> "tuple[Any, np.ndarray]":
        return handle._solve_reduced_coupled(
            workload, tier2_price, link_price, previous, warm, probe=probe
        )
