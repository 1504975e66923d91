"""The closed-form solve of the per-slot subproblems on star graphs.

:class:`~repro.core.subproblem.SubproblemConfig` picks one of two ways
to solve P2(t) with its ``backend`` field: ``"sequential"`` (one coupled
barrier solve, :meth:`RegularizedSubproblem._solve_reduced_coupled
<repro.core.subproblem.RegularizedSubproblem._solve_reduced_coupled>`)
or ``"batched"`` (:class:`BatchedNewtonBackend`: the closed form of
eq. (6) when every SLA component is a star, else the same coupled
solve).  See ``docs/SOLVER_BACKENDS.md`` for the design notes.
"""

from __future__ import annotations

from repro.solvers.backends.batched import BatchedNewtonBackend

__all__ = ["BatchedNewtonBackend"]
