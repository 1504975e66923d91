"""The closed-form solve of the per-slot subproblems on star graphs.

:class:`~repro.core.subproblem.RegularizedSubproblem` solves P2(t)
with :class:`BatchedNewtonBackend` (the closed form of eq. (6)) when
every SLA component is a star, and with one coupled barrier solve
(:meth:`RegularizedSubproblem._solve_reduced_coupled
<repro.core.subproblem.RegularizedSubproblem._solve_reduced_coupled>`)
otherwise; the coupled solve is also the closed form's fallback.  See
``docs/SOLVER_BACKENDS.md`` for the design notes.
"""

from __future__ import annotations

from repro.solvers.backends.batched import BatchedNewtonBackend

__all__ = ["BatchedNewtonBackend"]
