"""The regularized per-slot subproblem P2(t) (Section III-B).

P2(t) replaces each ``[.]^+`` reconfiguration term of P1 with a
relative-entropy regularizer anchored at the previous slot's decision:

.. math::

    \\min \\; \\sum_i a_{it} X_i + \\sum_e c_{et} y_e
    + \\sum_i \\frac{b_i}{\\eta_i}\\Big((X_i+\\varepsilon)
        \\ln\\frac{X_i+\\varepsilon}{\\hat X_i+\\varepsilon} - X_i\\Big)
    + \\sum_e \\frac{d_e}{\\eta'_e}\\Big((y_e+\\varepsilon')
        \\ln\\frac{y_e+\\varepsilon'}{\\hat y_e+\\varepsilon'} - y_e\\Big)

with :math:`\\eta_i = \\ln(1 + C_i/\\varepsilon)`,
:math:`\\eta'_e = \\ln(1 + B_e/\\varepsilon')`.

**Reduced variable space.** In the paper's formulation the tier-2
variables are per-edge ``x_ij``; however both the objective and every
constraint involve ``x`` only through the per-cloud totals
``X_i = sum_{j in J_i} x_ij`` together with ``x_ij >= s_ij``.  We
therefore solve over ``v = [X (I,), y (E,), s (E,)]`` with the
equivalent constraint ``sum_{j in J_i} s_ij <= X_i``, and split ``X_i``
back onto edges afterwards (``x_ij = s_ij + proportional share of the
slack``).  The split provably affects neither the cost, nor any P1
constraint, nor the next subproblem (whose regularizer sees only
``X_i`` and ``y_e``).

Constraints (all reduced to ``A v <= b`` plus box bounds), rows in
this order:

* (3b)  ``y_e >= s_e`` (E rows);
* (3c)  ``sum_{e in I_j} s_e >= lambda_j`` (J rows);
* (3a)+(1b) reduced: ``sum_{e in J_i} s_e <= X_i`` (I rows);
* box:  ``0 <= X_i <= C_i``, ``0 <= y_e <= B_e``, ``0 <= s_e <= B_e``.
  The capacity caps do not move the optimum (Lemma 1); imposing them
  explicitly keeps every iterate feasible.

The paper's hedging constraints are implied by these rows, so they are
not built:

* (3d) ``sum_{k != i} X_k >= [Lambda - C_i]^+``: cover and ``s <= X``
  give ``sum_k X_k >= sum_e s_e >= Lambda``, and the cap ``X_i <= C_i``
  leaves ``sum_{k != i} X_k >= Lambda - C_i``.
* (3e) ``sum_{e' in I_j, e' != e} y_e' >= [lambda_j - B_e]^+``: cover
  and ``s <= y`` give ``sum_{e' in I_j} y_e' >= lambda_j``, and the cap
  ``y_e <= B_e`` leaves ``lambda_j - B_e`` for the others.

The feasible set, hence the unique optimal ``X`` and ``y``, is the same
with or without them.  What remains has one row family per variable
group, which :class:`~repro.solvers.barrier.P2NewtonSystem` solves in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.model.allocation import Allocation
from repro.model.network import CloudNetwork
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.solvers.backends.batched import BatchedNewtonBackend
from repro.solvers.barrier import _WARM_TAU0, P2NewtonSystem
from repro.solvers.convex import (
    EntropicTerm,
    NonDescentStep,
    SeparableObjective,
    SmoothConvexProgram,
)


@dataclass
class SubproblemConfig:
    """Parameters of the regularized subproblem.

    Attributes
    ----------
    epsilon:
        The tier-2 regularization parameter ``epsilon > 0``.
    epsilon_prime:
        The link regularization parameter; ``None`` means "same as
        ``epsilon``" (the paper's evaluation always sets them equal).
    backend:
        Unused; kept only so that existing ``backend="batched"`` callers
        still construct.  How P2(t) is solved is a fact about the graph
        (:class:`RegularizedSubproblem`), and any other value raises.
    """

    epsilon: float = 1e-2
    epsilon_prime: float | None = None
    backend: str = "batched"

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be > 0")
        if self.epsilon_prime is not None and not (self.epsilon_prime > 0):
            raise ValueError("epsilon_prime must be > 0")
        if self.backend != "batched":
            raise ValueError(
                f"solver backend {self.backend!r}: the backend choice was "
                "removed; P2(t) runs the closed form on all-star SLA graphs "
                "and the coupled solve otherwise"
            )

    @property
    def eps2(self) -> float:
        """The effective link-side epsilon'."""
        return self.epsilon if self.epsilon_prime is None else self.epsilon_prime


class RegularizedSubproblem:
    """Builds and solves P2(t) for one slot of a two-tier instance.

    The constraint structure depends only on the network, so a single
    instance of this class is reused across slots: per-slot data
    (prices, workload, previous allocation) enter through
    :meth:`solve`.

    When every SLA component is a star
    (:meth:`BatchedNewtonBackend.applies
    <repro.solvers.backends.BatchedNewtonBackend.applies>`), slots are
    solved by the closed form of eq. (6); any other graph, and any star
    slot the closed form does not cover, runs the coupled barrier solve
    (:meth:`_solve_reduced_coupled`).
    """

    def __init__(self, network: CloudNetwork, config: SubproblemConfig) -> None:
        self.network = network
        self.config = config
        n_i, n_e = network.n_tier2, network.n_edges
        self.n_vars = n_i + 2 * n_e
        # Variable layout: [X (I,) | y (E,) | s (E,)].
        self.sl_X = slice(0, n_i)
        self.sl_y = slice(n_i, n_i + n_e)
        self.sl_s = slice(n_i + n_e, n_i + 2 * n_e)

        self.eta_tier2 = np.log1p(network.tier2_capacity / config.epsilon)
        self.eta_link = np.log1p(network.edge_capacity / config.eps2)
        # Regularizer weights b_i/eta_i and d_e/eta'_e.
        self.weight_tier2 = network.tier2_recon_price / self.eta_tier2
        self.weight_link = network.edge_recon_price / self.eta_link

        self._bounds = self._build_bounds()
        # Compiled on the first build(); see there.
        self._prog: "SmoothConvexProgram | None" = None

        # The closed-form star solve; None (a non-star SLA component)
        # solves every slot coupled.
        self._batched = None
        if BatchedNewtonBackend.applies(network):
            self._batched = BatchedNewtonBackend(self)

    # ------------------------------------------------------------------
    # Constraint assembly
    # ------------------------------------------------------------------
    def _build_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        net = self.network
        lb = np.zeros(self.n_vars)
        ub = np.empty(self.n_vars)
        ub[self.sl_X] = net.tier2_capacity
        ub[self.sl_y] = net.edge_capacity
        ub[self.sl_s] = net.edge_capacity  # implied by s <= y <= B
        return lb, ub

    def build(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Allocation,
    ) -> SmoothConvexProgram:
        """Assemble the convex program for one slot.

        Parameters
        ----------
        workload:
            ``(J,)`` — ``lambda_{jt}``.
        tier2_price, link_price:
            ``(I,)`` and ``(E,)`` — the slot's allocation prices.
        previous:
            The previous slot's decision (edge space); its tier-2
            totals anchor the regularizers.

        The program is compiled on the first call, and every later
        call returns the **same (mutated) program object** with only
        ``b``, the linear costs and the entropic anchors rewritten.
        This keeps the compiled objective arrays, the barrier workspace
        and the cached phase-I interior point alive across slots.
        Callers must therefore not hold a built program across a later
        ``build()`` call expecting it to stay frozen.
        """
        net = self.network
        prog = self._prog
        if prog is None:
            prog = self._prog = self._compile()
        linear = prog.objective.linear
        linear[self.sl_X] = tier2_price
        linear[self.sl_y] = link_price
        prog.objective.set_slot_data(
            refs=[previous.tier2_totals(net), np.asarray(previous.y, dtype=float)]
        )
        n_e = net.n_edges
        np.negative(workload, out=prog.b[n_e : n_e + net.n_tier1])
        return prog

    def _compile(self) -> SmoothConvexProgram:
        """The slot-independent program: rows, bounds, objective terms."""
        net = self.network
        cfg = self.config
        n_i, n_e, n_j = net.n_tier2, net.n_edges, net.n_tier1
        I_E = sp.identity(n_e, format="csr")
        # (3b) s - y <= 0; cover -sum_{e in I_j} s_e <= -lambda_j;
        # reduced x >= s: sum_{e in J_i} s_e - X_i <= 0.
        A = sp.vstack(
            [
                sp.hstack([sp.csr_matrix((n_e, n_i)), -I_E, I_E]),
                sp.hstack([sp.csr_matrix((n_j, n_i + n_e)), -net.tier1_incidence]),
                sp.hstack(
                    [
                        -sp.identity(n_i, format="csr"),
                        sp.csr_matrix((n_i, n_e)),
                        net.tier2_incidence,
                    ]
                ),
            ],
            format="csr",
        )
        entropic = [
            EntropicTerm(
                indices=np.arange(n_i),
                weight=self.weight_tier2,
                eps=cfg.epsilon,
                ref=np.zeros(n_i),
            ),
            EntropicTerm(
                indices=np.arange(n_i, n_i + n_e),
                weight=self.weight_link,
                eps=cfg.eps2,
                ref=np.zeros(n_e),
            ),
        ]
        objective = SeparableObjective(self.n_vars, np.zeros(self.n_vars), entropic)
        lb, ub = self._bounds
        structure = P2NewtonSystem(n_i, n_j, net.edge_i, net.edge_j)
        return SmoothConvexProgram(
            objective, A, np.zeros(n_e + n_j + n_i), lb, ub, structure=structure
        )

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def _interior_candidate(
        self, prog: SmoothConvexProgram, workload: np.ndarray
    ) -> "np.ndarray | None":
        """Cheap strictly-interior point; None if the heuristic fails.

        Spreads each tier-1 cloud's demand over its SLA edges in
        proportion to link capacity, then places y and X strictly
        between the induced lower requirement and the capacity.
        """
        net = self.network
        lam = np.asarray(workload, dtype=float)
        link_sum = net.aggregate_tier1(net.edge_capacity)  # (J,)
        share = net.edge_capacity / np.maximum(link_sum[net.edge_j], 1e-300)
        floor = 1e-9 * (1.0 + net.edge_capacity)
        s = np.maximum((lam[net.edge_j] * share) * 1.02, floor)
        y = 0.5 * (s + net.edge_capacity)  # strictly between s and B
        S_i = net.aggregate_tier2(s)
        X = 0.5 * (S_i + net.tier2_capacity)  # strictly between
        v = np.empty(self.n_vars)
        v[self.sl_X] = X
        v[self.sl_y] = y
        v[self.sl_s] = s
        return v if self._strictly_interior(prog, v) else None

    @staticmethod
    def _strictly_interior(prog: SmoothConvexProgram, v: np.ndarray) -> bool:
        if prog.A.shape[0]:
            slack = prog.b - prog.A @ v
            if slack.size and float(slack.min()) <= 1e-12:
                return False
        return bool(np.all(v - prog.lb > 0) and np.all(prog.ub - v > 0))

    @staticmethod
    def _warm_theta(
        prog: SmoothConvexProgram, warm: np.ndarray, cand: np.ndarray
    ) -> "float | None":
        """How far to move from ``cand`` toward ``warm``; None rejects it.

        A ``warm`` vector that is non-finite or outside the static box
        ``[lb, ub]`` cannot be a previous decision of this subproblem
        (the box never changes between slots) and is rejected.
        Otherwise ``theta = min(0.9, 0.9 * theta_max)``, where
        ``theta_max`` is the barrier's ratio test from the strictly
        interior ``cand`` toward ``warm``: the start stays strictly
        interior even when demand rose past the previous decision's
        cover, where the fixed blend ``0.9 warm + 0.1 cand`` is not.
        """
        if not RegularizedSubproblem._in_box(prog, warm):
            return None
        return min(0.9, 0.9 * prog.max_step(cand, warm - cand))

    @staticmethod
    def _in_box(prog: SmoothConvexProgram, v: np.ndarray) -> bool:
        return bool(
            np.all(np.isfinite(v)) and np.all(v >= prog.lb) and np.all(v <= prog.ub)
        )

    def _repaired(self, warm: np.ndarray, workload: np.ndarray) -> np.ndarray:
        """The previous decision ``warm`` (in the box), repaired for this
        slot's demand.

        Each tier-1 cloud's split ``s`` is scaled up only where the new
        ``lambda_j`` needs it, to 1 % above it, and kept 1 % inside the
        link caps.  ``y`` and ``X`` keep their previous values, lifted to
        at least 1e-4 of the way from ``s`` and ``S_i`` to the caps and
        held 1 % of that distance inside them.  The result is strictly
        interior unless demand outgrew the previous decision (a cover or
        ``s <= X`` row is then violated).
        """
        net = self.network
        margin, lift = 1e-2, 1e-4
        B, C = net.edge_capacity, net.tier2_capacity
        X, y, s = warm[self.sl_X], warm[self.sl_y], warm[self.sl_s]
        need = np.asarray(workload, dtype=float) * (1.0 + margin)
        cover = net.aggregate_tier1(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            grow = np.where((cover < need) & (cover > 0), need / cover, 1.0)
        s = np.minimum(s * grow[net.edge_j], B * (1.0 - margin))
        S_i = net.aggregate_tier2(s)
        v = np.empty(self.n_vars)
        v[self.sl_s] = s
        v[self.sl_y] = np.clip(y, s + lift * (B - s), B - margin * (B - s))
        v[self.sl_X] = np.minimum(
            np.clip(X, S_i + lift * (C - S_i), C - margin * (C - S_i)), C
        )
        return v

    # ------------------------------------------------------------------
    def solve(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Allocation,
        warm: "np.ndarray | None" = None,
        probe=None,
    ) -> Allocation:
        """Solve P2(t) and return the slot's decision in edge space."""
        alloc, _ = self.solve_reduced(
            workload, tier2_price, link_price, previous, warm, probe=probe
        )
        return alloc

    def solve_reduced(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Allocation,
        warm: "np.ndarray | None" = None,
        probe=None,
    ) -> "tuple[Allocation, np.ndarray]":
        """Solve P2(t); also return the reduced solution vector.

        An all-star SLA graph solves through
        :class:`~repro.solvers.backends.BatchedNewtonBackend`; every
        other graph runs :meth:`_solve_reduced_coupled`.

        ``warm`` may be the previous slot's reduced solution: decisions
        change slowly, so the barrier starts from it, repaired for this
        slot's demand (:meth:`_repaired`), and begins the path at
        ``tau = 1e3`` (results identical to solver tolerance).  Where
        demand outgrew the previous decision and the repaired point is
        not strictly interior, the start is the ratio-test step from the
        interior candidate toward it (:meth:`_warm_theta`).

        ``probe`` is an optional
        :class:`~repro.engine.stats.StatsProbe`-shaped recorder (any
        object with ``record_solve``); when given, the solve's backend,
        Newton iteration count and warm-start outcome are recorded.
        """
        if self._batched is None:
            return self._solve_reduced_coupled(
                workload, tier2_price, link_price, previous, warm, probe=probe
            )
        return self._batched.solve(
            workload, tier2_price, link_price, previous, warm, probe=probe
        )

    def _solve_reduced_coupled(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Allocation,
        warm: "np.ndarray | None" = None,
        probe=None,
    ) -> "tuple[Allocation, np.ndarray]":
        """The reference path: one coupled barrier solve over all clouds.

        It solves every slot of a graph with a non-star SLA component,
        and the star slots the closed form does not cover.  A
        warm-started solve that meets a non-descent Newton step
        (:class:`~repro.solvers.convex.NonDescentStep`) restarts once
        from the cold start, counted as warm-start outcome ``restart``.
        """
        prog = self.build(workload, tier2_price, link_price, previous)
        cand = self._interior_candidate(prog, workload)
        v0 = cand
        tau0 = None
        warm_attempted = warm is not None and cand is not None
        warm_used = False
        if warm_attempted and self._in_box(prog, warm):
            # The repaired previous decision when it is strictly interior,
            # else the ratio-test step from cand toward it.
            start = self._repaired(warm, workload)
            interior = self._strictly_interior(prog, start)
            if not interior:
                theta = self._warm_theta(prog, start, cand)
                start = cand + theta * (start - cand)
                # The ratio test keeps the start interior; the check
                # guards round-off when cand sits within ~1e-12 of a row.
                interior = self._strictly_interior(prog, start)
            if interior:
                v0 = start
                warm_used = True
                tau0 = _WARM_TAU0
        outcome = "cold" if warm is None else ("hit" if warm_used else "miss")
        with obs_tracing.span("subproblem.solve") as span:
            try:
                v = prog.solve(v0=v0, tau0=tau0)
            except NonDescentStep:
                # The warm path met a Newton system solved too
                # inaccurately to descend; the cold path from the
                # interior candidate is the fallback, taken once.
                spent = prog.last_info.newton_iters
                v = prog.solve(v0=cand)
                prog.last_info.newton_iters += spent
                warm_used = False
                outcome = "restart"
            span.set(
                backend=prog.last_info.backend,
                warm_attempted=warm_attempted,
                warm_used=warm_used,
                fallback=prog.last_info.fallback,
                newton_iters=prog.last_info.newton_iters,
            )
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "subproblem_warm_starts_total",
                help="warm-start outcomes per subproblem solve",
                outcome=outcome,
            ).inc()
        if probe is not None:
            info = prog.last_info
            probe.record_solve(
                backend=info.backend,
                newton_iters=info.newton_iters,
                warm_attempted=warm_attempted,
                warm_used=warm_used,
                fallback=info.fallback,
            )
        return self.split(v, workload), v

    def split(self, v: np.ndarray, workload: np.ndarray) -> Allocation:
        """Map a reduced solution back to edge-space ``(x, y, s)``.

        ``x_e = s_e + share_e * (X_i - sum_{e' in J_i} s_{e'})`` with
        shares proportional to ``s`` (uniform when all ``s`` are zero
        for the cloud).  Any split is equivalent for cost, feasibility
        and the algorithm's future decisions.
        """
        net = self.network
        X = np.maximum(v[self.sl_X], 0.0)
        y = np.maximum(v[self.sl_y], 0.0)
        s = np.maximum(v[self.sl_s], 0.0)
        s = np.minimum(s, y)  # tidy round-off: s <= y exactly

        S_i = net.aggregate_tier2(s)
        slack = np.maximum(X - S_i, 0.0)  # per-cloud spare allocation
        # Shares: proportional to s when the cloud serves anything,
        # otherwise uniform over the cloud's edges.  A cloud with no
        # SLA edges has counts == 0 and S_i == 0; clamp the denominator
        # so it never divides by zero (such a cloud's slack has no edge
        # to land on and is simply dropped).
        counts = net.aggregate_tier2(np.ones(net.n_edges))
        denom = np.maximum(np.where(S_i > 0, S_i, counts), 1e-300)
        base = np.where(S_i[net.edge_i] > 0, s, 1.0)
        share = base / denom[net.edge_i]
        x = s + slack[net.edge_i] * share
        return Allocation(x=x, y=y, s=s)
