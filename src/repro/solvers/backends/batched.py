"""Closed-form backend for the per-slot subproblems of star SLA graphs.

The reduced program P2(t) couples its variables through three row
families (see :mod:`repro.core.subproblem`): ``s <= y``, workload cover
and ``sum s <= X``.  Each only ever connects clouds inside one
connected component of the bipartite (tier-2, tier-1) SLA graph, so
P2(t) separates exactly over components.

A component in which every tier-1 cloud has exactly one SLA edge is a
star around a single tier-2 cloud, and its optimum splits into
independent single-resource problems whose solution is the paper's
exponential-decay recursion
(:func:`repro.core.single.single_online_decay`, eq. (6)):
``X = clip(max(demand, (prev + eps) * exp(-price/weight) - eps), 0, C)``
and likewise for each link.  When *every* component is a star — the
paper's default SLA size ``k = 1`` — the whole slot is one vectorized
numpy pass with no Newton iterations at all.
:class:`~repro.core.subproblem.RegularizedSubproblem` builds this
backend exactly on such a graph (:meth:`BatchedNewtonBackend.applies`);
any other graph is solved by the coupled barrier.  A slot whose closed
form does not hold (a link or cloud at capacity, a degenerate
objective) is routed through that coupled solve too.

Equivalence contract: tier-2 totals ``X``, link allocations ``y`` and
hence every cost term agree with the coupled solve to solver
tolerance (they are the unique optimum of a strictly convex
objective).  The cover split ``s`` is *not* unique — the objective has
no ``s`` term, so the coupled barrier returns the analytic center of
the optimal face while the closed form returns the minimal cover;
neither the online trajectory's cost nor its later decisions depend on
the difference (the next slot's regularizers see only ``X`` and
``y``).  RFHC's top-up repair under noisy forecasts does: it keeps the
planned per-edge ``x`` and ``s`` as floors.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing


class BatchedNewtonBackend:
    """Closed-form solves of one all-star subproblem's slots, falling
    back to its coupled solve."""

    name = "batched"

    def __init__(self, subproblem: Any) -> None:
        self.sub = subproblem
        # Static degeneracy flags: a zero regularizer weight makes the
        # closed form depend on the slot's price being nonzero.
        self.wX_zero = subproblem.weight_tier2 == 0
        self.wy_zero = subproblem.weight_link == 0

    @staticmethod
    def applies(network: Any) -> bool:
        """Whether every SLA component is a star (each tier-1 cloud has
        at most one SLA edge)."""
        deg_j = np.bincount(network.edge_j, minlength=network.n_tier1)
        return bool(np.all(deg_j <= 1))

    # ------------------------------------------------------------------
    def solve(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Any,
        warm: "np.ndarray | None" = None,
        probe: Any = None,
    ) -> "tuple[Any, np.ndarray]":
        sub = self.sub
        net = sub.network
        cfg = sub.config
        lam = np.asarray(workload, dtype=float)
        lam_e = lam[net.edge_j]
        X_prev = previous.tier2_totals(net)
        y_prev = np.asarray(previous.y, dtype=float)
        ub_X, ub_y = net.tier2_capacity, net.edge_capacity

        def bail(reason: str):
            return self._fallback(
                workload, tier2_price, link_price, previous, warm, probe, reason
            )

        # Slots the closed form does not cover go through the coupled
        # solve, infeasibility errors included.
        if bool(np.any(lam_e >= ub_y)):
            return bail("star_link_at_capacity")
        if bool(np.any(self.wy_zero & (link_price == 0))):
            return bail("degenerate_link_objective")
        if bool(np.any(self.wX_zero & (tier2_price == 0))):
            return bail("degenerate_tier2_objective")

        span = obs_tracing.span("subproblem.solve")
        with span:
            with np.errstate(divide="ignore"):
                fy = np.exp(
                    -np.divide(
                        link_price,
                        sub.weight_link,
                        out=np.full(net.n_edges, np.inf),
                        where=~self.wy_zero,
                    )
                )
                fX = np.exp(
                    -np.divide(
                        tier2_price,
                        sub.weight_tier2,
                        out=np.full(net.n_tier2, np.inf),
                        where=~self.wX_zero,
                    )
                )
            # Each edge covers its tier-1 cloud's whole demand.
            D = net.aggregate_tier2(lam_e)
            if bool(np.any(D >= ub_X)):
                return bail("star_cloud_at_capacity")
            ybar = (y_prev + cfg.eps2) * fy - cfg.eps2
            xbar = (X_prev + cfg.epsilon) * fX - cfg.epsilon
            v = np.empty(sub.n_vars)
            v[sub.sl_X] = np.minimum(np.maximum(D, xbar), ub_X)
            v[sub.sl_y] = np.minimum(np.maximum(lam_e, ybar), ub_y)
            v[sub.sl_s] = lam_e

            span.set(
                backend=self.name,
                warm_attempted=False,
                warm_used=False,
                fallback=False,
                newton_iters=0,
            )

        if probe is not None:
            probe.record_solve(
                backend=self.name,
                newton_iters=0,
                warm_attempted=False,
                warm_used=False,
                fallback=False,
            )
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "backend_slots_total",
                help="slots solved, by solver backend",
                backend=self.name,
            ).inc()
            if net.n_edges:
                reg.counter(
                    "backend_fast_path_hits_total",
                    help="closed-form star components solved without Newton",
                    backend=self.name,
                ).inc(net.n_edges)
        return sub.split(v, lam), v

    # ------------------------------------------------------------------
    def _fallback(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Any,
        warm: "np.ndarray | None",
        probe: Any,
        reason: str,
    ) -> "tuple[Any, np.ndarray]":
        """Route the slot through the coupled solve."""
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "backend_sequential_fallbacks_total",
                help="slots the batched backend routed to the coupled solve",
                backend=self.name,
                reason=reason,
            ).inc()
        return self.sub._solve_reduced_coupled(
            workload, tier2_price, link_price, previous, warm, probe=probe
        )
