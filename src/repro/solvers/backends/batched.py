"""Batched block-diagonal Newton backend for the per-slot subproblems.

The reduced program P2(t) couples its variables through three row
families (see :mod:`repro.core.subproblem`): ``s <= y``, workload cover
and ``sum s <= X``.  Each only ever connects clouds inside one
connected component of the bipartite (tier-2, tier-1) SLA graph, so
P2(t) separates exactly over components.  The backend solves each
component independently and falls back to the coupled sequential solve
on a structural surprise.

Two per-component execution paths:

* **Closed-form fast path** — a component in which every tier-1 cloud
  has exactly one SLA edge is a star around a single tier-2 cloud, and
  its optimum splits into independent single-resource problems whose
  solution is the paper's exponential-decay recursion
  (:func:`repro.core.single.single_online_decay`, eq. (6)):
  ``X = clip(max(demand, (prev + eps) * exp(-price/weight) - eps), 0, C)``
  and likewise for each link.  All such components are solved in one
  vectorized numpy pass — no Newton iterations at all.  At the paper's
  default SLA size ``k = 1`` the *entire network* is stars, which is
  where the headline trajectory speedup comes from.

* **Batched Newton** — remaining components are stacked by shape into
  dense ``(B, m, n)`` block-diagonal KKT groups and driven down one
  shared log-barrier path: one batched Cholesky-free ``solve`` per
  Newton step, one shared feasible-stepsize + Armijo backtracking pass
  with per-block step lengths and convergence masks.

Structural analysis happens once, when
:class:`~repro.core.subproblem.RegularizedSubproblem` builds the
backend for a ``backend="batched"`` config; each slot rewrites only the
stacked groups' right-hand sides, linear costs and anchors.

Equivalence contract: tier-2 totals ``X``, link allocations ``y`` and
hence every cost term agree with the sequential backend to solver
tolerance (they are the unique optimum of a strictly convex
objective).  The cover split ``s`` is *not* unique — the objective has
no ``s`` term, so the sequential barrier returns the analytic center
of the optimal face while this backend returns the minimal cover;
neither the trajectory cost nor any later decision depends on the
difference (the next slot's regularizers see only ``X`` and ``y``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.model.network import sla_components
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.solvers.barrier import (  # same line-search/path constants
    _ARMIJO_ALPHA,
    _ARMIJO_BETA,
    _EPS,
    _MAX_BOUNDARY_FRACTION,
    _MAX_NEWTON,
    _TAU0,
    _TAU_MU,
    _TOL,
    _WARM_TAU0,
)

#: Blocks-per-batch histogram buckets (counts, not latencies).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _BatchSolveError(RuntimeError):
    """Batched Newton could not certify a block; caller falls back."""


# ----------------------------------------------------------------------
# Compiled structure
# ----------------------------------------------------------------------
@dataclass
class _Block:
    """Static index data of one Newton (non-star) component."""

    ti: np.ndarray  # global tier-2 indices in the component
    tj: np.ndarray  # global tier-1 indices
    te: np.ndarray  # global edge indices
    e_i_loc: np.ndarray  # edge -> local tier-2 index
    e_j_loc: np.ndarray  # edge -> local tier-1 index

    @property
    def n_vars(self) -> int:
        return self.ti.size + 2 * self.te.size

    @property
    def shape_key(self) -> "tuple[int, int, int]":
        return (self.ti.size, self.tj.size, self.te.size)


class _BatchedGroup:
    """Same-shape Newton blocks stacked into one block-diagonal system.

    Variable layout per block: ``[X (nI,) | y (nE,) | s (nE,)]``.
    Row layout: ``[s<=y (nE) | cover (nJ) | s<=X (nI)]``.
    The constraint matrix, bounds and entropic structure are built once;
    only the right-hand side, linear costs and regularizer anchors are
    rewritten per slot.
    """

    def __init__(
        self,
        blocks: "list[_Block]",
        lb_full: np.ndarray,
        ub_full: np.ndarray,
        sl_X: slice,
        sl_y: slice,
        sl_s: slice,
        weight_tier2: np.ndarray,
        weight_link: np.ndarray,
        eps: float,
        eps2: float,
    ) -> None:
        self.blocks = blocks
        B = len(blocks)
        nI, nJ, nE = blocks[0].shape_key
        self.nI, self.nJ, self.nE = nI, nJ, nE
        n = nI + 2 * nE
        m = nE + nJ + nI
        self.n, self.m = n, m
        self.q = nI + nE  # entropic variables: [X | y]

        self.A = np.zeros((B, m, n))
        self.lb = np.zeros((B, n))
        self.ub = np.empty((B, n))
        self.w = np.empty((B, self.q))
        self.eps = np.concatenate([np.full(nI, eps), np.full(nE, eps2)])
        # Per-slot buffers.
        self.b = np.zeros((B, m))
        self.lin = np.zeros((B, n))
        self.ref = np.empty((B, self.q))

        ub_X, ub_y, ub_s = ub_full[sl_X], ub_full[sl_y], ub_full[sl_s]
        r = np.arange(nE)
        for k, blk in enumerate(blocks):
            A = self.A[k]
            A[r, nI + r] = -1.0          # s - y <= 0  (s coefficient below)
            A[r, nI + nE + r] = 1.0
            A[nE + blk.e_j_loc, nI + nE + r] = -1.0       # cover
            A[nE + nJ + blk.e_i_loc, nI + nE + r] = 1.0   # sum s <= X
            A[nE + nJ + np.arange(nI), np.arange(nI)] = -1.0
            self.lb[k, :nI] = lb_full[sl_X][blk.ti]
            self.lb[k, nI : nI + nE] = lb_full[sl_y][blk.te]
            self.lb[k, nI + nE :] = lb_full[sl_s][blk.te]
            self.ub[k, :nI] = ub_X[blk.ti]
            self.ub[k, nI : nI + nE] = ub_y[blk.te]
            self.ub[k, nI + nE :] = ub_s[blk.te]
            self.w[k, :nI] = weight_tier2[blk.ti]
            self.w[k, nI:] = weight_link[blk.te]

        self.fin_ub = np.isfinite(self.ub)
        # Barrier constraint count per block: rows + finite bounds.
        self.m_total = float(m + n) + self.fin_ub[0].sum(dtype=float)

    def set_slot(
        self,
        lam: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        X_prev: np.ndarray,
        y_prev: np.ndarray,
    ) -> None:
        """Rewrite the per-slot data in place (structure untouched)."""
        nI, nJ, nE = self.nI, self.nJ, self.nE
        for k, blk in enumerate(self.blocks):
            self.lin[k, :nI] = tier2_price[blk.ti]
            self.lin[k, nI : nI + nE] = link_price[blk.te]
            self.ref[k, :nI] = X_prev[blk.ti]
            self.ref[k, nI:] = y_prev[blk.te]
            self.b[k, nE : nE + nJ] = -lam[blk.tj]

    # ------------------------------------------------------------------
    # Batched objective / barrier kernels
    # ------------------------------------------------------------------
    def f_value(self, V: np.ndarray) -> np.ndarray:
        Vq = V[:, : self.q]
        u = Vq + self.eps
        lr = np.log1p((Vq - self.ref) / (self.ref + self.eps))
        return (self.lin * V).sum(axis=1) + (self.w * (u * lr - Vq)).sum(axis=1)

    def f_grad_hess(self, V: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        Vq = V[:, : self.q]
        u = Vq + self.eps
        lr = np.log1p((Vq - self.ref) / (self.ref + self.eps))
        g = self.lin.copy()
        g[:, : self.q] += self.w * lr
        h = np.zeros_like(V)
        h[:, : self.q] += self.w / u
        return g, h

    def slacks(self, V: np.ndarray) -> np.ndarray:
        return self.b - np.einsum("bmn,bn->bm", self.A, V)

    def phi(self, V: np.ndarray, tau: float) -> np.ndarray:
        """Barrier potential per block; +inf outside the interior."""
        with np.errstate(divide="ignore", invalid="ignore"):
            slack = self.slacks(V)
            lo = V - self.lb
            hi = np.where(self.fin_ub, self.ub - V, 1.0)
            bad = (
                (slack <= 0).any(axis=1)
                | (lo <= 0).any(axis=1)
                | (hi <= 0).any(axis=1)
            )
            out = (
                tau * self.f_value(V)
                - np.log(np.maximum(slack, 1e-300)).sum(axis=1)
                - np.log(np.maximum(lo, 1e-300)).sum(axis=1)
                - np.where(self.fin_ub, np.log(np.maximum(hi, 1e-300)), 0.0).sum(
                    axis=1
                )
            )
        out[bad] = np.inf
        return out

    def interior(self, V: np.ndarray, margin: float = 1e-12) -> np.ndarray:
        """Strict-interiority mask per block."""
        ok = (self.slacks(V) > margin).all(axis=1)
        ok &= (V - self.lb > 0).all(axis=1)
        ok &= np.where(self.fin_ub, self.ub - V > 0, True).all(axis=1)
        return ok


def _batched_barrier(
    grp: _BatchedGroup, V0: np.ndarray, tau0: float
) -> "tuple[np.ndarray, int]":
    """Shared path-following barrier over all blocks of a group.

    One tau schedule, starting at ``tau0``, drives every block; a
    centered block drops out of the working set as soon as its own
    duality-gap bound ``m_total / tau`` clears the tolerance.  A block
    that runs out of Newton steps before centering follows the path on,
    as in the coupled barrier.  Returns ``(V, total Newton
    iterations)``; raises :class:`_BatchSolveError` if any block stalls
    with a large remaining gap or never centers (the slot then falls
    back to the coupled solve), and if a block's Newton system is
    singular.
    """
    B = V0.shape[0]
    V = V0.copy()
    tau = tau0
    done = np.zeros(B, dtype=bool)
    stalled = np.zeros(B, dtype=bool)
    iters = 0

    for _outer in range(200):
        work = ~done
        uncentered = np.zeros(B, dtype=bool)
        center_tol = 1e-9 * (1.0 + tau * 1e-4)
        for _inner in range(_MAX_NEWTON):
            idx = np.flatnonzero(work & ~stalled)
            if idx.size == 0:
                break
            Vw = V[idx]
            slack = grp.b[idx] - np.einsum("bmn,bn->bm", grp.A[idx], Vw)
            g_f, h_f = grp.f_grad_hess(V)
            d1 = 1.0 / slack
            lo = Vw - grp.lb[idx]
            with np.errstate(divide="ignore"):
                hi_inv = np.where(
                    grp.fin_ub[idx], 1.0 / (grp.ub[idx] - Vw), 0.0
                )
            g = (
                tau * g_f[idx]
                + np.einsum("bmn,bm->bn", grp.A[idx], d1)
                - 1.0 / lo
                + hi_inv
            )
            diag = tau * h_f[idx] + 1.0 / (lo * lo) + hi_inv * hi_inv
            M = grp.A[idx] * d1[:, :, None]
            H = np.matmul(M.transpose(0, 2, 1), M)
            H[:, np.arange(grp.n), np.arange(grp.n)] += diag
            try:
                dv = np.linalg.solve(H, -g[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise _BatchSolveError(f"batched Newton system: {exc}") from None
            iters += idx.size
            dec_sq = -(g * dv).sum(axis=1)
            phi = grp.phi(V, tau)
            # Same stop as the coupled barrier: the decrement target, or
            # a predicted decrease below phi's own rounding (past which
            # Armijo would only accept noise steps until max_newton).
            centered = dec_sq / 2.0 <= np.maximum(
                center_tol, _EPS * np.abs(phi[idx])
            )
            if centered.all():
                break
            sel = np.flatnonzero(~centered)
            # Largest feasible step per block, then shared Armijo pass.
            step = np.ones(sel.size)
            Adv = np.einsum("bmn,bn->bm", grp.A[idx][sel], dv[sel])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(Adv > 0, slack[sel] / Adv, np.inf)
                step = np.minimum(step, ratio.min(axis=1) * _MAX_BOUNDARY_FRACTION)
                dn = dv[sel]
                lo_ratio = np.where(dn < 0, -(Vw[sel] - grp.lb[idx][sel]) / dn, np.inf)
                step = np.minimum(step, lo_ratio.min(axis=1) * _MAX_BOUNDARY_FRACTION)
                hi_gap = np.where(grp.fin_ub[idx][sel], grp.ub[idx][sel] - Vw[sel], np.inf)
                hi_ratio = np.where(dn > 0, hi_gap / dn, np.inf)
                step = np.minimum(step, hi_ratio.min(axis=1) * _MAX_BOUNDARY_FRACTION)
            gidx = idx[sel]
            phi0 = phi[gidx]
            need = np.ones(sel.size, dtype=bool)
            trial = V[gidx].copy()
            for _bt in range(60):
                trial[need] = V[gidx[need]] + step[need, None] * dv[sel[need]]
                Vt = V.copy()
                Vt[gidx] = trial
                phi1 = grp.phi(Vt, tau)[gidx]
                ok = need & (phi1 <= phi0 - _ARMIJO_ALPHA * step * dec_sq[sel])
                V[gidx[ok]] = trial[ok]
                need &= ~ok
                if not need.any():
                    break
                step[need] *= _ARMIJO_BETA
                exhausted = need & (step <= 1e-14)
                if exhausted.any():
                    stalled[gidx[exhausted]] = True
                    need &= ~exhausted
                    if not need.any():
                        break
            else:  # pragma: no cover - 60 halvings always terminates
                stalled[gidx[need]] = True
        else:
            # Out of steps: the blocks not yet centered are not stalled;
            # m/tau bounds nothing for them, so the path goes on.
            uncentered[idx[~centered]] = True
            uncentered &= ~stalled

        gap = grp.m_total / tau
        scale = 1.0 + np.abs(grp.f_value(V))
        done |= work & ~uncentered & (gap <= _TOL * scale)
        hard = work & stalled & ~done
        if hard.any():
            if bool((gap <= 1e3 * _TOL * scale[hard]).all()):
                done[hard] = True  # late-path stall, gap already tiny
            else:
                raise _BatchSolveError(
                    f"batched Newton stalled at tau={tau:.2e} (gap {gap:.2e})"
                )
        if bool((gap <= _EPS * scale[uncentered]).any()):
            raise _BatchSolveError(
                f"batched Newton did not center by tau={tau:.2e} (gap {gap:.2e})"
            )
        if done.all():
            return V, iters
        stalled[:] = False
        tau *= _TAU_MU
    raise _BatchSolveError("batched barrier exceeded the outer-iteration budget")


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class BatchedNewtonBackend:
    """Component-decomposed solves of one subproblem's slots: closed
    forms + batched Newton, falling back to its coupled solve."""

    name = "batched"

    def __init__(self, subproblem: Any) -> None:
        """Partition the SLA graph and precompute block index data."""
        net = subproblem.network
        n_i, n_j = net.n_tier2, net.n_tier1
        roots_i, roots_j = sla_components(n_i, n_j, net.edge_i, net.edge_j)
        deg_j = np.bincount(net.edge_j, minlength=n_j)
        roots_e = roots_i[net.edge_i]

        # A component is a closed-form star iff every tier-1 member has
        # exactly one SLA edge; components are enumerated by root.
        comp_has_multi = np.zeros(n_i + n_j, dtype=bool)
        np.logical_or.at(comp_has_multi, roots_j, deg_j > 1)
        fast_root = ~comp_has_multi
        self.sub = subproblem
        self.fast_i = fast_root[roots_i]  # (I,) tier-2 clouds in star components
        self.fast_e = fast_root[roots_e]  # (E,) edges in star components
        # Static degeneracy flags: a zero regularizer weight makes the
        # fast closed form depend on the slot's price being nonzero.
        self.wX_zero = subproblem.weight_tier2 == 0
        self.wy_zero = subproblem.weight_link == 0
        self.blocks: "list[_Block]" = []
        for root in np.unique(np.concatenate([roots_i, roots_j])):
            if fast_root[root]:
                continue
            ti = np.flatnonzero(roots_i == root)
            tj = np.flatnonzero(roots_j == root)
            te = np.flatnonzero(roots_e == root)
            loc_i = np.zeros(n_i, dtype=np.intp)
            loc_i[ti] = np.arange(ti.size)
            loc_j = np.zeros(n_j, dtype=np.intp)
            loc_j[tj] = np.arange(tj.size)
            self.blocks.append(
                _Block(
                    ti=ti,
                    tj=tj,
                    te=te,
                    e_i_loc=loc_i[net.edge_i[te]],
                    e_j_loc=loc_j[net.edge_j[te]],
                )
            )
        # Newton components stacked by shape.
        by_shape: "dict[tuple, list[_Block]]" = {}
        for blk in self.blocks:
            by_shape.setdefault(blk.shape_key, []).append(blk)
        lb, ub = subproblem._bounds
        self.groups = [
            _BatchedGroup(
                blocks,
                lb,
                ub,
                subproblem.sl_X,
                subproblem.sl_y,
                subproblem.sl_s,
                subproblem.weight_tier2,
                subproblem.weight_link,
                subproblem.config.epsilon,
                subproblem.config.eps2,
            )
            for blocks in by_shape.values()
        ]

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

        fast_i, fast_e = self.fast_i, self.fast_e

        def bail(reason: str):
            return self._fallback(
                workload, tier2_price, link_price, previous, warm, probe, reason
            )

        # Structural surprises route the whole slot through the coupled
        # solve so behaviour (including infeasibility errors) matches
        # the sequential backend exactly.
        if bool(np.any((lam_e >= ub_y) & fast_e)):
            return bail("star_link_at_capacity")
        if bool(np.any(self.wy_zero & (link_price == 0) & fast_e)):
            return bail("degenerate_link_objective")
        if bool(np.any(self.wX_zero & (tier2_price == 0) & fast_i)):
            return bail("degenerate_tier2_objective")
        if len(self.blocks) == 1 and not bool(fast_e.any()):
            # The SLA graph is one non-star component: there is nothing
            # to decompose, and the coupled solve's sparse fused kernels
            # beat a dense single-block Newton.  Densely-connected
            # structures (k >= 2 at paper sizes) land here.
            return bail("single_component")

        span = obs_tracing.span("subproblem.solve")
        with span:
            v = np.empty(sub.n_vars)
            newton_iters = 0
            warm_attempted = False
            warm_used = False

            # ---------------- closed-form star components -------------
            n_fast = int(np.count_nonzero(fast_e))
            if n_fast:
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
                ybar = (y_prev + cfg.eps2) * fy - cfg.eps2
                y_fast = np.minimum(np.maximum(lam_e, ybar), ub_y)
                s_fast = np.where(fast_e, lam_e, 0.0)
                D = net.aggregate_tier2(s_fast)
                if bool(np.any((D >= ub_X) & fast_i)):
                    return bail("star_cloud_at_capacity")
                xbar = (X_prev + cfg.epsilon) * fX - cfg.epsilon
                X_fast = np.minimum(np.maximum(D, xbar), ub_X)
                v[sub.sl_X] = np.where(fast_i, X_fast, 0.0)
                v[sub.sl_y] = np.where(fast_e, y_fast, 0.0)
                v[sub.sl_s] = s_fast

            # ---------------- batched Newton components ---------------
            batch_sizes: "list[int]" = []
            if self.blocks:
                # Interior candidate, same construction as the coupled
                # path's warm-start heuristic, sliced per block.
                link_sum = net.aggregate_tier1(net.edge_capacity)
                share = net.edge_capacity / np.maximum(
                    link_sum[net.edge_j], 1e-300
                )
                floor = 1e-9 * (1.0 + net.edge_capacity)
                s_c = np.maximum(lam_e * share * 1.02, floor)
                y_c = 0.5 * (s_c + net.edge_capacity)
                X_c = 0.5 * (net.aggregate_tier2(s_c) + net.tier2_capacity)

                warm_attempted = warm is not None
                all_warm = warm_attempted
                solved: "list[tuple[_BatchedGroup, np.ndarray]]" = []
                for grp in self.groups:
                    grp.set_slot(lam, tier2_price, link_price, X_prev, y_prev)
                    nI, nE = grp.nI, grp.nE
                    V0 = np.empty((len(grp.blocks), grp.n))
                    for k, blk in enumerate(grp.blocks):
                        V0[k, :nI] = X_c[blk.ti]
                        V0[k, nI : nI + nE] = y_c[blk.te]
                        V0[k, nI + nE :] = s_c[blk.te]
                    if not bool(grp.interior(V0).all()):
                        return bail("no_interior_candidate")
                    if warm is not None:
                        W = np.empty_like(V0)
                        for k, blk in enumerate(grp.blocks):
                            W[k, :nI] = warm[sub.sl_X][blk.ti]
                            W[k, nI : nI + nE] = warm[sub.sl_y][blk.te]
                            W[k, nI + nE :] = warm[sub.sl_s][blk.te]
                        blend = 0.9 * W + 0.1 * V0
                        ok = grp.interior(blend)
                        V0[ok] = blend[ok]
                        warm_used |= bool(ok.any())
                        all_warm &= bool(ok.all())
                    else:
                        all_warm = False
                    solved.append((grp, V0))
                tau0 = _WARM_TAU0 if all_warm else _TAU0
                try:
                    for grp, V0 in solved:
                        V, iters = _batched_barrier(grp, V0, tau0)
                        newton_iters += iters
                        batch_sizes.append(len(grp.blocks))
                        nI, nE = grp.nI, grp.nE
                        for k, blk in enumerate(grp.blocks):
                            v[sub.sl_X][blk.ti] = V[k, :nI]
                            v[sub.sl_y][blk.te] = V[k, nI : nI + nE]
                            v[sub.sl_s][blk.te] = V[k, nI + nE :]
                except _BatchSolveError:
                    return bail("batched_newton_stalled")

            span.set(
                backend=self.name,
                warm_attempted=warm_attempted,
                warm_used=warm_used,
                fallback=False,
                newton_iters=newton_iters,
            )

        if probe is not None:
            probe.record_solve(
                backend=self.name,
                newton_iters=newton_iters,
                warm_attempted=warm_attempted,
                warm_used=warm_used,
                fallback=False,
            )
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "backend_slots_total",
                help="slots solved, by solver backend",
                backend=self.name,
            ).inc()
            if n_fast:
                reg.counter(
                    "backend_fast_path_hits_total",
                    help="closed-form star components solved without Newton",
                    backend=self.name,
                ).inc(n_fast)
            if newton_iters:
                reg.counter(
                    "backend_fused_newton_iters_total",
                    help="Newton iterations inside batched block solves",
                    backend=self.name,
                ).inc(newton_iters)
            for size in batch_sizes:
                reg.histogram(
                    "backend_batch_size",
                    help="blocks stacked per batched Newton solve",
                    buckets=_BATCH_BUCKETS,
                    backend=self.name,
                ).observe(size)
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
        """Route the slot through the coupled sequential solve."""
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
