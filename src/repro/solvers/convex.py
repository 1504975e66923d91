"""Smooth convex programs with linear inequality constraints.

This is the solver interface used for the regularized subproblems
P2(t).  A program is

.. math::

    \\min_v \\; f(v) \\quad \\text{s.t.} \\quad A v \\le b, \\;
    lb \\le v \\le ub,

where :math:`f` is separable: a linear part plus *entropic* terms of
the form :math:`w\\,((v_k+\\varepsilon)\\ln\\frac{v_k+\\varepsilon}{\\hat v_k+\\varepsilon} - v_k)`
— exactly the regularizers the paper substitutes for the
``[.]^+`` reconfiguration costs.  Separability gives a diagonal
Hessian, which both backends exploit.

Backends
--------
``"barrier"`` (default)
    Our own log-barrier Newton method (:mod:`repro.solvers.barrier`);
    fast because the Newton systems are ``diag + A^T D A`` with small
    dense/sparse structure.
``"trust-constr"``
    ``scipy.optimize.minimize`` with analytic gradient and Hessian;
    slower but an independent implementation used for cross-checks.

On a barrier failure the wrapper automatically falls back to
``trust-constr`` so algorithm runs never die on a single hard slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, minimize

if TYPE_CHECKING:
    from repro.solvers.barrier import P2NewtonSystem

_TRUST_CONSTR_TOL = 1e-9  # gtol and xtol of the trust-constr cross-check
_TRUST_CONSTR_MAXITER = 500


class ConvexSolverError(RuntimeError):
    """Raised when no backend can solve the program."""


class NonDescentStep(ConvexSolverError):
    """The barrier's Newton step failed to descend: the direction was not
    a descent direction, or its line search stalled away from the center.

    Raised out of a warm-started :meth:`SmoothConvexProgram.solve`
    (``tau0`` given) instead of falling back, so the caller can restart
    the solve once from its cold start.
    """


@dataclass
class SolveInfo:
    """Bookkeeping for one :meth:`SmoothConvexProgram.solve` call.

    Attributes
    ----------
    backend:
        The backend that produced the returned point.
    newton_iters:
        Newton (barrier) or trust-region iterations spent, summed over
        backends when a fallback was needed.
    backtracks:
        Armijo line-search backtracking steps taken (barrier only).
    fact_time_s:
        Seconds spent factorizing and back-solving Newton systems,
        assembly excluded (barrier only; measured only while the
        metrics registry is enabled, otherwise stays 0.0).
    newton_system:
        ``"structured"`` when the barrier solved its Newton systems
        through the program's ``structure`` (it has one and is large
        enough), ``"dense"`` when it factorized ``diag(h) + A^T D A``
        whole; ``""`` if the barrier never ran.  A structured solve may
        still take single steps directly (capacitance matrix not SPD).
    fallback:
        True when the requested backend failed and a fallback backend
        produced the result.
    tau:
        The barrier parameter the last barrier run ended at (0.0 if the
        barrier never ran).
    """

    backend: str = ""
    newton_iters: int = 0
    backtracks: int = 0
    fact_time_s: float = 0.0
    newton_system: str = ""
    fallback: bool = False
    tau: float = 0.0


@dataclass
class EntropicTerm:
    """A group of relative-entropy regularizer terms.

    Contributes ``sum_k w_k ((v_k + eps_k) ln((v_k + eps_k)/(ref_k + eps_k)) - v_k)``
    over the variables ``indices``; ``ref`` is the previous-slot value
    the regularizer anchors to.
    """

    indices: np.ndarray
    weight: np.ndarray
    eps: np.ndarray
    ref: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.intp)
        n = self.indices.shape[0]
        self.weight = np.broadcast_to(np.asarray(self.weight, float), (n,)).copy()
        self.eps = np.broadcast_to(np.asarray(self.eps, float), (n,)).copy()
        self.ref = np.broadcast_to(np.asarray(self.ref, float), (n,)).copy()
        if np.any(self.eps <= 0):
            raise ValueError("entropic eps must be > 0")
        if np.any(self.weight < 0):
            raise ValueError("entropic weight must be >= 0")
        if np.any(self.ref < 0):
            raise ValueError("entropic ref must be >= 0")


class SeparableObjective:
    """Linear + entropic separable objective with analytic derivatives.

    The entropic terms are *compiled* at construction into flat
    concatenated arrays (indices, weights, eps, refs); ``value``,
    ``grad`` and ``hess_diag`` then run a handful of vectorized
    operations over one array instead of a Python loop over terms with
    ``np.add.at`` scatters.  When the concatenated indices contain no
    duplicates (the common case: each variable appears in at most one
    term) the scatter degenerates to direct fancy/slice assignment,
    which is roughly an order of magnitude faster than ``np.add.at``.
    Duplicate and overlapping indices keep exact ``np.add.at``
    accumulation semantics through the slow path.

    ``fused=False`` selects the straightforward per-term loop
    implementation, the reference the fused kernels are property-tested
    (and benchmarked) against.
    """

    def __init__(
        self,
        n: int,
        linear: np.ndarray,
        entropic: "list[EntropicTerm] | None" = None,
        constant: float = 0.0,
        fused: bool = True,
    ) -> None:
        self.n = int(n)
        self.linear = np.broadcast_to(np.asarray(linear, float), (self.n,)).copy()
        self.entropic = list(entropic or [])
        self.constant = float(constant)
        self.fused = bool(fused)
        for term in self.entropic:
            if term.indices.size and term.indices.max() >= self.n:
                raise ValueError("entropic term indexes out of range")
        self._compile()

    # The entropic terms are only defined for v > -eps; iterates from
    # generic solvers (e.g. trust-constr trial points) can momentarily
    # dip below, so the domain is clamped at a tiny positive slack —
    # the clamp is never active at feasible points (lb >= 0 > -eps).
    _DOMAIN_FLOOR = 1e-12

    # ------------------------------------------------------------------
    # Compiled (fused) representation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Flatten the entropic terms into contiguous kernel arrays."""
        terms = self.entropic
        if terms:
            self._f_idx = np.concatenate([t.indices for t in terms])
            self._f_w = np.concatenate([t.weight for t in terms])
            self._f_eps = np.concatenate([t.eps for t in terms])
            self._f_ref = np.concatenate([t.ref for t in terms])
        else:
            self._f_idx = np.zeros(0, dtype=np.intp)
            self._f_w = np.zeros(0)
            self._f_eps = np.zeros(0)
            self._f_ref = np.zeros(0)
        self._f_r = self._f_ref + self._f_eps
        # Term boundaries inside the concatenated arrays; value() sums
        # each segment separately so its float result is bitwise
        # identical to the per-term loop (same pairwise-summation
        # trees, same accumulation order) — the barrier's Newton path
        # is ulp-sensitive and must not depend on which kernel runs.
        sizes = [t.indices.shape[0] for t in terms]
        offsets = np.cumsum([0] + sizes)
        self._f_segments = [
            (int(offsets[i]), int(offsets[i + 1])) for i in range(len(terms))
        ]
        idx = self._f_idx
        # Gather/scatter fast paths: a contiguous index range becomes a
        # slice; unique indices allow direct fancy assignment.
        self._f_slice = None
        if idx.size and idx[0] + idx.size - 1 == idx[-1] and np.array_equal(
            idx, np.arange(idx[0], idx[0] + idx.size)
        ):
            self._f_slice = slice(int(idx[0]), int(idx[0]) + idx.size)
        self._f_unique = bool(
            self._f_slice is not None or np.unique(idx).size == idx.size
        )
        # Scratch buffers: the kernels run inside the barrier line
        # search (tens of thousands of calls per trajectory), so they
        # write through ``out=`` instead of allocating.  Results are
        # bitwise identical — same elementwise ops in the same order.
        k = idx.size
        self._s_u = np.empty(k)
        self._s_lr = np.empty(k)
        self._s_d = np.empty(k)
        self._s_mask = np.empty(k, dtype=bool)

    def set_slot_data(
        self,
        linear: "np.ndarray | None" = None,
        refs: "list[np.ndarray] | None" = None,
    ) -> None:
        """Update per-slot data in place, keeping the compiled arrays.

        ``linear`` replaces the linear cost vector; ``refs`` replaces
        each entropic term's anchor (one array per term, broadcastable
        to the term's size).  Structure — indices, weights, eps — is
        untouched, so a subproblem reused across slots pays no
        recompilation cost.
        """
        if linear is not None:
            self.linear[:] = linear
        if refs is not None:
            if len(refs) != len(self.entropic):
                raise ValueError(
                    f"expected {len(self.entropic)} ref arrays, got {len(refs)}"
                )
            offset = 0
            for term, ref in zip(self.entropic, refs):
                size = term.indices.shape[0]
                ref = np.broadcast_to(np.asarray(ref, float), (size,))
                if np.any(ref < 0):
                    raise ValueError("entropic ref must be >= 0")
                term.ref[:] = ref
                self._f_ref[offset : offset + size] = ref
                offset += size
            np.add(self._f_ref, self._f_eps, out=self._f_r)

    def _gather(self, v: np.ndarray) -> np.ndarray:
        return v[self._f_slice] if self._f_slice is not None else v[self._f_idx]

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _log_ratio(term: EntropicTerm, vk: np.ndarray, u: np.ndarray,
                   r: np.ndarray) -> np.ndarray:
        """``ln((v+eps)/(ref+eps))`` via ``log1p((v-ref)/(ref+eps))``.

        For large ``eps`` the regularizer weights ``w = b/eta`` blow up
        while the two log arguments become nearly equal; the log of the
        rounded ratio then loses the entire signal (absolute error
        ~``u * eps_mach``, amplified by ``w`` into O(1) objective noise
        that stalls line searches).  Using the *exact* difference
        ``v - ref`` inside ``log1p`` keeps full relative accuracy.
        """
        # Where the domain clamp is active (v < -eps, transient solver
        # trial points only) fall back to the clamped difference.
        delta = np.where(u > SeparableObjective._DOMAIN_FLOOR, vk - term.ref, u - r)
        return np.log1p(delta / r)

    def _fused_u(self, vk: np.ndarray) -> np.ndarray:
        """``max(v + eps, floor)`` into the ``_s_u`` scratch buffer."""
        u = self._s_u
        np.add(vk, self._f_eps, out=u)
        np.maximum(u, self._DOMAIN_FLOOR, out=u)
        return u

    def _fused_log_ratio(self, vk: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Fused-array counterpart of :meth:`_log_ratio`.

        Writes into the ``_s_lr`` scratch buffer; ``np.copyto(...,
        where=)`` realizes the same select as the loop reference's
        ``np.where`` bit for bit.
        """
        lr = self._s_lr
        if np.minimum.reduce(u) > self._DOMAIN_FLOOR:
            # No clamp active (every feasible point): the select below
            # would take the exact branch everywhere.
            np.subtract(vk, self._f_ref, out=lr)
        else:
            d = self._s_d
            np.subtract(u, self._f_r, out=lr)      # clamped branch
            np.subtract(vk, self._f_ref, out=d)    # exact branch
            np.greater(u, self._DOMAIN_FLOOR, out=self._s_mask)
            np.copyto(lr, d, where=self._s_mask)
        np.divide(lr, self._f_r, out=lr)
        return np.log1p(lr, out=lr)

    def value(self, v: np.ndarray) -> float:
        if not self.fused:
            return self._value_loop(v)
        total = self.constant + float(self.linear @ v)
        if self._f_idx.size:
            vk = self._gather(v)
            u = self._fused_u(vk)
            lr = self._fused_log_ratio(vk, u)
            # Per-term segment sums (pairwise summation) rather than
            # one BLAS dot over the concatenation: the barrier
            # evaluates tau * value with tau up to ~1e10, so last-ulp
            # summation differences here become line-search noise that
            # measurably stalls Newton near the path's end.  Segment
            # sums keep the result bitwise equal to the loop reference.
            np.multiply(u, lr, out=u)
            np.subtract(u, vk, out=u)
            np.multiply(self._f_w, u, out=u)
            for lo, hi in self._f_segments:
                total += float(np.add.reduce(u[lo:hi]))
        return total

    def grad(self, v: np.ndarray) -> np.ndarray:
        if not self.fused:
            return self._grad_loop(v)
        g = self.linear.copy()
        if self._f_idx.size:
            vk = self._gather(v)
            u = self._fused_u(vk)
            # d/dv [(v+e) ln((v+e)/(r+e)) - v] = ln((v+e)/(r+e))
            lr = self._fused_log_ratio(vk, u)
            np.multiply(self._f_w, lr, out=lr)
            self._scatter_add(g, lr)
        return g

    def hess_diag(self, v: np.ndarray) -> np.ndarray:
        if not self.fused:
            return self._hess_diag_loop(v)
        h = np.zeros(self.n)
        if self._f_idx.size:
            u = self._fused_u(self._gather(v))
            np.divide(self._f_w, u, out=u)
            self._scatter_add(h, u)
        return h

    def lower_bound(self, lb: np.ndarray, ub: np.ndarray) -> float:
        """A lower bound on the objective over the box ``[lb, ub]``.

        The sum of each term's own minimum there: ``min(c lb, c ub)`` per
        variable for the linear part, and each entropic term's value at
        its anchor clipped to the box (its minimizer).  ``-inf`` when the
        linear part is unbounded below on the box.
        """
        c = self.linear
        with np.errstate(invalid="ignore"):
            lin = np.where(c > 0, c * lb, np.where(c < 0, c * ub, 0.0))
        total = self.constant + float(np.sum(lin))
        if not np.isfinite(total):
            return -np.inf
        for term in self.entropic:
            idx = term.indices
            vk = np.clip(term.ref, lb[idx], ub[idx])
            r = term.ref + term.eps
            total += float(np.sum(
                term.weight * ((vk + term.eps) * np.log1p((vk - term.ref) / r) - vk)
            ))
        return total

    def _scatter_add(self, out: np.ndarray, contrib: np.ndarray) -> None:
        if self._f_slice is not None:
            out[self._f_slice] += contrib
        elif self._f_unique:
            out[self._f_idx] += contrib
        else:
            np.add.at(out, self._f_idx, contrib)

    # ------------------------------------------------------------------
    # Loop reference (perf baseline + property-test oracle)
    # ------------------------------------------------------------------
    def _value_loop(self, v: np.ndarray) -> float:
        total = self.constant + float(self.linear @ v)
        for term in self.entropic:
            vk = v[term.indices]
            u = np.maximum(vk + term.eps, self._DOMAIN_FLOOR)
            r = term.ref + term.eps
            total += float(
                np.sum(term.weight * (u * self._log_ratio(term, vk, u, r) - vk))
            )
        return total

    def _grad_loop(self, v: np.ndarray) -> np.ndarray:
        g = self.linear.copy()
        for term in self.entropic:
            vk = v[term.indices]
            u = np.maximum(vk + term.eps, self._DOMAIN_FLOOR)
            r = term.ref + term.eps
            np.add.at(g, term.indices, term.weight * self._log_ratio(term, vk, u, r))
        return g

    def _hess_diag_loop(self, v: np.ndarray) -> np.ndarray:
        h = np.zeros(self.n)
        for term in self.entropic:
            u = np.maximum(v[term.indices] + term.eps, self._DOMAIN_FLOOR)
            np.add.at(h, term.indices, term.weight / u)
        return h


@dataclass
class SolverOptions:
    """Which method :meth:`SmoothConvexProgram.solve` runs.

    ``backend`` is ``"barrier"`` or ``"trust-constr"``; ``fallback``
    retries a failed barrier solve with trust-constr.  The methods'
    tolerances and iteration limits are module constants
    (:mod:`repro.solvers.barrier`, ``_TRUST_CONSTR_*`` here), tuned for
    the subproblem sizes in this library (tens to a few hundred
    variables, solved thousands of times).
    """

    backend: str = "barrier"
    fallback: bool = True


class SmoothConvexProgram:
    """``min f(v) s.t. A v <= b, lb <= v <= ub`` with separable smooth ``f``.

    ``structure`` optionally supplies a closed-form Newton solve for the
    program's row layout (:class:`~repro.solvers.barrier.P2NewtonSystem`,
    which the regularized subproblem P2(t) passes).  It changes how the
    barrier solves its Newton systems, never the program.
    """

    def __init__(
        self,
        objective: SeparableObjective,
        A: "sp.spmatrix | np.ndarray | None",
        b: "np.ndarray | None",
        lb: np.ndarray,
        ub: np.ndarray,
        structure: "P2NewtonSystem | None" = None,
    ) -> None:
        self.objective = objective
        n = objective.n
        if A is None:
            A = sp.csr_matrix((0, n))
            b = np.zeros(0)
        self.A = sp.csr_matrix(A)
        self.b = np.atleast_1d(np.asarray(b, float))
        if self.A.shape != (self.b.shape[0], n):
            raise ValueError(
                f"A has shape {self.A.shape}, expected ({self.b.shape[0]}, {n})"
            )
        self.lb = np.broadcast_to(np.asarray(lb, float), (n,)).copy()
        self.ub = np.broadcast_to(np.asarray(ub, float), (n,)).copy()
        if np.any(self.lb > self.ub):
            raise ValueError("lb > ub")
        self.structure = structure
        self.last_info = SolveInfo()
        # Caches reused across solves of the same structure: the
        # phase-I interior point (valid as long as it stays strictly
        # interior after in-place b updates) and the barrier method's
        # workspace (owned by repro.solvers.barrier; depends only on A
        # and the bound pattern, both fixed for a program's lifetime).
        self._phase1_cache: "np.ndarray | None" = None
        self._barrier_ws = None

    # ------------------------------------------------------------------
    def residual(self, v: np.ndarray) -> float:
        """Worst constraint violation at ``v`` (<= 0 means feasible)."""
        parts = [np.max(self.lb - v, initial=-np.inf), np.max(v - self.ub, initial=-np.inf)]
        if self.A.shape[0]:
            parts.append(float(np.max(self.A @ v - self.b)))
        return float(max(parts))

    def max_step(self, v: np.ndarray, dv: np.ndarray) -> float:
        """Largest step in ``(0, 1]`` keeping ``v + step * dv`` strictly
        interior, for a strictly interior ``v``.

        The barrier line search's ratio test: 0.99 of the distance to
        the nearest constraint row or bound along ``dv``, capped at 1.
        """
        from repro.solvers.barrier import _workspace

        return _workspace(self).max_step(v, dv)

    def solve(
        self,
        v0: "np.ndarray | None" = None,
        options: "SolverOptions | None" = None,
        tau0: "float | None" = None,
    ) -> np.ndarray:
        """Solve the program, optionally warm-starting from ``v0``.

        ``tau0`` overrides where the barrier starts its path (a warm
        start close to the optimum begins further along it).  Returns
        the optimal ``v``; raises :class:`ConvexSolverError` if every
        backend fails, and :class:`NonDescentStep` if a warm-started
        barrier meets a non-descent Newton step.  Iteration counts and
        the backend that produced the result are recorded in
        :attr:`last_info`.
        """
        options = options or SolverOptions()
        backends = [options.backend]
        if options.fallback and options.backend != "trust-constr":
            backends.append("trust-constr")
        errors: list[str] = []
        info = SolveInfo()
        self.last_info = info
        for idx, backend in enumerate(backends):
            info.backend = backend
            info.fallback = idx > 0
            try:
                if backend == "barrier":
                    from repro.solvers.barrier import barrier_solve

                    return barrier_solve(self, v0=v0, info=info, tau0=tau0)
                if backend == "trust-constr":
                    return self._solve_trust_constr(v0, info=info)
                raise ConvexSolverError(f"unknown backend {backend!r}")
            except ConvexSolverError as exc:  # try the next backend
                if isinstance(exc, NonDescentStep) and tau0 is not None:
                    raise  # a warm start: the caller restarts it cold
                errors.append(f"{backend}: {exc}")
        raise ConvexSolverError("; ".join(errors))

    # ------------------------------------------------------------------
    def _interior_start(self) -> np.ndarray:
        """Strictly feasible point, phase-I LP result cached across solves.

        A previously computed phase-I point is reused whenever it is
        still comfortably interior for the current right-hand side —
        per-slot ``b`` updates between chained subproblem solves
        usually leave it valid, so the LP runs once per constraint
        structure instead of once per cold start.
        """
        cached = self._phase1_cache
        if cached is not None and self.residual(cached) < -1e-7:
            return cached.copy()
        v = self._phase1_lp()
        self._phase1_cache = v
        return v.copy()

    def _phase1_lp(self) -> np.ndarray:
        """Strictly feasible point via a margin-maximizing LP (phase I)."""
        from scipy.optimize import linprog

        n = self.objective.n
        m = self.A.shape[0]
        # Variables [v, delta]: maximize delta s.t. Av + delta <= b,
        # lb + delta <= v <= ub - delta (only where bounds are finite).
        cols = []
        rhs = []
        if m:
            cols.append(sp.hstack([self.A, sp.csr_matrix(np.ones((m, 1)))]))
            rhs.append(self.b)
        fin_lb = np.flatnonzero(np.isfinite(self.lb))
        if fin_lb.size:
            sel = sp.csr_matrix(
                (-np.ones(fin_lb.size), (np.arange(fin_lb.size), fin_lb)),
                shape=(fin_lb.size, n),
            )
            cols.append(sp.hstack([sel, sp.csr_matrix(np.ones((fin_lb.size, 1)))]))
            rhs.append(-self.lb[fin_lb])
        fin_ub = np.flatnonzero(np.isfinite(self.ub))
        if fin_ub.size:
            sel = sp.csr_matrix(
                (np.ones(fin_ub.size), (np.arange(fin_ub.size), fin_ub)),
                shape=(fin_ub.size, n),
            )
            cols.append(sp.hstack([sel, sp.csr_matrix(np.ones((fin_ub.size, 1)))]))
            rhs.append(self.ub[fin_ub])
        A_ub = sp.vstack(cols, format="csr")
        b_ub = np.concatenate(rhs)
        c = np.zeros(n + 1)
        c[-1] = -1.0
        # Cap delta so the LP is bounded even for unbounded feasible sets.
        bounds = [(None, None)] * n + [(0.0, 1e6)]
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if not res.success or res.x is None or res.x[-1] <= 0:
            raise ConvexSolverError("phase-I failed to find a strictly interior point")
        return np.asarray(res.x[:n], dtype=float)

    def _solve_trust_constr(
        self,
        v0: "np.ndarray | None",
        info: "SolveInfo | None" = None,
    ) -> np.ndarray:
        obj = self.objective
        n = obj.n
        if v0 is None or self.residual(v0) > 0:
            v0 = (
                self._interior_start()
                if self.A.shape[0]
                else np.clip(np.zeros(n), self.lb, self.ub)
            )
        constraints = []
        if self.A.shape[0]:
            constraints.append(LinearConstraint(self.A, -np.inf, self.b))
        res = minimize(
            obj.value,
            v0,
            jac=obj.grad,
            hess=lambda v: sp.diags(obj.hess_diag(v)),
            bounds=Bounds(self.lb, self.ub),
            constraints=constraints,
            method="trust-constr",
            options={
                "gtol": _TRUST_CONSTR_TOL,
                "xtol": _TRUST_CONSTR_TOL,
                "maxiter": _TRUST_CONSTR_MAXITER,
            },
        )
        v = np.asarray(res.x, dtype=float)
        if info is not None:
            info.newton_iters += int(getattr(res, "niter", 0) or 0)
        # trust-constr can end with tiny constraint violations; project
        # box bounds exactly and accept small general-constraint slack.
        v = np.clip(v, self.lb, self.ub)
        viol = self.residual(v)
        if viol > 1e-6:
            raise ConvexSolverError(
                f"trust-constr returned infeasible point (violation {viol:.2e})"
            )
        if not res.success and res.status not in (1, 2, 3):
            raise ConvexSolverError(f"trust-constr failed: {res.message}")
        return v
