"""Log-barrier interior-point method for separable convex programs.

Solves :class:`~repro.solvers.convex.SmoothConvexProgram` instances by
classic path following (Boyd & Vandenberghe, ch. 11): minimize

.. math::

    \\phi_\\tau(v) = \\tau f(v)
        - \\sum_i \\log(b_i - a_i^T v)
        - \\sum_k \\log(v_k - lb_k) - \\sum_k \\log(ub_k - v_k)

by damped Newton steps for increasing :math:`\\tau`.  Because the
objective Hessian is diagonal, each Newton system is
``H = diag(h) + A^T D A`` with ``D`` diagonal.  It is solved one of two
ways, chosen per program:

* **Structured** (:class:`P2NewtonSystem`), for a program that carries
  one as its ``structure`` (the regularized subproblem P2(t) does) and
  either has at least ``_STRUCTURED_MIN_VARS`` variables or lives on
  the sparse workspace.  Its rows touch one variable group each in a
  fixed pattern, so ``H`` is solved in closed form: scalar Schur steps
  for ``y`` and ``X``, one symmetric rank-one update per tier-1 cloud
  for the cover rows, and an I x I scaled capacitance for the
  ``s <= X`` rows, followed by one step of iterative refinement when
  the first solve's residual is above rounding.  On
  the paper topology at k=2 this replaces a dense 210x210 factorization
  per step by one 18x18 Cholesky and O(E I) vectorised passes, and
  reads no matrix ``A``.
* **Dense**: ``A^T D A`` formed by one GEMM and factored by LAPACK
  ``potrf``.  At the sizes this library solves thousands of times (n in
  the low hundreds) dense BLAS beats sparse kernels by an order of
  magnitude, so the constraint matrix is densified up to a size
  threshold (measured, not guessed; see
  ``benchmarks/test_ablation_solvers.py``); beyond it a sparse
  factorization is used.  It is also the fallback for a single
  structured step whose capacitance matrix Cholesky rejects.

Hot-path structure (measured by ``perfbench/``): the barrier
workspace is built once per program and cached on it — it precomputes
``A^T`` (contiguous, dense path), index arrays for the finite bounds,
preallocated Hessian/scaled-row buffers reused across Newton
iterations, and, on the sparse path, the symbolic expansion of
``A^T D A`` (the sparsity pattern is fixed across iterations, so each
iteration only rescales precomputed entry products and bin-sums them
into the fixed CSC structure).  The Armijo line search reuses the
already-computed slack vector and constraint-direction product
(``trial slack = slack - step * A dv``) instead of a fresh
matrix-vector product per trial point, which removes the dominant
per-trial cost.

Numerical policy: the duality-gap stopping rule is *relative* to the
objective magnitude and the centering tolerance scales with ``tau`` —
chasing an absolute ``1e-8`` gap pushes ``tau`` beyond what double
precision supports and stalls Newton.  For the same reason centering
also stops once the decrease a Newton step predicts is below the
rounding of ``phi`` itself: past that point the Armijo test can only
accept noise, and the loop used to spend up to ``_MAX_NEWTON`` steps of
~15 backtracks each without moving.

Only the last centering needs that precision.  A centering whose
``tau`` provably cannot end the solve — its gap bound ``m/tau`` exceeds
the tolerance even against the largest ``|f|`` a centered point can
have, bounded through :meth:`SeparableObjective.lower_bound` — stops
at Newton decrement^2 <= ``_CENTER_DEC_SQ``; the path then reaches the
same final ``tau`` as with every centering tight, and centers that one
tightly.  ``phi`` is evaluated once per Newton step: the accepted trial
point's value is carried into the next step.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.solvers.convex import (
    ConvexSolverError,
    NonDescentStep,
    SmoothConvexProgram,
    SolveInfo,
)

_DENSE_NNZ_THRESHOLD = 2_000_000  # m*n above this stays sparse
# A dense program that carries a P2NewtonSystem takes the closed-form
# Newton solve only from this many variables up; below it the solve's
# fixed cost of vectorised passes outweighs the dense O(n^3) it
# replaces.  Whole Newton step (``newton_step``) over the last 40 path
# points of a 6-slot paper-topology chain, best of 15 passes, 2-vCPU
# shared host, 1 BLAS thread, closed-form (refined on demand) vs dense:
# 3x5 k=1 (n=13) 143 vs 49 us; 6x12 k=2 (n=54) 147 vs 79 us; 9x20 k=2
# (n=89) 159 vs 146 us; 9x24 k=2 (n=105) 170 vs 199 us; 12x30 k=2
# (n=132) 177 vs 326 us; 18x48 k=2 (n=210) 206 vs 927 us; 18x48 k=3
# (n=306) 244 vs 2,124 us.  The crossover stays between n=89 and
# n=105, where it was with the refinement always run.  The sparse
# workspace always takes the closed-form solve.
_STRUCTURED_MIN_VARS = 90
# Sparse A^T D A structure reuse stores one entry per nonzero product
# A_ki * A_kj; above this many the one-time memory cost outweighs the
# per-iteration win and the plain sparse product is used instead.
_TRIPLE_PRODUCT_PAIRS_THRESHOLD = 5_000_000
_MAX_BOUNDARY_FRACTION = 0.99
_ARMIJO_ALPHA = 0.1
_ARMIJO_BETA = 0.5
_EPS = float(np.finfo(float).eps)
# Path schedule: tau starts at _TAU0 (_WARM_TAU0 for a warm start close
# to the optimum) and grows by _TAU_MU per centering; the solve stops
# once the centered duality-gap bound m/tau is below _TOL relative to
# |f|.  A centering takes at most _MAX_NEWTON steps.
_TAU0 = 1.0
_WARM_TAU0 = 1e3
_TAU_MU = 20.0
_TOL = 1e-7
_MAX_NEWTON = 80
# A centering whose tau provably cannot end the solve stops once the
# Newton decrement^2 is at most _CENTER_DEC_SQ; within it phi_tau is at
# most that far above its minimum (Boyd & Vandenberghe 9.6.3), which is
# also the bound a line-search stall must meet to be accepted.
_CENTER_DEC_SQ = 0.25
# The structured Newton solve refines its direction only when the first
# solve's residual exceeds this fraction of the gradient (max norms).
_REFINE_TOL = 1e-12


def _row_pairs(A: sp.csr_matrix, rows: np.ndarray):
    """Every ordered nonzero pair ``(a, b)`` within each of ``rows``.

    Returns ``(owner, a, b)``: the row of each pair and the positions of
    its two entries in ``A.indices``/``A.data``.  A row with ``L``
    nonzeros contributes its ``L^2`` pairs, row after row, ``a`` major.
    """
    indptr = A.indptr
    row_nnz = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    sq = row_nnz**2
    owner_local = np.repeat(np.arange(rows.size), sq)
    block_start = np.concatenate([[0], np.cumsum(sq)[:-1]]).astype(np.int64)
    blockpos = np.arange(int(sq.sum()), dtype=np.int64) - block_start[owner_local]
    L = row_nnz[owner_local]
    start = indptr[rows].astype(np.int64)[owner_local]
    return rows[owner_local], start + blockpos // L, start + blockpos % L


def _no_clock() -> float:
    return 0.0


class _NotSPD(Exception):
    """The capacitance Cholesky rejected its matrix; the step is taken by
    the direct factorization instead."""


class P2NewtonSystem:
    """Closed-form Newton solve for the regularized subproblem P2(t).

    The program's variables are ``v = [X (I,) | y (E,) | s (E,)]`` and
    its rows ``[s_e - y_e <= 0 (E) | -sum_{e in I_j} s_e <= -lambda_j (J)
    | sum_{e in J_i} s_e - X_i <= 0 (I)]``, where edge ``e`` joins
    tier-2 cloud ``edge_i[e]`` and tier-1 cloud ``edge_j[e]`` (the layout
    :class:`~repro.core.subproblem.RegularizedSubproblem` builds).  With
    ``h`` the barrier Hessian's diagonal and ``D = diag(1/slack^2)`` split
    as ``D_y`` (``s <= y``), ``d`` (cover) and ``g`` (``s <= X``), the
    Newton matrix ``diag(h) + A^T D A`` is solved in three exact steps:

    1. Each ``y_e`` and each ``X_i`` appears in one row only, so both are
       eliminated by scalar Schur steps, leaving on ``s`` the matrix
       ``M = diag(delta) + sum_j d_j 1_{I_j} 1_{I_j}^T
       + sum_i gamma_i 1_{J_i} 1_{J_i}^T`` with
       ``delta_e = h_s + D_y h_y / (h_y + D_y)`` and
       ``gamma_i = g_i h_X / (h_X + g_i)``.
    2. The cover term is one rank-one update of a diagonal per tier-1
       cloud (the ``I_j`` partition the edges), so ``K = diag(delta) +
       sum_j d_j 1 1^T`` has the symmetric inverse root
       ``K^{-1} = W W^T``, ``W = diag(delta)^{-1/2} (I - alpha_j q q^T)``
       per cloud, with ``q`` the unit vector along
       ``diag(delta)^{-1/2} 1`` and ``alpha = 1 - (1 + c)^{-1/2}``,
       ``c = d_j sum 1/delta``, formed without cancellation.
    3. The ``s <= X`` term is ``Z Z^T`` with ``Z_ei = sqrt(gamma_i)`` on
       ``e in J_i``.  With ``V = W^T Z`` (E x I),
       ``M^{-1} = W (I - V C^{-1} V^T) W^T`` by Woodbury, where the
       scaled capacitance ``C = I + V^T V`` (I x I, eigenvalues >= 1) is
       factored by one Cholesky.

    One step of iterative refinement follows when the residual, formed
    from the row structure by ``bincount`` over ``edge_i``/``edge_j``,
    exceeds ``_REFINE_TOL`` of the gradient; no matrix ``A`` is read,
    so the same solve serves the dense and the sparse workspace.
    Everything but ``potrf``/``potrs`` is O(E I).
    """

    def __init__(
        self,
        n_tier2: int,
        n_tier1: int,
        edge_i: np.ndarray,
        edge_j: np.ndarray,
    ) -> None:
        self.n_i, self.n_j = int(n_tier2), int(n_tier1)
        self.edge_i = np.asarray(edge_i, dtype=np.intp)
        self.edge_j = np.asarray(edge_j, dtype=np.intp)
        self.n_e = self.edge_i.size
        self.n = self.n_i + 2 * self.n_e
        self.m = self.n_e + self.n_j + self.n_i
        # Position of each edge's (tier-1, tier-2) pair in a (J, I) grid.
        self._pair = self.edge_j * self.n_i + self.edge_i
        self._rows = np.arange(self.n_e)
        self._eye_diag = np.arange(self.n_i) * (self.n_i + 1)
        self._potrf, self._potrs = la.get_lapack_funcs(
            ("potrf", "potrs"), (np.empty((1, 1)),)
        )

    def matvec(self, dv: np.ndarray) -> np.ndarray:
        """``A dv`` for the program's row layout."""
        n_i, n_e = self.n_i, self.n_e
        dX, dy, ds = dv[:n_i], dv[n_i : n_i + n_e], dv[n_i + n_e :]
        return np.concatenate([
            ds - dy,
            -np.bincount(self.edge_j, weights=ds, minlength=self.n_j),
            np.bincount(self.edge_i, weights=ds, minlength=n_i) - dX,
        ])

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """``A^T w`` for the program's row layout."""
        n_i, n_e, n_j = self.n_i, self.n_e, self.n_j
        w_sy, w_cov, w_sX = w[:n_e], w[n_e : n_e + n_j], w[n_e + n_j :]
        return np.concatenate([
            -w_sX, -w_sy, w_sy - w_cov[self.edge_j] + w_sX[self.edge_i]
        ])

    def solve(
        self,
        hdiag: np.ndarray,
        grad: np.ndarray,
        inv2: np.ndarray,
        fact_out: "list[float] | None",
    ) -> np.ndarray:
        """The Newton direction ``-H^{-1} grad``; raises :class:`_NotSPD`.

        ``inv2`` is ``1/slack^2`` per row.  ``fact_out`` accumulates the
        capacitance Cholesky and every solve through the factored system
        (the refinement's included); the eliminations, ``V`` and
        ``V^T V`` are assembly and not timed, as on the dense path,
        where the GEMM forming ``A^T D A`` is not timed either.
        """
        n_i, n_e, n_j = self.n_i, self.n_e, self.n_j
        ei, ej = self.edge_i, self.edge_j
        h_X, h_y, h_s = hdiag[:n_i], hdiag[n_i : n_i + n_e], hdiag[n_i + n_e :]
        D_y, d, g = inv2[:n_e], inv2[n_e : n_e + n_j], inv2[n_e + n_j :]
        # 1. Scalar Schur steps: y_e against s_e <= y_e, X_i against its row.
        k_y = D_y / (h_y + D_y)
        k_X = g / (h_X + g)
        delta = h_s + h_y * k_y
        gamma = h_X * k_X
        # 2. Symmetric root of the per-cloud rank-one cover update.
        root = 1.0 / np.sqrt(delta)
        norm2 = np.bincount(ej, weights=root * root, minlength=n_j)
        c = d * norm2
        alpha = c / ((1.0 + c) + np.sqrt(1.0 + c))
        q = root / np.sqrt(norm2[ej])
        aq = alpha[ej] * q
        # 3. V = W^T Z, scaled capacitance I + V^T V.
        z = root * np.sqrt(gamma)[ei]
        P = np.bincount(self._pair, weights=q * z, minlength=n_j * n_i)
        V = -aq[:, None] * P.reshape(n_j, n_i)[ej]
        V[self._rows, ei] += z
        C = V.T @ V
        C.reshape(-1)[self._eye_diag] += 1.0

        clock = time.perf_counter if fact_out is not None else _no_clock
        start = clock()
        try:
            cf, info = self._potrf(C, lower=False, overwrite_a=True, clean=False)
            if info != 0:
                raise _NotSPD
            factors = (k_y, k_X, h_y + D_y, h_X + g, root, q, aq, V, cf)
            neg_grad = -grad
            dv = self._apply(factors, neg_grad)
            res = neg_grad - hdiag * dv - self.rmatvec(inv2 * self.matvec(dv))
            # Refine only a solve that left more than rounding behind.
            if np.abs(res).max() > _REFINE_TOL * np.abs(grad).max():
                dv += self._apply(factors, res)
            return dv
        finally:
            if fact_out is not None:
                fact_out[0] += clock() - start

    def _apply(self, factors, f: np.ndarray) -> np.ndarray:
        """``H^{-1} f`` for ``H`` as factored by :meth:`solve`."""
        k_y, k_X, piv_y, piv_X, root, q, aq, V, cf = factors
        n_i, n_e, n_j = self.n_i, self.n_e, self.n_j
        ej = self.edge_j
        f_X, f_y, f_s = f[:n_i], f[n_i : n_i + n_e], f[n_i + n_e :]
        # Right-hand side of the reduced s system.
        r = f_s + k_y * f_y + (k_X * f_X)[self.edge_i]
        # t = W^T r, then t - V C^{-1} V^T t, then W t.
        t = root * r
        t -= aq * np.bincount(ej, weights=q * t, minlength=n_j)[ej]
        z, info = self._potrs(cf, V.T @ t, lower=False)
        if info != 0:  # pragma: no cover - potrs only fails on bad args
            raise ConvexSolverError(f"Cholesky solve failed (potrs info={info})")
        t -= V @ z
        t -= aq * np.bincount(ej, weights=q * t, minlength=n_j)[ej]
        ds = root * t
        # Back-substitute the eliminated y and X.
        dy = f_y / piv_y + k_y * ds
        dX = f_X / piv_X + k_X * np.bincount(self.edge_i, weights=ds, minlength=n_i)
        return np.concatenate([dX, dy, ds])


class _Workspace:
    """Precomputed constraint data and reusable buffers for one program.

    Built once per :class:`SmoothConvexProgram` and cached on it
    (``prog._barrier_ws``), so repeated solves of the same structure —
    the per-slot subproblem chain updates only ``b``, the linear cost
    and the regularizer anchors in place — skip all of the setup.
    ``b`` is held by reference and picks up in-place updates; ``A`` and
    the bound pattern must not change over the program's lifetime.
    """

    def __init__(self, prog: SmoothConvexProgram, dense: "bool | None" = None) -> None:
        self.prog = prog
        m, n = prog.A.shape
        self.dense = m * n <= _DENSE_NNZ_THRESHOLD if dense is None else bool(dense)
        self.A = prog.A.toarray() if self.dense else prog.A.tocsr()
        self.b = prog.b
        self.fin_lb = np.isfinite(prog.lb)
        self.fin_ub = np.isfinite(prog.ub)
        self.m_total = m + int(self.fin_lb.sum()) + int(self.fin_ub.sum())
        # Finite-bound fast path: when every bound is finite (the
        # subproblem default with capacity caps) the masked selects
        # collapse to whole-array arithmetic.
        self.all_lb = bool(self.fin_lb.all())
        self.all_ub = bool(self.fin_ub.all())
        self.idx_lb = np.flatnonzero(self.fin_lb)
        self.idx_ub = np.flatnonzero(self.fin_ub)
        self.lb_f = prog.lb[self.idx_lb]
        self.ub_f = prog.ub[self.idx_ub]
        # Scratch buffers for phi/newton_step: the solver's inner loop
        # is alloc-bound at subproblem sizes, so the hot kernels write
        # through ``out=``.  Same ops, same order — bitwise identical.
        self._s_lb = np.empty(n if self.all_lb else self.idx_lb.size)
        self._s_ub = np.empty(n if self.all_ub else self.idx_ub.size)
        self._log_m = np.empty(m)
        self._inv_m = np.empty(m)
        self._inv2_m = np.empty(m)
        self._bnd_n = np.empty(n)
        self._slack_m = np.empty(m)
        self._adv_m = np.empty(m)
        self._ms_r = np.empty(m)
        self._ms_mask = np.empty(m, dtype=bool)
        self._ms_q = np.empty(n)
        self._ms_qmask = np.empty(n, dtype=bool)
        self._not_fin_lb = ~self.fin_lb
        self._not_fin_ub = ~self.fin_ub
        self._gemv_n = np.empty(n)
        # The closed-form P2(t) Newton solve for programs that carry one
        # (see P2NewtonSystem); ``dense_steps`` tallies, per solve, the
        # steps it handed to the direct factorization.
        self.system = None
        self.dense_steps = 0
        if prog.structure is not None and (
            n >= _STRUCTURED_MIN_VARS or not self.dense
        ):
            self.system = prog.structure
        if self.dense:
            self.AT = np.ascontiguousarray(self.A.T)
            self._scaled = np.empty((m, n))
            self._H = np.empty((n, n))
            self._diag_flat = np.arange(n) * (n + 1)
            self._potrf, self._potrs = la.get_lapack_funcs(
                ("potrf", "potrs"), (self._H,)
            )
            self._triple = None
        else:
            self.AT = self.A.T.tocsr()
            self._triple = self._compile_triple_product(self.A, n)

    # ------------------------------------------------------------------
    @staticmethod
    def _compile_triple_product(A: sp.csr_matrix, n: int):
        """Symbolic expansion of ``A^T D A`` for structure reuse.

        The product's sparsity pattern is fixed across Newton
        iterations (only ``D`` changes), so the index arithmetic —
        which entry products ``A_ki A_kj`` land where in the CSC result
        — is done once.  Each iteration then just rescales the
        precomputed products by ``d_k`` and bin-sums them.  Returns
        ``None`` when the expansion would be too large (fall back to
        the plain sparse product per iteration).
        """
        m = A.shape[0]
        if m == 0:
            return None
        indices, data = A.indices, A.data
        row_nnz = np.diff(A.indptr).astype(np.int64)
        n_pairs = int((row_nnz**2).sum())
        if n_pairs == 0 or n_pairs > _TRIPLE_PRODUCT_PAIRS_THRESHOLD:
            return None
        owner, a, b = _row_pairs(A, np.arange(m))
        pair_i = indices[a].astype(np.int64)
        pair_j = indices[b].astype(np.int64)
        pair_val = data[a] * data[b]
        # Guarantee every diagonal position exists so diag(h) can be
        # added in place (synthetic zero-valued entries, owner 0).
        diag_idx = np.arange(n, dtype=np.int64)
        pair_i = np.concatenate([pair_i, diag_idx])
        pair_j = np.concatenate([pair_j, diag_idx])
        pair_val = np.concatenate([pair_val, np.zeros(n)])
        owner = np.concatenate([owner, np.zeros(n, dtype=owner.dtype)])
        # Canonical CSC order: sort by (column, row).
        keys = pair_j * n + pair_i
        uniq, pos = np.unique(keys, return_inverse=True)
        csc_rows = (uniq % n).astype(np.int32)
        csc_cols = uniq // n
        indptr_u = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(csc_cols, minlength=n), out=indptr_u[1:])
        diag_pos = np.flatnonzero(csc_rows == csc_cols.astype(np.int32))
        return {
            "pos": pos,
            "vals": pair_val,
            "owner": owner,
            "nnz": uniq.size,
            "indices": csc_rows,
            "indptr": indptr_u,
            "diag": diag_pos,
        }

    # ------------------------------------------------------------------
    def slacks(self, v: np.ndarray, buffered: bool = False) -> np.ndarray:
        """``b - A v``; with ``buffered`` the result lives in a scratch
        array owned by the workspace (overwritten by the next buffered
        call — the solve loop consumes it before then)."""
        if self.b.shape[0] == 0:
            return np.zeros(0)
        if buffered and self.dense:
            out = self._slack_m
            np.dot(self.A, v, out=out)
            np.subtract(self.b, out, out=out)
            return out
        return self.b - self.A @ v

    def phi(self, v: np.ndarray, tau: float, slack: "np.ndarray | None" = None) -> float:
        """Barrier function value; +inf outside the strict interior.

        ``slack`` may be supplied by the caller (e.g. the line search's
        incrementally updated ``slack - step * A dv``) to skip the
        matrix-vector product.
        """
        prog = self.prog
        if slack is None:
            slack = self.slacks(v)
        if self.all_lb:
            s_lb = np.subtract(v, prog.lb, out=self._s_lb)
        else:
            s_lb = np.subtract(v[self.idx_lb], self.lb_f, out=self._s_lb)
        if self.all_ub:
            s_ub = np.subtract(prog.ub, v, out=self._s_ub)
        else:
            s_ub = np.subtract(self.ub_f, v[self.idx_ub], out=self._s_ub)
        # Boundary detection rides on the logs instead of three extra
        # min-reductions (the hot line search calls phi tens of
        # thousands of times per trajectory): a zero slack gives
        # log -> -inf -> val=+inf, a negative one gives nan, mapped to
        # +inf below.  Interior values are bitwise unchanged.
        with np.errstate(divide="ignore", invalid="ignore"):
            val = tau * prog.objective.value(v)
            # np.add.reduce is what ndarray.sum dispatches to; calling
            # it directly skips two wrapper layers on the hottest line.
            if slack.size:
                val -= float(np.add.reduce(np.log(slack, out=self._log_m)))
            if s_lb.size:
                val -= float(np.add.reduce(np.log(s_lb, out=s_lb)))
            if s_ub.size:
                val -= float(np.add.reduce(np.log(s_ub, out=s_ub)))
        if val != val:
            return np.inf
        return val

    def newton_step(
        self,
        v: np.ndarray,
        tau: float,
        slack: "np.ndarray | None" = None,
        fact_out: "list[float] | None" = None,
    ) -> tuple[np.ndarray, float]:
        """Newton direction for phi_tau at ``v``; returns (dv, decrement^2).

        ``fact_out`` is an optional one-element accumulator for the
        seconds spent factorizing/solving the Newton system — supplied
        only while the metrics registry is enabled, so the disabled
        path pays no clock reads.
        """
        prog = self.prog
        obj = prog.objective
        n = obj.n
        grad = obj.grad(v)
        np.multiply(grad, tau, out=grad)
        hdiag = obj.hess_diag(v)
        np.multiply(hdiag, tau, out=hdiag)

        bb = self._bnd_n
        if self.all_lb:
            inv_lb = np.divide(1.0, np.subtract(v, prog.lb, out=bb), out=bb)
            grad -= inv_lb
            hdiag += np.multiply(inv_lb, inv_lb, out=bb)
        elif self.idx_lb.size:
            inv_lb = 1.0 / (v[self.idx_lb] - self.lb_f)
            grad[self.idx_lb] -= inv_lb
            hdiag[self.idx_lb] += inv_lb * inv_lb
        if self.all_ub:
            inv_ub = np.divide(1.0, np.subtract(prog.ub, v, out=bb), out=bb)
            grad += inv_ub
            hdiag += np.multiply(inv_ub, inv_ub, out=bb)
        elif self.idx_ub.size:
            inv_ub = 1.0 / (self.ub_f - v[self.idx_ub])
            grad[self.idx_ub] += inv_ub
            hdiag[self.idx_ub] += inv_ub * inv_ub

        if self.b.shape[0]:
            if slack is None:
                slack = self.slacks(v)
            inv = np.divide(1.0, slack, out=self._inv_m)
            inv2 = np.multiply(inv, inv, out=self._inv2_m)
            if self.dense:
                grad += np.dot(self.AT, inv, out=self._gemv_n)
            else:
                grad = grad + self.AT @ inv
            if self.system is not None:
                try:
                    dv = self.system.solve(hdiag, grad, inv2, fact_out)
                    return dv, float(-grad @ dv)
                except _NotSPD:
                    self.dense_steps += 1
            if self.dense:
                np.multiply(self.A, inv2[:, None], out=self._scaled)
                H = np.dot(self.AT, self._scaled, out=self._H)
                Hd = H.reshape(-1)
                Hd[self._diag_flat] += hdiag
            elif self._triple is not None:
                tp = self._triple
                data = np.bincount(
                    tp["pos"],
                    weights=tp["vals"] * inv2[tp["owner"]],
                    minlength=tp["nnz"],
                )
                data[tp["diag"]] += hdiag
                H = sp.csc_matrix(
                    (data, tp["indices"], tp["indptr"]), shape=(n, n)
                )
            else:
                D = sp.diags(inv2)
                H = (sp.diags(hdiag) + self.A.T @ D @ self.A).tocsc()
        else:
            if self.dense:
                H = self._H
                H.fill(0.0)
                H.reshape(-1)[self._diag_flat] = hdiag
            else:
                H = sp.diags(hdiag).tocsc()

        fact_start = time.perf_counter() if fact_out is not None else 0.0
        if self.dense:
            Hd = H.reshape(-1)
            diag = Hd[self._diag_flat]
            Hd[self._diag_flat] = diag + 1e-13 * (1.0 + np.abs(diag))
            # Direct LAPACK Cholesky on the reusable buffer (the
            # cho_factor/cho_solve wrappers cost ~10% of a solve at
            # these sizes).  Same routines, same numerics.
            c, info = self._potrf(H, lower=False, overwrite_a=True, clean=False)
            if info != 0:
                raise ConvexSolverError(f"Newton system not SPD (potrf info={info})")
            dv, info = self._potrs(c, -grad, lower=False)
            if info != 0:  # pragma: no cover - potrs only fails on bad args
                raise ConvexSolverError(f"Cholesky solve failed (potrs info={info})")
        else:
            try:
                dv = spla.spsolve(H, -grad)
            except RuntimeError as exc:  # pragma: no cover - rare
                raise ConvexSolverError(f"sparse Newton solve failed: {exc}") from exc
        if fact_out is not None:
            fact_out[0] += time.perf_counter() - fact_start

        return dv, float(-grad @ dv)

    def max_step(
        self,
        v: np.ndarray,
        dv: np.ndarray,
        slack: "np.ndarray | None" = None,
        Adv: "np.ndarray | None" = None,
    ) -> float:
        """Largest step keeping ``v + step*dv`` strictly interior."""
        prog = self.prog
        step = 1.0
        # Masked-select ratios via full-array divides into scratch
        # buffers, with non-candidate entries overwritten by +inf
        # before the min: the surviving values — and hence the min —
        # are bitwise those of the boolean-indexed reference
        # expressions, without the fancy-indexing copies.  A min of
        # +inf (no candidate) leaves ``step`` untouched.
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.b.shape[0]:
                if Adv is None:
                    Adv = self.A @ dv
                if slack is None:
                    slack = self.slacks(v)
                r = np.divide(slack, Adv, out=self._ms_r)
                np.less_equal(Adv, 0.0, out=self._ms_mask)
                np.copyto(r, np.inf, where=self._ms_mask)
                m = float(np.minimum.reduce(r)) * _MAX_BOUNDARY_FRACTION
                if m < step:
                    step = m
            q, qmask = self._ms_q, self._ms_qmask
            np.subtract(prog.lb, v, out=q)
            np.divide(q, dv, out=q)
            np.greater_equal(dv, 0.0, out=qmask)
            if not self.all_lb:
                qmask |= self._not_fin_lb
            np.copyto(q, np.inf, where=qmask)
            m = float(np.minimum.reduce(q)) * _MAX_BOUNDARY_FRACTION
            if m < step:
                step = m
            np.subtract(prog.ub, v, out=q)
            np.divide(q, dv, out=q)
            np.less_equal(dv, 0.0, out=qmask)
            if not self.all_ub:
                qmask |= self._not_fin_ub
            np.copyto(q, np.inf, where=qmask)
            m = float(np.minimum.reduce(q)) * _MAX_BOUNDARY_FRACTION
            if m < step:
                step = m
        return step


def _workspace(prog: SmoothConvexProgram) -> _Workspace:
    """The program's cached barrier workspace, built on first use.

    Rebuilt if the dense/sparse decision changes (the threshold is
    module state so tests can force the sparse path)."""
    m, n = prog.A.shape
    want_dense = m * n <= _DENSE_NNZ_THRESHOLD
    ws = prog._barrier_ws
    if ws is None or ws.dense != want_dense:
        ws = _Workspace(prog, dense=want_dense)
        prog._barrier_ws = ws
    return ws


def barrier_solve(
    prog: SmoothConvexProgram,
    v0: "np.ndarray | None" = None,
    info: "SolveInfo | None" = None,
    tau0: "float | None" = None,
) -> np.ndarray:
    """Path-following barrier method; returns the optimal ``v``.

    ``v0`` may be any point; if it is not strictly interior a phase-I
    LP supplies one.  ``tau0`` is where the path starts (default
    ``_TAU0``); the ``tau`` it ends at is recorded on ``info`` and on
    the ``barrier.solve`` span.  A line-search stall is accepted only
    deep along the path (gap within 1e3 of the tolerance) and from near
    the center (decrement^2 <= ``_CENTER_DEC_SQ``, so ``phi_tau`` is
    within that of its minimum); any other stall, and any Newton
    direction that is not a descent direction (non-finite, or a
    decrement below minus the centering tolerance), raises
    :class:`NonDescentStep`: a warm caller restarts cold, and
    :meth:`SmoothConvexProgram.solve` falls back to trust-constr.  A
    centering that runs out of ``_MAX_NEWTON`` steps never ends the
    solve: its point is not centered, so ``m / tau`` does not bound its
    gap, and the path goes on from it; if that reaches f's rounding,
    :class:`ConvexSolverError` is raised.
    """
    ws = _workspace(prog)
    if ws.m_total == 0:
        raise ConvexSolverError("barrier method needs at least one constraint")
    has_rows = ws.b.shape[0] > 0

    # Observability: resolved once per solve.  While the registry is
    # disabled (the default) ``reg`` is None, ``fact_out`` stays None
    # (newton_step then reads no clocks) and only the two integer
    # tallies below run — the instrumentation cost of a disabled solve
    # is a handful of local increments.
    reg = obs_metrics.active()
    fact_out: "list[float] | None" = [0.0] if reg is not None else None
    newton_here = 0
    backtracks = 0

    newton_system = "structured" if ws.system is not None else "dense"
    ws.dense_steps = 0
    if info is not None:
        info.newton_system = newton_system

    def _publish(outcome: str) -> None:
        if info is not None:
            info.backtracks += backtracks
            if fact_out is not None:
                info.fact_time_s += fact_out[0]
        if reg is not None:
            reg.counter(
                "solver_solves_total",
                help="optimization solves by backend and outcome",
                backend="barrier",
                outcome=outcome,
            ).inc()
            reg.counter(
                "solver_newton_iters_total",
                help="Newton iterations spent in the barrier solver",
            ).inc(newton_here)
            reg.counter(
                "solver_backtracks_total",
                help="Armijo line-search backtracking steps",
            ).inc(backtracks)
            reg.histogram(
                "solver_factorization_seconds",
                help=(
                    "Newton-system factorization + back-solve time per solve "
                    "(dense: potrf/potrs; structured: capacitance Cholesky "
                    "and the solves through it; assembly excluded)"
                ),
            ).observe(fact_out[0])
            if ws.dense_steps:
                reg.counter(
                    "solver_newton_dense_steps_total",
                    help="Newton steps a structured solve handed to the direct factorization",
                    reason="capacitance_not_spd",
                ).inc(ws.dense_steps)

    v = None
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float)
        if np.isfinite(ws.phi(v0, 1.0)):
            v = v0.copy()
    if v is None:
        v = prog._interior_start()
        if not np.isfinite(ws.phi(v, 1.0)):
            raise ConvexSolverError("phase-I point not strictly interior")

    tau = _TAU0 if tau0 is None else tau0
    # f >= f_lo on the box and a centered point is within m/tau of the
    # optimum, so its |f| is at most max(|f_lo|, |f(v)| + m/tau) for any
    # interior v.  A tau whose m/tau exceeds _TOL relative to that bound
    # cannot end the solve, and its centering may stop loosely.  An
    # infinite bound gives f_lo = -inf: every centering stays tight.
    f_lo = prog.objective.lower_bound(prog.lb, prog.ub)
    span = obs_tracing.span(
        "barrier.solve", n=prog.objective.n, newton_system=newton_system
    )
    # Line-search scratch (same ops as the allocating expressions they
    # replace — ``x + step*y`` — so trial points are bitwise unchanged).
    trial_v = np.empty_like(v)
    trial_s = np.empty(ws.b.shape[0])

    def _end(outcome: str, **attrs) -> None:
        span.set(newton_iters=newton_here, backtracks=backtracks, tau=tau, **attrs)
        if info is not None:
            info.tau = tau
        _publish(outcome)

    with span:
        while True:
            # Centering: damped Newton on phi_tau.  The decrement target
            # scales with tau (phi_tau's natural scale).
            center_tol = 1e-9 * (1.0 + tau * 1e-4)
            gap = ws.m_total / tau
            loose = gap > _TOL * (
                1.0 + max(abs(f_lo), abs(prog.objective.value(v)) + gap)
            )
            stalled = exhausted = loosely = False
            # phi at v: evaluated once per centering, then carried over
            # from each accepted trial point.
            phi0 = None
            for _ in range(_MAX_NEWTON):
                slack = ws.slacks(v, buffered=True)
                dv, dec_sq = ws.newton_step(v, tau, slack=slack, fact_out=fact_out)
                newton_here += 1
                if info is not None:
                    info.newton_iters += 1
                if phi0 is None:
                    phi0 = ws.phi(v, tau, slack=slack)
                floor = max(center_tol, _EPS * abs(phi0))
                # A non-finite or clearly negative decrement means the
                # Newton system was solved too inaccurately to give a
                # descent direction: the step failed, and says nothing
                # about centering.
                if not dec_sq >= -floor:
                    _end("non_descent")
                    raise NonDescentStep(
                        f"Newton direction is not a descent direction at "
                        f"tau={tau:.2e} (decrement^2 {dec_sq:.2e})"
                    )
                # Centered once the decrement target is met, or once the
                # decrease a Newton step predicts (dec^2 / 2) is below
                # phi's own rounding: no step could then show progress,
                # and the Armijo test would only accept rounding noise.
                if dec_sq / 2.0 <= floor:
                    break
                if loose and dec_sq <= _CENTER_DEC_SQ:
                    loosely = True
                    break
                if has_rows:
                    if ws.dense:
                        Adv = np.dot(ws.A, dv, out=ws._adv_m)
                    else:
                        Adv = ws.A @ dv
                else:
                    Adv = slack
                step = ws.max_step(v, dv, slack=slack, Adv=Adv)
                while step > 1e-14:
                    if has_rows:
                        np.multiply(Adv, step, out=trial_s)
                        trial_slack = np.subtract(slack, trial_s, out=trial_s)
                    else:
                        trial_slack = slack
                    np.multiply(dv, step, out=trial_v)
                    np.add(v, trial_v, out=trial_v)
                    trial_phi = ws.phi(trial_v, tau, slack=trial_slack)
                    if trial_phi <= phi0 - _ARMIJO_ALPHA * step * dec_sq:
                        break
                    step *= _ARMIJO_BETA
                    backtracks += 1
                else:
                    stalled = True
                    break
                # The accepted trial point was just materialized in
                # trial_v; adopt it and recycle the old ``v`` array as the
                # next trial scratch.
                v, trial_v = trial_v, v
                phi0 = trial_phi
            else:
                exhausted = True

            if loosely:
                tau *= _TAU_MU
                continue
            scale = 1.0 + abs(prog.objective.value(v))
            if not exhausted:
                # A centered point is within m/tau of the optimum.  A
                # line-search stall is accepted only late on the path and
                # from near the center, where phi_tau is within dec^2 of
                # its minimum.
                if stalled:
                    if dec_sq <= _CENTER_DEC_SQ and gap <= 1e3 * _TOL * scale:
                        _end("converged", stalled=True)
                        return v
                    _end("stalled", stalled=True)
                    raise NonDescentStep(
                        f"Newton stalled at tau={tau:.2e} (decrement^2 "
                        f"{dec_sq:.2e}, gap {gap:.2e}, scale {scale:.2e})"
                    )
                if gap <= _TOL * scale:
                    _end("converged")
                    return v
                tau *= _TAU_MU
                continue
            if gap > _EPS * scale:
                # Out of steps before centering: m/tau bounds nothing at
                # this point, so it must not end the solve.  Follow the
                # path on from it while m/tau is still above f's rounding.
                tau *= _TAU_MU
                continue
            # Never centered: report failure so the caller can fall back.
            _end("stalled", stalled=True)
            raise ConvexSolverError(
                f"Newton did not center at tau={tau:.2e} "
                f"(gap {gap:.2e}, scale {scale:.2e})"
            )
