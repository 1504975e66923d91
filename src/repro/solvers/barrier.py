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

* **Structured** (:class:`_BlockSystem`), for a program that declares
  variable ``blocks`` and has at least ``_STRUCTURED_MIN_VARS``
  variables.  Rows whose support lies inside one block and ``diag(h)``
  form a block-diagonal ``B``, factored by one batched Cholesky; the
  remaining rows are a low-rank term ``U D_G U^T`` applied through the
  Woodbury capacitance system (size = number of such rows), followed
  by one step of iterative refinement.  The regularized subproblem
  P2(t) declares one block per tier-1 cloud: on the paper topology at
  k=2 this replaces a dense 210x210 factorization per step by 48
  Cholesky factorizations of 4x4 blocks and one of 36x36.
* **Dense**: ``A^T D A`` formed by one GEMM and factored by LAPACK
  ``potrf``.  At the sizes this library solves thousands of times (n in
  the low hundreds) dense BLAS beats sparse kernels by an order of
  magnitude, so the constraint matrix is densified up to a size
  threshold (measured, not guessed; see
  ``benchmarks/test_ablation_solvers.py``); beyond it a sparse
  factorization is used.  It is also the fallback for a single
  structured step whose block or capacitance matrix Cholesky rejects.

Hot-path structure (measured in ``benchmarks/perf/``): the barrier
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
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.solvers.convex import ConvexSolverError, SmoothConvexProgram, SolveInfo

_DENSE_NNZ_THRESHOLD = 2_000_000  # m*n above this stays sparse
# A program that declares variable blocks takes the structured Newton
# solve (block Cholesky + low-rank capacitance + one refinement step)
# only from this many variables up; below it the fixed per-step cost of
# the batched block factorization outweighs the dense O(n^3) it
# replaces.  Whole Newton step, paper topology, 2-vCPU host, 1 BLAS thread,
# structured vs dense: 3x5 k=1 (n=13) 0.15 vs 0.05 ms; 6x12 k=2 (n=54)
# 0.17 vs 0.08 ms; 18x48 k=1 (n=114) 0.24 vs 0.26 ms; 18x48 k=2 (n=210)
# 0.40 vs 0.98 ms; 18x48 k=3 (n=306) 0.53 vs 2.4 ms.
_STRUCTURED_MIN_VARS = 150
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


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack ``(k, w, w)`` of lower-triangular matrices.

    Forward substitution one row at a time across the whole stack: ``w``
    small batched products instead of one LU per matrix
    (``np.linalg.inv``): 50 -> 31 us for 48 blocks of width 4 on a
    2-vCPU host.
    """
    X = np.zeros_like(L)
    d = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    X[:, 0, 0] = d[:, 0]
    for i in range(1, L.shape[1]):
        X[:, i, :i] = -(L[:, i : i + 1, :i] @ X[:, :i, :i])[:, 0, :] * d[:, i : i + 1]
        X[:, i, i] = d[:, i]
    return X


class _NotSPD(Exception):
    """A structured Newton system that Cholesky rejects; ``reason`` names
    the failing part, and the step is taken by the dense factorization."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _BlockSystem:
    """Newton system ``diag(h) + A^T D A`` split as block + low rank.

    ``blocks`` ``(n_blocks, width)`` lists variable indices, ``-1``
    padding a narrower block.  A row of ``A`` whose whole support lies
    in one block is *local*; every other row is *global*.  The local
    rows and ``diag(h)`` form the block-diagonal matrix ``B`` (a
    variable outside every block is its own 1x1 block ``h_k``, a padded
    slot an identity 1x1 block), and the global rows the low-rank term
    ``U D_G U^T`` with ``U = A_G^T``, so

        H = B + U D_G U^T,
        H^{-1} g = B^{-1} g - B^{-1} U C^{-1} U^T B^{-1} g,
        C = diag(slack_G^2) + U^T B^{-1} U   (Woodbury).

    ``C`` is solved in the scaled form ``I + V^T V`` with
    ``V = L^{-1} U diag(1/slack_G)`` (``B = L L^T``), which is ``C``
    congruent-scaled by ``diag(1/slack_G)`` and has eigenvalues >= 1.
    Everything that depends only on ``A`` and ``blocks`` — the row split,
    the positions of the local rows' entry products inside ``B``, the
    gathered ``U`` — is computed here once per program.
    """

    def __init__(self, A: sp.csr_matrix, blocks: np.ndarray) -> None:
        m, n = A.shape
        nb, w = blocks.shape
        flat = blocks.ravel()
        in_slot = flat >= 0
        self.n, self.nb, self.w = n, nb, w
        self.nbw = nb * w
        # Gathers read an (n + 1)-long extension whose last entry fills
        # the padded slots (1 on the diagonal, 0 in the right-hand side).
        self.slot_var = np.where(in_slot, flat, n)
        self.slot_valid = np.flatnonzero(in_slot)
        self.block_vars = flat[in_slot]
        var_block = np.full(n, -1, dtype=np.int64)
        var_block[self.block_vars] = np.repeat(np.arange(nb), w)[in_slot]
        var_pos = np.zeros(n, dtype=np.int64)
        var_pos[self.block_vars] = np.tile(np.arange(w), nb)[in_slot]
        self.free = np.flatnonzero(var_block < 0)

        # Row split: local iff nonempty and every entry's block equals
        # the first entry's block, which is a real block.
        indptr, indices = A.indptr, A.indices
        row_nnz = np.diff(indptr)
        nonempty = row_nnz > 0
        row_of = np.repeat(np.arange(m), row_nnz)
        nz_block = var_block[indices]
        first = np.full(m, -1, dtype=np.int64)
        first[nonempty] = nz_block[indptr[:-1][nonempty]]
        off = (nz_block != first[row_of]) | (nz_block < 0)
        local = nonempty & (np.bincount(row_of, weights=off, minlength=m) == 0)
        local_rows = np.flatnonzero(local)
        self.global_rows = np.flatnonzero(~local)

        # B = bincount of local entry products d_k A_ka A_kb at fixed
        # positions of the (nb, w, w) stack, plus diag(h).
        owner, a, b = _row_pairs(A, local_rows)
        ca, cb = indices[a], indices[b]
        self.pair_pos = var_block[ca] * w * w + var_pos[ca] * w + var_pos[cb]
        self.pair_val = A.data[a] * A.data[b]
        self.pair_owner = owner
        self.diag_pos = (np.arange(nb)[:, None] * w * w + np.arange(w) * (w + 1)).ravel()

        r = self.global_rows.size
        self.r = r
        AGT = A[self.global_rows].toarray().T  # (n, r)
        self.U = np.zeros((self.nbw + self.free.size, r))
        self.U[self.slot_valid] = AGT[self.block_vars]
        self.U[self.nbw :] = AGT[self.free]
        # U diag(1/slack_G) in slot layout, and V, its image under
        # L^{-1} (blocks) and h^{-1/2} (free variables).
        self._R = np.empty((self.U.shape[0], r))
        self._V = np.empty_like(self._R)
        self._ext = np.empty(n + 1)
        self._eye_diag = np.arange(r) * (r + 1)
        self._potrf, self._potrs = la.get_lapack_funcs(("potrf", "potrs"), (self._R,))

    def solve(
        self,
        hdiag: np.ndarray,
        grad: np.ndarray,
        inv: np.ndarray,
        inv2: np.ndarray,
        A: np.ndarray,
        AT: np.ndarray,
        fact_out: "list[float] | None",
    ) -> np.ndarray:
        """The Newton direction ``-H^{-1} grad``; raises :class:`_NotSPD`.

        ``inv``/``inv2`` are ``1/slack`` and its square, ``A``/``AT``
        the dense constraint matrix and its transpose.  One step of
        iterative refinement follows the Woodbury solve: when a global
        row is nearly active its correction cancels large terms, and the
        refinement brings the normwise backward error back to the dense
        Cholesky's order (paper topology 18x48, k=2, along real solve
        paths: worst 7e-9 before, 4e-11 after; dense 5e-14).

        ``fact_out`` accumulates the block and capacitance Cholesky
        factorizations and every solve with their factors.  Forming
        ``B``, ``U diag(1/slack_G)``, the capacitance ``V^T V`` and the
        refinement residual ``H dv`` are assembly and not timed, as on
        the dense path, where scaling the rows of ``A`` and the GEMM
        forming ``A^T D A`` are not timed either.
        """
        n, nb, w = self.n, self.nb, self.w
        ext = self._ext
        # (bincount of an empty index array is int: cast, no-op otherwise)
        B = np.bincount(
            self.pair_pos,
            weights=self.pair_val * inv2[self.pair_owner],
            minlength=nb * w * w,
        ).astype(float, copy=False)
        ext[:n] = hdiag
        ext[n] = 1.0
        diag = B[self.diag_pos] + ext[self.slot_var]
        # The dense path's diagonal regularization, applied per block.
        B[self.diag_pos] = diag + 1e-13 * (1.0 + np.abs(diag))
        h_free = hdiag[self.free]
        h_free = h_free + 1e-13 * (1.0 + np.abs(h_free))
        np.multiply(self.U, inv[self.global_rows], out=self._R)

        clock = time.perf_counter if fact_out is not None else _no_clock
        timed = 0.0
        start = clock()
        try:
            Linv, root, V = self._factor_blocks(B.reshape(nb, w, w), h_free)
            timed += clock() - start
            C = V.T @ V if V is not None else None
            start = clock()
            factors = (Linv, root, V, self._factor_capacitance(C))
            neg_grad = -grad
            dv = self._apply(factors, neg_grad)
            timed += clock() - start
            res = neg_grad - hdiag * dv - AT @ (inv2 * (A @ dv))
            start = clock()
            dv += self._apply(factors, res)
            timed += clock() - start
            return dv
        finally:
            if fact_out is not None:
                fact_out[0] += timed

    def _factor_blocks(self, B: np.ndarray, h_free: np.ndarray):
        """Cholesky of every block; ``V = L^{-1} U diag(1/slack_G)``."""
        nb, w, nbw, r = self.nb, self.w, self.nbw, self.r
        try:
            L = np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            raise _NotSPD("block_not_spd") from None
        if not h_free.min(initial=np.inf) > 0.0:
            raise _NotSPD("block_not_spd")
        Linv = _lower_inverse(L)
        root = np.sqrt(h_free)
        if not r:
            return Linv, root, None
        R, V = self._R, self._V
        np.matmul(Linv, R[:nbw].reshape(nb, w, r), out=V[:nbw].reshape(nb, w, r))
        np.divide(R[nbw:], root[:, None], out=V[nbw:])
        return Linv, root, V

    def _factor_capacitance(self, C: "np.ndarray | None"):
        """Cholesky of ``I + V^T V`` (in place), None without global rows."""
        if C is None:
            return None
        C.reshape(-1)[self._eye_diag] += 1.0
        c, info = self._potrf(C, lower=False, overwrite_a=True, clean=False)
        if info != 0:
            raise _NotSPD("capacitance_not_spd")
        return c

    def _apply(self, factors, f: np.ndarray) -> np.ndarray:
        """``H^{-1} f`` for ``H`` as factored by :meth:`solve`."""
        Linv, root, V, c = factors
        n, nb, w, nbw = self.n, self.nb, self.w, self.nbw
        ext = self._ext
        ext[:n] = f
        ext[n] = 0.0
        y = np.empty(self._V.shape[0])
        np.matmul(Linv, ext[self.slot_var].reshape(nb, w, 1), out=y[:nbw].reshape(nb, w, 1))
        np.divide(f[self.free], root, out=y[nbw:])
        if c is not None:
            z, info = self._potrs(c, V.T @ y, lower=False)
            if info != 0:  # pragma: no cover - potrs only fails on bad args
                raise ConvexSolverError(f"Cholesky solve failed (potrs info={info})")
            y -= V @ z
        x = np.empty(n)
        blk = np.matmul(Linv.transpose(0, 2, 1), y[:nbw].reshape(nb, w, 1)).reshape(-1)
        x[self.block_vars] = blk[self.slot_valid]
        x[self.free] = y[nbw:] / root
        return x


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
        # Structured Newton solve for programs that declare blocks (see
        # _BlockSystem); ``dense_steps`` tallies, per solve, the steps
        # it handed to the dense factorization and why.
        self.system = None
        self.dense_steps: "dict[str, int]" = {}
        if (
            self.dense
            and m
            and prog.blocks is not None
            and n >= _STRUCTURED_MIN_VARS
        ):
            self.system = _BlockSystem(prog.A, prog.blocks)
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
                    dv = self.system.solve(
                        hdiag, grad, inv, inv2, self.A, self.AT, fact_out
                    )
                    return dv, float(-grad @ dv)
                except _NotSPD as exc:
                    self.dense_steps[exc.reason] = self.dense_steps.get(exc.reason, 0) + 1
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
    ``_TAU0``).  Raises :class:`ConvexSolverError` when Newton fails
    early on the path (the caller then falls back to trust-constr); a
    line-search stall deep along the path — where the remaining gap is
    already below tolerance-sized — is accepted.  A centering that runs
    out of ``_MAX_NEWTON`` steps never ends the solve: its point is not
    centered, so ``m / tau`` does not bound its gap, and the path goes
    on from it.
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
    ws.dense_steps.clear()
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
                    "(dense: potrf/potrs; structured: block and capacitance "
                    "Cholesky and their solves; assembly excluded)"
                ),
            ).observe(fact_out[0])
            for reason, steps in ws.dense_steps.items():
                reg.counter(
                    "solver_newton_dense_steps_total",
                    help="Newton steps a structured solve handed to the dense factorization",
                    reason=reason,
                ).inc(steps)

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
    span = obs_tracing.span(
        "barrier.solve", n=prog.objective.n, newton_system=newton_system
    )
    # Line-search scratch (same ops as the allocating expressions they
    # replace — ``x + step*y`` — so trial points are bitwise unchanged).
    trial_v = np.empty_like(v)
    trial_s = np.empty(ws.b.shape[0])
    with span:
        while True:
            # Centering: damped Newton on phi_tau.  The decrement target
            # scales with tau (phi_tau's natural scale).
            center_tol = 1e-9 * (1.0 + tau * 1e-4)
            stalled = exhausted = False
            for _ in range(_MAX_NEWTON):
                slack = ws.slacks(v, buffered=True)
                dv, dec_sq = ws.newton_step(v, tau, slack=slack, fact_out=fact_out)
                newton_here += 1
                if info is not None:
                    info.newton_iters += 1
                phi0 = ws.phi(v, tau, slack=slack)
                # Centered once the decrement target is met, or once the
                # decrease a Newton step predicts (dec^2 / 2) is below
                # phi's own rounding: no step could then show progress,
                # and the Armijo test would only accept rounding noise.
                if dec_sq / 2.0 <= max(center_tol, _EPS * abs(phi0)):
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
            else:
                exhausted = True

            gap = ws.m_total / tau
            scale = 1.0 + abs(prog.objective.value(v))
            if not exhausted:
                # A centered point is within m/tau of the optimum; a
                # line-search stall is accepted late on the path, where
                # that bound is already modest.
                if gap <= _TOL * scale or (stalled and gap <= 1e3 * _TOL * scale):
                    span.set(newton_iters=newton_here, backtracks=backtracks)
                    _publish("converged")
                    return v
                if not stalled:
                    tau *= _TAU_MU
                    continue
            elif gap > _EPS * scale:
                # Out of steps before centering: m/tau bounds nothing at
                # this point, so it must not end the solve.  Follow the
                # path on from it while m/tau is still above f's rounding.
                tau *= _TAU_MU
                continue
            # Stalled early on the path, or never centered: report
            # failure so the caller can fall back.
            span.set(newton_iters=newton_here, backtracks=backtracks, stalled=True)
            _publish("stalled")
            raise ConvexSolverError(
                f"Newton {'stalled' if stalled else 'did not center'} at "
                f"tau={tau:.2e} (gap {gap:.2e}, scale {scale:.2e})"
            )
