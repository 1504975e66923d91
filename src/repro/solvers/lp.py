"""A thin sparse LP modeling layer over ``scipy.optimize.linprog``.

The library builds many structurally similar LPs (offline optimum,
one-shot slices, windowed control problems, LCP prefix problems).  This
module provides named variable blocks and block-wise sparse constraint
assembly so those formulations stay readable while the final matrices
are assembled once, in sparse form, with no Python-level loops over
nonzeros.

Example
-------
>>> lp = LinearProgram()
>>> x = lp.add_block("x", 3, lb=0.0, cost=[1.0, 2.0, 3.0])
>>> import numpy as np, scipy.sparse as sp
>>> lp.add_rows(">=", np.array([1.0]), x=sp.csr_matrix(np.ones((1, 3))))
>>> sol = lp.solve()
>>> float(sol.objective)
1.0
>>> sol["x"]
array([1., 0., 0.])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


class LPError(RuntimeError):
    """Raised when HiGHS reports failure (infeasible/unbounded/numerical)."""


@dataclass(frozen=True)
class _Block:
    name: str
    offset: int
    size: int


@dataclass
class LPSolution:
    """Solution of a :class:`LinearProgram`.

    Index with a block name to get that block's values:
    ``sol["x"]`` returns the ``(size,)`` array for block ``"x"``.

    ``row_duals`` holds the multipliers of each :meth:`add_rows` group
    in call order, sign-normalized so that every dual is the marginal
    objective increase per unit of right-hand side *tightening*
    (non-negative for inequality rows).  ``bound_duals`` are the
    reduced costs of the variable bounds.
    """

    objective: float
    values: np.ndarray
    blocks: dict[str, _Block]
    status: str
    row_duals: "list[np.ndarray]"
    bound_duals: np.ndarray

    def __getitem__(self, name: str) -> np.ndarray:
        blk = self.blocks[name]
        return self.values[blk.offset : blk.offset + blk.size]

    def reduced_costs(self, name: str) -> np.ndarray:
        """Bound multipliers (reduced costs) of a variable block."""
        blk = self.blocks[name]
        return self.bound_duals[blk.offset : blk.offset + blk.size]


class LinearProgram:
    """Incrementally-built sparse LP ``min c.v  s.t.  A_ub v <= b_ub, A_eq v = b_eq, lb <= v <= ub``."""

    def __init__(self) -> None:
        self._blocks: dict[str, _Block] = {}
        self._n_vars = 0
        self._cost_parts: list[tuple[_Block, np.ndarray]] = []
        self._lb_parts: list[np.ndarray] = []
        self._ub_parts: list[np.ndarray] = []
        # Each row group: (sense, rhs, {block name: sparse (m, block.size)})
        self._row_groups: list[tuple[str, np.ndarray, dict[str, sp.spmatrix]]] = []

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_block(
        self,
        name: str,
        size: int,
        lb: "float | np.ndarray" = 0.0,
        ub: "float | np.ndarray" = np.inf,
        cost: "float | np.ndarray" = 0.0,
    ) -> str:
        """Declare ``size`` new variables under ``name``; returns the name."""
        if name in self._blocks:
            raise ValueError(f"duplicate block name {name!r}")
        if size <= 0:
            raise ValueError(f"block {name!r}: size must be positive")
        blk = _Block(name, self._n_vars, size)
        self._blocks[name] = blk
        self._n_vars += size
        self._cost_parts.append((blk, np.broadcast_to(np.asarray(cost, float), (size,)).copy()))
        lb_arr = np.broadcast_to(np.asarray(lb, float), (size,)).copy()
        ub_arr = np.broadcast_to(np.asarray(ub, float), (size,)).copy()
        if np.any(lb_arr > ub_arr):
            raise ValueError(f"block {name!r}: lb > ub")
        self._lb_parts.append(lb_arr)
        self._ub_parts.append(ub_arr)
        return name

    def set_cost(self, name: str, cost: "float | np.ndarray") -> None:
        """Replace the objective coefficients of an existing block."""
        blk = self._blocks[name]
        for k, (b, _) in enumerate(self._cost_parts):
            if b.name == name:
                self._cost_parts[k] = (
                    blk,
                    np.broadcast_to(np.asarray(cost, float), (blk.size,)).copy(),
                )
                return
        raise KeyError(name)

    @property
    def n_vars(self) -> int:
        """Total number of declared variables."""
        return self._n_vars

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_rows(self, sense: str, rhs: np.ndarray, **coeffs: sp.spmatrix) -> None:
        """Add a group of constraint rows.

        Parameters
        ----------
        sense:
            One of ``"<="``, ``">="``, ``"=="``.
        rhs:
            Right-hand side, shape ``(m,)``.
        **coeffs:
            For each participating block name, an ``(m, block.size)``
            sparse (or dense) coefficient matrix.  Blocks not mentioned
            have zero coefficients.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        m = rhs.shape[0]
        mats: dict[str, sp.spmatrix] = {}
        for name, mat in coeffs.items():
            if name not in self._blocks:
                raise KeyError(f"unknown block {name!r}")
            smat = sp.csr_matrix(mat)
            if smat.shape != (m, self._blocks[name].size):
                raise ValueError(
                    f"coefficients for {name!r} have shape {smat.shape}, "
                    f"expected {(m, self._blocks[name].size)}"
                )
            mats[name] = smat
        if not mats:
            raise ValueError("constraint rows reference no blocks")
        self._row_groups.append((sense, rhs, mats))

    # ------------------------------------------------------------------
    # Assembly + solve
    # ------------------------------------------------------------------
    def _assemble_group(
        self, mats: dict[str, sp.spmatrix], m: int
    ) -> sp.csr_matrix:
        parts = []
        for name, blk in self._blocks.items():
            parts.append(mats.get(name, sp.csr_matrix((m, blk.size))))
        return sp.hstack(parts, format="csr")

    def build(self) -> tuple[np.ndarray, sp.csr_matrix | None, np.ndarray | None,
                             sp.csr_matrix | None, np.ndarray | None, list]:
        """Assemble ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` for linprog."""
        c = np.zeros(self._n_vars)
        for blk, cost in self._cost_parts:
            c[blk.offset : blk.offset + blk.size] = cost
        lb = np.concatenate(self._lb_parts) if self._lb_parts else np.zeros(0)
        ub = np.concatenate(self._ub_parts) if self._ub_parts else np.zeros(0)
        bounds = list(zip(lb, np.where(np.isinf(ub), None, ub)))

        ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
        for sense, rhs, mats in self._row_groups:
            A = self._assemble_group(mats, rhs.shape[0])
            if sense == "<=":
                ub_rows.append(A)
                ub_rhs.append(rhs)
            elif sense == ">=":
                ub_rows.append(-A)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(A)
                eq_rhs.append(rhs)
        A_ub = sp.vstack(ub_rows, format="csr") if ub_rows else None
        b_ub = np.concatenate(ub_rhs) if ub_rhs else None
        A_eq = sp.vstack(eq_rows, format="csr") if eq_rows else None
        b_eq = np.concatenate(eq_rhs) if eq_rhs else None
        return c, A_ub, b_ub, A_eq, b_eq, bounds

    def solve(self, method: str = "highs") -> LPSolution:
        """Solve and return an :class:`LPSolution`; raises :class:`LPError` on failure."""
        c, A_ub, b_ub, A_eq, b_eq, bounds = self.build()
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=bounds,
            method=method,
        )
        if not res.success:
            raise LPError(f"linprog failed (status={res.status}): {res.message}")

        # Slice the HiGHS marginals back into per-group duals, in call
        # order, sign-normalized to "marginal cost of tightening".
        ub_marg = (
            np.asarray(res.ineqlin.marginals, dtype=float)
            if getattr(res, "ineqlin", None) is not None and A_ub is not None
            else np.zeros(0)
        )
        eq_marg = (
            np.asarray(res.eqlin.marginals, dtype=float)
            if getattr(res, "eqlin", None) is not None and A_eq is not None
            else np.zeros(0)
        )
        row_duals: list[np.ndarray] = []
        off_ub = off_eq = 0
        for sense, rhs, _ in self._row_groups:
            m = rhs.shape[0]
            if sense == "==":
                row_duals.append(eq_marg[off_eq : off_eq + m].copy())
                off_eq += m
            else:
                # Stored as <= rows ('>=' groups negated); in both
                # cases -marginal is the non-negative tightening price.
                row_duals.append(-ub_marg[off_ub : off_ub + m])
                off_ub += m

        bound_duals = np.zeros(self._n_vars)
        if getattr(res, "lower", None) is not None:
            bound_duals = np.asarray(res.lower.marginals, dtype=float) + np.asarray(
                res.upper.marginals, dtype=float
            )

        return LPSolution(
            objective=float(res.fun),
            values=np.asarray(res.x, dtype=float),
            blocks=dict(self._blocks),
            status=res.message,
            row_duals=row_duals,
            bound_duals=bound_duals,
        )
