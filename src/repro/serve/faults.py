"""Deterministic fault injection for the serve runtime.

The serve loop's fallback chain is only trustworthy if it is
exercised, so the runtime accepts a :class:`FaultInjector` that makes
the primary solver stall or fail on randomly chosen slots.  The draw
for slot ``t`` is a pure function of ``(seed, t)`` — no carried RNG
state — so a checkpoint/resume run injects exactly the same faults as
an uninterrupted one and the resumed trajectory stays bitwise
identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverStall(RuntimeError):
    """The primary solve exceeded its deadline budget (real or injected)."""


class SolverFailure(RuntimeError):
    """The primary solve raised (real exception or injected failure)."""


@dataclass(frozen=True)
class FaultInjector:
    """Injects solver stalls/failures on deterministically chosen slots.

    Parameters
    ----------
    stall_prob:
        Per-slot probability the primary solve stalls past its
        deadline (raises :class:`SolverStall`).
    fail_prob:
        Per-slot probability the primary solve raises
        (:class:`SolverFailure`).
    seed:
        Root seed; the slot-``t`` draw uses ``default_rng((seed, t))``
        so injection is stateless and resume-safe.
    """

    stall_prob: float = 0.0
    fail_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.stall_prob <= 1.0):
            raise ValueError(f"stall_prob must be in [0, 1], got {self.stall_prob}")
        if not (0.0 <= self.fail_prob <= 1.0):
            raise ValueError(f"fail_prob must be in [0, 1], got {self.fail_prob}")
        if self.stall_prob + self.fail_prob > 1.0:
            raise ValueError("stall_prob + fail_prob must not exceed 1")

    def draw(self, t: int) -> "str | None":
        """The fault injected at slot ``t``: ``"stall"``, ``"failure"`` or None."""
        if self.stall_prob == 0.0 and self.fail_prob == 0.0:
            return None
        u = float(np.random.default_rng((self.seed, t)).random())
        if u < self.stall_prob:
            return "stall"
        if u < self.stall_prob + self.fail_prob:
            return "failure"
        return None
