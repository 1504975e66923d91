"""The prediction-free regularized online algorithm (Section III).

At every slot ``t`` the algorithm solves the regularized subproblem
P2(t), anchored at the *previous subproblem's* optimal decision, and
applies the result.  Lemma 1 guarantees every per-slot decision is
feasible for P1 at ``t``; Theorem 1 bounds the chained cost by
``r = 1 + |I| (C(eps) + B(eps'))`` times the offline optimum.

Behaviour in one sentence: when the workload rises the algorithm
follows it exactly, and when the workload falls it releases resources
along a controlled exponential-decay curve so that a future rise does
not pay full reconfiguration cost again.

The algorithm is a :class:`~repro.engine.session.Controller`: the
per-slot loop, warm-start threading and statistics live in the shared
:class:`~repro.engine.session.SolveSession` engine.  Because it needs
no foresight, its state builds from a bare network and it can be
driven slot-at-a-time from live data::

    session = SolveSession(RegularizedOnline(config), network)
    decision = session.step(SlotData(workload, tier2_price, link_price))

The config type is
:class:`~repro.core.subproblem.SubproblemConfig` (re-exported by
:mod:`repro.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
from repro.engine.session import SlotData, SolveSession, source_network
from repro.engine.stats import StatsProbe
from repro.model.allocation import Allocation, Trajectory
from repro.model.instance import Instance


def __getattr__(name: str):
    if name == "OnlineConfig":
        # Deprecated alias removed after its one-release grace period.
        raise AttributeError(
            "OnlineConfig was removed; use SubproblemConfig "
            "(from repro.core.subproblem import SubproblemConfig)"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class OnlineState:
    """Carried state of the prediction-free controller.

    ``prev`` anchors the next slot's regularizers; ``warm`` is the
    previous reduced solution vector (seeds the barrier path).
    """

    subproblem: RegularizedSubproblem
    prev: Allocation
    warm: "np.ndarray | None" = None
    probe: StatsProbe = field(default_factory=StatsProbe)


class RegularizedOnline:
    """Online algorithm: chain P2(1), P2(2), ... (no prediction).

    Parameters
    ----------
    config:
        Subproblem parameters (epsilon, epsilon').  Defaults
        match the paper's evaluation
        (``epsilon = epsilon' = 1e-2``).

    Example
    -------
    ``RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(instance)``
    returns a feasible :class:`~repro.model.allocation.Trajectory`.
    """

    name = "regularized-online"

    def __init__(self, config: "SubproblemConfig | None" = None) -> None:
        self.config = config or SubproblemConfig()

    # ------------------------------------------------------------------
    # Controller protocol
    # ------------------------------------------------------------------
    def make_state(self, source, initial: "Allocation | None" = None) -> OnlineState:
        """Build the carried state from an instance or bare network."""
        net = source_network(source)
        return OnlineState(
            subproblem=RegularizedSubproblem(net, self.config),
            prev=initial or Allocation.zeros(net.n_edges),
        )

    def decide(self, state: OnlineState, t: int, slot: SlotData) -> Allocation:
        """Solve P2(t) for the streamed slot and advance the state."""
        alloc, state.warm = state.subproblem.solve_reduced(
            workload=slot.workload,
            tier2_price=slot.tier2_price,
            link_price=slot.link_price,
            previous=state.prev,
            warm=state.warm,
            probe=state.probe,
        )
        state.prev = alloc
        return alloc

    def observe(
        self, state: OnlineState, t: int, slot: SlotData, decision: Allocation
    ) -> None:
        """An externally-imposed decision (serve fallback) was applied.

        The next subproblem anchors its regularizers at what actually
        ran, and the warm-start vector is dropped — it was the reduced
        optimum of a decision that never took effect.
        """
        state.prev = decision
        state.warm = None

    # ------------------------------------------------------------------
    # Checkpoint hooks (serve runtime)
    # ------------------------------------------------------------------
    def export_state(self, state: OnlineState) -> dict:
        """Flat array snapshot of the carried state.

        The subproblem's compiled structures are *not* serialized —
        they are deterministic functions of the network and config, so
        :meth:`restore_state` rebuilds them and the resumed run's
        solves are bitwise-identical to the uninterrupted run's.
        """
        return {
            "prev_x": state.prev.x.copy(),
            "prev_y": state.prev.y.copy(),
            "prev_s": state.prev.s.copy(),
            "warm": None if state.warm is None else state.warm.copy(),
        }

    def restore_state(self, source, snapshot: dict) -> OnlineState:
        """Inverse of :meth:`export_state` (fresh subproblem structure).

        Other keys are ignored: snapshots from earlier versions also
        record the solver ``backend`` they chose, which the graph now
        decides.
        """
        net = source_network(source)
        warm = snapshot.get("warm")
        return OnlineState(
            subproblem=RegularizedSubproblem(net, self.config),
            prev=Allocation(
                snapshot["prev_x"], snapshot["prev_y"], snapshot["prev_s"]
            ),
            warm=None if warm is None else np.asarray(warm, dtype=float),
        )

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def step(
        self,
        subproblem: RegularizedSubproblem,
        instance: Instance,
        t: int,
        previous: Allocation,
    ) -> Allocation:
        """Solve P2(t) for slot ``t`` of ``instance`` given the previous decision.

        One-slot convenience API; the engine-driven loop uses the
        warm-started ``solve_reduced`` path through :meth:`decide`.
        """
        return subproblem.solve(
            workload=instance.workload[t],
            tier2_price=instance.tier2_price[t],
            link_price=instance.link_price[t],
            previous=previous,
        )

    def make_subproblem(self, instance: Instance) -> RegularizedSubproblem:
        """Build the reusable subproblem structure for an instance's network."""
        return RegularizedSubproblem(instance.network, self.config)

    def run(
        self,
        instance: Instance,
        initial: "Allocation | None" = None,
    ) -> Trajectory:
        """Run the online loop over the whole horizon.

        Thin wrapper over the engine: builds a
        :class:`~repro.engine.session.SolveSession` and feeds each
        slot through its streaming ``step``.  The returned trajectory
        carries per-step solver statistics as ``run_stats``.

        Parameters
        ----------
        instance:
            Problem inputs; only slot-``t`` data is used at step ``t``
            (the algorithm is genuinely online).
        initial:
            Decision at slot ``-1``; defaults to all-zero as in the
            paper (``x_0 = y_0 = 0``).
        """
        return SolveSession(self, instance, initial=initial).run()
