"""The shared per-slot solve engine.

Every algorithm stack in this library — the prediction-free
regularized online algorithm, the five predictive controllers, the
N-tier online loop and the LCP-M baseline — makes one decision per
time slot from (a) per-slot input data and (b) carried state (the
previous decision, warm-start vectors, reusable subproblem structure,
pending block plans).  This module owns that lifecycle so it is
implemented exactly once:

* :class:`SlotData` — one slot's inputs (workload + prices), the unit
  of the streaming API;
* :class:`Controller` — the protocol an algorithm implements:
  ``make_state(source)`` builds the carried state,
  ``decide(state, t, slot)`` makes one slot's decision;
* :class:`SolveSession` — the driver: feeds slots to the controller,
  times every step, drains the state's :class:`~repro.engine.stats.StatsProbe`
  into per-step :class:`~repro.engine.stats.StepStats`, and assembles
  the trajectory (with ``run_stats`` attached).

Streaming
---------
``session.step(SlotData(...))`` accepts slot data one slot at a time,
so a deployment can drive the engine from live measurements without a
full :class:`~repro.model.instance.Instance` ever existing::

    session = SolveSession(RegularizedOnline(config), network)
    for slot in telemetry_feed():
        decision = session.step(SlotData(slot.demand, slot.energy, slot.bw))

``session.run(instance)`` is a thin wrapper that feeds the instance's
slots into :meth:`SolveSession.step` — both paths produce bitwise
identical trajectories (test-asserted).  Prediction-free controllers
accept a bare network as ``source``; predictive controllers (which
query forecast oracles) and LCP-M (which tie-breaks prices over the
horizon) need the instance.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.engine.stats import RunStats, StatsProbe, StepStats, publish_step_stats
from repro.model.allocation import Trajectory
from repro.model.instance import Instance
from repro.obs import telemetry as obs_telemetry
from repro.obs import tracing as obs_tracing
from repro.util.timing import Timer


class SlotData:
    """One slot's inputs: workload and allocation prices.

    ``tier2_price`` carries the per-upper-node prices (``a_{it}`` in
    the two-tier model; the flattened node prices in the N-tier model)
    and ``link_price`` the per-edge/link prices ``c_{et}``.

    Each field is validated on construction: NaN/inf or negative
    entries raise a :class:`ValueError` naming the offending field
    instead of propagating into the solver as an opaque failure.
    Shape compatibility with a concrete network is a separate check
    (:meth:`validate`) because a bare ``SlotData`` does not know its
    topology.
    """

    __slots__ = ("workload", "tier2_price", "link_price")

    def __init__(
        self,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
    ) -> None:
        self.workload = self._field("workload", workload)
        self.tier2_price = self._field("tier2_price", tier2_price)
        self.link_price = self._field("link_price", link_price)

    @staticmethod
    def _field(name: str, arr) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 1:
            raise ValueError(
                f"SlotData.{name} must be 1-D (one slot), got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise ValueError(f"SlotData.{name} contains {bad} non-finite entries")
        if arr.size and float(arr.min()) < 0:
            raise ValueError(
                f"SlotData.{name} must be non-negative (min entry {float(arr.min())})"
            )
        return arr

    def validate(self, network) -> "SlotData":
        """Check the field shapes against a two-tier network.

        Returns ``self`` so sources can validate inline; raises a
        :class:`ValueError` naming the mismatched field otherwise.
        """
        expected = (
            ("workload", self.workload, network.n_tier1),
            ("tier2_price", self.tier2_price, network.n_tier2),
            ("link_price", self.link_price, network.n_edges),
        )
        for name, arr, size in expected:
            if arr.shape != (size,):
                raise ValueError(
                    f"SlotData.{name} has shape {arr.shape}, expected ({size},) "
                    f"for {network!r}"
                )
        return self

    @classmethod
    def from_instance(cls, instance: Any, t: int) -> "SlotData":
        """Extract slot ``t`` of a two-tier or N-tier instance."""
        upper = getattr(instance, "tier2_price", None)
        if upper is None:
            upper = instance.node_price
        return cls(instance.workload[t], upper[t], instance.link_price[t])

    def as_instance(self, network) -> Instance:
        """This slot as a one-slot two-tier :class:`Instance`.

        Used by controllers that repair planned decisions against the
        realized slot data (``topup_repair`` operates on instances).
        """
        return Instance(
            network=network,
            workload=self.workload[None, :],
            tier2_price=self.tier2_price[None, :],
            link_price=self.link_price[None, :],
        )

    def __repr__(self) -> str:
        return f"SlotData(J={self.workload.shape[0]})"


@runtime_checkable
class Controller(Protocol):
    """The per-slot decision protocol every algorithm implements.

    ``make_state(source, initial=None)`` builds the carried state from
    an instance (or, for prediction-free controllers, a bare network).
    The state owns everything reused across slots: subproblem
    structure, the previously applied decision, warm-start vectors,
    pending block plans, and a ``probe`` attribute
    (:class:`~repro.engine.stats.StatsProbe`) that inner solves record
    into.

    ``decide(state, t, slot)`` makes the slot-``t`` decision and
    advances the state.  The return value is an
    :class:`~repro.model.allocation.Allocation` for two-tier
    controllers; N-tier controllers return their own step type and
    provide ``assemble`` to stack steps into a trajectory.
    """

    name: str

    def make_state(self, source: Any, initial: Any = None) -> Any: ...

    def decide(self, state: Any, t: int, slot: SlotData) -> Any: ...


class SolveSession:
    """Drives a :class:`Controller` over a stream of slots.

    Parameters
    ----------
    controller:
        The algorithm to drive.
    source:
        What the controller's state is built from: an instance, or a
        bare network for prediction-free controllers.
    initial:
        The decision at slot ``-1`` (controller-specific default,
        usually all-zero).

    Example
    -------
    >>> session = SolveSession(algo, instance)
    >>> traj = session.run(instance)          # batch
    >>> traj.run_stats.describe()             # per-step solver stats
    """

    def __init__(self, controller: Controller, source: Any, initial: Any = None) -> None:
        self.controller = controller
        self.source = source
        self.state = controller.make_state(source, initial=initial)
        self.t = 0
        self._steps: list = []
        self._step_stats: "list[StepStats]" = []
        # The state owns every structure reused across slots — the
        # subproblem's compiled convex programs (constraint matrix,
        # fused objective arrays, barrier workspace, phase-I point, see
        # RegularizedSubproblem.build) and warm-start vectors — so a
        # long-lived session amortizes all of it; only per-slot data
        # (b, prices, regularizer anchors) is rewritten per step.  The
        # probe is fixed for the state's lifetime; resolve it once.
        self._probe: "StatsProbe | None" = getattr(self.state, "probe", None)

    # ------------------------------------------------------------------
    def step(self, slot: SlotData) -> Any:
        """Decide one slot from streamed data and advance the session."""
        probe = self._probe
        span = obs_tracing.span(
            "engine.step", t=self.t, controller=self.controller.name
        )
        with span:
            with Timer() as timer:
                decision = self.controller.decide(self.state, self.t, slot)
            records = probe.drain() if probe is not None else []
            stats = StepStats.from_records(self.t, timer.elapsed, records)
            span.set(
                n_solves=stats.n_solves,
                newton_iters=stats.newton_iters,
                warm_used=stats.warm_hits > 0,
                fallback=stats.fallbacks > 0,
            )
        publish_step_stats(stats)
        # Stream the updated registry at the ambient sink's cadence
        # (one module-global None check when telemetry is off), so
        # long batch runs are observable mid-flight, not just at exit.
        obs_telemetry.autoflush()
        self._step_stats.append(stats)
        self._steps.append(decision)
        self.t += 1
        return decision

    def apply(self, slot: SlotData, decision: Any) -> Any:
        """Advance one slot with an externally-decided allocation.

        The serve runtime calls this when a fallback (held allocation,
        greedy cover) produced the slot's decision instead of the
        controller: the decision is recorded in the trajectory and the
        controller's carried state is told about it through its
        optional ``observe(state, t, slot, decision)`` hook so the next
        primary solve anchors at what was actually applied.  Controllers
        without the hook get the generic treatment: ``state.prev`` is
        replaced and any warm-start vector is dropped (it seeded the
        solve of a decision that was never applied).
        """
        with obs_tracing.span(
            "engine.apply", t=self.t, controller=self.controller.name
        ):
            observe = getattr(self.controller, "observe", None)
            if observe is not None:
                observe(self.state, self.t, slot, decision)
            else:
                if hasattr(self.state, "prev"):
                    self.state.prev = decision
                if getattr(self.state, "warm", None) is not None:
                    self.state.warm = None
        stats = StepStats.from_records(self.t, 0.0, [])
        publish_step_stats(stats)
        self._step_stats.append(stats)
        self._steps.append(decision)
        self.t += 1
        return decision

    def rebuild(self, initial: Any = None) -> None:
        """Replace the carried state with a freshly-built one.

        Used by the serve runtime after an abandoned (timed-out) solve:
        the abandoned worker may still be mutating the old state's
        scratch buffers, so the session discards it and rebuilds from
        the last applied decision.  Solver results are unchanged — the
        compiled structures are deterministic functions of the network
        and config — only warm-start amortization restarts.
        """
        self.state = self.controller.make_state(self.source, initial=initial)
        self._probe = getattr(self.state, "probe", None)

    # ------------------------------------------------------------------
    # Checkpoint hooks (see repro.serve.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the session for checkpoint/resume.

        Requires the controller to implement ``export_state(state) ->
        dict`` (a flat mapping of arrays/scalars).  The snapshot holds
        everything :meth:`resume` needs to continue the run with a
        bitwise-identical future trajectory: the step index, the
        controller's carried state, the decisions taken so far and
        their per-step statistics.

        ``steps`` and ``step_stats`` are the session's own lists, not
        copies, so a snapshot per slot costs O(1): read them before
        the next step, never modify them.
        """
        export = getattr(self.controller, "export_state", None)
        if export is None:
            raise TypeError(
                f"controller {type(self.controller).__name__} "
                f"({self.controller.name!r}) does not support state export "
                "(no export_state hook); checkpointing is unavailable"
            )
        return {
            "t": self.t,
            "controller": export(self.state),
            "steps": self._steps,
            "step_stats": self._step_stats,
        }

    @classmethod
    def resume(cls, controller: Controller, source: Any, snapshot: dict) -> "SolveSession":
        """Rebuild a session from an :meth:`export_state` snapshot.

        The controller must implement ``restore_state(source, snapshot)
        -> state``, the inverse of its ``export_state``.
        """
        restore = getattr(controller, "restore_state", None)
        if restore is None:
            raise TypeError(
                f"controller {type(controller).__name__} "
                f"({controller.name!r}) does not support state restore "
                "(no restore_state hook)"
            )
        session = cls.__new__(cls)
        session.controller = controller
        session.source = source
        session.state = restore(source, snapshot["controller"])
        session.t = int(snapshot["t"])
        session._steps = list(snapshot["steps"])
        session._step_stats = list(snapshot["step_stats"])
        session._probe = getattr(session.state, "probe", None)
        return session

    # ------------------------------------------------------------------
    # Persistent-cache hooks (see repro.cache; blob format is the
    # export_state serialization, stored through repro.serve.checkpoint)
    # ------------------------------------------------------------------
    def save_to_cache(self, store: Any, key: str) -> None:
        """Persist this session's :meth:`export_state` snapshot under ``key``.

        ``store`` is a :class:`~repro.cache.store.SolverStateStore`;
        the blob is a valid serve checkpoint, so a cached session can
        equally be resumed by the serve runtime.
        """
        store.put_state(
            key, self.export_state(), controller_name=self.controller.name
        )

    @classmethod
    def resume_from_cache(
        cls, controller: Controller, source: Any, store: Any, key: str
    ) -> "SolveSession | None":
        """Rebuild a session from a cached snapshot, or ``None`` on a miss.

        A hit continues bitwise-identically to the session that called
        :meth:`save_to_cache` (same contract as checkpoint resume); a
        miss — including a corrupted blob — returns ``None`` so the
        caller starts cold.
        """
        snapshot = store.get_state(key)
        if snapshot is None:
            return None
        name = snapshot.get("controller_name", "")
        if name and name != controller.name:
            return None
        return cls.resume(controller, source, snapshot)

    def run(self, instance: Any = None) -> Any:
        """Feed every slot of ``instance`` through :meth:`step`.

        With no argument, the session's ``source`` must be the
        instance.  Returns the assembled trajectory with ``run_stats``
        attached.
        """
        instance = self.source if instance is None else instance
        horizon = getattr(instance, "horizon", None)
        if horizon is None:
            raise ValueError(
                "run() needs an instance (got a bare network); "
                "feed slots through step() instead"
            )
        for t in range(self.t, horizon):
            self.step(SlotData.from_instance(instance, t))
        return self.trajectory()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> RunStats:
        """Per-step statistics for the steps taken so far."""
        return RunStats(list(self._step_stats))

    def trajectory(self) -> Any:
        """Assemble the steps taken so far into a trajectory.

        Uses the controller's ``assemble`` hook when it has one
        (N-tier), otherwise stacks the allocations into a two-tier
        :class:`~repro.model.allocation.Trajectory`.  The returned
        object carries the session's :class:`RunStats` as
        ``run_stats``.
        """
        assemble = getattr(self.controller, "assemble", None)
        if assemble is not None:
            traj = assemble(self._steps)
        else:
            traj = Trajectory.from_steps(self._steps)
        traj.run_stats = self.stats
        return traj


def source_network(source: Any):
    """The network of an instance-or-network ``source`` argument."""
    return getattr(source, "network", source)
