"""Online algorithm-health monitoring: live gauges + threshold alerts.

The observability layer so far measures the *system* (latencies,
fallbacks).  This module measures the *algorithm*, the
quantities the smoothed-online-allocation literature evaluates
controllers by — Perez-Salazar et al. judge efficiency against an
offline benchmark, Wang et al. track reconfiguration-cost share — as
live per-slot gauges instead of post-hoc plots:

* **empirical competitive ratio** — cumulative realized cost over a
  per-slot cheapest-route lower bound on the offline optimum.  For
  slot ``t`` any feasible solution must route every tier-1 cloud's
  workload over its SLA edges, paying at least
  ``lambda_j * min_{e in E_j}(a_{i(e),t} + c_{e,t})`` (coverage needs
  ``y >= s`` and ``X >= routed``; reconfiguration charges are >= 0),
  so the slot bounds sum to a true lower bound on OPT and the ratio
  ``cost / bound`` upper-bounds the empirical competitive ratio of
  :func:`repro.core.competitive.empirical_ratio` online, no offline
  solve required.
* **switching-cost share** — cumulative reconfiguration cost over
  cumulative total cost, the paper's smoothing half of the objective.
* **SLO burn rate** — deadline-miss rate over a sliding window,
  normalized by the allowed miss budget (``slo_target``): burn > 1
  means the error budget is being spent faster than allowed (the SRE
  reading).

Gauges are published as ``health_*`` into the active registry, and
declarative :class:`AlertRule` thresholds (``"competitive_ratio>1.5:3"``)
emit ``alert`` events into the serve event log when breached.

Unlike the rest of :mod:`repro.obs` this module needs numpy (it prices
decisions), so it is imported lazily by its users rather than from the
package root.
"""

from __future__ import annotations

import re
from collections import deque

import numpy as np

from repro.obs import metrics as obs_metrics

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}

_RULE_RE = re.compile(
    r"^\s*([A-Za-z_][\w.]*)\s*(>=|<=|>|<)\s*([-+0-9.eE]+)\s*(?::\s*(\d+))?\s*$"
)


class AlertRule:
    """One declarative threshold over a health gauge.

    Spec syntax: ``metric OP threshold[:for_slots]`` — e.g.
    ``competitive_ratio>1.5:3`` fires when the empirical competitive
    ratio exceeds 1.5 for three consecutive observed slots.  The
    metric may be written with or without the ``health_`` prefix.
    A rule fires **once per breach streak**: after firing it stays
    silent until the condition clears, then re-arms.
    """

    def __init__(self, spec: str) -> None:
        m = _RULE_RE.match(spec)
        if m is None:
            raise ValueError(
                f"malformed alert rule {spec!r}; expected "
                f"'metric>threshold' or 'metric>=threshold:slots' "
                f"(ops: > >= < <=)"
            )
        metric, op, threshold, for_slots = m.groups()
        self.spec = spec.strip()
        self.metric = (
            metric if metric.startswith("health_") else f"health_{metric}"
        )
        self.op = op
        self.threshold = float(threshold)
        self.for_slots = int(for_slots) if for_slots else 1
        if self.for_slots < 1:
            raise ValueError(f"alert rule {spec!r}: for_slots must be >= 1")
        self.streak = 0
        self.fired = False

    def update(self, value: "float | None") -> bool:
        """Feed one slot's gauge value; returns True when firing."""
        if value is None or not _OPS[self.op](value, self.threshold):
            self.streak = 0
            self.fired = False
            return False
        self.streak += 1
        if self.streak >= self.for_slots and not self.fired:
            self.fired = True
            return True
        return False

    def __repr__(self) -> str:
        return f"AlertRule({self.spec!r})"


class HealthMonitor:
    """Per-slot algorithm-health gauges + alert-rule evaluation.

    Parameters
    ----------
    network:
        The :class:`~repro.model.network.CloudNetwork` decisions are
        priced against.
    rules:
        Alert specs (strings) or :class:`AlertRule` instances.
    slo_target:
        Allowed deadline-miss fraction; the burn-rate gauge is the
        windowed miss rate divided by this budget.
    window:
        Sliding-window length (slots) for the burn-rate gauge.

    The serve loop calls :meth:`observe_slot` once per decided slot;
    all gauges are also kept in :attr:`values` so rules (and tests)
    work even while the metrics registry is disabled.
    """

    def __init__(
        self,
        network,
        rules: "list | tuple" = (),
        slo_target: float = 0.1,
        window: int = 24,
    ) -> None:
        if not (0 < slo_target <= 1):
            raise ValueError(f"slo_target must be in (0, 1], got {slo_target}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.network = network
        self.rules = [
            r if isinstance(r, AlertRule) else AlertRule(r) for r in rules
        ]
        self.slo_target = float(slo_target)
        self.window = int(window)
        self.values: "dict[str, float]" = {}
        self.alerts: "list[dict]" = []
        self._cost_total = 0.0
        self._cost_recon = 0.0
        self._bound_total = 0.0
        self._prev_X = np.zeros(network.n_tier2)
        self._prev_y = np.zeros(network.n_edges)
        self._misses: deque = deque(maxlen=self.window)

    # ------------------------------------------------------------------
    def _slot_cost(self, slot, decision) -> "tuple[float, float]":
        """(total, reconfiguration) cost increment of one applied slot."""
        net = self.network
        X = net.aggregate_tier2(np.asarray(decision.x, dtype=float))
        y = np.asarray(decision.y, dtype=float)
        alloc = float(slot.tier2_price @ X) + float(slot.link_price @ y)
        recon = float(
            np.maximum(X - self._prev_X, 0.0) @ net.tier2_recon_price
        ) + float(np.maximum(y - self._prev_y, 0.0) @ net.edge_recon_price)
        self._prev_X, self._prev_y = X, y
        return alloc + recon, recon

    def _slot_bound(self, slot) -> float:
        """Cheapest-route lower bound on any feasible slot cost."""
        net = self.network
        edge_price = slot.tier2_price[net.edge_i] + slot.link_price
        cheapest = np.full(net.n_tier1, np.inf)
        np.minimum.at(cheapest, net.edge_j, edge_price)
        workload = np.asarray(slot.workload, dtype=float)
        active = workload > 0
        if not np.any(active):
            return 0.0
        return float(workload[active] @ cheapest[active])

    # ------------------------------------------------------------------
    def observe_slot(
        self,
        t: int,
        slot,
        decision,
        outcome=None,
        log=None,
    ) -> "list[dict]":
        """Fold one decided slot into the gauges; evaluate the rules.

        ``outcome`` (a serve :class:`~repro.serve.runtime.SlotOutcome`)
        supplies the deadline-miss bit for the burn-rate window;
        ``log`` (an :class:`~repro.serve.events.EventLog`) receives
        ``alert`` events for fired rules.  Returns the alerts fired
        this slot.
        """
        if decision is not None:
            cost, recon = self._slot_cost(slot, decision)
            self._cost_total += cost
            self._cost_recon += recon
            self._bound_total += self._slot_bound(slot)
            self.values["health_cumulative_cost"] = self._cost_total
            self.values["health_offline_bound"] = self._bound_total
            if self._bound_total > 0:
                self.values["health_competitive_ratio"] = (
                    self._cost_total / self._bound_total
                )
            elif self._cost_total <= 1e-12:
                self.values["health_competitive_ratio"] = 1.0
            if self._cost_total > 0:
                self.values["health_switching_share"] = (
                    self._cost_recon / self._cost_total
                )
        self._misses.append(
            1.0 if (outcome is not None and outcome.deadline_missed) else 0.0
        )
        self.values["health_slo_burn_rate"] = (
            sum(self._misses) / len(self._misses)
        ) / self.slo_target
        self._publish()
        return self._evaluate(t, log)

    def _publish(self) -> None:
        reg = obs_metrics.active()
        if reg is None:
            return
        help_ = {
            "health_cumulative_cost": "realized cumulative cost (allocation + reconfiguration)",
            "health_offline_bound": "cumulative cheapest-route lower bound on the offline optimum",
            "health_competitive_ratio": "cumulative cost / offline lower bound (upper-bounds the empirical competitive ratio)",
            "health_switching_share": "reconfiguration share of cumulative cost",
            "health_slo_burn_rate": "windowed deadline-miss rate / slo_target (burn > 1 overspends the budget)",
        }
        for name, value in self.values.items():
            reg.gauge(name, help=help_.get(name, "")).set(value)

    def _evaluate(self, t: int, log) -> "list[dict]":
        fired: "list[dict]" = []
        for rule in self.rules:
            if rule.update(self.values.get(rule.metric)):
                record = {
                    "rule": rule.spec,
                    "metric": rule.metric,
                    "value": self.values[rule.metric],
                    "threshold": rule.threshold,
                    "op": rule.op,
                    "for_slots": rule.for_slots,
                }
                fired.append(record)
                self.alerts.append({"t": t, **record})
                if log is not None:
                    log.emit("alert", t=t, **record)
        return fired
