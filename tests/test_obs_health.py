"""Tests for the algorithm-health monitor (repro.obs.health)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RegularizedOnline, SubproblemConfig
from repro.engine.session import SlotData
from repro.model import Allocation, Cloud, CloudNetwork, SLAEdge
from repro.obs import metrics as obs_metrics
from repro.obs.health import AlertRule, HealthMonitor
from repro.serve import EventLog, ServeConfig, ServeLoop

from conftest import make_instance, make_network

EPS = SubproblemConfig(epsilon=1e-2)


def single_edge_network() -> CloudNetwork:
    """One tier-2 cloud, one tier-1 cloud, one SLA edge.

    The cost/bound arithmetic is hand-checkable: with tier-2 price
    ``a``, link price ``c``, the cheapest route costs ``a + c`` per
    unit of workload.
    """
    tier2 = [Cloud("i0", capacity=10.0, recon_price=2.0)]
    tier1 = [Cloud("j0", capacity=np.inf)]
    edges = [SLAEdge(0, 0, capacity=10.0, recon_price=1.0)]
    return CloudNetwork(tier2, tier1, edges)


def slot(workload=1.0, a=3.0, c=0.5) -> SlotData:
    return SlotData(
        workload=np.array([workload]),
        tier2_price=np.array([a]),
        link_price=np.array([c]),
    )


def decision(x=2.0, y=2.0, s=1.0) -> Allocation:
    return Allocation(np.array([x]), np.array([y]), np.array([s]))


class _Outcome:
    def __init__(self, deadline_missed: bool) -> None:
        self.deadline_missed = deadline_missed


class TestAlertRule:
    def test_parses_threshold_and_prefix(self):
        rule = AlertRule("competitive_ratio>1.5")
        assert rule.metric == "health_competitive_ratio"
        assert rule.op == ">" and rule.threshold == 1.5 and rule.for_slots == 1

    def test_explicit_prefix_and_for_slots(self):
        rule = AlertRule("health_slo_burn_rate >= 2.0 : 3")
        assert rule.metric == "health_slo_burn_rate"
        assert rule.for_slots == 3

    @pytest.mark.parametrize(
        "spec", ["", "foo", "x=1", "x>>1", ">1", "x>abc", "x>1:0"]
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            AlertRule(spec)

    def test_fires_once_per_streak_then_rearms(self):
        rule = AlertRule("competitive_ratio>1:2")
        assert not rule.update(2.0)  # streak 1 of 2
        assert rule.update(2.0)  # fires
        assert not rule.update(2.0)  # still breached, stays silent
        assert not rule.update(0.5)  # clears, re-arms
        assert not rule.update(2.0)
        assert rule.update(2.0)  # fires again

    def test_missing_value_resets_streak(self):
        rule = AlertRule("switching_share>=0.5:2")
        assert not rule.update(0.9)
        assert not rule.update(None)
        assert not rule.update(0.9)
        assert rule.update(0.9)


class TestHealthMonitorCosts:
    def test_slot_cost_and_bound_arithmetic(self):
        mon = HealthMonitor(single_edge_network())
        # alloc = 3*2 + 0.5*2 = 7; recon (from zero state) = 2*2 + 2*1 = 6
        mon.observe_slot(0, slot(), decision())
        assert mon.values["health_cumulative_cost"] == pytest.approx(13.0)
        assert mon.values["health_offline_bound"] == pytest.approx(3.5)
        assert mon.values["health_competitive_ratio"] == pytest.approx(13.0 / 3.5)
        assert mon.values["health_switching_share"] == pytest.approx(6.0 / 13.0)

    def test_unchanged_decision_adds_no_switching_cost(self):
        mon = HealthMonitor(single_edge_network())
        mon.observe_slot(0, slot(), decision())
        mon.observe_slot(1, slot(), decision())
        assert mon.values["health_cumulative_cost"] == pytest.approx(13.0 + 7.0)
        assert mon.values["health_offline_bound"] == pytest.approx(7.0)
        assert mon.values["health_switching_share"] == pytest.approx(6.0 / 20.0)

    def test_bound_uses_cheapest_edge(self):
        # Two edges into the same tier-1 cloud; the bound must price the
        # workload over the cheaper route only.
        tier2 = [Cloud("i0", 10.0, 1.0), Cloud("i1", 10.0, 1.0)]
        tier1 = [Cloud("j0", np.inf)]
        edges = [SLAEdge(0, 0, 10.0, 0.0), SLAEdge(1, 0, 10.0, 0.0)]
        net = CloudNetwork(tier2, tier1, edges)
        mon = HealthMonitor(net)
        s = SlotData(
            workload=np.array([2.0]),
            tier2_price=np.array([5.0, 1.0]),
            link_price=np.array([0.5, 0.25]),
        )
        dec = Allocation(np.zeros(2), np.zeros(2), np.zeros(2))
        mon.observe_slot(0, s, dec)
        assert mon.values["health_offline_bound"] == pytest.approx(2.0 * 1.25)

    def test_zero_workload_slot_contributes_zero_bound(self):
        mon = HealthMonitor(single_edge_network())
        mon.observe_slot(0, slot(workload=0.0), decision(x=0.0, y=0.0, s=0.0))
        assert mon.values["health_offline_bound"] == 0.0
        assert mon.values["health_competitive_ratio"] == 1.0

    def test_skipped_decision_still_tracks_slo(self):
        mon = HealthMonitor(single_edge_network(), slo_target=0.5)
        fired = mon.observe_slot(0, slot(), None, outcome=_Outcome(True))
        assert fired == []
        assert "health_cumulative_cost" not in mon.values
        assert mon.values["health_slo_burn_rate"] == pytest.approx(2.0)

    def test_validates_parameters(self):
        net = single_edge_network()
        with pytest.raises(ValueError, match="slo_target"):
            HealthMonitor(net, slo_target=0.0)
        with pytest.raises(ValueError, match="window"):
            HealthMonitor(net, window=0)


class TestSloBurnRate:
    def test_windowed_miss_rate_over_budget(self):
        mon = HealthMonitor(single_edge_network(), slo_target=0.25, window=4)
        for t, missed in enumerate([True, False, False, False]):
            mon.observe_slot(t, slot(), decision(), outcome=_Outcome(missed))
        # 1 miss in a 4-slot window = 25% rate = exactly the budget.
        assert mon.values["health_slo_burn_rate"] == pytest.approx(1.0)
        for t in range(4, 8):
            mon.observe_slot(t, slot(), decision(), outcome=_Outcome(False))
        assert mon.values["health_slo_burn_rate"] == 0.0  # miss aged out


class TestRegistryRates:
    def test_publishes_gauges_into_registry(self):
        with obs_metrics.use() as reg:
            mon = HealthMonitor(single_edge_network())
            mon.observe_slot(0, slot(), decision())
            names = {e["name"] for e in reg.snapshot()["metrics"]}
            assert {
                "health_cumulative_cost",
                "health_competitive_ratio",
                "health_switching_share",
                "health_slo_burn_rate",
            } <= names

    def test_works_with_registry_disabled(self):
        assert obs_metrics.active() is None
        mon = HealthMonitor(single_edge_network())
        mon.observe_slot(0, slot(), decision())
        assert mon.values["health_competitive_ratio"] > 0


class TestAlerts:
    def test_fired_alerts_are_recorded_and_logged(self):
        log = EventLog()
        mon = HealthMonitor(
            single_edge_network(), rules=["competitive_ratio>=1"]
        )
        fired = mon.observe_slot(3, slot(), decision(), log=log)
        assert len(fired) == 1
        assert fired[0]["metric"] == "health_competitive_ratio"
        assert mon.alerts[0]["t"] == 3
        events = [e for e in log.events if e["event"] == "alert"]
        assert len(events) == 1
        assert events[0]["t"] == 3
        assert events[0]["rule"] == "competitive_ratio>=1"
        assert events[0]["value"] >= events[0]["threshold"]

    def test_alert_counter_published(self):
        with obs_metrics.use() as reg:
            log = EventLog()
            mon = HealthMonitor(
                single_edge_network(), rules=["switching_share>=0"]
            )
            mon.observe_slot(0, slot(), decision(), log=log)
            entries = [
                e
                for e in reg.snapshot()["metrics"]
                if e["name"] == "serve_alerts_total"
            ]
            assert entries and entries[0]["value"] == 1

    def test_accepts_prebuilt_rules(self):
        rule = AlertRule("slo_burn_rate>0.1")
        mon = HealthMonitor(single_edge_network(), rules=[rule])
        assert mon.rules == [rule]


class TestServeIntegration:
    def test_serve_loop_drives_health_monitor(self, small_network):
        inst = make_instance(small_network, horizon=6, seed=5)
        log = EventLog()
        mon = HealthMonitor(small_network, rules=["competitive_ratio>=0"])
        report = ServeLoop(
            RegularizedOnline(EPS), inst, ServeConfig(), log, health=mon
        ).run()
        assert report.summary["slots"] == 6
        assert mon.values["health_cumulative_cost"] > 0
        # The bound is a true lower bound, so the live ratio is >= 1.
        assert mon.values["health_competitive_ratio"] >= 1.0
        alerts = [e for e in log.events if e["event"] == "alert"]
        assert len(alerts) == 1  # fires once, stays breached
        assert report.summary["alerts"] == 1
        assert "1 alerts" in report.describe()

    def test_resume_keeps_monitoring(self, small_network):
        inst = make_instance(small_network, horizon=6, seed=5)
        mon = HealthMonitor(small_network)
        loop = ServeLoop(
            RegularizedOnline(EPS),
            inst,
            ServeConfig(max_slots=3),
            health=mon,
        )
        loop.run()
        cost_after_3 = mon.values["health_cumulative_cost"]
        loop.run()
        assert mon.values["health_cumulative_cost"] > cost_after_3

    def test_live_ratio_upper_bounds_cost_ratio(self, small_network):
        # The online bound ignores reconfiguration and capacity
        # coupling, so cost/bound must come out >= 1 on a real run.
        inst = make_instance(small_network, horizon=10, seed=11)
        mon = HealthMonitor(small_network)
        ServeLoop(RegularizedOnline(EPS), inst, health=mon).run()
        assert mon.values["health_competitive_ratio"] >= 1.0
