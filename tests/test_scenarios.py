"""Tests for the scenario registry, corpus and CLI surface.

The golden fingerprints live in ``test_scenarios_golden.py``; this
module covers the registry contract, structural validity of every
built scenario, the evaluation path, the serve path, and ``repro
scenario list|describe|run``.  Full-scale runs are in
``@pytest.mark.slow`` tests (excluded from tier-1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.feasibility import check_instance_feasible, necessary_conditions
from repro.scenarios import (
    SCENARIO_SIZES,
    Scenario,
    all_scenarios,
    evaluate,
    get_scenario,
    register,
    render_evaluation,
    scenario_names,
)

TWO_TIER = [s for s in all_scenarios() if s.tiers == 2]
SMOKES = {s.name: s.build("smoke") for s in all_scenarios()}


class TestRegistry:
    def test_corpus_has_at_least_five_serveable_scenarios(self):
        serveable = [s for s in all_scenarios() if s.serveable]
        assert len(serveable) >= 5

    def test_corpus_includes_an_ntier_scenario(self):
        assert any(s.tiers > 2 for s in all_scenarios())

    def test_expected_names_present(self):
        names = scenario_names()
        for expected in (
            "geo-diurnal", "flash-crowd", "regional-failure",
            "adversarial", "price-spike", "ntier-continental",
        ):
            assert expected in names

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        existing = all_scenarios()[0]
        with pytest.raises(ValueError, match="already registered"):
            register(existing)

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario size"):
            all_scenarios()[0].build("galactic")


class TestBuiltScenarios:
    @pytest.mark.parametrize("name", [s.name for s in TWO_TIER])
    def test_two_tier_instances_are_valid_and_feasible(self, name):
        built = SMOKES[name]
        inst = built.instance
        assert inst is not None and built.ntier is None
        assert inst.workload.min() >= 0
        assert necessary_conditions(inst).ok
        assert check_instance_feasible(inst).ok

    @pytest.mark.parametrize("name", [s.name for s in TWO_TIER])
    def test_one_sla_component_per_region(self, name):
        """P2(t) separates along SLA components; the generated corpus
        guarantees one per region."""
        built = SMOKES[name]
        assert built.topology.sla_component_count() == built.topology.n_regions

    def test_ntier_scenario_shape(self):
        built = SMOKES["ntier-continental"]
        assert built.instance is None and built.ntier is not None
        net = built.ntier.network
        assert net.n_tiers == 3
        assert built.ntier.workload.shape == (built.horizon, net.n_tier1)

    def test_flash_crowd_adds_demand_over_diurnal(self):
        base = SMOKES["geo-diurnal"]
        crowd = get_scenario("flash-crowd").build(
            "smoke", seed=get_scenario("geo-diurnal").default_seed
        )
        # Same seed -> same diurnal base, so the cascade only adds.
        diff = crowd.instance.workload - base.instance.workload
        assert diff.min() >= -1e-12 and diff.max() > 1.0

    def test_regional_failure_shifts_load_and_price(self):
        built = SMOKES["regional-failure"]
        topo = built.topology
        failed_pops = np.flatnonzero(topo.tier2_region == 0)
        plain = topo.build_instance(built.instance.workload)
        ratio = built.instance.tier2_price / plain.tier2_price
        assert np.isclose(ratio[np.ix_(range(8, 14), failed_pops)], 10.0).all()
        untouched = np.delete(ratio, failed_pops, axis=1)
        assert np.isclose(untouched, 1.0).all()

    def test_price_spike_only_in_window_and_shocked_regions(self):
        built = SMOKES["price-spike"]
        topo = built.topology
        plain = topo.build_instance(built.instance.workload)
        ratio = built.instance.tier2_price / plain.tier2_price
        shocked = np.flatnonzero(topo.tier2_region % 2 == 1)
        assert np.isclose(ratio[np.ix_(range(13, 17), shocked)], 8.0).all()
        outside = np.delete(np.arange(built.horizon), np.arange(13, 17))
        assert np.isclose(ratio[outside], 1.0).all()

    def test_describe_shape_mentions_sizes(self):
        assert "|J|=12" in SMOKES["geo-diurnal"].describe_shape()
        assert "3-tier" in SMOKES["ntier-continental"].describe_shape()


class TestEvaluate:
    def test_two_tier_eval_orders_offline_online_greedy(self):
        rows = evaluate(SMOKES["adversarial"])
        by_name = {name: total for name, total, *_ in rows}
        assert set(by_name) == {"offline", "online", "greedy"}
        # The adversarial regime is built to punish greedy.
        assert by_name["offline"] <= by_name["online"] < by_name["greedy"]
        assert all(feasible for *_, feasible in rows)

    def test_ntier_eval_runs(self):
        rows = evaluate(SMOKES["ntier-continental"])
        by_name = {name: total for name, total, *_ in rows}
        assert by_name["offline"] <= by_name["online"] < by_name["greedy"]

    def test_render_evaluation_table(self):
        rows = evaluate(SMOKES["geo-diurnal"], include_offline=False)
        text = render_evaluation(rows)
        assert "algorithm" in text and "online" in text
        assert "offline" not in text


class TestServePath:
    def test_smoke_scenario_serves_all_slots(self):
        from repro.core import RegularizedOnline, SubproblemConfig
        from repro.serve import InstanceSource, ServeConfig, ServeLoop

        built = SMOKES["price-spike"]
        report = ServeLoop(
            RegularizedOnline(SubproblemConfig(epsilon=1e-2)),
            InstanceSource(built.instance),
            ServeConfig(),
        ).run()
        assert report.error is None
        assert report.summary["slots"] == built.horizon
        assert report.summary["unserved"] == 0


class TestScenarioCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_describe_prints_fingerprint(self, capsys):
        import json
        from pathlib import Path

        from repro.cli import main

        assert main(["scenario", "describe", "geo-diurnal"]) == 0
        out = capsys.readouterr().out
        golden = json.loads(
            (Path(__file__).parent / "golden" /
             "scenario_fingerprints.json").read_text()
        )
        assert golden["geo-diurnal"]["smoke"] in out

    def test_describe_without_name_exits_2(self, capsys):
        from repro.cli import main

        assert main(["scenario", "describe"]) == 2
        assert "requires a NAME" in capsys.readouterr().err

    def test_run_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_eval_smoke(self, capsys):
        from repro.cli import main

        assert main(["scenario", "run", "flash-crowd"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out and "greedy" in out

    def test_serve_mode_rejects_ntier(self, capsys):
        from repro.cli import main

        assert main(
            ["scenario", "run", "ntier-continental", "--mode", "serve"]
        ) == 2
        assert "evaluation-only" in capsys.readouterr().err

    def test_serve_mode_bad_horizon_exits_2(self, capsys):
        from repro.cli import main

        assert main(
            ["scenario", "run", "geo-diurnal", "--mode", "serve",
             "--horizon", "0"]
        ) == 2
        assert "--horizon" in capsys.readouterr().err

    def test_serve_mode_smoke(self, capsys, tmp_path):
        from repro.cli import main

        decisions = tmp_path / "d.npy"
        assert main(
            ["scenario", "run", "geo-diurnal", "--mode", "serve",
             "--horizon", "3",
             "--decisions", str(decisions)]
        ) == 0
        out = capsys.readouterr().out
        assert "3 slots (3 served, 0 unserved)" in out
        assert decisions.exists()


@pytest.mark.slow
class TestFullScale:
    """Continent-scale runs; excluded from tier-1 (run with ``-m slow``)."""

    def test_full_geo_diurnal_builds_valid_240_cloud_instance(self):
        built = get_scenario("geo-diurnal").build("full")
        assert built.instance.network.n_tier1 >= 200
        assert necessary_conditions(built.instance).ok
        assert check_instance_feasible(built.instance).ok

    def test_full_scale_eval_without_offline(self):
        rows = evaluate(
            get_scenario("adversarial").build("full"),
            include_offline=False,
        )
        by_name = {name: total for name, total, *_ in rows}
        assert by_name["online"] < by_name["greedy"]
