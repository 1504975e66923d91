"""Drive a built scenario through the evaluation machinery.

The CLI's ``repro scenario run NAME --mode eval`` lands here; serve
mode goes through the serve runtime directly (the scenario's instance
wrapped in an :class:`~repro.serve.sources.InstanceSource`).  Kept in
the scenarios package so tests can run scenarios without a CLI round
trip.
"""

from __future__ import annotations

from repro.evaluation.reporting import format_table
from repro.scenarios.base import BuiltScenario


def evaluate(
    built: BuiltScenario,
    epsilon: float = 1e-2,
    include_offline: "bool | None" = None,
) -> "list[tuple]":
    """Score the scenario with the standard algorithm suite.

    Two-tier scenarios run the regularized online controller and the
    greedy one-shot baseline through
    :func:`repro.evaluation.runner.run_suite`; the N-tier scenario
    runs its own online/greedy pair.  The offline optimum joins the
    table when ``include_offline`` is true (default: only at smoke
    size — the full-horizon LP at continent scale is a long sit).

    Returns ``(algorithm, total_cost, vs_online, feasible)`` rows,
    cheapest first.
    """
    if include_offline is None:
        include_offline = built.size == "smoke"

    if built.instance is not None:
        rows = _evaluate_two_tier(built, epsilon, include_offline)
    else:
        rows = _evaluate_ntier(built, epsilon, include_offline)
    online = next(total for name, total, *_ in rows if name == "online")
    rows = [
        (name, total, total / online, feasible)
        for name, total, feasible in rows
    ]
    rows.sort(key=lambda r: r[1])
    return rows


def _evaluate_two_tier(built, epsilon, include_offline):
    from repro.core.online import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.evaluation.runner import OfflineOracle, run_suite
    from repro.offline.greedy import GreedyOneShot

    algorithms = {
        "online": RegularizedOnline(SubproblemConfig(epsilon=epsilon)),
        "greedy": GreedyOneShot(),
    }
    if include_offline:
        algorithms["offline"] = OfflineOracle()
    results = run_suite(built.instance, algorithms)
    return [(name, r.total, r.feasible) for name, r in results.items()]


def _evaluate_ntier(built, epsilon, include_offline):
    from repro.ntier import (
        NTierConfig,
        NTierGreedy,
        NTierRegularizedOnline,
        solve_ntier_offline,
    )

    inst = built.ntier
    rows = []
    online = NTierRegularizedOnline(NTierConfig(epsilon=epsilon)).run(inst)
    rows.append(("online", float(inst.cost(online)), True))
    greedy = NTierGreedy().run(inst)
    rows.append(("greedy", float(inst.cost(greedy)), True))
    if include_offline:
        off = solve_ntier_offline(inst)
        rows.append(("offline", float(off.objective), True))
    return rows


def render_evaluation(rows: "list[tuple]") -> str:
    """Render :func:`evaluate` rows as an aligned table."""
    return format_table(
        ["algorithm", "total_cost", "vs_online", "feasible"], list(rows)
    )
