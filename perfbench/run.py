"""Closed-loop serve benchmark: end-to-end metrics, output checks, layer traces.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload corpus-k1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload in turn

Each workload is served by a sequence of *episodes*, one fresh process
each (``perfbench/episode.py``), run one at a time with OpenBLAS, OpenMP
and MKL pinned to one thread.  Episodes repeat until ``--seconds`` of
timed serving has accumulated (at least ``MIN_EPISODES``); set-up is
sampled in every episode plus set-up-only probes, and reported as the
median.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced episodes and prints the per-layer
metrics, failing if the timed layers cover < 95 % of slot latency.

The workloads' horizons and tail windows and the recorded input
fingerprints live in ``perfbench/record.json``.  The last line of
standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  Any failed output check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, stats  # noqa: E402

RECORD = json.loads((ROOT / "perfbench" / "record.json").read_text())

#: Minimum share of slot latency the traced layers must cover.
MIN_ATTRIBUTED = 0.95

#: Untraced (and, with ``--trace 1``, traced) episodes per run, at least.
MIN_EPISODES = 3

#: Set-up samples per run, at least: episodes plus set-up-only probes.
#: A multiple of ``inputs.PAPER_TRACES``, so every draw is sampled alike.
SETUP_SAMPLES = 9

#: Stop starting episodes after this much wall time (runs end < 180 s).
WALL_CAP_S = 120.0

#: Per-episode process timeout.
EPISODE_TIMEOUT_S = 60.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A failed episode or check: reported on stderr, exit code 1."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def episode(workload: str, seed: int, index: int, *, traced: bool = False,
            setup_only: bool = False) -> dict:
    """Run one episode in a fresh process and return its JSON record.

    The ``index``-th episode of its kind serves the workload's input
    draw ``index mod inputs.variants(workload)``.
    """
    spec = RECORD["workloads"][workload]
    cmd = [sys.executable, "-m", "perfbench.episode", "--workload", workload,
           "--seed", str(seed), "--horizon", str(spec["horizon"]),
           "--variant", str(index % inputs.variants(workload))]
    if spec.get("restart_at"):
        cmd += ["--restart-at", str(spec["restart_at"])]
    expected = RECORD["fingerprints"][workload].get(str(seed))
    if expected:
        cmd += ["--expect-fingerprint", expected]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=EPISODE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} episode exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_episodes(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced (and, with ``trace``, alternating traced) episodes."""
    start = time.perf_counter()
    plain: "list[dict]" = []
    traced: "list[dict]" = []
    measured = 0.0
    while (
        len(plain) < MIN_EPISODES
        or (trace and len(traced) < MIN_EPISODES)
        or (measured < seconds and time.perf_counter() - start < WALL_CAP_S)
    ):
        if trace and len(traced) < len(plain):
            traced.append(episode(workload, seed, len(traced), traced=True))
            measured += traced[-1]["window_s"]
        else:
            plain.append(episode(workload, seed, len(plain)))
            measured += plain[-1]["window_s"]
    setups = [e["setup_s"] for e in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(episode(workload, seed, len(setups), setup_only=True)["setup_s"])
    return plain, traced, setups


def check_episodes(workload: str, seed: int, runs: "list[dict]") -> "list[str]":
    """Output checks on every episode; returns the failures."""
    problems = []
    failed = sum(e["failed"] for e in runs)
    if failed:
        problems.append(
            f"{failed} of {sum(e['attempted'] for e in runs)} slots were not "
            "decided by the primary path, went unserved, or were infeasible"
        )
    expected = RECORD["fingerprints"][workload].get(str(seed))
    prints = {e["fingerprint"] for e in runs}
    if len(prints) != 1 or (expected and prints != {expected}):
        problems.append(f"input fingerprints {sorted(prints)} (recorded {expected})")
    for k, e in enumerate(runs):
        if not e["feasible"]:
            problems.append(f"episode {k}: {e['feasibility']}")
        if not e["within_theorem1"]:
            problems.append(
                f"episode {k}: cost {e['cost']:.6g} > r={e['theorem1_ratio']:.6g} "
                f"x lower bound {e['lower_bound']:.6g}"
            )
        if e.get("bitwise_resume") is False:
            problems.append(f"episode {k}: resumed trajectory != uninterrupted run")
    return problems


def end_to_end(workload: str, plain: "list[dict]", setups: "list[float]") -> dict:
    spec = RECORD["workloads"][workload]
    pooled = [x for e in plain for x in e["latencies_ms"]]
    q = stats.choose_tail_percentile(spec["tail_window"])
    return {
        "slots_per_s": (sum(e["slots"] for e in plain)
                        / sum(e["window_s"] for e in plain), "1/s"),
        "slot_p50_ms": (stats.median(pooled), "ms"),
        "slot_tail_ms": (stats.median([
            t for e in plain
            for t in stats.window_tails(e["latencies_ms"], spec["tail_window"], q)
        ]), "ms"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (stats.median([e["peak_rss_mb"] for e in plain]), "MB"),
        "cost_ratio": (stats.median([e["cost"] / e["lower_bound"] for e in plain]),
                       "ratio"),
    }


def per_layer(plain: "list[dict]", traced: "list[dict]") -> dict:
    names = traced[0]["layers"].keys()
    out = {name: stats.median([e["layers"][name] for e in traced]) for name in names}
    sps = [sum(e["slots"] for e in runs) / sum(e["window_s"] for e in runs)
           for runs in (traced, plain)]
    out["trace.overhead_frac"] = 1.0 - sps[0] / sps[1]
    return out


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = RECORD["workloads"][workload]
    plain, traced, setups = run_episodes(workload, seed, seconds, trace)
    runs = plain + traced
    problems = check_episodes(workload, seed, runs)
    attempted = sum(e["attempted"] for e in runs)
    failed = sum(e["failed"] for e in runs)
    print(f"== {workload} (seed {seed}): {len(plain)} episodes x "
          f"{spec['horizon']} slots over {inputs.variants(workload)} input "
          f"draw(s), {len(traced)} traced, "
          f"{len(setups)} set-up samples; BLAS/OpenMP threads pinned to 1")
    if spec.get("restart_at"):
        print(f"   restart at slot {spec['restart_at']}; checkpoint, events and "
              "telemetry files under .perfbench/ in the checkout (not tmpfs)")
    print(f"   failed_slot_frac {failed / attempted:.6g} ({failed}/{attempted} slots)")
    if trace:
        metrics = per_layer(plain, traced)
        for k, e in enumerate(traced):
            frac = e["layers"]["serve.runtime.attributed_frac"]
            if frac < MIN_ATTRIBUTED:
                problems.append(
                    f"traced episode {k}: layers cover {frac:.1%} of slot "
                    f"latency (< {MIN_ATTRIBUTED:.0%})"
                )
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        shown = {name: (value, units[name]) for name, value in metrics.items()}
    else:
        shown = end_to_end(workload, plain, setups)
        window = spec["tail_window"]
        windows = sum(e["slots"] // window for e in plain)
        print(f"   slot_p50_ms over all {sum(e['slots'] for e in plain)} slot "
              f"latencies; slot_tail_ms is "
              f"p{stats.choose_tail_percentile(window):g} of "
              f"each {window}-slot window, median of {windows} windows")
    for name, (value, unit) in shown.items():
        print(f"   {name:<48} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*RECORD["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=RECORD["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = list(RECORD["workloads"]) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = bench(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
