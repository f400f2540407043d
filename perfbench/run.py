"""Benchmark for mmudn: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload mc_acceptance --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats whole rounds of the workload's operation mix for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics instead (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it (``record: {...}``) holds the run's
machine facts, seed, per-workload operation counts and derived rates.

mmudn is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import mmudn, mmudn.pointprocess, mmudn.blockage, mmudn.analytic_se, "
    "mmudn.allocation, mmudn.simulator, mmudn.cli"
)
WORKLOADS = ("mc_acceptance", "mc_all_receivers", "analytic_cli")

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "pointprocess.sample_ppp_s": "s",
    "pointprocess.associate_s": "s",
    "pointprocess.schedule_s": "s",
    "pointprocess.bs_points": "count",
    "pointprocess.active_bs": "count",
    "pointprocess.active_share": "ratio",
    "simulator.self_s": "s",
    "simulator.estimate_s": "s",
    "simulator.replications": "count",
    "simulator.reps_used": "count",
    "simulator.pool_efficiency": "ratio",
    "analytic_se.muw_bounds_us_per_point": "us",
    "analytic_se.mmw_tractable_us_per_point": "us",
    "analytic_se.mmw_integral_us_per_point": "us",
    "analytic_se.bounds_in_sweep_s": "s",
    "allocation.sweep_us_per_point": "us",
    "allocation.lp_oracle_us_per_point": "us",
    "allocation.closed_form_us_per_point": "us",
    "allocation.cl_boundary_us": "us",
    "blockage.params_ms_per_region": "ms",
    "cli.import_s": "s",
    "cli.blockage_s": "s",
    "cli.se_s": "s",
    "cli.allocate_s": "s",
}
SIMULATOR_SPANS = ("simulator.sweep_se", "simulator.estimate_se", "simulator.validate_homogenization")


def subprocess_env() -> dict:
    """Environment for child interpreters: mmudn from ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall time from process start until mmudn and all its modules are
    imported, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return dict(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        platform=platform.platform(),
        git_sha=sha,
    )


def peak_rss_mib() -> float:
    """Peak resident set of the benchmark process or of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def derived_rates(rounds) -> dict:
    """The workload's own rates: MC replications per second, or analytic grid
    points per second and the median ``mmudn`` invocation time."""
    if "blocks" in rounds[0].timings:
        blocks = [p / w for r in rounds for p, w in r.timings["blocks"]]
        cli = [w for r in rounds for w in r.timings["cli"]]
        return dict(
            analytic_points_per_s=statistics.median(blocks),
            cli_invocation_s=statistics.median(cli) if cli else None,
            cli_invocations=len(cli),
        )
    return dict(mc_replications_per_s=statistics.median(r.work / r.wall for r in rounds))


def timed_rounds(wl, seconds: float, workers: int, tracer=None) -> list:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(len(rounds), workers, tracer))
    return rounds


# ---------------------------------------------------------------------------
# Traced passes
# ---------------------------------------------------------------------------


def mc_layers(tracer, n_rounds: int) -> dict:
    bs = tracer.attr_sum("pointprocess.associate", "bs")
    active = tracer.attr_sum("pointprocess.schedule", "active")
    reps = tracer.attr_sum("simulator.estimate_se", "reps") + tracer.attr_sum(
        "simulator.validate_homogenization", "reps"
    )
    per_round = {
        "pointprocess.sample_ppp_s": tracer.total("pointprocess.sample_ppp"),
        "pointprocess.associate_s": tracer.total("pointprocess.associate"),
        "pointprocess.schedule_s": tracer.total("pointprocess.schedule"),
        "pointprocess.bs_points": bs,
        "pointprocess.active_bs": active,
        "simulator.self_s": tracer.self_time(SIMULATOR_SPANS),
        "simulator.estimate_s": tracer.total("simulator.estimate_se"),
        "simulator.replications": reps,
        "simulator.reps_used": tracer.attr_sum("simulator.estimate_se", "used"),
        "analytic_se.bounds_in_sweep_s": tracer.total("analytic_se.bounds_in_sweep"),
    }
    out = {k: v / n_rounds for k, v in per_round.items()}
    out["pointprocess.active_share"] = active / bs
    return out


def active_share_problems(tracer, workloads_mod) -> tuple[list[str], dict]:
    """muW active-BS share per replication against its closed form, within
    ``Z`` standard errors of the measured share.  Downlink replications only:
    the uplink of a point reuses the downlink's seed and so its point sets."""
    shares: dict[float, list[float]] = {}
    for s in tracer.spans:
        if s.name == "pointprocess.schedule" and s.attrs["key"][:2] == ("muw", "dl"):
            shares.setdefault(s.attrs["key"][2], []).append(s.attrs["active"] / s.attrs["bs"])
    problems, facts = [], {}
    for lhat, xs in sorted(shares.items()):
        if len(xs) < 2:
            continue
        mean, se = statistics.fmean(xs), statistics.stdev(xs) / len(xs) ** 0.5
        want = workloads_mod.active_probability(lhat)
        facts[f"active_share lhat={lhat:g}"] = dict(measured=mean, closed_form=want, ratio=mean / want, reps=len(xs))
        if abs(mean - want) > workloads_mod.Z * se:
            problems.append(f"muW active share {mean:.6g} at lhat={lhat:g} vs closed form {want:.6g} (se {se:.2g})")
    return problems, facts


def traced_mc(wl, seconds, W) -> dict:
    """Untraced round 0 with the pool and with one worker, then traced
    one-worker rounds; all must agree bit for bit."""
    tracer = Tracer()
    pooled = wl.run_round(0, W.McAcceptance.workers)
    single = wl.run_round(0, 1)
    traced = timed_rounds(wl, seconds, 1, tracer)
    problems = []
    if not pooled.outputs == single.outputs == traced[0].outputs:
        problems.append(f"{wl.name}: results differ between {W.McAcceptance.workers} workers, 1 worker and the traced run")
    share_problems, facts = active_share_problems(tracer, W)
    metrics = mc_layers(tracer, len(traced))
    metrics["simulator.pool_efficiency"] = single.wall / (W.McAcceptance.workers * pooled.wall)
    return dict(
        metrics=metrics,
        rounds=[pooled, single, *traced],
        traced=traced,
        problems=problems + share_problems,
        facts=facts,
        overhead=dict(untraced_round_s=single.wall, traced_round_s=traced[0].wall, pooled_round_s=pooled.wall),
    )


def traced_analytic(wl, seconds, reference: bool) -> dict:
    tracer = Tracer()
    untraced = [wl.run_round(0, 1)] if reference else []
    traced = timed_rounds(wl, seconds, 1, tracer)
    for _ in range(SETUP_SAMPLES):
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import mmudn.cli"], env=wl.env, check=True, timeout=120)

    def per_point(name, scale=1e6):
        return scale * tracer.total(name) / tracer.attr_sum(name, "points")

    metrics = {
        "analytic_se.muw_bounds_us_per_point": per_point("analytic_se.muw_bounds"),
        "analytic_se.mmw_tractable_us_per_point": per_point("analytic_se.mmw_tractable"),
        "analytic_se.mmw_integral_us_per_point": per_point("analytic_se.mmw_integral"),
        "allocation.sweep_us_per_point": per_point("allocation.sweep"),
        "allocation.lp_oracle_us_per_point": per_point("allocation.lp_oracle"),
        "allocation.closed_form_us_per_point": per_point("allocation.closed_form"),
        "allocation.cl_boundary_us": per_point("allocation.cl_boundary"),
        "blockage.params_ms_per_region": per_point("blockage.params", 1e3),
        **{f"cli.{k}_s": statistics.median(tracer.durations(f"cli.{k}")) for k in ("import", "blockage", "se", "allocate")},
    }
    overhead = dict(untraced_round_s=untraced[0].wall, traced_round_s=traced[0].wall) if untraced else {}
    return dict(metrics=metrics, rounds=untraced + traced, traced=traced, problems=[], facts={}, overhead=overhead)


# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, W, scratch: str):
    if name == "analytic_cli":
        return W.AnalyticCli(seed, subprocess_env(), scratch)
    return {"mc_acceptance": W.McAcceptance, "mc_all_receivers": W.McAllReceivers}[name](seed)


def run(args, scratch: str) -> tuple[dict, dict]:
    import workloads as W

    import mmudn

    if Path(mmudn.__file__).resolve().parent != (SRC / "mmudn").resolve():
        raise SystemExit(f"perfbench: imported mmudn from {mmudn.__file__}, not from {SRC}")
    wl = make_workload(args.workload, args.seed, W, scratch)
    record = dict(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace, machine=machine_facts())
    if not args.trace:
        rounds = timed_rounds(wl, args.seconds, wl.workers)
        problems, facts = wl.check_run(rounds)
        metrics = {"round_s": statistics.median(r.wall for r in rounds)}
        extra_problems = []
    else:
        if isinstance(wl, W.AnalyticCli):
            primary = traced_analytic(wl, args.seconds, reference=True)
            census_wl = W.McAllReceivers(args.seed)
            census = traced_mc(census_wl, 0, W)
        else:
            primary = traced_mc(wl, args.seconds, W)
            census_wl = W.AnalyticCli(args.seed, subprocess_env(), scratch)
            census = traced_analytic(census_wl, 0, reference=False)
        rounds = primary["rounds"]
        problems, facts = wl.check_run(primary["traced"])
        problems += primary["problems"]
        extra_problems = census["problems"] + [
            f"census {census_wl.name}: {p}" for r in census["rounds"] for p in r.problems + r.errors
        ]
        if isinstance(census_wl, W.AnalyticCli):
            extra_problems += census_wl.reference_problems
        facts.update(primary["facts"], **{f"census {k}": v for k, v in census["facts"].items()})
        metrics = {**census["metrics"], **primary["metrics"]}
        record.update(
            traced_rounds=len(primary["traced"]),
            census=dict(workload=census_wl.name, rounds=len(census["traced"])),
            tracing_overhead=primary["overhead"],
        )
    problems += [p for r in rounds for p in r.problems] + extra_problems
    record.update(
        rounds=len(rounds),
        round_walls_s=[r.wall for r in rounds],
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        failures=sorted({e for r in rounds for e in r.errors}),
        problems=problems[:50],
        rates=derived_rates(rounds),
        facts=facts,
    )
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mmudn" / "__init__.py").is_file():
        print(f"perfbench: no mmudn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = measure_setup(subprocess_env())
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        record, metrics = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        metrics.update(setup_s=statistics.median(setup), peak_rss_mib=peak_rss_mib())
    record["setup_samples_s"] = setup
    units = PER_LAYER if args.trace else END_TO_END
    result = dict(
        correct=not record["problems"],
        attempted=record["attempted"],
        failed=record["failed"],
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    for line in record["problems"]:
        print(f"problem: {line}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
