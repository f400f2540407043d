"""Re-measure the reference figures quoted in perfbench/README.md.

Run from the repository root:

    python3 perfbench/reference.py

Prints Markdown tables: time per Monte Carlo replication (and the share
spent in ``associate_strongest``), time per analytic grid point or call,
and wall time of fresh interpreters and ``mmudn`` subcommands.  Every
figure is a median over a few repetitions on the machine it runs on.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import mmudn.simulator as sim  # noqa: E402
from mmudn import allocation as alc  # noqa: E402
from mmudn import analytic_se as ase  # noqa: E402
from mmudn import blockage as blk  # noqa: E402

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from run import subprocess_env  # noqa: E402
from spans import Tracer  # noqa: E402


def per_replication(tier, lhat, side, reps, all_rx=False):
    """(ms per replication, associate share, pointprocess share) over ``reps``
    one-worker replications."""
    tracer = Tracer()
    cfg = W._sim_config(tier, "dl", lhat, side, reps, 202, 1, all_rx=all_rx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.patched(sim, W.simulator_hooks(tracer)):
            start = time.perf_counter()
            sim.estimate_se(cfg)
            wall = time.perf_counter() - start
    point = sum(tracer.total(n) for n in ("pointprocess.sample_ppp", "pointprocess.associate", "pointprocess.schedule"))
    return 1e3 * wall / reps, tracer.total("pointprocess.associate") / wall, point / wall


def per_point(fn, items, repeat=5):
    """Median microseconds per item of ``fn`` over ``items``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for x in items:
            fn(x)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / len(items)


def wall(args, repeat=5):
    env = subprocess_env()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    print("| Monte Carlo, one worker | per replication | associate_strongest | pointprocess |")
    print("|---|---|---|---|")
    for tier, lhat, side, reps in (("muw", 1000.0, 150.0, 12), ("muw", 100.0, 200.0, 40), ("muw", 10.0, 316.0, 120), ("mmw", 1000.0, 60.0, 100)):
        ms, assoc, point = per_replication(tier, lhat, side, reps)
        print(f"| {tier} lhat={lhat:g} | {ms:.1f} ms | {100 * assoc:.0f} % | {100 * point:.0f} % |")
    ms, assoc, point = per_replication("muw", 10.0, W.McAllReceivers.SIDE, 4, all_rx=True)
    print(f"| muw lhat=10, all receivers | {ms:.0f} ms | {100 * assoc:.1f} % | {100 * point:.1f} % |")

    lam_u = W.NET["lambda_u"]
    common = {k: v for k, v in W.NET.items() if k != "lambda_u"}
    grid = [float(x) for x in np.logspace(math.log10(1.05), 4, 200)]
    params = [ase.NetworkParams(lambda_m=g * lam_u, lambda_u=lam_u, **common) for g in grid]
    template = ase.NetworkParams(lambda_m=1e-2, lambda_u=lam_u, **common)
    spectrum = alc.SpectrumParams(**W.SPECTRUM)
    regions = [blk.BuildingStats(*rec["stats"]) for rec in oracles.PUBLISHED_REGIONS.values()]
    rows = [
        ("mmW integral bounds", per_point(ase.se_mmw_bounds_integral, params), "us/pt"),
        ("mmW tractable bounds", per_point(ase.se_mmw_bounds_tractable, params), "us/pt"),
        ("muW bounds", per_point(lambda g: ase.se_muw_bounds(g, 4.0), grid), "us/pt"),
        ("sweep_allocation", per_point(lambda _: alc.sweep_allocation(grid, template, spectrum), [0]) / len(grid), "us/pt"),
        ("lp_oracle", per_point(lambda p: alc.lp_oracle(p, spectrum), params), "us/pt"),
        ("optimal_allocation", per_point(lambda p: alc.optimal_allocation(p, spectrum), params), "us/pt"),
        ("cl_boundary", per_point(lambda _: alc.cl_boundary(template, spectrum), range(50)), "us/call"),
        ("blockage_params", per_point(blk.blockage_params, regions) / 1e3, "ms/region"),
    ]
    print("\n| Analytic call | time |")
    print("|---|---|")
    for name, value, unit in rows:
        print(f"| {name} | {value:.3g} {unit} |")

    py = sys.executable
    print("\n| Fresh process | wall time |")
    print("|---|---|")
    for name, args in (
        ("bare interpreter", [py, "-c", "pass"]),
        ("import numpy", [py, "-c", "import numpy"]),
        ("import mmudn.cli", [py, "-c", "import mmudn.cli"]),
        ("mmudn blockage", [py, "-m", "mmudn.cli", "blockage"]),
        ("mmudn se (mmW, 3 points)", [py, "-m", "mmudn.cli", "se", "--set", "tier=mmw"]),
        ("mmudn allocate (3 points)", [py, "-m", "mmudn.cli", "allocate"]),
    ):
        print(f"| {name} | {wall(args):.2f} s |")


if __name__ == "__main__":
    main()
