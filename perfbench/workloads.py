"""The benchmark's three workloads.

Each workload repeats whole rounds of one fixed operation mix.  Round ``r``
of a run with seed ``s`` draws its Monte Carlo master seeds from
``SeedSequence([s, workload, r])``; the analytic grids are jittered from
``s`` once per run.  An operation that raises counts as failed; an output
that disagrees with an independent oracle (``oracles.py``) or breaks a
property the method must have is a correctness problem.

Statistical properties are tested as hypotheses on estimates pooled over
all rounds of the run: a check fails only when the data contradict the
property by more than ``Z`` standard errors, so it neither flakes from seed
to seed nor needs a minimum run length.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import mmudn.simulator as sim
from mmudn import allocation as alc
from mmudn import analytic_se as ase
from mmudn import blockage as blk
from mmudn.analytic_se import NetworkParams
from mmudn.cli import read_output_csv
from mmudn.pointprocess import Window

import oracles

Z = 4.0
MC_LAMBDA_U = 0.01
MMW_THETA = math.radians(15.0)
MMW_R_LOS = 10.0


@dataclass
class Round:
    """What one round did: its wall time, the work units it completed (MC
    replications or analytic grid points), its operation counts, outputs for
    the cross-run identity checks, and per-kind timings."""

    wall: float = 0.0
    work: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def attempt(rnd: Round, label: str, fn):
    """Run one operation; a raised exception counts it as failed."""
    rnd.attempted += 1
    try:
        return fn()
    except Exception as exc:  # an operation that fails is counted, not fatal
        rnd.failed += 1
        rnd.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def round_seed(seed: int, workload: int, rnd: int) -> int:
    return int(np.random.SeedSequence([seed, workload, rnd]).generate_state(1)[0])


def pool(parts):
    """Pool (mean, ci_half_width, n) estimates into (mean, standard error, n).

    The per-part standard deviation is recovered from the 95% half-width the
    simulator reports; parts with n = 0 carry no data.
    """
    parts = [p for p in parts if p[2] > 0]
    total = sum(n for _, _, n in parts)
    if total < 2:
        return None
    mean = sum(m * n for m, _, n in parts) / total
    ss = sum((n - 1) * (ci * math.sqrt(n) / 1.96) ** 2 + n * (m - mean) ** 2 for m, ci, n in parts)
    return mean, math.sqrt(ss / (total - 1) / total), total


def active_probability(lhat: float) -> float:
    """Closed-form share of BSs with at least one user, 1 - (1 + 1/(3.5 lhat))^-3.5."""
    return 1.0 - (1.0 + 1.0 / (3.5 * lhat)) ** -3.5


def _sim_config(tier, direction, lhat, side, reps, seed, workers, lambda_u=MC_LAMBDA_U, all_rx=False):
    if tier == "muw":
        params = NetworkParams(lambda_m=2 * lambda_u, lambda_mu=lhat * lambda_u, lambda_u=lambda_u, alpha_mu=4.0)
    else:
        params = NetworkParams(
            lambda_m=lhat * lambda_u, lambda_mu=2 * lambda_u, lambda_u=lambda_u,
            alpha_m=2.5, theta=MMW_THETA, r_los=MMW_R_LOS,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sim.SimConfig(
            params=params,
            window=Window(side) if side else None,
            replications=reps,
            fading_draws=20,
            master_seed=seed,
            tier=tier,
            direction=direction,
            average_all_receivers=all_rx,
            workers=workers,
        )


def _config_key(args) -> dict:
    cfg = args[0]
    return {"key": (cfg.tier, cfg.direction, cfg.lambda_hat)}


def simulator_hooks(tracer) -> dict:
    """Spans around the public functions ``mmudn.simulator`` calls, as
    ``attr: (span name, start attrs from the call's args, after)``."""

    def associated(span, args, out):
        span.attrs.update(bs=len(args[1]), key=tracer.enclosing("key"))

    def scheduled(span, args, out):
        span.attrs.update(bs=out.n_bs, active=int(out.active_bs.size), key=tracer.enclosing("key"))

    def estimated(span, args, out):
        span.attrs.update(reps=args[0].replications, used=out.n)

    def homogenized(span, args, out):
        span.attrs.update(reps=args[0].replications)

    return {
        "sample_ppp": ("pointprocess.sample_ppp", None, None),
        "associate_strongest": ("pointprocess.associate", None, associated),
        "schedule_active": ("pointprocess.schedule", None, scheduled),
        "sweep_se": ("simulator.sweep_se", None, None),
        "estimate_se": ("simulator.estimate_se", _config_key, estimated),
        "validate_homogenization": ("simulator.validate_homogenization", _config_key, homogenized),
        "se_mmw_bounds_integral": ("analytic_se.bounds_in_sweep", None, None),
        "se_muw_bounds": ("analytic_se.bounds_in_sweep", None, None),
    }


def _expected_bounds(tier: str, params: NetworkParams) -> tuple[float, float]:
    if tier == "muw":
        lower, upper, _ = oracles.muw_bounds(params.lambda_hat_mu, params.alpha_mu)
    else:
        lower, upper = oracles.mmw_integral(
            params.lambda_hat_m, params.lambda_m, params.alpha_m, params.theta, params.r_los
        )
    return max(0.0, lower), max(0.0, upper)


class MonteCarlo:
    """A Monte Carlo workload: ``sweep_se`` points (plus the extra operations
    a subclass adds), every point a (tier, direction, lhat, side, reps)."""

    name = ""
    index = 0
    points: tuple = ()
    all_receivers = False
    workers = 1

    def __init__(self, seed: int):
        self.seed = seed

    def run_round(self, r: int, workers: int, tracer=None) -> Round:
        """One round; with a tracer, the simulator's calls into the layers
        below it are spanned for the duration of the round."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small criterion windows warn about boundary variance
            with tracer.patched(sim, simulator_hooks(tracer)) if tracer else nullcontext():
                return self._round(r, workers)

    def _round(self, r: int, workers: int) -> Round:
        rnd = Round()
        seed = round_seed(self.seed, self.index, r)
        start = time.perf_counter()
        for tier, direction, lhat, side, reps in self.points:
            cfg = _sim_config(tier, direction, lhat, side, reps, seed, workers, all_rx=self.all_receivers)
            label = f"{tier} {direction} lhat={lhat:g}"
            rows = attempt(rnd, label, lambda: sim.sweep_se([lhat], cfg))
            rnd.work += reps
            if rows is not None:
                try:
                    self._check_row(rnd, label, rows, cfg, tier, direction, lhat)
                except (KeyError, TypeError) as exc:
                    rnd.problems.append(f"{label}: malformed row: {exc!r}")
        self.extra_ops(rnd, seed, workers)
        rnd.wall = time.perf_counter() - start
        return rnd

    def extra_ops(self, rnd: Round, seed: int, workers: int) -> None:
        pass

    def _check_row(self, rnd, label, rows, cfg, tier, direction, lhat):
        if len(rows) != 1:
            rnd.problems.append(f"{label}: sweep_se returned {len(rows)} rows for one point")
            return
        row = rows[0]
        rnd.outputs.append(tuple(repr(row[k]) for k in sim.SE_CSV_HEADER))
        if (row["tier"], row["direction"], row["lambda_hat"]) != (tier, direction, lhat):
            rnd.problems.append(f"{label}: row labelled {row['tier']} {row['direction']} {row['lambda_hat']}")
        mean, ci, free = row["se_mean"], row["se_ci"], row["interference_free_fraction"]
        if not (math.isfinite(mean) and mean >= 0 and math.isfinite(ci) and ci >= 0 and 0 <= free <= 1):
            rnd.problems.append(f"{label}: invalid estimate mean={mean} ci={ci} free={free}")
            return
        density = "lambda_m" if tier == "mmw" else "lambda_mu"
        params = replace(cfg.params, **{density: lhat * MC_LAMBDA_U})
        lower, upper = _expected_bounds(tier, params)
        tol = 1e-12 if tier == "muw" else 5e-6
        if not (oracles.rel_close(row["lower_bound"], lower, tol, tol) and oracles.rel_close(row["upper_bound"], upper, tol, tol)):
            rnd.problems.append(
                f"{label}: bounds [{row['lower_bound']:.9g}, {row['upper_bound']:.9g}] "
                f"!= reference [{lower:.9g}, {upper:.9g}]"
            )
        # No replication of these configurations can lack an active BS, so the
        # used count follows from the interference-free share.
        n = round(cfg.replications * (1.0 - free))
        rnd.estimates.setdefault((tier, direction, lhat), []).append((mean, ci, n))

    def check_run(self, rounds: list[Round]) -> tuple[list[str], dict]:
        return [], {}


class McAcceptance(MonteCarlo):
    """Monte Carlo configurations of acceptance criteria 2, 3 and 5, with two
    fixed sparse mmW points that expose the silent-zero estimate."""

    name = "mc_acceptance"
    index = 0
    workers = min(2, os.cpu_count() or 1)
    # (lhat, window side m, replications per round); criterion 2's windows.
    # Replication counts are multiples of 16 so that both workers get work
    # (the simulator hands replications to its pool in chunks of 8).
    MUW = ((10.0, 316.0, 48), (100.0, 200.0, 16), (1000.0, 150.0, 16))
    MMW = ((10.0, 100.0, 208), (100.0, 100.0, 96), (1000.0, 60.0, 48))
    points = tuple(
        (tier, direction, lhat, side, reps)
        for tier, grid in (("muw", MUW), ("mmw", MMW))
        for lhat, side, reps in grid
        for direction in ("dl", "ul")
    )
    HOMOGENIZATION_REPS = 40  # criterion 5: 15 m window, 22,500 expected BSs at lhat = 100
    SILENT_ZERO = ((2.0, 300), (5.0, 300))
    SILENT_ZERO_SEED = 0  # fixed: these operations must fail the same way on every seed

    def extra_ops(self, rnd: Round, seed: int, workers: int) -> None:
        params = NetworkParams(lambda_m=1.0, lambda_mu=100.0, lambda_u=1.0, r_los=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = sim.SimConfig(
                params=params, window=Window(15.0), replications=self.HOMOGENIZATION_REPS,
                master_seed=seed, tier="muw", direction="dl", workers=workers,
            )
        out = attempt(rnd, "homogenization", lambda: sim.validate_homogenization(cfg))
        rnd.work += cfg.replications
        if out is not None:
            rnd.outputs.append(repr(out["ratio"]))
            if not (math.isfinite(out["ratio"]) and out["ratio"] > 0):
                rnd.problems.append(f"homogenization ratio {out['ratio']}")
            rnd.estimates.setdefault("homogenization", []).append(out["ratio"])
        for lhat, reps in self.SILENT_ZERO:
            cfg = _sim_config("mmw", "dl", lhat, None, reps, self.SILENT_ZERO_SEED, workers, lambda_u=1e-3)
            label = f"sparse mmw lhat={lhat:g}"
            est = attempt(rnd, label, lambda: sim.estimate_se(cfg))
            rnd.work += reps
            if est is None:
                continue
            rnd.outputs.append((repr(est.mean), repr(est.ci_half_width), est.n))
            if math.isfinite(est.mean) and est.n < 2:
                # A finite mean from fewer than two used replications is the
                # silent-zero fault: the number claims a measurement.
                rnd.failed += 1
                rnd.errors.append(f"{label}: finite mean {est.mean:.6g} from n={est.n} replications")

    def check_run(self, rounds):
        problems, facts = [], {}
        pooled = {}
        for key in {k for r in rounds for k in r.estimates if k != "homogenization"}:
            pooled[key] = pool([e for r in rounds for e in r.estimates.get(key, [])])
            if pooled[key] is not None:
                facts[f"{key[0]} {key[1]} lhat={key[2]:g}"] = dict(
                    mean=pooled[key][0], se=pooled[key][1], n=pooled[key][2]
                )
        for tier, grid in (("muw", self.MUW), ("mmw", self.MMW)):
            for direction in ("dl", "ul"):
                seq = [(lhat, pooled.get((tier, direction, lhat))) for lhat, _, _ in grid]
                for (l1, a), (l2, b) in zip(seq, seq[1:]):
                    if a is None or b is None:
                        continue
                    if b[0] - a[0] < -Z * math.hypot(a[1], b[1]):
                        problems.append(
                            f"{tier} {direction}: SE falls from {a[0]:.3f} at lhat={l1:g} "
                            f"to {b[0]:.3f} at lhat={l2:g}"
                        )
        for lhat, _, _ in self.MMW:
            params = NetworkParams(
                lambda_m=lhat * MC_LAMBDA_U, lambda_mu=2 * MC_LAMBDA_U, lambda_u=MC_LAMBDA_U,
                alpha_m=2.5, theta=MMW_THETA, r_los=MMW_R_LOS,
            )
            lower, upper = _expected_bounds("mmw", params)
            for direction in ("dl", "ul"):
                est = pooled.get(("mmw", direction, lhat))
                if est is None:
                    continue
                mean, se, _ = est
                if mean + Z * se < lower - 0.3 or mean - Z * se > upper + 0.3:
                    problems.append(
                        f"mmw {direction} lhat={lhat:g}: SE {mean:.3f} +- {Z * se:.3f} misses "
                        f"[{lower - 0.3:.3f}, {upper + 0.3:.3f}]"
                    )
        ratios = [x for r in rounds for x in r.estimates.get("homogenization", [])]
        if ratios:
            ratio = statistics.fmean(ratios)
            facts["homogenization_ratio"] = ratio
            if not 0.95 <= ratio <= 1.05:
                problems.append(f"homogenization ratio {ratio:.4f} outside [0.95, 1.05]")
        return problems, facts


class McAllReceivers(MonteCarlo):
    """Every scheduled receiver averaged at lhat = 10 with ~1,000 expected users."""

    name = "mc_all_receivers"
    index = 1
    workers = 1
    all_receivers = True
    SIDE = 316.2  # ~1,000 expected users at lambda_u = 0.01
    REPS = 2
    points = (
        ("muw", "dl", 10.0, SIDE, REPS),
        ("muw", "ul", 10.0, SIDE, REPS),
        ("mmw", "dl", 10.0, SIDE, REPS),
        ("mmw", "ul", 10.0, SIDE, REPS),
    )
    TYPICAL_REPS = 800

    def check_run(self, rounds):
        """The mmW all-receiver mean must agree with a typical-receiver estimate
        of the same configuration.  The muW pair is left out: there the
        nearest-to-centre anchor is biased (see CHANGES.md)."""
        problems, facts = [], {}
        seed = round_seed(self.seed, self.index, 20_000)
        for direction in ("dl", "ul"):
            every = pool([e for r in rounds for e in r.estimates.get(("mmw", direction, 10.0), [])])
            cfg = _sim_config("mmw", direction, 10.0, self.SIDE, self.TYPICAL_REPS, seed, McAcceptance.workers)
            try:
                typical = sim.estimate_se(cfg)
            except Exception as exc:  # reported as a failed check, not a crash
                problems.append(f"mmw {direction} typical-receiver estimate: {type(exc).__name__}: {exc}")
                continue
            if every is None or typical.n < 2:
                continue
            se_typ = typical.ci_half_width / 1.96
            facts[f"mmw {direction} all vs typical"] = dict(
                all=every[0], all_se=every[1], typical=typical.mean, typical_se=se_typ, typical_n=typical.n
            )
            if abs(every[0] - typical.mean) > Z * math.hypot(every[1], se_typ):
                problems.append(
                    f"mmw {direction}: all-receiver SE {every[0]:.3f} vs typical {typical.mean:.3f} "
                    f"differ by more than {Z:g} standard errors"
                )
        return problems, facts


# ---------------------------------------------------------------------------
# Analytic grids and the CLI
# ---------------------------------------------------------------------------

NET = dict(lambda_u=1e-4, lambda_mu=2e-4, alpha_m=2.5, alpha_mu=4.0, theta=math.pi / 12, r_los=49.61)
SPECTRUM = dict(w_m=500e6, w_mu_band=20e6, w_m_ul=100e6, zeta=0.25)
CRITERION_6 = [(w_m, zeta, r_los) for w_m, zeta in ((500e6, 0.25), (1e9, 0.5)) for r_los in (33.33, 49.61)]


def run_cli(args: list[str], env: dict) -> float:
    """Run one ``mmudn`` subprocess; returns its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mmudn.cli", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall


def _g10(x: float) -> float:
    return float(f"{x:.10g}")


class AnalyticCli:
    """Closed-form grids in-process and the analytic ``mmudn`` subcommands as
    fresh subprocesses; no simulator or point-process work."""

    name = "analytic_cli"
    index = 2
    workers = 1
    BLOCKS = 4  # in-process grid passes per round

    def __init__(self, seed: int, env: dict, scratch: str):
        self.seed = seed
        self.env = env
        self.scratch = scratch
        rng = np.random.default_rng([seed, self.index])
        lo, hi = 1.05 * (1 + 0.02 * rng.random()), 1e4 * (1 + 0.02 * rng.random())
        self.grid = [float(x) for x in np.logspace(math.log10(lo), math.log10(hi), 200)]
        lam_u = NET["lambda_u"]
        common = dict(lambda_mu=NET["lambda_mu"], lambda_u=lam_u, alpha_m=NET["alpha_m"], alpha_mu=NET["alpha_mu"], theta=NET["theta"], r_los=NET["r_los"])
        self.mmw_params = [NetworkParams(lambda_m=g * lam_u, **common) for g in self.grid]
        self.template = NetworkParams(lambda_m=1e-2, **common)
        self.spectrum = alc.SpectrumParams(**SPECTRUM)
        grid6 = np.logspace(math.log10(1.05 * (1 + 0.02 * rng.random())), 4, 200)
        self.lp_cases = []
        for w_m, zeta, r_los in CRITERION_6:
            spectrum = alc.SpectrumParams(w_m=w_m, w_mu_band=20e6, w_m_ul=100e6, zeta=zeta)
            for lhat in grid6:
                params = NetworkParams(lambda_m=lhat * 1e-4, lambda_mu=2e-4, lambda_u=1e-4, alpha_m=2.5, alpha_mu=4.0, r_los=r_los)
                for decoupled in (False, True):
                    self.lp_cases.append((params, spectrum, decoupled))
        self.zetas = sorted(float(z) for z in rng.uniform(0.05, 0.5, 50))
        self.cl_spectra = [alc.SpectrumParams(**{**SPECTRUM, "zeta": z}) for z in self.zetas]
        self.regions = {name: blk.BuildingStats(*rec["stats"]) for name, rec in oracles.PUBLISHED_REGIONS.items()}
        grid_csv = ",".join(repr(g) for g in self.grid)
        net_sets = [
            f"lambda_u_per_m2={lam_u!r}", f"lambda_mu_per_m2={NET['lambda_mu']!r}",
            f"alpha_m={NET['alpha_m']!r}", f"alpha_mu={NET['alpha_mu']!r}",
            f"theta_rad={NET['theta']!r}", f"r_los_m={NET['r_los']!r}", f"lambda_hat_grid={grid_csv}",
            f"w_m_hz={SPECTRUM['w_m']!r}", f"w_mu_hz={SPECTRUM['w_mu_band']!r}",
            f"w_m_ul_hz={SPECTRUM['w_m_ul']!r}", f"zeta={SPECTRUM['zeta']!r}",
        ]
        sets = [a for s in net_sets for a in ("--set", s)]
        self.commands = [
            ("blockage", ["blockage"]),
            ("se", ["se", "--set", "tier=mmw", *sets]),
            ("se", ["se", "--set", "tier=muw", *sets]),
            ("allocate", ["allocate", *sets]),
        ]
        self.groups = [
            ("analytic_se.muw_bounds", len(self.grid), lambda: [ase.se_muw_bounds(g, NET["alpha_mu"]) for g in self.grid]),
            ("analytic_se.mmw_tractable", len(self.grid), lambda: [ase.se_mmw_bounds_tractable(p) for p in self.mmw_params]),
            ("analytic_se.mmw_integral", len(self.grid), lambda: [ase.se_mmw_bounds_integral(p) for p in self.mmw_params]),
            ("allocation.sweep", len(self.grid), lambda: alc.sweep_allocation(self.grid, self.template, self.spectrum)),
            ("allocation.closed_form", len(self.lp_cases), lambda: [
                (alc.optimal_allocation_decoupled if d else alc.optimal_allocation)(p, s) for p, s, d in self.lp_cases
            ]),
            ("allocation.lp_oracle", len(self.lp_cases), lambda: [alc.lp_oracle(p, s, decoupled=d) for p, s, d in self.lp_cases]),
            ("allocation.cl_boundary", len(self.zetas), lambda: [alc.cl_boundary(self.template, s) for s in self.cl_spectra]),
            ("blockage.params", len(self.regions), lambda: [blk.blockage_params(st) for st in self.regions.values()]),
        ]
        # One untimed pass gives the values every later pass must reproduce
        # exactly; it is itself checked against the oracles.
        self.reference = None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self.reference = {name: fn() for name, _, fn in self.groups}
            self.reference_problems = self._check_reference()
        except Exception as exc:  # reported as a failed check, not a crash
            self.reference_problems = [f"reference pass: {type(exc).__name__}: {exc}"]

    # -- oracles ---------------------------------------------------------------

    def _check_reference(self) -> list[str]:
        ref, problems = self.reference, []
        a_mu = NET["alpha_mu"]
        for g, b in zip(self.grid, ref["analytic_se.muw_bounds"]):
            lo, up, asym = oracles.muw_bounds(g, a_mu)
            if lo > up:
                problems.append(f"muW bounds invert at lhat={g:.6g}")
            if not all(oracles.rel_close(x, max(0.0, y), 1e-12, 1e-12) for x, y in ((b.lower, lo), (b.upper, up), (b.asymptotic, asym))):
                problems.append(f"muW bounds at lhat={g:.6g}: {b} vs closed form ({lo}, {up}, {asym})")
        for p, b, bi in zip(self.mmw_params, ref["analytic_se.mmw_tractable"], ref["analytic_se.mmw_integral"]):
            args = (p.lambda_hat_m, p.lambda_m, p.alpha_m, p.theta, p.r_los)
            lo, up, asym = oracles.mmw_tractable(*args)
            if max(0.0, lo) > max(0.0, up):
                problems.append(f"mmW tractable bounds invert at lhat={args[0]:.6g}")
            if not all(oracles.rel_close(x, max(0.0, y), 1e-12, 1e-12) for x, y in ((b.lower, lo), (b.upper, up), (b.asymptotic, asym))):
                problems.append(f"mmW tractable bounds at lhat={args[0]:.6g}: {b} vs closed form ({lo}, {up})")
            lo, up = oracles.mmw_integral(*args)
            if max(0.0, lo) > max(0.0, up):
                problems.append(f"mmW integral bounds invert at lhat={args[0]:.6g}")
            if not (abs(bi.lower - max(0.0, lo)) <= 5e-6 and abs(bi.upper - max(0.0, up)) <= 5e-6):
                problems.append(f"mmW integral bounds at lhat={args[0]:.6g}: [{bi.lower}, {bi.upper}] vs quadrature [{lo}, {up}]")

        def case(params, spectrum, decoupled):
            g = oracles.gammas(params.lambda_hat_m, params.lambda_hat_mu, params.lambda_m, params.r_los, params.alpha_m, params.alpha_mu, decoupled)
            return (*g, spectrum.w_m, spectrum.w_mu_band, spectrum.w_m_ul, spectrum.zeta)

        lp = oracles.lp_optima([case(*c) for c in self.lp_cases])
        for (params, _, dec), (bm, bmu, rd), cf, (lp_alloc, lp_rd) in zip(
            self.lp_cases, lp, ref["allocation.closed_form"], ref["allocation.lp_oracle"]
        ):
            for label, a, r in (("closed form", cf.allocation, cf.rate.r_d), ("lp_oracle", lp_alloc, lp_rd)):
                if abs(a.beta_m - bm) > 1e-6 or abs(a.beta_mu - bmu) > 1e-6 or not oracles.rel_close(r, rd, 1e-6):
                    problems.append(
                        f"{label} at lhat={params.lambda_hat_m:.6g}, R_L={params.r_los}, decoupled={dec}: "
                        f"({a.beta_m:.9g}, {a.beta_mu:.9g}, {r:.9g}) vs linprog ({bm:.9g}, {bmu:.9g}, {rd:.9g})"
                    )
        sweep_cases = [
            case(replace(self.template, lambda_m=g * self.template.lambda_u), self.spectrum, dec)
            for g in self.grid for dec in (False, True)
        ]
        sweep_lp = oracles.lp_optima(sweep_cases)
        zeta = self.spectrum.zeta
        for i, row in enumerate(ref["allocation.sweep"]):
            (bm, bmu, rd), (_, _, rd_dec) = sweep_lp[2 * i], sweep_lp[2 * i + 1]
            ok = (
                row["lambda_hat_m"] == self.grid[i]
                and abs(row["beta_m"] - bm) <= 1e-6 and abs(row["beta_mu"] - bmu) <= 1e-6
                and oracles.rel_close(row["r_d"], rd, 1e-6)
                and oracles.rel_close(row["r_d_decoupled"], rd_dec, 1e-6)
                and oracles.rel_close(row["gain"], row["r_d_decoupled"] / row["r_d"], 1e-12)
                and row["r_u"] >= zeta * row["r_d"] * (1 - 1e-9)
                and row["region"] in ("C_L", "C_H", "C_L+D", "C_H+D")
            )
            if not ok:
                problems.append(f"sweep_allocation row at lhat={self.grid[i]:.6g} disagrees with linprog: {row}")
        t = self.template
        for s, b in zip(self.cl_spectra, ref["allocation.cl_boundary"]):
            want = oracles.cl_boundary(t.lambda_u, t.lambda_mu, t.r_los, t.alpha_m, t.alpha_mu, s.w_m, s.w_mu_band, s.zeta)
            if not (b == want == math.inf or oracles.rel_close(b, want, 1e-7)):
                problems.append(f"cl_boundary at zeta={s.zeta:.6g}: {b} vs bisection {want}")
        for (name, rec), p in zip(oracles.PUBLISHED_REGIONS.items(), ref["blockage.params"]):
            beta, eta, r2d = oracles.blockage(rec["stats"])
            if not (oracles.rel_close(p.beta, beta, 1e-12) and abs(p.eta - eta) <= 1e-6 and oracles.rel_close(p.r_los_2d, r2d, 1e-12)):
                problems.append(f"{name}: {p} vs recomputed beta={beta}, eta={eta}, r2d={r2d}")
            if abs(p.beta - rec["beta"]) > 0.02 * rec["beta"]:
                problems.append(f"{name}: beta {p.beta:.4f} off Table I {rec['beta']} by more than 2%")
            if abs(p.r_los_2d - rec["r_los_2d"]) > 0.01 * rec["r_los_2d"]:
                problems.append(f"{name}: 2D LOS distance {p.r_los_2d:.3f} off Table I {rec['r_los_2d']} by more than 1%")
        return problems

    def _expected_cli_rows(self, args) -> tuple[list[str], list[dict]]:
        ref = self.reference
        if args[0] == "blockage":
            header = ["region", "beta", "eta", "r_los_2d_m", "r_los_3d_m"]
            rows = [
                dict(region=n, beta=p.beta, eta=p.eta, r_los_2d_m=p.r_los_2d, r_los_3d_m=p.r_los_3d)
                for n, p in zip(self.regions, ref["blockage.params"])
            ]
        elif args[0] == "se":
            tier = args[2].split("=", 1)[1]
            bounds = ref["analytic_se.mmw_integral" if tier == "mmw" else "analytic_se.muw_bounds"]
            header = ["lambda_hat", "tier", "lower_bound", "upper_bound", "asymptotic"]
            rows = [
                dict(lambda_hat=g, tier=tier, lower_bound=b.lower, upper_bound=b.upper, asymptotic=b.asymptotic)
                for g, b in zip(self.grid, bounds)
            ]
        else:
            header = alc.SWEEP_CSV_HEADER
            ln2 = math.log(2.0)
            rows = [
                {**r, "r_d_bits": r["r_d"] / ln2, "r_u_bits": r["r_u"] / ln2, "r_d_decoupled_bits": r["r_d_decoupled"] / ln2}
                for r in ref["allocation.sweep"]
            ]
        return header, [{k: (_g10(r[k]) if isinstance(r[k], float) else r[k]) for k in header} for r in rows]

    # -- rounds ----------------------------------------------------------------

    def run_round(self, r: int, workers: int, tracer=None) -> Round:
        rnd = Round(timings={"blocks": [], "cli": []})
        start = time.perf_counter()
        for _ in range(self.BLOCKS):
            block_start = time.perf_counter()
            for name, points, fn in self.groups:
                with (tracer.span(name, points=points) if tracer else nullcontext()):
                    out = attempt(rnd, name, fn)
                if out is not None and self.reference and out != self.reference[name]:
                    rnd.problems.append(f"{name}: output differs from the first pass")
                rnd.work += points
            rnd.timings["blocks"].append((sum(p for _, p, _ in self.groups), time.perf_counter() - block_start))
        for kind, args in self.commands:
            path = os.path.join(self.scratch, f"{kind}.csv")
            with (tracer.span(f"cli.{kind}") if tracer else nullcontext()):
                wall = attempt(rnd, f"mmudn {' '.join(args[:3])}", lambda: run_cli([*args, "--output", path], self.env))
            if wall is None:
                continue
            rnd.timings["cli"].append(wall)
            if self.reference:
                self._check_cli(rnd, args, path)
        rnd.wall = time.perf_counter() - start
        return rnd

    def _check_cli(self, rnd: Round, args, path) -> None:
        header, want = self._expected_cli_rows(args)
        try:
            _, rows = read_output_csv(path)
        except OSError as exc:
            rnd.problems.append(f"mmudn {args[0]}: no output: {exc}")
            return
        if not rows or list(rows[0]) != list(header):
            rnd.problems.append(f"mmudn {args[0]}: columns {list(rows[0]) if rows else []} != {header}")
            return
        if rows != want:
            bad = next(i for i, (a, b) in enumerate(zip(rows + [None] * len(want), want)) if a != b)
            rnd.problems.append(f"mmudn {' '.join(args[:3])}: row {bad} {rows[bad] if bad < len(rows) else None} != in-process {want[bad]}")

    def check_run(self, rounds):
        return list(self.reference_problems), {}
