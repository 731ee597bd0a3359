#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the upcell CLI.

    python3 upbench/run.py --workload mixture --seed 7 --seconds 15 --trace 0

Runs one workload's job -- a fixed sequence of CLI verbs, called in
process through ``upcell.cli.main`` -- in whole repetitions until
``--seconds`` have passed.  Outside the timed region it checks every
output against the benchmark's own mpmath oracle (``oracle.py``) and
statistical gates, then prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced jobs with jobs traced through the
wrappers in ``spans.py`` and reports the per-layer metrics; the spans of
the first traced job go to ``.upbench_runs/<workload>/trace.csv``.

The package is imported from ``src/`` next to this directory; outputs go
to ``.upbench_runs/<workload>/``.  See README.md.
"""

from __future__ import annotations

import os

# BLAS single-threaded, before numpy is first imported: the two Monte
# Carlo workers must not each start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".upbench_runs"

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mib": "MiB"}
# every traced run reports every one of these, 0 where its job does not
# reach the layer; figures are per job
PER_LAYER = {
    "cli.analyze_ms": "ms", "cli.sweep_ms": "ms", "cli.optimize_ms": "ms",
    "cli.simulate_ms": "ms", "cli.self_ms": "ms", "cli.extra_reports": "count",
    "model.load_ms": "ms",
    "optimize.sweep_ms": "ms", "optimize.grid_points": "count",
    "optimize.grid_failed": "count", "optimize.refine_ms": "ms",
    "optimize.refine_evals": "count", "optimize.self_ms": "ms",
    "analytic.full_report_ms": "ms", "analytic.sinr_outage_ms": "ms",
    "analytic.spectral_efficiency_ms": "ms",
    "analytic.spectral_efficiency_calls": "count",
    "analytic.moment_cache_hit_ratio": "ratio", "analytic.self_ms": "ms",
    "specfun.tail_calls": "count", "specfun.tail_ms": "ms",
    "specfun.quad_calls": "count", "specfun.interval_calls": "count",
    "specfun.integrand_evals": "count", "specfun.self_ms": "ms",
    "montecarlo.realization_ms": "ms", "montecarlo.ppp_ms": "ms",
    "montecarlo.kdtree_build_ms": "ms", "montecarlo.kdtree_query_ms": "ms",
    "montecarlo.kdtree_points": "count", "montecarlo.other_ms": "ms",
    "montecarlo.self_ms": "ms", "montecarlo.batches": "count",
    "montecarlo.ue_drawn": "count", "montecarlo.ue_kept_ratio": "ratio",
    "montecarlo.bs_count": "count", "montecarlo.discarded": "count",
    "montecarlo.discard_ms": "ms", "montecarlo.parallel_speedup": "ratio",
    "trace.overhead_ms": "ms",
}

SETUP_REPEATS = 7
SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import upcell\n"
    "for p in sys.argv[2:]:\n"
    "    upcell.network_from_mapping(json.loads(open(p).read()))\n"
)
GRID_ARGS = ["--from", oracle.GRID[0], "--to", oracle.GRID[1], "--steps", oracle.GRID[2],
             "--tier", oracle.SWEPT_TIER]
MC_ITERATIONS = {"mc_slack": 200, "mc_two_tier": 100}
MC_WORKERS = 2
# two-sided level of the statistical gates on Monte Carlo output
GATE_LEVEL = 0.999
GATE_Z = 3.2905267314919255  # standard normal quantile at 1 - (1 - 0.999)/2
# on the mixture config, upcell fails every sweep point at or below this
# tier-0 cutoff: QuadratureError at -108..-106 dBm, collapsed power moments
# (wrong R and E[P]) below; see README.md
MIXTURE_FAULT_DBM = -106.0


class Checks:
    """Failed output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def run_verb(argv: list) -> tuple[float, int]:
    """One CLI invocation in process; returns (seconds, exit code)."""
    from upcell import analytic, cli

    # a new output file, because truncating a just-written one makes ext4
    # write it back first (about 100 ms a file on a virtual disk)
    output = Path(argv[argv.index("--output") + 1])
    for path in (output, output.with_name(output.name + ".manifest.json")):
        path.unlink(missing_ok=True)
    # every CLI process starts with an empty moment cache
    analytic._fractional_moment.cache_clear()
    sink = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    return perf_counter() - t0, code


# --- workloads ---------------------------------------------------------------


class Analytic:
    """Job: analyze, sweep (total_outage) and optimize (effective_rate) on
    one config.  Operations: each analyze row and each sweep and optimize
    row, grid points and optimum alike."""

    def __init__(self, name: str):
        self.name = name
        self.config = BENCH / "configs" / f"{name}.json"
        self.mapping = json.loads(self.config.read_text())
        self.files = [OUT / name / f"{v}.csv" for v in ("analyze", "sweep", "optimize")]
        self.ops_per_job = len(self.mapping["tiers"]) + 2 * (oracle.GRID[2] + 1)

    def outputs(self, job: int) -> list[Path]:
        """Every job has the same inputs and must write the same bytes."""
        return self.files

    def verbs(self, seed: int, job: int) -> list[tuple[str, list]]:
        cfg = ["--config", self.config]
        analyze, sweep, optimize = self.files
        return [
            ("analyze", ["analyze", *cfg, "--output", analyze]),
            ("sweep", ["sweep", *cfg, "--output", sweep, *GRID_ARGS,
                       "--objective", "total_outage"]),
            ("optimize", ["optimize", *cfg, "--output", optimize, *GRID_ARGS,
                          "--objective", "effective_rate", "--tol-db", "0.01"]),
        ]

    def known_fault(self, rho_dbm: float) -> bool:
        return self.name == "mixture" and rho_dbm <= MIXTURE_FAULT_DBM

    def check(self, seed: int, jobs: int, checks: Checks) -> int:
        """Check the CSVs, which every job reproduced byte for byte;
        returns how many operations failed in each job."""

        table = json.loads((BENCH / "oracle_table.json").read_text())
        checks.require(table["grid_dbm"] == list(oracle.GRID),
                       "oracle table was built for another grid")
        expected = table["values"][self.name]
        analyze, sweep, optimize = self.files
        failed = 0

        rows = read_rows(analyze)
        checks.require(len(rows) == len(self.mapping["tiers"]),
                       f"analyze wrote {len(rows)} rows")
        for row in rows:
            check_row(row, expected["analyze"][int(row["tier"])],
                      f"analyze tier {row['tier']}", checks)

        grids = []
        for path, objective in ((sweep, "total_outage"), (optimize, "effective_rate")):
            verb = path.stem
            rows = read_rows(path)
            grid = {f"{float(r['rho_o_dbm']):g}": r for r in rows if r["is_optimum"] == "0"}
            grids.append({k: metric_values(r) for k, r in grid.items()})
            good = []
            for key, want in expected["sweep"].items():
                row = grid.get(key)
                if self.known_fault(float(key)) and (row is None or not row_matches(row, want)):
                    failed += 1
                elif checks.require(row is not None, f"{verb} {key} dBm: row missing"):
                    check_row(row, want, f"{verb} {key} dBm", checks)
                    good.append(row)
            check_identities(rows, verb, checks)
            good.sort(key=lambda r: float(r["rho_o_dbm"]))
            check_monotone(good, verb, checks)
            stars = [r for r in rows if r["is_optimum"] == "1"]
            if checks.require(len(stars) == 1, f"{verb}: {len(stars)} optimum rows"):
                self.check_optimum(stars[0], good, verb, objective, expected, checks)
        checks.require(grids[0] == grids[1], "sweep and optimize grid rows differ")

        # re-derive two seeded entries of the committed oracle table live
        for key in random.Random(seed).sample(sorted(expected["sweep"]), 2):
            live = self.oracle_at(float(key))
            checks.require(
                all(close(live[m], expected["sweep"][key][m], 1e-12) for m in live),
                f"oracle table entry {key} dBm is stale: live {live}",
            )
        return failed

    def oracle_at(self, rho_dbm: float) -> dict:
        cfg = oracle.with_cutoff(self.mapping, oracle.SWEPT_TIER, rho_dbm)
        return oracle.metrics(cfg, oracle.SWEPT_TIER)

    def check_optimum(self, star, good, verb, objective, expected, checks) -> None:
        rho = float(star["rho_o_dbm"])
        # a refined optimum lies off the grid: evaluate the oracle there
        want = expected["sweep"].get(f"{rho:g}") or self.oracle_at(rho)
        check_row(star, want, f"{verb} optimum at {rho:g} dBm", checks)
        if objective == "total_outage":
            o_t = [float(r["O_t"]) for r in good]
            checks.require(float(star["O_t"]) <= min(o_t) * (1 + 1e-11),
                           f"{verb}: optimum O_t {star['O_t']} above a grid row")
            i = o_t.index(min(o_t))
            checks.require(self.name == "mixture" or 0 < i < len(o_t) - 1,
                           f"{verb}: O_t minimum at the grid edge")
        else:
            best = max(float(r["R_eff_nats"]) for r in good)
            checks.require(float(star["R_eff_nats"]) >= best * (1 - 1e-11),
                           f"{verb}: optimum R_eff {star['R_eff_nats']} below a grid row")


class MonteCarlo:
    """Job ``k``: one ``simulate`` of MC_ITERATIONS realizations on
    MC_WORKERS workers, tier 0 tagged, seeded ``seed + k * 2**32``.
    Operation: the simulate call.

    Jobs draw different realizations because a job's time depends on its
    seed: how the pool's chunks of realizations balance over two workers
    moves a job's time by up to 10%.
    """

    ops_per_job = 1

    def __init__(self, name: str):
        self.name = name
        self.config = BENCH / "configs" / f"{name}.json"
        self.mapping = json.loads(self.config.read_text())
        self.iterations = MC_ITERATIONS[name]

    def outputs(self, job: int) -> list[Path]:
        return [OUT / self.name / f"simulate_{job}.csv"]

    def verbs(self, seed: int, job: int, workers: int = MC_WORKERS, output=None):
        return [("simulate", [
            "simulate", "--config", self.config,
            "--output", output or self.outputs(job)[0],
            "--iterations", self.iterations, "--seed", seed + job * 2**32,
            "--workers", workers, "--tier", "0",
        ])]

    def check(self, seed: int, jobs: int, checks: Checks) -> int:
        """Check the CSVs of the first ``jobs`` jobs; no operation fails."""

        o_p = float(oracle.truncation_outage(oracle.Network(self.mapping), 0))
        for job in range(jobs):
            (row,) = read_rows(self.outputs(job)[0])
            n = self.iterations - int(row["n_discarded"])
            k = round(float(row["O_p"]) * n)
            checks.require(
                binomial_consistent(k, n, o_p),
                f"job {job}: O_p {k}/{n} outside the exact {GATE_LEVEL:.1%} binomial "
                f"region of exp(-sum_k pi lambda_k (P_u/rho_o)^(2/eta_k)) = {o_p:.6g}",
            )
        # the O_s gate on job 0 only: at 0.1% a job, a gate on every job
        # would fail a run now and then on correct code
        (row,) = read_rows(self.outputs(0)[0])
        n = self.iterations - int(row["n_discarded"])
        model, sim = oracle.metrics(self.mapping, 0)["O_s"], float(row["O_s"])
        print(f"upbench: O_s model {model:.4f} vs simulation {sim:.4f} "
              f"(ungated gap {sim - model:+.4f}, {n} realizations kept)")
        if self.name == "mc_slack":
            # acceptance criterion 4: Wilson interval or 0.02 absolute slack
            lo, hi = wilson(round(sim * n), n, GATE_Z)
            checks.require(lo <= model <= hi or abs(sim - model) <= 0.02,
                           f"O_s {sim} fails the criterion-4 gate against {model}")
        return 0


WORKLOADS = {
    "closed": Analytic, "quadrature": Analytic, "mixture": Analytic,
    "mc_slack": MonteCarlo, "mc_two_tier": MonteCarlo,
}


# --- output checks -----------------------------------------------------------

ORACLE_COLUMNS = ("O_p", "O_s", "R_nats", "E_P_w")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def metric_values(row: dict) -> tuple:
    return tuple(row[c] for c in ("O_p", "O_s", "O_t", "R_nats", "R_eff_nats", "E_P_w"))


def row_matches(row: dict, want: dict) -> bool:
    return all(close(float(row[c]), want[c], 1e-8) for c in ORACLE_COLUMNS)


def check_row(row: dict, want: dict, where: str, checks: Checks) -> None:
    for c in ORACLE_COLUMNS:
        checks.require(close(float(row[c]), want[c], 1e-8),
                       f"{where}: {c} {row[c]} vs oracle {want[c]!r}")


def check_identities(rows: list[dict], where: str, checks: Checks) -> None:
    # a CSV number carries 12 significant digits (5e-12 relative), so an
    # identity among three of them holds to 2e-11, not to 1e-12
    for r in rows:
        o_p, o_s, o_t = float(r["O_p"]), float(r["O_s"]), float(r["O_t"])
        rate, r_eff = float(r["R_nats"]), float(r["R_eff_nats"])
        checks.require(close(o_t, o_p + (1 - o_p) * o_s, 2e-11),
                       f"{where} {r['rho_o_dbm']} dBm: O_t != O_p + (1 - O_p) O_s")
        checks.require(close(r_eff, (1 - o_p) * rate, 2e-11),
                       f"{where} {r['rho_o_dbm']} dBm: R_eff != (1 - O_p) R")


def check_monotone(rows: list[dict], where: str, checks: Checks) -> None:
    for a, b in zip(rows, rows[1:]):
        span = f"{a['rho_o_dbm']} to {b['rho_o_dbm']} dBm"
        checks.require(float(b["O_p"]) >= float(a["O_p"]) * (1 - 1e-11),
                       f"{where}: O_p falls from {span}")
        checks.require(float(b["O_s"]) <= float(a["O_s"]) * (1 + 1e-11),
                       f"{where}: O_s rises from {span}")


def wilson(k: int, n: int, z: float) -> tuple[float, float]:
    p = k / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def binomial_consistent(k: int, n: int, p: float) -> bool:
    """Exact two-sided binomial test of k successes in n trials at GATE_LEVEL.

    A Wilson interval undercovers when n p is near 1 (n O_p = 0.4 on
    mc_slack: 0.7% false alarms at a nominal 0.1%), so O_p gets exact tails.
    """
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    tail = (1 - GATE_LEVEL) / 2
    return math.fsum(pmf[: k + 1]) >= tail and math.fsum(pmf[k:]) >= tail


# --- measurement -------------------------------------------------------------


def measure_setup(config: Path) -> float:
    """Median wall time of a fresh interpreter that imports upcell and
    loads the workload's config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return median(times)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (a worker
    or a set-up interpreter)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None  # a checkout without git metadata: see src_sha256
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Runs the jobs of one workload and checks that outputs which must
    repeat do so byte for byte."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.checks = Checks()
        self.jobs = 0
        self.distinct_jobs = 1
        self.job_seconds: list[float] = []
        self.first: list[bytes] | None = None

    def job(self, verbs, tracer=None) -> dict[str, float]:
        """One job; returns seconds per verb."""
        from upcell import analytic

        times = {}
        for verb, argv in verbs:
            idx = tracer.open(f"cli.{verb}") if tracer else None
            seconds, code = run_verb(argv)
            if tracer:
                tracer.close(idx)
                # read before the next verb clears the cache
                info = analytic._fractional_moment.cache_info()
                tracer.counts["_moment_hits"] += info.hits
                tracer.counts["_moment_lookups"] += info.hits + info.misses
            self.checks.require(code == 0, f"{verb} exited with {code}")
            times[verb] = seconds
        self.jobs += 1
        return times

    def compare_outputs(self, paths: list[Path], what: str) -> None:
        outputs = [p.read_bytes() for p in paths]
        if self.first is None:
            self.first = outputs
        self.checks.require(outputs == self.first, f"{what} differs from the first job's")


def run_untraced(runner: Runner, seconds: float) -> dict[str, float]:
    workload, jobs = runner.workload, runner.job_seconds
    start = perf_counter()
    while not jobs or perf_counter() - start < seconds:
        k = len(jobs)
        jobs.append(sum(runner.job(workload.verbs(runner.seed, k)).values()))
        if isinstance(workload, Analytic):
            runner.compare_outputs(workload.outputs(k), "a repeated job's output")
    if isinstance(workload, MonteCarlo):
        # jobs are different draws: their mean estimates the expected job
        runner.distinct_jobs = len(jobs)
        return {"job_s": sum(jobs) / len(jobs), "peak_rss_mib": peak_rss_mib()}
    # repeats of one job: the median discounts transient machine noise
    return {"job_s": median(jobs), "peak_rss_mib": peak_rss_mib()}


def run_traced(runner: Runner, seconds: float, out: Path) -> dict[str, float]:
    """Alternate untraced and traced jobs, all on job 0's inputs;
    per-layer figures are medians over the traced jobs, and counts must
    repeat exactly."""
    import spans

    workload = runner.workload
    is_mc = isinstance(workload, MonteCarlo)
    untraced, traced, summaries, serial, parallel = [], [], [], [], []
    seen = {"kept": 0, "batches": 0, "drawn": 0}
    first_tracer = None
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        times = runner.job(workload.verbs(runner.seed, 0))
        runner.compare_outputs(workload.outputs(0), "a repeated job's output")
        if is_mc:
            # the traced job runs on one worker, so its reference does too
            parallel.append(times["simulate"])
            times = runner.job(
                workload.verbs(runner.seed, 0, workers=1, output=out / "serial.csv"))
            serial.append(times["simulate"])
            runner.compare_outputs([out / "serial.csv"], "the workers=1 CSV")
        untraced.append(times)

        tracer = spans.Tracer()
        traced_verbs = workload.verbs(
            runner.seed, 0, **({"workers": 1, "output": out / "traced.csv"} if is_mc else {}))
        seen.update(kept=0, batches=0, drawn=0)
        with spans.installed(tracer, on_realization=lambda r: inspect_realization(
                r, workload.mapping, seen, runner.checks)):
            traced.append(sum(runner.job(traced_verbs, tracer).values()))
        traced_out = [out / "traced.csv"] if is_mc else workload.outputs(0)
        runner.compare_outputs(traced_out, "the traced job's output")
        summary = spans.summarize(tracer)
        runner.checks.require(
            (summary.pop("_kept_batches"), summary.pop("_kept_drawn"))
            == (seen["batches"], seen["drawn"]),
            "batches or UEs drawn from the KD-tree spans disagree with the realizations",
        )
        if is_mc:
            runner.checks.require(
                seen["kept"] + summary["montecarlo.discarded"] == workload.iterations,
                "traced realizations do not add up to the iterations",
            )
        lookups = tracer.counts["_moment_lookups"]
        summary["analytic.moment_cache_hit_ratio"] = (
            tracer.counts["_moment_hits"] / lookups if lookups else 0.0
        )
        summaries.append(summary)
        first_tracer = first_tracer or tracer
    first_tracer.write(out / "trace.csv")

    metrics = {k: 0.0 for k in PER_LAYER}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if PER_LAYER[key] == "count":
            runner.checks.require(len(set(values)) == 1,
                                  f"{key} differs between traced jobs: {values}")
        metrics[key] = median(values)
    if is_mc:
        metrics["cli.simulate_ms"] = median(parallel) * 1e3
        metrics["montecarlo.parallel_speedup"] = median(serial) / median(parallel)
    else:
        for verb in untraced[0]:
            metrics[f"cli.{verb}_ms"] = median(t[verb] for t in untraced) * 1e3
    reference = median(sum(t.values()) for t in untraced)
    metrics["trace.overhead_ms"] = (median(traced) - reference) * 1e3
    return metrics


def inspect_realization(r, mapping: dict, seen: dict, checks: Checks) -> None:
    """Invariants of one traced realization."""
    seen["kept"] += 1
    seen["batches"] += r.n_batches
    seen["drawn"] += r.n_ue_dropped
    checks.require(bool((r.ue_power <= float(mapping["p_max_watts"])).all()),
                   "a scheduled UE transmits above P_u")
    rho = 10.0 ** ((mapping["tiers"][r.tagged_tier]["rho_o_dbm"] - 30.0) / 10.0)
    noise = 10.0 ** ((mapping["noise_dbm"] - 30.0) / 10.0)
    checks.require(
        close(r.tagged_sinr, rho * r.tagged_fade / (noise + r.tagged_interference), 1e-12),
        "tagged SINR != rho_o h / (sigma^2 + I)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be a nonnegative 32-bit integer")
    if not (SRC / "upcell" / "__init__.py").is_file():
        print(f"upbench: no upcell package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.workload)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_s = measure_setup(workload.config)
    env = environment()
    print(f"upbench: env {json.dumps(env, sort_keys=True)}")

    runner = Runner(workload, args.seed)
    if args.trace:
        metrics = run_traced(runner, args.seconds, out)
        units = PER_LAYER
    else:
        metrics = {"setup_s": setup_s, **run_untraced(runner, args.seconds)}
        units = END_TO_END

    for failure in oracle.self_test():
        runner.checks.require(False, f"oracle self-test: {failure}")
    failed = runner.jobs * workload.check(args.seed, runner.distinct_jobs, runner.checks)
    for message in runner.checks.failures:
        print(f"upbench: check failed: {message}")
    result = {
        "correct": not runner.checks.failures,
        "attempted": runner.jobs * workload.ops_per_job,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (out / "run.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "jobs": runner.jobs, "job_seconds": runner.job_seconds,
         "env": env, "result": result},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
