"""Command-line front end.

Verbs:

* ``analyze``   evaluate the analytic metrics for a config (CSV row per tier)
* ``simulate``  Monte Carlo estimates with 95% confidence half-widths
* ``validate``  analytic-vs-simulation comparison table with agreement gate
* ``sweep``     objective over a rho_o grid, plus a starred optimum row
* ``optimize``  sweep followed by golden-section refinement of the optimum

Every output file gets a ``<output>.manifest.json`` sidecar recording the
command, a content digest of the config (stable under key reordering),
the seed/iteration inputs, the tool version, and a UTC timestamp.
Numbers are serialized with 12 significant digits, so re-running a
simulation with the same inputs reproduces the CSV byte for byte.

Exit codes: 0 success, 2 config/usage error, 3 numeric failure,
4 infeasible simulation (more than half the realizations discarded),
5 validation mismatch.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, analytic, optimize
from .model import (
    ConfigError,
    MetricsReport,
    NetworkConfig,
    dbm_to_watts,
    network_from_mapping,
)
from .montecarlo import (
    SaturationError,
    SimulationReport,
    estimate_metrics,
    wilson_interval,
)
from .specfun import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4
EXIT_MISMATCH = 5

BASE_COLUMNS = [
    "tier", "rho_o_dbm", "lambda_per_km2", "eta", "theta_db",
    "p_max_w", "noise_dbm", "O_p", "O_s", "O_t", "R_nats", "R_eff_nats", "E_P_w",
]
CI_COLUMNS = [
    "O_p_ci95", "O_s_ci95", "O_t_ci95", "R_nats_ci95", "R_eff_nats_ci95",
    "E_P_w_ci95",
]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".12g")


def _load_config(path: str) -> tuple[NetworkConfig, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([(path, f"cannot read config: {exc}")]) from None
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([(path, f"config is not valid JSON: {exc}")]) from None
    if not isinstance(mapping, dict):
        raise ConfigError([(path, "top-level config must be a JSON object")])
    digest = hashlib.sha256(
        json.dumps(mapping, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return network_from_mapping(mapping), digest


def _write_manifest(
    output: str, command: str, digest: str,
    seed: int | None = None, iterations: int | None = None,
) -> None:
    manifest = {
        "command": command,
        "config_digest": digest,
        "seed": seed,
        "iterations": iterations,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    Path(str(output) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _tier_context(config: NetworkConfig, j: int) -> list:
    t = config.tiers[j]
    noise_dbm = (
        10.0 * math.log10(config.noise) + 30.0 if config.noise > 0 else -math.inf
    )
    return [
        j,
        10.0 * math.log10(t.rho_o) + 30.0,
        t.intensity * 1e6,
        t.eta,
        10.0 * math.log10(t.theta),
        config.p_max,
        noise_dbm,
    ]


def _metric_values(report: MetricsReport) -> list:
    return [
        report.truncation_outage,
        report.sinr_outage,
        report.total_outage,
        report.spectral_efficiency,
        report.effective_spectral_efficiency,
        report.mean_tx_power,
    ]


def _write_csv(output: str, header: list[str], rows: list[list]) -> None:
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def cmd_analyze(args) -> int:
    config, digest = _load_config(args.config)
    tiers = range(config.n_tiers) if args.tier is None else [args.tier]
    rows = []
    for j in tiers:
        report = analytic.full_report(config, j)
        rows.append(_tier_context(config, j) + _metric_values(report))
    _write_csv(args.output, BASE_COLUMNS, rows)
    _write_manifest(args.output, "analyze", digest)
    print(f"analyze: wrote {len(rows)} row(s) to {args.output}")
    return EXIT_OK


def _simulation_row(config: NetworkConfig, j: int, sim: SimulationReport) -> list:
    estimates = [
        sim.truncation_outage, sim.sinr_outage, sim.total_outage,
        sim.spectral_efficiency, sim.effective_spectral_efficiency,
        sim.mean_tx_power,
    ]
    return (
        _tier_context(config, j)
        + [e.mean for e in estimates]
        + [e.half_width_95 for e in estimates]
        + [sim.n_discarded]
    )


def cmd_simulate(args) -> int:
    config, digest = _load_config(args.config)
    tier = args.tier if args.tier is not None else 0
    sim = estimate_metrics(
        config, args.iterations, args.seed, tier=tier, workers=args.workers
    )
    if sim.n_discarded > args.iterations / 2:
        print(
            f"simulate: {sim.n_discarded}/{args.iterations} realizations "
            "discarded; configuration infeasible for saturation",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    _write_csv(
        args.output,
        BASE_COLUMNS + CI_COLUMNS + ["n_discarded"],
        [_simulation_row(config, tier, sim)],
    )
    _write_manifest(args.output, "simulate", digest, args.seed, args.iterations)
    print(
        f"simulate: {args.iterations} realizations "
        f"({sim.n_discarded} discarded), wrote {args.output}"
    )
    return EXIT_OK


def _wilson_contains(value: float, mean: float, n: int) -> bool:
    k = round(mean * n)
    lo, hi = wilson_interval(k, n)
    return lo <= value <= hi


def cmd_validate(args) -> int:
    config, digest = _load_config(args.config)
    tier = args.tier if args.tier is not None else 0
    report = analytic.full_report(config, tier)
    sim = estimate_metrics(
        config, args.iterations, args.seed, tier=tier, workers=args.workers
    )
    if sim.n_discarded > args.iterations / 2:
        print("validate: too many discarded realizations", file=sys.stderr)
        return EXIT_INFEASIBLE

    def prop_ok(value: float, est) -> bool:
        return (
            _wilson_contains(value, est.mean, est.n_samples)
            or abs(value - est.mean) <= 0.02
        )

    rows, gate = [], {}
    checks = [
        ("O_p", report.truncation_outage, sim.truncation_outage, "proportion"),
        ("O_s", report.sinr_outage, sim.sinr_outage, "proportion"),
        ("O_t", report.total_outage, sim.total_outage, None),
        ("R_nats", report.spectral_efficiency, sim.spectral_efficiency, "mean"),
        ("R_eff_nats", report.effective_spectral_efficiency,
         sim.effective_spectral_efficiency, None),
        ("E_P_w", report.mean_tx_power, sim.mean_tx_power, None),
    ]
    for name, value, est, kind in checks:
        gap = abs(value - est.mean)
        if kind == "proportion":
            ok = prop_ok(value, est)
            gate[name] = ok
        elif kind == "mean":
            ok = gap <= est.half_width_95 or gap <= 0.03 * abs(value)
            gate[name] = ok
        else:
            ok = gap <= est.half_width_95
        rows.append([name, value, est.mean, est.half_width_95, gap, ok])
    _write_csv(
        args.output,
        ["metric", "analytic", "simulated", "ci95_half_width", "abs_gap", "within"],
        rows,
    )
    _write_manifest(args.output, "validate", digest, args.seed, args.iterations)
    agreed = all(gate.values())
    status = "agree" if agreed else "MISMATCH"
    print(
        f"validate: tracked metrics {sorted(gate)} {status}; wrote {args.output}"
    )
    return EXIT_OK if agreed else EXIT_MISMATCH


def _sweep_rows(config, tier, result) -> list[list]:
    rows = []
    for v, report, err in zip(result.values_dbm, result.reports, result.errors):
        if report is None:
            continue
        ctx = _tier_context(config, tier)
        ctx[1] = float(v)  # rho_o_dbm of the grid point
        rows.append(ctx + _metric_values(report) + [False])
    return rows


def _write_grid(args, digest: str, config: NetworkConfig, tier: int, result,
                rho_star: float, value: float, report: MetricsReport) -> int:
    """Write the grid rows of ``result`` and the starred optimum row."""
    star = _tier_context(config, tier)
    star[1] = rho_star
    rows = _sweep_rows(config, tier, result)
    rows.append(star + _metric_values(report) + [True])
    _write_csv(args.output, BASE_COLUMNS + ["is_optimum"], rows)
    _write_manifest(args.output, args.command, digest)
    print(
        f"{args.command}: {args.objective} optimum at rho_o = {rho_star:.6g} dBm "
        f"(value {value:.6g}); wrote {args.output}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, digest = _load_config(args.config)
    tier = args.tier if args.tier is not None else 0
    result = optimize.sweep(
        config, tier, (args.grid_from, args.grid_to, args.steps), args.objective
    )
    return _write_grid(args, digest, config, tier, result,
                       result.argopt, result.opt_value, result.opt_report)


def cmd_optimize(args) -> int:
    config, digest = _load_config(args.config)
    tier = args.tier if args.tier is not None else 0
    result = optimize.sweep(
        config, tier, (args.grid_from, args.grid_to, args.steps), args.objective
    )
    spacing = (args.grid_to - args.grid_from) / (args.steps - 1)
    lo = max(args.grid_from, result.argopt - spacing)
    hi = min(args.grid_to, result.argopt + spacing)
    rho_star, value = optimize.refine_optimum(
        config, tier, args.objective, (lo, hi), tol=args.tol_db
    )
    report = analytic.full_report(
        config.with_tier_rho_o(tier, dbm_to_watts(rho_star)), tier
    )
    return _write_grid(args, digest, config, tier, result, rho_star, value, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upcell",
        description="Uplink outage and spectral efficiency in Poisson cellular "
                    "networks with truncated channel-inversion power control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim=False, grid=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--tier", type=int, default=None,
                       help="tier index (default 0; analyze defaults to all)")
        p.add_argument("--output", required=True, help="CSV output path")
        if sim:
            p.add_argument("--iterations", type=int, default=10000)
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--workers", type=int,
                           default=os.cpu_count() or 1)
        if grid:
            p.add_argument("--from", dest="grid_from", type=float, required=True,
                           help="grid start, dBm")
            p.add_argument("--to", dest="grid_to", type=float, required=True,
                           help="grid end, dBm")
            p.add_argument("--steps", type=int, default=81)
            p.add_argument("--objective", default="total_outage",
                           choices=sorted(optimize.OBJECTIVES))

    common(sub.add_parser("analyze", help="analytic metrics per tier"))
    common(sub.add_parser("simulate", help="Monte Carlo estimates"), sim=True)
    common(sub.add_parser("validate", help="analytic vs simulation"), sim=True)
    common(sub.add_parser("sweep", help="objective over a rho_o grid"), grid=True)
    p_opt = sub.add_parser("optimize", help="sweep plus refined optimum")
    common(p_opt, grid=True)
    p_opt.add_argument("--tol-db", type=float, default=0.01)
    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "iterations", None) is not None and args.iterations < 100:
        print(
            f"error: --iterations must be at least 100, got {args.iterations}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, FloatingPointError, OverflowError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SaturationError as exc:
        print(f"error: simulation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
