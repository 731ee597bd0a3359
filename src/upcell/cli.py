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
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, analytic, optimize
from .model import (
    ConfigError,
    MetricsReport,
    NetworkConfig,
    network_from_mapping,
    watts_to_dbm,
)
from .montecarlo import (
    SaturationError,
    _usable_cpus,
    estimate_metrics,
    wilson_interval,
)
from .specfun import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4
EXIT_MISMATCH = 5

# (CSV column, attribute of MetricsReport and SimulationReport)
_METRICS = (
    ("O_p", "truncation_outage"),
    ("O_s", "sinr_outage"),
    ("O_t", "total_outage"),
    ("R_nats", "spectral_efficiency"),
    ("R_eff_nats", "effective_spectral_efficiency"),
    ("E_P_w", "mean_tx_power"),
)
BASE_COLUMNS = [
    "tier", "rho_o_dbm", "lambda_per_km2", "eta", "theta_db", "p_max_w", "noise_dbm",
] + [column for column, _ in _METRICS]
CI_COLUMNS = [f"{column}_ci95" for column, _ in _METRICS]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".12g")


def _load_config(args) -> tuple[NetworkConfig, str]:
    """The config at ``args.config`` and its digest; ``args.tier``, unless
    ``None``, must index one of its tiers."""
    path = args.config
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([(path, f"cannot read config: {exc}")]) from None
    try:
        mapping = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal too long
        raise ConfigError([(path, f"config is not valid JSON: {exc}")]) from None
    if not isinstance(mapping, dict):
        raise ConfigError([(path, "top-level config must be a JSON object")])
    digest = hashlib.sha256(
        json.dumps(mapping, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    config = network_from_mapping(mapping)
    if args.tier is not None and not 0 <= args.tier < config.n_tiers:
        raise ValueError(
            f"--tier takes 0 to {config.n_tiers - 1} for this config "
            f"({config.n_tiers} tier(s)), got {args.tier}"
        )
    return config, digest


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
    noise_dbm = watts_to_dbm(config.noise) if config.noise > 0 else -math.inf
    return [
        j,
        watts_to_dbm(t.rho_o),
        t.intensity * 1e6,
        t.eta,
        10.0 * math.log10(t.theta),
        config.p_max,
        noise_dbm,
    ]


def _metric_values(report) -> list:
    """The six metrics of a :class:`MetricsReport` or a
    :class:`SimulationReport`, in ``_METRICS`` order."""
    return [getattr(report, attr) for _, attr in _METRICS]


def _write_csv(output: str, header: list[str], rows: list[list]) -> None:
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def cmd_analyze(args) -> int:
    config, digest = _load_config(args)
    tiers = range(config.n_tiers) if args.tier is None else [args.tier]
    rows = []
    for j in tiers:
        report = analytic.full_report(config, j)
        rows.append(_tier_context(config, j) + _metric_values(report))
    _write_csv(args.output, BASE_COLUMNS, rows)
    _write_manifest(args.output, "analyze", digest)
    print(f"analyze: wrote {len(rows)} row(s) to {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, digest = _load_config(args)
    sim = estimate_metrics(
        config, args.iterations, args.seed, tier=args.tier, workers=args.workers
    )
    estimates = _metric_values(sim)
    row = (
        _tier_context(config, args.tier)
        + [e.mean for e in estimates]
        + [e.half_width_95 for e in estimates]
        + [sim.n_discarded]
    )
    _write_csv(args.output, BASE_COLUMNS + CI_COLUMNS + ["n_discarded"], [row])
    _write_manifest(args.output, "simulate", digest, args.seed, args.iterations)
    print(
        f"simulate: {args.iterations} realizations "
        f"({sim.n_discarded} discarded), wrote {args.output}"
    )
    return EXIT_OK


# the gated metrics of ``validate``: proportions pass inside their Wilson
# interval or within 0.02, the rate inside its CI or within 3%
_GATES = {"O_p": "proportion", "O_s": "proportion", "R_nats": "mean"}


def cmd_validate(args) -> int:
    config, digest = _load_config(args)
    report = analytic.full_report(config, args.tier)
    sim = estimate_metrics(
        config, args.iterations, args.seed, tier=args.tier, workers=args.workers
    )
    rows, gate, slack = [], {}, []
    values, estimates = _metric_values(report), _metric_values(sim)
    for (name, _), value, est in zip(_METRICS, values, estimates):
        gap = abs(value - est.mean)
        kind = _GATES.get(name)
        if kind == "proportion":
            lo, hi = wilson_interval(round(est.mean * est.n_samples), est.n_samples)
            inside = lo <= value <= hi
            ok = inside or gap <= 0.02
        elif kind == "mean":
            inside = gap <= est.half_width_95
            ok = inside or gap <= 0.03 * abs(value)
        else:
            ok = gap <= est.half_width_95
        if kind is not None:
            gate[name] = ok
            if ok and not inside:
                slack.append(f"{name} (gap {gap:.4g})")
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
    if slack:
        print(
            f"validate: outside the 95% interval, agreeing only through the "
            f"0.02 absolute or 3% relative slack: {', '.join(slack)}"
        )
    return EXIT_OK if agreed else EXIT_MISMATCH


def _sweep(args) -> tuple[NetworkConfig, str, optimize.SweepResult]:
    config, digest = _load_config(args)
    result = optimize.sweep(
        config, args.tier, (args.grid_from, args.grid_to, args.steps), args.objective
    )
    return config, digest, result


def _write_grid(args, digest: str, config: NetworkConfig, result,
                rho_star: float, report: MetricsReport) -> int:
    """Write the grid rows of ``result`` and the starred optimum row."""
    points = [
        (float(v), grid_report, False)
        for v, grid_report in zip(result.values_dbm, result.reports)
        if grid_report is not None
    ]
    points.append((rho_star, report, True))
    # each row carries its own cutoff in place of the config's
    tier, _, *context = _tier_context(config, args.tier)
    rows = [
        [tier, rho_dbm] + context + _metric_values(r) + [starred]
        for rho_dbm, r, starred in points
    ]
    _write_csv(args.output, BASE_COLUMNS + ["is_optimum"], rows)
    _write_manifest(args.output, args.command, digest)
    value = optimize.OBJECTIVES[args.objective][0](report)
    print(
        f"{args.command}: {args.objective} optimum at rho_o = {rho_star:.6g} dBm "
        f"(value {value:.6g}); wrote {args.output}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, digest, result = _sweep(args)
    return _write_grid(args, digest, config, result, result.argopt, result.opt_report)


def cmd_optimize(args) -> int:
    config, digest, result = _sweep(args)
    rho_star, _ = optimize.refine_optimum(config, args.tier, result, tol=args.tol_db)
    # a grid optimum's report is the sweep's own
    report = dict(zip(result.values_dbm.tolist(), result.reports)).get(rho_star)
    if report is None:
        report = analytic.full_report(
            config.with_tier_rho_o(args.tier, rho_star), args.tier
        )
    return _write_grid(args, digest, config, result, rho_star, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upcell",
        description="Uplink outage and spectral efficiency in Poisson cellular "
                    "networks with truncated channel-inversion power control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim=False, grid=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--tier", type=int, default=0,
                       help="tier index (default 0; analyze defaults to all)")
        p.add_argument("--output", required=True, help="CSV output path")
        if sim:
            p.add_argument("--iterations", type=int, default=10000)
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--workers", type=int, default=_usable_cpus(),
                           help="worker processes, at most the usable CPUs "
                                "(default: all of them); any count gives "
                                "the same output")
        if grid:
            p.add_argument("--from", dest="grid_from", type=float, required=True,
                           help="grid start, dBm")
            p.add_argument("--to", dest="grid_to", type=float, required=True,
                           help="grid end, dBm")
            p.add_argument("--steps", type=int, default=81)
            p.add_argument("--objective", default="total_outage",
                           choices=sorted(optimize.OBJECTIVES))

    p_analyze = sub.add_parser("analyze", help="analytic metrics per tier")
    common(p_analyze)
    p_analyze.set_defaults(tier=None)
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
