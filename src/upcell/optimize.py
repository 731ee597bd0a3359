"""Cutoff-threshold sweeps and scalar optimization of the uplink objective.

The cutoff rho_o trades truncation outage (increasing in rho_o) against
SINR outage (non-increasing in rho_o), so the total outage is typically
U-shaped in dB and has an interior optimum.  ``sweep`` maps the analytic
objective over a dB grid; ``refine_optimum`` polishes a bracketed optimum
by golden-section search in the dB domain.  Optimization always runs on
the analytic (noise-free) objective; re-check a found optimum with the
Monte Carlo engine if confirmation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .model import MetricsReport, NetworkConfig, dbm_to_watts
from .specfun import QuadratureError

__all__ = ["SweepResult", "sweep", "refine_optimum", "objective_value", "OBJECTIVES"]

#: objective name -> (extractor, maximize?)
OBJECTIVES = {
    "total_outage": (lambda r: r.total_outage, False),
    "effective_rate": (lambda r: r.effective_spectral_efficiency, True),
}

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PLATEAU_TOL = 1e-12


def objective_value(
    config: NetworkConfig, tier: int, objective: str, method: str = "auto"
) -> float:
    """Evaluate one objective without computing the metrics it does not
    need (the rate integral dominates the cost of a full report)."""
    o_p = analytic.truncation_outage(config, tier)
    if objective == "total_outage":
        o_s = analytic.sinr_outage(config, tier, method=method)
        return o_p + (1.0 - o_p) * o_s
    if objective == "effective_rate":
        rate = analytic.spectral_efficiency(config, tier, method=method)
        return (1.0 - o_p) * rate
    raise ValueError(
        f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
    )


def _objective_fn(config: NetworkConfig, tier: int, objective: str, method: str):
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        )
    sign = -1.0 if OBJECTIVES[objective][1] else 1.0

    def fn(rho_dbm: float) -> float:
        return sign * objective_value(
            config.with_tier_rho_o(tier, dbm_to_watts(rho_dbm)), tier, objective,
            method,
        )

    return fn, sign


@dataclass
class SweepResult:
    """Grid evaluation of the objective over one tier's cutoff (dBm).

    ``reports[i]`` is None when evaluation failed numerically at that grid
    point (the failure text is kept in ``errors[i]``).  ``argopt``/
    ``opt_value`` obey the smallest-parameter tie rule on plateaus.
    """

    parameter: str
    objective: str
    values_dbm: np.ndarray
    reports: list[MetricsReport | None]
    errors: list[str | None]
    argopt: float
    opt_value: float

    @property
    def opt_report(self) -> MetricsReport:
        """The report at the grid optimum ``argopt``."""
        return self.reports[int(np.flatnonzero(self.values_dbm == self.argopt)[0])]


def sweep(
    config: NetworkConfig,
    tier: int,
    grid: tuple[float, float, int],
    objective: str = "total_outage",
    method: str = "auto",
) -> SweepResult:
    """Evaluate the full analytic report across a rho_o grid (dBm) for one
    tier and locate the grid optimum of the chosen objective.

    A grid point that fails numerically (:class:`QuadratureError` or an
    ``ArithmeticError``) is recorded, not fatal; any other exception
    propagates.  Ties go to the smallest cutoff, which also minimizes the
    mean transmit power.
    """
    lo, hi, steps = grid
    if not lo < hi:
        raise ValueError(f"grid range must satisfy from < to, got [{lo}, {hi}]")
    if steps < 2:
        raise ValueError(f"grid needs at least 2 points, got {steps}")
    extract, maximize = OBJECTIVES.get(objective, (None, None))
    if extract is None:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        )
    values = np.linspace(lo, hi, steps)
    reports: list[MetricsReport | None] = []
    errors: list[str | None] = []
    for v in values:
        try:
            reports.append(
                analytic.full_report(
                    config.with_tier_rho_o(tier, dbm_to_watts(v)), tier, method=method
                )
            )
            errors.append(None)
        except (QuadratureError, ArithmeticError) as exc:  # record and move on
            reports.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    scores = [
        (extract(r) if r is not None else math.nan) for r in reports
    ]
    finite = [i for i, s in enumerate(scores) if not math.isnan(s)]
    if not finite:
        raise RuntimeError("every grid point failed to evaluate")
    key = (lambda i: -scores[i]) if maximize else (lambda i: scores[i])
    best = min(finite, key=key)  # ties resolve to the smallest rho_o
    return SweepResult(
        parameter="rho_o_dbm",
        objective=objective,
        values_dbm=values,
        reports=reports,
        errors=errors,
        argopt=float(values[best]),
        opt_value=float(scores[best]),
    )


def refine_optimum(
    config: NetworkConfig,
    tier: int,
    objective: str,
    bracket: tuple[float, float],
    tol: float = 0.01,
    method: str = "auto",
) -> tuple[float, float]:
    """Golden-section refinement of the objective over ``bracket`` (dBm).

    Returns ``(rho_o_dbm, objective_value)``.  On a plateau (objective
    flat within 1e-12 across every evaluation) the lower bracket end is
    returned, since the smallest cutoff minimizes transmit power.  If the
    interior samples reveal the bracket is not unimodal, the search falls
    back to a fine grid scan.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got [{lo}, {hi}]")
    fn, sign = _objective_fn(config, tier, objective, method)

    evaluated: dict[float, float] = {}

    def f(x: float) -> float:
        if x not in evaluated:
            evaluated[x] = fn(x)
        return evaluated[x]

    # unimodality screen: interior probes must not show a rise-then-fall
    probes = np.linspace(lo, hi, 7)
    probe_vals = [f(x) for x in probes]
    interior_min = min(probe_vals[1:-1])
    rises = [
        i
        for i in range(1, len(probes) - 1)
        if probe_vals[i] > probe_vals[i - 1] + _PLATEAU_TOL
        and probe_vals[i] > probe_vals[i + 1] + _PLATEAU_TOL
    ]
    if rises and interior_min < min(probe_vals[0], probe_vals[-1]) - _PLATEAU_TOL:
        # interior local maximum alongside an interior minimum: not
        # unimodal, fall back to a dense scan
        xs = np.linspace(lo, hi, max(1001, int((hi - lo) / tol) + 1))
        vals = [f(x) for x in xs]
        i = int(np.argmin(vals))
        return float(xs[i]), sign * vals[i]

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:  # keep the left interval on ties -> drifts to small rho_o
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)

    values = list(evaluated.values())
    if max(values) - min(values) <= _PLATEAU_TOL:
        return lo, sign * f(lo)
    best_x = min(evaluated, key=evaluated.get)
    return best_x, sign * evaluated[best_x]
