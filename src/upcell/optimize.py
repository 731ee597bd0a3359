"""Cutoff-threshold sweeps and scalar optimization of the uplink objective.

The cutoff rho_o trades truncation outage (increasing in rho_o) against
SINR outage (non-increasing in rho_o), so the total outage is typically
U-shaped in dB and has an interior optimum.  ``sweep`` maps the analytic
objective over a dB grid; ``refine_optimum`` polishes the grid optimum by
golden-section search in the dB domain, between the optimum's grid
neighbours and down to a bracket ``tol`` dB wide, or as narrow as floats
allow.  It starts from the sweep's own values there, so it never returns
a value worse than the grid optimum (a plateau flat within 1e-12
excepted, where the smallest cutoff wins).  Optimization always runs on
the analytic (noise-free) objective; re-check a found optimum with the
Monte Carlo engine if confirmation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .model import MetricsReport, NetworkConfig
from .specfun import QuadratureError

__all__ = ["SweepResult", "sweep", "refine_optimum", "objective_value", "OBJECTIVES"]

#: objective name -> (extractor, maximize?)
OBJECTIVES = {
    "total_outage": (lambda r: r.total_outage, False),
    "effective_rate": (lambda r: r.effective_spectral_efficiency, True),
}

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PLATEAU_TOL = 1e-12


def _lookup(objective: str) -> tuple:
    try:
        return OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        ) from None


def objective_value(config: NetworkConfig, tier: int, objective: str) -> float:
    """Evaluate one objective without computing the metrics it does not
    need (the rate integral dominates the cost of a full report)."""
    _lookup(objective)
    o_p = analytic.truncation_outage(config, tier)
    if objective == "total_outage":
        return o_p + (1.0 - o_p) * analytic.sinr_outage(config, tier)
    return (1.0 - o_p) * analytic.spectral_efficiency(config, tier)


@dataclass
class SweepResult:
    """Grid evaluation of ``objective`` over one tier's cutoff (dBm).

    ``reports[i]`` is None when evaluation failed numerically at that grid
    point (the failure text is kept in ``errors[i]``).  The grid optimum
    ``values_dbm[opt_index]`` obeys the smallest-cutoff tie rule on
    plateaus.
    """

    values_dbm: np.ndarray
    reports: list[MetricsReport | None]
    errors: list[str | None]
    objective: str
    opt_index: int

    @property
    def argopt(self) -> float:
        """The grid optimum's cutoff (dBm)."""
        return float(self.values_dbm[self.opt_index])

    @property
    def opt_report(self) -> MetricsReport:
        """The report at the grid optimum ``argopt``."""
        return self.reports[self.opt_index]


def sweep(
    config: NetworkConfig,
    tier: int,
    grid: tuple[float, float, int],
    objective: str = "total_outage",
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
    extract, maximize = _lookup(objective)
    values = np.linspace(lo, hi, steps)
    reports: list[MetricsReport | None] = []
    errors: list[str | None] = []
    # Python floats: an error then prints the plain number
    for v in values.tolist():
        try:
            cfg = config.with_tier_rho_o(tier, v)
            reports.append(analytic.full_report(cfg, tier))
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
        values_dbm=values,
        reports=reports,
        errors=errors,
        objective=objective,
        opt_index=best,
    )


def refine_optimum(
    config: NetworkConfig,
    tier: int,
    result: SweepResult,
    tol: float = 0.01,
) -> tuple[float, float]:
    """Golden-section refinement of the sweep ``result`` of ``config``'s
    ``tier`` between the grid neighbours of its optimum (dBm).

    Returns ``(rho_o_dbm, objective_value)``.  The bracket is clamped at
    the grid ends.  The sweep's own values at the optimum and at its
    neighbours that evaluated seed the search, so the refined value is
    never worse than the grid optimum, even where the bracket is not
    unimodal.  The search also stops once the bracket is too narrow for
    floats to split, whatever ``tol`` is.  On a plateau (objective flat
    within 1e-12 across every evaluation) the smallest evaluated cutoff is
    returned instead, since the smallest cutoff minimizes transmit power.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    extract, maximize = OBJECTIVES[result.objective]
    sign = -1.0 if maximize else 1.0
    grid = result.values_dbm
    near = range(max(result.opt_index - 1, 0), min(result.opt_index + 2, len(grid)))
    evaluated = {
        float(grid[i]): sign * extract(result.reports[i])
        for i in near
        if result.reports[i] is not None
    }

    def f(x: float) -> float:
        if x not in evaluated:
            cfg = config.with_tier_rho_o(tier, x)
            evaluated[x] = sign * objective_value(cfg, tier, result.objective)
        return evaluated[x]

    a, b = float(grid[near[0]]), float(grid[near[-1]])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    # a probe that rounds onto an end of the bracket would stop it shrinking
    while (b - a) > tol and a < c and d < b:
        if fc <= fd:  # keep the left interval on ties -> drifts to small rho_o
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)

    values = evaluated.values()
    if max(values) - min(values) <= _PLATEAU_TOL:
        best_x = min(evaluated)
    else:
        best_x = min(evaluated, key=lambda x: (evaluated[x], x))
    return best_x, sign * evaluated[best_x]
