"""Spans around upcell's layer boundaries, recorded from outside the package.

:func:`installed` replaces, for the duration of a ``with`` block, the
public functions one layer calls in the next with wrappers that record a
span (name, start, end, parent, info) in a :class:`Tracer`.  The
attributes are patched where the caller looks them up, so the program's
own code runs unchanged:

* ``cli`` -> ``model.network_from_mapping``, ``optimize.sweep`` /
  ``refine_optimum``, ``analytic.*`` and ``montecarlo.estimate_metrics``;
* ``optimize`` -> ``analytic.*`` and its own ``objective_value``;
* ``analytic`` -> ``specfun.*``;
* ``montecarlo`` -> ``sample_ppp``, ``build_realization`` and
  ``scipy.spatial.cKDTree`` (construction and ``query``).

Quadrature calls and integrand evaluations are counted, not spanned: an
integrand runs millions of times a job, so evaluations are read from
QUADPACK's ``neval``.  Spans live in memory until the benchmark writes
them out.  A Monte Carlo job must run on one worker, or its realizations'
spans stay in the worker processes.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans of one traced job plus event counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        self.spans[idx][2] = perf_counter()
        self.spans[idx][4] = info
        self.stack.pop()

    def wrap(self, name: str, fn, info=None):
        """``fn`` inside a span; ``info(result)`` annotates a return, and
        an exception is recorded as its class name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx, type(exc).__name__)
                raise
            self.close(idx, info(result) if info else None)
            return result

        return wrapper

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ms", "end_ms", "parent", "info"])
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                out.writerow([
                    i, name, f"{(start - t0) * 1e3:.6f}", f"{(end - t0) * 1e3:.6f}",
                    parent, "" if info is None else info,
                ])


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside specfun: counts quadrature
    calls and the integrand evaluations QUADPACK reports (``neval``), which
    costs nothing per evaluation."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        result = self._module.quad(*args, **kwargs)
        self._tracer.counts["specfun.quad_calls"] += 1
        if len(result) > 2 and isinstance(result[2], dict):
            self._tracer.counts["specfun.integrand_evals"] += result[2]["neval"]
        return result


class _TracedKDTree:
    """cKDTree whose construction and queries are spans; a query's info is
    its number of points, 0 for a single 1-D point (the probe UE)."""

    def __init__(self, tracer: Tracer, tree_cls, data, *args, **kwargs):
        self._tracer = tracer
        idx = tracer.open("scipy.cKDTree")
        try:
            self._tree = tree_cls(data, *args, **kwargs)
        finally:
            tracer.close(idx, len(data))

    def query(self, x, *args, **kwargs):
        x = np.asarray(x)
        n = len(x) if x.ndim == 2 else 0
        self._tracer.counts["montecarlo.kdtree_points"] += max(n, 1)
        idx = self._tracer.open("scipy.cKDTree.query")
        try:
            return self._tree.query(x, *args, **kwargs)
        finally:
            self._tracer.close(idx, n)


@contextmanager
def installed(tracer: Tracer, on_realization=None):
    """Patch upcell's layer boundaries to record into ``tracer``.

    ``on_realization(realization)`` sees every realization that
    ``build_realization`` returns.
    """
    from upcell import analytic, cli, montecarlo, optimize, specfun

    def realization_info(r):
        if on_realization is not None:
            on_realization(r)
        return len(r.ue_power)

    def sweep_info(result):
        return sum(e is not None for e in result.errors)

    patches = [
        (cli, "network_from_mapping", tracer.wrap("model.network_from_mapping",
                                                   cli.network_from_mapping)),
        (cli, "estimate_metrics", tracer.wrap("montecarlo.estimate_metrics",
                                              cli.estimate_metrics)),
        (optimize, "sweep", tracer.wrap("optimize.sweep", optimize.sweep, sweep_info)),
        (optimize, "refine_optimum", tracer.wrap("optimize.refine_optimum",
                                                 optimize.refine_optimum)),
        (optimize, "objective_value", tracer.wrap("optimize.objective_value",
                                                  optimize.objective_value)),
        (montecarlo, "build_realization", tracer.wrap(
            "montecarlo.build_realization", montecarlo.build_realization,
            realization_info)),
        (montecarlo, "sample_ppp", tracer.wrap("montecarlo.sample_ppp",
                                               montecarlo.sample_ppp)),
        (montecarlo, "cKDTree", functools.partial(_TracedKDTree, tracer,
                                                  montecarlo.cKDTree)),
    ]
    for fn in ("full_report", "sinr_outage", "spectral_efficiency", "truncation_outage"):
        patches.append((analytic, fn, tracer.wrap(f"analytic.{fn}", getattr(analytic, fn))))
    for fn in ("tail_interference_integral", "lower_incomplete_gamma",
               "integrate_interval", "integrate_semi_infinite"):
        patches.append((analytic, fn, tracer.wrap(f"specfun.{fn}", getattr(analytic, fn))))
    # every quadrature, the tail integral's own included, goes through here
    patches.append((specfun, "integrate", _CountingIntegrate(tracer, specfun.integrate)))

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield tracer
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-job figures from the spans and counters of one traced job.

    A span's layer is its name up to the first dot; its self time is its
    duration less that of its child spans.  Keys starting with ``_`` are
    cross-checks, not metrics.
    """
    spans = tracer.spans
    dur = [(s[2] - s[1]) * 1e3 for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    total, calls, self_ms = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        calls[s[0]] += 1
        self_ms[s[0].split(".")[0]] += dur[i] - sum(dur[c] for c in children[i])

    def named(i, name):
        return [c for c in children[i] if spans[c][0] == name]

    grid_points = grid_failed = extra_reports = 0
    batches = drawn = kept_batches = kept_drawn = kept_ues = bs = discarded = 0
    discard_ms = 0.0
    for i, (name, _, _, _, info) in enumerate(spans):
        if name == "optimize.sweep":
            grid_points += len(named(i, "analytic.full_report"))
            grid_failed += info or 0
        elif name in ("cli.sweep", "cli.optimize"):
            # the optimum row the verb recomputes after the sweep
            extra_reports += len(named(i, "analytic.full_report"))
        elif name == "montecarlo.build_realization":
            # one query per tree per UE batch; the probe UE's query has info 0
            trees = [spans[c][4] for c in named(i, "scipy.cKDTree")]
            queries = [spans[c][4] for c in named(i, "scipy.cKDTree.query") if spans[c][4]]
            n_batches = len(queries) // max(len(trees), 1)
            n_drawn = sum(queries) // max(len(trees), 1)
            batches += n_batches
            drawn += n_drawn
            bs += sum(trees)
            if info == "SaturationError":
                discarded += 1
                discard_ms += dur[i]
            else:
                kept_batches += n_batches
                kept_drawn += n_drawn
                kept_ues += info

    c = tracer.counts
    return {
        "specfun.tail_calls": calls["specfun.tail_interference_integral"],
        "specfun.tail_ms": total["specfun.tail_interference_integral"],
        "specfun.quad_calls": c["specfun.quad_calls"],
        "specfun.interval_calls": calls["specfun.integrate_interval"],
        "specfun.integrand_evals": c["specfun.integrand_evals"],
        "specfun.self_ms": self_ms["specfun"],
        "analytic.full_report_ms": total["analytic.full_report"],
        "analytic.sinr_outage_ms": total["analytic.sinr_outage"],
        "analytic.spectral_efficiency_ms": total["analytic.spectral_efficiency"],
        "analytic.spectral_efficiency_calls": calls["analytic.spectral_efficiency"],
        "analytic.self_ms": self_ms["analytic"],
        "optimize.sweep_ms": total["optimize.sweep"],
        "optimize.grid_points": grid_points,
        "optimize.grid_failed": grid_failed,
        "optimize.refine_ms": total["optimize.refine_optimum"],
        "optimize.refine_evals": calls["optimize.objective_value"],
        "optimize.self_ms": self_ms["optimize"],
        "cli.self_ms": self_ms["cli"],
        "cli.extra_reports": extra_reports,
        "model.load_ms": total["model.network_from_mapping"],
        "montecarlo.realization_ms": total["montecarlo.build_realization"],
        "montecarlo.ppp_ms": total["montecarlo.sample_ppp"],
        "montecarlo.kdtree_build_ms": total["scipy.cKDTree"],
        "montecarlo.kdtree_query_ms": total["scipy.cKDTree.query"],
        "montecarlo.kdtree_points": c["montecarlo.kdtree_points"],
        "montecarlo.other_ms": (
            total["montecarlo.build_realization"] - total["montecarlo.sample_ppp"]
            - total["scipy.cKDTree"] - total["scipy.cKDTree.query"]
        ),
        "montecarlo.self_ms": self_ms["montecarlo"],
        "montecarlo.batches": batches,
        "montecarlo.ue_drawn": drawn,
        "montecarlo.ue_kept_ratio": kept_ues / kept_drawn if kept_drawn else 0.0,
        "montecarlo.bs_count": bs,
        "montecarlo.discarded": discarded,
        "montecarlo.discard_ms": discard_ms,
        "_kept_batches": kept_batches,
        "_kept_drawn": kept_drawn,
    }
