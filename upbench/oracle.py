"""Independent mpmath oracle for the analytic metrics of a config.

Nothing here imports ``upcell``.  A config is the same JSON mapping the
CLI reads (engineering units).  The oracle follows the paper's formulas
directly, but by routes that differ from the package's:

* every fractional power moment E[P_k^alpha] is integrated numerically
  over the transmit-power law (in log-power, where the density is a smooth
  bump), for common and mixed path-loss exponents alike;
* the tail integral J(eta, a) is the Gauss hypergeometric closed form
  a^(2-eta)/(eta-2) 2F1(1, 1-2/eta; 2-2/eta; -a^(-eta)), which
  :func:`self_test` checks against J's defining integral;
* the rate integral is a tanh-sinh quadrature split at decades.

Every quadrature reports its error estimate, and :class:`OracleError` is
raised when it exceeds ``REL_TOL`` of the value.

Run as a script to rewrite ``oracle_table.json``, the oracle values on the
benchmark's fixed sweep grid, which the benchmark compares every CSV row
against::

    python3 upbench/oracle.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 25
REL_TOL = mp.mpf("1e-15")
HERE = Path(__file__).resolve().parent
TABLE = HERE / "oracle_table.json"

# the sweep grid of every analytic workload: rho_o of the swept tier, dBm
GRID = (-120.0, -40.0, 81)
SWEPT_TIER = 0


class OracleError(ArithmeticError):
    """An oracle quadrature did not reach its error target."""


def grid_values() -> list[float]:
    lo, hi, n = GRID
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _dbm(x) -> mp.mpf:
    return mp.power(10, (mp.mpf(x) - 30) / 10)


class Network:
    """A config mapping in SI units at mpmath precision."""

    def __init__(self, mapping: dict):
        self.lam, self.rho, self.theta, self.eta = [], [], [], []
        for t in mapping["tiers"]:
            self.lam.append(mp.mpf(t["lambda_per_km2"]) * mp.mpf("1e-6"))
            self.rho.append(_dbm(t["rho_o_dbm"]))
            self.theta.append(mp.power(10, mp.mpf(t.get("theta_db", 0.0)) / 10))
            self.eta.append(mp.mpf(t.get("eta", 4.0)))
        p = mapping.get("p_max_watts", 1.0)
        self.p_max = mp.inf if str(p).lower() in ("inf", "infinity") else mp.mpf(p)
        noise = mapping.get("noise_dbm", -90.0)
        self.noise = mp.mpf(0) if noise is None else _dbm(noise)

    @property
    def n_tiers(self) -> int:
        return len(self.lam)

    def reach_exponent(self, x, rho) -> mp.mpf:
        """sum_t pi lambda_t (x/rho)^(2/eta_t): the void exponent of the
        disc in which a BS needs at most power x at cutoff rho."""
        return mp.fsum(
            mp.pi * lam * (x / rho) ** (2 / eta) for lam, eta in zip(self.lam, self.eta)
        )


def _quad(f, points) -> mp.mpf:
    value, err = mp.quad(f, points, error=True)
    if not err <= REL_TOL * abs(value) + mp.mpf("1e-300"):
        raise OracleError(f"quadrature error {mp.nstr(err, 3)} on {mp.nstr(value, 10)}")
    return value


def truncation_outage(net: Network, j: int) -> mp.mpf:
    if net.p_max == mp.inf:
        return mp.mpf(0)
    return mp.exp(-net.reach_exponent(net.p_max, net.rho[j]))


def power_moment(net: Network, k: int, alpha) -> mp.mpf:
    """E[P_k^alpha] for an active UE served by tier k.

    The power law has cdf (1 - exp(-V(x))) / (1 - exp(-V(p_max))) with V
    the void exponent; with x = e^u the integrand x^alpha x f(x) is a
    smooth bump around the scale where V = 1.
    """
    rho = net.rho[k]

    def integrand(u):
        x = mp.exp(u)
        slope = mp.fsum(
            (2 / eta) * mp.pi * lam * (x / rho) ** (2 / eta)
            for lam, eta in zip(net.lam, net.eta)
        )
        return x**alpha * slope * mp.exp(-net.reach_exponent(x, rho))

    # log-power at which each tier's void exponent reaches 1
    scale = min(
        mp.log(rho) - eta / 2 * mp.log(mp.pi * lam) for lam, eta in zip(net.lam, net.eta)
    )
    top = mp.log(net.p_max) if net.p_max != mp.inf else scale + 10 * max(net.eta)
    points = [-mp.inf] + [scale + d for d in (-40, -20, -8, -3, 0, 3, 8, 20)]
    points = [u for u in points if u < top] + [top]
    norm = -mp.expm1(-net.reach_exponent(net.p_max, rho)) if net.p_max != mp.inf else 1
    return _quad(integrand, points) / norm


def tail_integral(eta, a) -> mp.mpf:
    """J(eta, a) = int_a^inf y / (y^eta + 1) dy through the 2F1 closed form."""
    eta, a = mp.mpf(eta), mp.mpf(a)
    if a == 0:
        return mp.pi / (eta * mp.sin(2 * mp.pi / eta))
    return a ** (2 - eta) / (eta - 2) * mp.hyp2f1(1, 1 - 2 / eta, 2 - 2 / eta, -a ** (-eta))


def tail_integral_definition(eta, a) -> mp.mpf:
    """J(eta, a) by quadrature of its defining integral (self-test only).

    Beyond b = max(a, 1) the substitution u = y^(2-eta) gives
    1/(eta-2) int_0^(b^(2-eta)) du / (1 + u^(eta/(eta-2))), a finite range
    in place of the slowly decaying tail of eta near 2.
    """
    eta, a = mp.mpf(eta), mp.mpf(a)
    b = max(a, mp.mpf(1))
    head = mp.quad(lambda y: y / (y**eta + 1), [a, b]) if a < b else 0
    tail = mp.quad(lambda u: 1 / (1 + u ** (eta / (eta - 2))), [0, b ** (2 - eta)])
    return head + tail / (eta - 2)


def _outage_exponent(net: Network, j: int, moments, x) -> mp.mpf:
    """Exponent of P(SINR > x) for tier j: noise plus every tier's
    interference Laplace exponent at s = x / rho_j."""
    eta, rho = net.eta[j], net.rho[j]
    s = x / rho
    total = s * net.noise
    for lam, rho_k, m in zip(net.lam, net.rho, moments):
        lower = (s * rho_k) ** (-1 / eta)
        total += 2 * mp.pi * lam * s ** (2 / eta) * m * tail_integral(eta, lower)
    return total


def metrics(mapping: dict, tier: int) -> dict[str, float]:
    """O_p, O_s, R (nats/s/Hz) and E[P] (W) of ``tier`` as floats."""
    net = Network(mapping)
    eta = net.eta[tier]
    moments = [power_moment(net, k, 2 / eta) for k in range(net.n_tiers)]
    o_s = -mp.expm1(-_outage_exponent(net, tier, moments, net.theta[tier]))
    points = [0] + [mp.mpf(10) ** e for e in range(-14, 10)] + [mp.inf]
    rate = _quad(
        lambda x: mp.exp(-_outage_exponent(net, tier, moments, x)) / (1 + x), points
    )
    return {
        "O_p": float(truncation_outage(net, tier)),
        "O_s": float(o_s),
        "R_nats": float(rate),
        "E_P_w": float(power_moment(net, tier, 1)),
    }


def with_cutoff(mapping: dict, tier: int, rho_dbm: float) -> dict:
    out = json.loads(json.dumps(mapping))
    out["tiers"][tier]["rho_o_dbm"] = rho_dbm
    return out


def self_test() -> list[str]:
    """Known values the oracle must reproduce; returns the failures."""
    failures = []
    # eta = 4, theta = 1, unbounded power, no noise: O_s = 1 - exp(-pi/4)
    # and the rate is the constant 0.77 nats/s/Hz, whatever lambda and rho_o
    for lam, rho in ((2.0, -70.0), (100.0, -50.0)):
        cfg = {
            "tiers": [{"lambda_per_km2": lam, "rho_o_dbm": rho, "theta_db": 0.0, "eta": 4.0}],
            "p_max_watts": "inf",
            "noise_dbm": None,
        }
        m = metrics(cfg, 0)
        exact = -math.expm1(-math.pi / 4.0)
        if not abs(m["O_s"] - exact) <= 1e-14:
            failures.append(f"O_s {m['O_s']!r} != 1 - exp(-pi/4) = {exact!r}")
        if not abs(m["R_nats"] - 0.77) <= 5e-3:
            failures.append(f"interference-limited R {m['R_nats']!r} is not 0.77")
        if m["O_p"] != 0.0:
            failures.append(f"O_p {m['O_p']!r} != 0 at unbounded power")
    # J against its defining integral, and against the eta = 4 arctan form
    for eta in (2.5, 3.2, 3.5, 4.0, 6.0):
        for a in (0.0, 1e-6, 0.01, 1.0, 10.0, 1e3):
            closed = tail_integral(eta, a)
            direct = tail_integral_definition(eta, a)
            if not abs(closed - direct) <= mp.mpf("1e-20") * closed:
                failures.append(f"J({eta}, {a}): 2F1 {closed} != integral {direct}")
    for a in (0.0, 0.3, 1.0, 1e3):
        arctan = (mp.pi / 2 - mp.atan(mp.mpf(a) ** 2)) / 2
        if not abs(tail_integral(4.0, a) - arctan) <= mp.mpf("1e-20") * arctan:
            failures.append(f"J(4, {a}) != arctan form {arctan}")
    # a single tier with a common exponent: the moment has the closed form
    # rho^alpha gamma(alpha eta/2 + 1, b) / ((pi lam)^(alpha eta/2) (1 - e^-b))
    net = Network({"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0, "eta": 3.5}]})
    for alpha in (2 / mp.mpf(3.5), 1):
        b = net.reach_exponent(net.p_max, net.rho[0])
        s = alpha * net.eta[0] / 2
        exact = (
            net.rho[0] ** alpha * mp.gammainc(s + 1, 0, b)
            / ((mp.pi * net.lam[0]) ** s * -mp.expm1(-b))
        )
        got = power_moment(net, 0, alpha)
        if not abs(got - exact) <= mp.mpf("1e-15") * exact:
            failures.append(f"moment {alpha}: {got} != incomplete-gamma form {exact}")
    return failures


def build_table(configs: dict[str, dict]) -> dict:
    """Oracle values for every analyze row and every sweep grid point."""
    table = {}
    for name, cfg in configs.items():
        analyze = [metrics(cfg, j) for j in range(len(cfg["tiers"]))]
        sweep = {
            f"{v:g}": metrics(with_cutoff(cfg, SWEPT_TIER, v), SWEPT_TIER)
            for v in grid_values()
        }
        table[name] = {"analyze": analyze, "sweep": sweep}
        print(f"oracle: {name} done", file=sys.stderr)
    return table


def main() -> int:
    failures = self_test()
    if failures:
        print("oracle self-test failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    configs = {
        name: json.loads((HERE / "configs" / f"{name}.json").read_text())
        for name in ("closed", "quadrature", "mixture")
    }
    table = {"grid_dbm": list(GRID), "swept_tier": SWEPT_TIER, "values": build_table(configs)}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"oracle: wrote {TABLE.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
