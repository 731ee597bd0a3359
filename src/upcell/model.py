"""Configuration data model shared by the analytic and Monte Carlo paths.

All internal computation is carried out in SI units: watts, meters, and
base stations per square meter.  Engineering units (dBm, BS/km^2, dB)
appear only at the ingestion boundary, via the ``from_engineering``
constructors and :func:`network_from_mapping`.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ConfigError",
    "TierConfig",
    "NetworkConfig",
    "MetricsReport",
    "dbm_to_watts",
    "watts_to_dbm",
    "network_from_mapping",
]

KM2_PER_M2 = 1e-6  # BS/km^2 -> BS/m^2


class ConfigError(ValueError):
    """Aggregated configuration failure; ``errors`` lists every violation
    as (field path, message) pairs."""

    def __init__(self, errors: Sequence[tuple[str, str]]):
        self.errors = list(errors)
        lines = [f"{path}: {msg}" for path, msg in self.errors]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power level in dBm to watts (10^((dBm - 30)/10))."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_watts: float) -> float:
    """Convert a positive power in watts to dBm.  Inverse of
    :func:`dbm_to_watts` to better than 1e-12 relative."""
    if not x_watts > 0:
        raise ValueError(f"power must be positive to express in dBm, got {x_watts}")
    return 10.0 * math.log10(x_watts) + 30.0


def _shown(value) -> str:
    """``value`` as an error message shows it: shortened by
    :func:`reprlib.repr`, or only its type when even that fails, as for an
    int past the interpreter's limit on int-to-str digits."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _si(errors: list, key: str, value, convert, valid, rule: str,
        allow_inf: bool = False) -> float:
    """``convert(value)``, the SI value of the argument ``key``, or NaN and
    an error at ``key`` when ``value`` is no number (a bool included) or
    overflows, or its SI value is NaN, is infinite (unless ``allow_inf``)
    or fails ``valid``, the check that ``rule`` states.  No other check
    flags the NaN, so each bad value is reported once."""
    try:
        if isinstance(value, bool):  # float(True) is 1.0
            raise TypeError
        si = convert(float(value))
    except (TypeError, ValueError):
        problem = f"not a number: {_shown(value)}"
    except OverflowError:
        problem = f"{_shown(value)} is too large to convert to linear units"
    else:
        if math.isnan(si):
            problem = "must not be NaN"
        elif math.isinf(si) and not allow_inf:
            problem = "must be finite"
        elif not valid(si):
            problem = rule
        else:
            return si
    errors.append((key, problem))
    return math.nan


def _floor_errors(k: int, rho_o: float, rho_min: float) -> list[tuple[str, str]]:
    """The error of tier ``k`` when its cutoff ``rho_o`` does not exceed
    the receiver sensitivity ``rho_min`` (both W; 0 means no floor)."""
    if rho_min > 0 and rho_o <= rho_min:
        return [(f"tiers[{k}].rho_o_dbm", "cutoff threshold must exceed the receiver "
                 f"sensitivity rho_min_dbm ({watts_to_dbm(rho_min):g} dBm)")]
    return []


@dataclass(frozen=True)
class TierConfig:
    """One network tier: BS intensity, power-control cutoff, SINR threshold,
    and path-loss exponent, all in SI/linear units."""

    intensity: float  # BS per m^2
    rho_o: float      # cutoff threshold, W
    theta: float      # SINR threshold, linear
    eta: float        # path-loss exponent

    @classmethod
    def from_engineering(
        cls,
        lambda_per_km2: float,
        rho_o_dbm: float,
        theta_db: float = 0.0,
        eta: float = 4.0,
    ) -> "TierConfig":
        """Tier from BS/km^2, dBm and dB.  Raises :class:`ConfigError`,
        naming each offending argument, unless intensity, cutoff and SINR
        threshold are finite and positive in SI units and ``eta`` is finite
        and exceeds 2."""
        errors: list[tuple[str, str]] = []
        tier = cls(
            intensity=_si(errors, "lambda_per_km2", lambda_per_km2,
                          lambda x: x * KM2_PER_M2, lambda x: x > 0,
                          "BS intensity must be positive"),
            rho_o=_si(errors, "rho_o_dbm", rho_o_dbm, dbm_to_watts,
                      lambda x: x > 0, "cutoff threshold must be positive"),
            theta=_si(errors, "theta_db", theta_db, lambda db: 10.0 ** (db / 10.0),
                      lambda x: x > 0, "SINR threshold must be positive"),
            eta=_si(errors, "eta", eta, float, lambda x: x > 2,
                    "path-loss exponent must exceed 2"),
        )
        if errors:
            raise ConfigError(errors)
        return tier


@dataclass(frozen=True)
class NetworkConfig:
    """Tiers plus the global uplink parameters.

    The constructor takes SI values as given and checks none of them; use
    :meth:`from_engineering` for a checked config.
    ``p_max`` may be ``math.inf`` to model an unconstrained transmit power;
    the analytic special cases for that regime are then evaluated exactly.
    The simulation window is the torus [0, window_side)^2.
    """

    tiers: tuple[TierConfig, ...]
    p_max: float              # maximum UE transmit power, W (may be inf)
    noise: float              # noise power sigma^2, W
    rho_min: float = 0.0      # receiver sensitivity, W (bounds the cutoffs only)
    window_side: float = 20000.0   # simulation window edge, m

    @property
    def total_intensity(self) -> float:
        return sum(t.intensity for t in self.tiers)

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    def common_exponent(self) -> bool:
        """True when every tier shares one path-loss exponent."""
        return len({t.eta for t in self.tiers}) <= 1

    def with_tier_rho_o(self, j: int, rho_o_dbm: float) -> "NetworkConfig":
        """Copy of the config with tier ``j``'s cutoff replaced by
        ``rho_o_dbm``, converted to watts as a file's cutoff is.  Raises
        :class:`ConfigError` at ``tiers[j].rho_o_dbm`` unless the cutoff is
        finite and positive in watts, the rule of a file's cutoff, and
        exceeds ``rho_min``."""
        errors: list[tuple[str, str]] = []
        rho_o = _si(errors, f"tiers[{j}].rho_o_dbm", rho_o_dbm, dbm_to_watts,
                    lambda x: x > 0, "cutoff threshold must be positive")
        if errors := errors or _floor_errors(j, rho_o, self.rho_min):
            raise ConfigError(errors)
        tiers = tuple(
            replace(t, rho_o=rho_o) if k == j else t for k, t in enumerate(self.tiers)
        )
        return replace(self, tiers=tiers)

    @classmethod
    def from_engineering(
        cls,
        tiers: Iterable[TierConfig],
        p_max_watts: float = 1.0,
        noise_dbm: float | None = -90.0,
        rho_min_dbm: float | None = None,
        window_km: float = 20.0,
        guard_km: None = None,
    ) -> "NetworkConfig":
        """Checked network from watts, dBm and km.  ``None`` means no
        noise for ``noise_dbm`` and no receiver-sensitivity floor for
        ``rho_min_dbm``.  ``guard_km`` must be ``None``: the simulation
        window is periodic and has no guard ring.

        Raises :class:`ConfigError`, naming each offending argument, unless
        there is a tier and every cutoff exceeds the sensitivity floor;
        ``p_max_watts`` is positive (``inf`` allowed); noise and floor are
        finite and nonnegative in watts; ``window_km`` is finite and
        positive; and ``guard_km`` is ``None``.
        """
        tiers = tuple(tiers)
        errors = [] if tiers else [("tiers", "at least one tier is required")]
        config = cls(
            tiers=tiers,
            p_max=_si(errors, "p_max_watts", p_max_watts, float, lambda x: x > 0,
                      "maximum transmit power must be positive", allow_inf=True),
            noise=0.0 if noise_dbm is None else _si(
                errors, "noise_dbm", noise_dbm, dbm_to_watts, lambda x: x >= 0,
                "noise power must be nonnegative"),
            rho_min=0.0 if rho_min_dbm is None else _si(
                errors, "rho_min_dbm", rho_min_dbm, dbm_to_watts, lambda x: x >= 0,
                "receiver sensitivity must be nonnegative"),
            window_side=_si(errors, "window_km", window_km, lambda x: x * 1000.0,
                            lambda x: x > 0, "window side must be positive"),
        )
        if guard_km is not None:
            errors.append(("guard_km", "must be null or omitted: the simulation "
                           "window is periodic, with no guard ring"))
        for k, t in enumerate(tiers):
            errors += _floor_errors(k, t.rho_o, config.rho_min)
        if errors:
            raise ConfigError(errors)
        return config


@dataclass(frozen=True)
class MetricsReport:
    """The six headline uplink metrics for one tier.

    ``total_outage`` and ``effective_spectral_efficiency`` are derived
    identities and are kept exact by constructing reports through
    :meth:`from_components`.
    """

    truncation_outage: float            # O_p
    sinr_outage: float                  # O_s, conditional on active
    total_outage: float                 # O_p + (1 - O_p) O_s
    spectral_efficiency: float          # nats/s/Hz, conditional on active
    effective_spectral_efficiency: float  # (1 - O_p) * spectral_efficiency
    mean_tx_power: float                # E[P], W

    @classmethod
    def from_components(
        cls,
        truncation_outage: float,
        sinr_outage: float,
        spectral_efficiency: float,
        mean_tx_power: float,
    ) -> "MetricsReport":
        o_p, o_s = truncation_outage, sinr_outage
        return cls(
            truncation_outage=o_p,
            sinr_outage=o_s,
            total_outage=o_p + (1.0 - o_p) * o_s,
            spectral_efficiency=spectral_efficiency,
            effective_spectral_efficiency=(1.0 - o_p) * spectral_efficiency,
            mean_tx_power=mean_tx_power,
        )


# --- structured config files -------------------------------------------------
#
# The on-disk keys are the arguments of the two ``from_engineering``
# constructors, and an omitted key takes that argument's default:
#
#   {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0,  # required
#               "theta_db": 0.0, "eta": 4.0}],
#    "p_max_watts": 1.0,          # the string "inf" is accepted
#    "noise_dbm": -90.0,          # null: noiseless
#    "rho_min_dbm": null,         # omitted or null: no sensitivity floor
#    "window_km": 20.0,
#    "guard_km": null}            # omitted or null; the window is periodic

_REQUIRED_TIER_KEYS = ("lambda_per_km2", "rho_o_dbm")
_TIER_KEYS = _REQUIRED_TIER_KEYS + ("theta_db", "eta")
_NETWORK_KEYS = ("p_max_watts", "noise_dbm", "rho_min_dbm", "window_km", "guard_km")


def _known(errors: list, table: Mapping, keys: Sequence[str], base: str = "") -> dict:
    """The entries of ``table`` whose key is in ``keys``; every other key
    is reported at ``base`` + its key."""
    errors += [(f"{base}{key}", "unknown key") for key in table if key not in keys]
    return {key: value for key, value in table.items() if key in keys}


def network_from_mapping(mapping: Mapping) -> NetworkConfig:
    """Build a :class:`NetworkConfig` from a parsed config file through the
    two ``from_engineering`` constructors.

    Every unknown or missing key, malformed number and range error goes
    into one :class:`ConfigError`, each once, under its file key.
    """
    errors: list[tuple[str, str]] = []
    raw_tiers = mapping.get("tiers")
    if not isinstance(raw_tiers, Sequence) or isinstance(raw_tiers, (str, bytes)) or not raw_tiers:
        errors.append(("tiers", "must be a non-empty list of tier tables"))
        raw_tiers = []
    # a stand-in replaces each tier that is no table or fails its checks, so
    # later tiers keep their index, and keeps a cutoff that converted, for
    # the floor check; it also stands in for a bad tier list, lest the
    # network constructor report that list a second time
    stand_in = TierConfig(math.nan, math.nan, math.nan, math.nan)
    tiers = []
    for k, entry in enumerate(raw_tiers):
        base = f"tiers[{k}]"
        if not isinstance(entry, Mapping):
            errors.append((base, "must be a table"))
            tiers.append(stand_in)
            continue
        missing = [key for key in _REQUIRED_TIER_KEYS if key not in entry]
        errors += [(f"{base}.{key}", "missing key") for key in missing]
        kwargs = dict.fromkeys(missing, math.nan) | _known(errors, entry, _TIER_KEYS, f"{base}.")
        try:
            tiers.append(TierConfig.from_engineering(**kwargs))
        except ConfigError as exc:
            errors += [(f"{base}.{key}", msg) for key, msg in exc.errors if key not in missing]
            bad_cutoff = any(key == "rho_o_dbm" for key, _ in exc.errors)
            rho_o = math.nan if bad_cutoff else dbm_to_watts(float(kwargs["rho_o_dbm"]))
            tiers.append(replace(stand_in, rho_o=rho_o))
    network = _known(errors, {key: v for key, v in mapping.items() if key != "tiers"},
                     _NETWORK_KEYS)
    try:
        config = NetworkConfig.from_engineering(tiers or [stand_in], **network)
    except ConfigError as exc:
        errors += exc.errors
    if errors:
        raise ConfigError(errors)
    return config
