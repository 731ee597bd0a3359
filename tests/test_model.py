"""Configuration model: unit conversions, validation, and the derived
metric identities."""

import inspect
import json
import math
import re
import reprlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upcell import analytic
from upcell.model import (
    ConfigError,
    MetricsReport,
    NetworkConfig,
    TierConfig,
    dbm_to_watts,
    network_from_mapping,
    watts_to_dbm,
)


# the error of any guard_km but null
GUARD_RULE = ("must be null or omitted: the simulation window is periodic, "
              "with no guard ring")


def paper_defaults(**overrides):
    kwargs = dict(
        tiers=[TierConfig.from_engineering(2.0, -70.0, 0.0, 4.0)],
        p_max_watts=1.0,
        noise_dbm=-90.0,
        rho_min_dbm=-90.0,
        window_km=20.0,
    )
    kwargs.update(overrides)
    return NetworkConfig.from_engineering(**kwargs)


class TestUnits:
    def test_dbm_definitions(self):
        assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-14)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-14)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14)

    def test_round_trip(self):
        for w in (0.2812, 1e-10, 3.5, 1e-15):
            assert watts_to_dbm(dbm_to_watts(watts_to_dbm(w))) == pytest.approx(
                watts_to_dbm(w), rel=1e-12
            )
            assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)

    def test_nonpositive_watts_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)


class TestValidation:
    def test_paper_defaults_valid(self):
        cfg = paper_defaults()
        assert cfg.tiers[0].intensity == pytest.approx(2e-6)
        assert cfg.tiers[0].rho_o == pytest.approx(1e-10)
        assert cfg.tiers[0].theta == 1.0
        assert cfg.noise == pytest.approx(1e-12)
        assert cfg.with_tier_rho_o(0, -70.0) == cfg

    def test_eta_at_divergence_boundary(self):
        with pytest.raises(ConfigError, match="path-loss exponent must exceed 2"):
            paper_defaults(tiers=[TierConfig.from_engineering(2.0, -70.0, 0.0, 2.0)])

    def test_cutoff_below_sensitivity(self):
        with pytest.raises(ConfigError, match="receiver sensitivity"):
            paper_defaults(
                tiers=[TierConfig.from_engineering(2.0, -95.0)], rho_min_dbm=-90.0
            )

    def test_every_violation_reported(self):
        # a -inf dB threshold is 0 linear; no dBm level is a negative
        # noise power, so the noise is made infinite instead.  The tier's
        # cutoff is checked against the floor although the tier failed.
        bad = {
            "tiers": [{"lambda_per_km2": -1.0, "rho_o_dbm": -95.0,
                       "theta_db": -math.inf, "eta": 2.0}],
            "p_max_watts": -2.0,
            "noise_dbm": math.inf,
            "rho_min_dbm": -90.0,
            "window_km": 0.0,
        }
        with pytest.raises(ConfigError) as info:
            network_from_mapping(bad)
        paths = {path for path, _ in info.value.errors}
        assert {
            "tiers[0].lambda_per_km2",
            "tiers[0].theta_db",
            "tiers[0].eta",
            "tiers[0].rho_o_dbm",
            "p_max_watts",
            "noise_dbm",
            "window_km",
        } <= paths

    def test_no_tiers(self):
        with pytest.raises(ConfigError, match="at least one tier") as info:
            NetworkConfig.from_engineering(tiers=[])
        assert [p for p, _ in info.value.errors] == ["tiers"]

    def test_infinite_p_max_allowed(self):
        cfg = paper_defaults(p_max_watts=math.inf)
        assert math.isinf(cfg.p_max)


class TestMappingIngestion:
    def test_round_trip_keys(self):
        mapping = {
            "tiers": [
                {"lambda_per_km2": 2.0, "rho_o_dbm": -70.0, "theta_db": 0.0,
                 "eta": 4.0}
            ],
            "p_max_watts": 1.0,
            "noise_dbm": -90.0,
            "rho_min_dbm": -90.0,
            "window_km": 20.0,
            "guard_km": None,
        }
        cfg = network_from_mapping(mapping)
        assert cfg == paper_defaults()

    def test_inf_power_string(self):
        cfg = network_from_mapping(
            {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0}],
             "p_max_watts": "inf", "rho_min_dbm": None}
        )
        assert math.isinf(cfg.p_max)

    def test_malformed_numbers_do_not_crash(self):
        with pytest.raises(ConfigError) as info:
            network_from_mapping(
                {"tiers": [{"lambda_per_km2": "two", "rho_o_dbm": -70.0}],
                 "p_max_watts": {}}
            )
        paths = {path for path, _ in info.value.errors}
        assert "tiers[0].lambda_per_km2" in paths
        assert "p_max_watts" in paths

    def test_unknown_key_flagged(self):
        with pytest.raises(ConfigError, match="unknown key"):
            network_from_mapping(
                {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0}],
                 "lambda": 3.0}
            )

    @pytest.mark.parametrize(
        "path", ["tiers[0].theta_db", "tiers[0].rho_o_dbm", "noise_dbm", "rho_min_dbm"]
    )
    def test_overflowing_level_named(self, path):
        # 10^(4000/10) overflows a float
        mapping = {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0}]}
        table, _, key = path.rpartition(".")
        (mapping["tiers"][0] if table else mapping)[key] = 4000.0
        with pytest.raises(ConfigError) as info:
            network_from_mapping(mapping)
        assert path in {p for p, _ in info.value.errors}

    def test_from_engineering_names_overflowing_argument(self):
        with pytest.raises(ConfigError) as info:
            TierConfig.from_engineering(2.0, 3200.0, 4000.0)
        assert [p for p, _ in info.value.errors] == ["rho_o_dbm", "theta_db"]
        for name in ("noise_dbm", "rho_min_dbm"):
            with pytest.raises(ConfigError) as info:
                paper_defaults(**{name: 4000.0})
            assert [p for p, _ in info.value.errors] == [name]

    @pytest.mark.parametrize("path", [
        "tiers[0].lambda_per_km2", "tiers[0].rho_o_dbm", "tiers[0].theta_db",
        "tiers[0].eta", "p_max_watts", "noise_dbm", "rho_min_dbm", "window_km",
        "guard_km",
    ])
    def test_malformed_value_reported_once_under_its_key(self, path):
        mapping = {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0}]}
        table, _, key = path.rpartition(".")
        (mapping["tiers"][0] if table else mapping)[key] = "x"
        with pytest.raises(ConfigError) as info:
            network_from_mapping(mapping)
        # any guard but null is an error, a number or not
        message = GUARD_RULE if key == "guard_km" else "not a number: 'x'"
        assert info.value.errors == [(path, message)]

    @pytest.mark.parametrize("key", ["lambda_per_km2", "rho_o_dbm"])
    def test_missing_tier_key_reported_once(self, key):
        tier = {"lambda_per_km2": 2.0, "rho_o_dbm": -70.0}
        del tier[key]
        with pytest.raises(ConfigError) as info:
            network_from_mapping({"tiers": [tier]})
        assert info.value.errors == [(f"tiers[0].{key}", "missing key")]

    def test_malformed_and_range_errors_reported_together(self):
        # the malformed p_max and the out-of-range eta, in one ConfigError
        mapping = {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0, "eta": 2}],
                   "p_max_watts": "x"}
        with pytest.raises(ConfigError) as info:
            network_from_mapping(mapping)
        assert sorted(info.value.errors) == [
            ("p_max_watts", "not a number: 'x'"),
            ("tiers[0].eta", "path-loss exponent must exceed 2"),
        ]

    def test_bool_argument_rejected_by_constructor(self):
        with pytest.raises(ConfigError) as info:
            TierConfig.from_engineering(True, -70.0)
        assert info.value.errors == [("lambda_per_km2", "not a number: True")]

    def test_int_past_digit_limit_rejected_by_constructor(self):
        # repr of 10^5000 itself raises past the int-to-str digit limit
        with pytest.raises(ConfigError) as info:
            TierConfig.from_engineering(10**5000, -70.0)
        assert info.value.errors == [
            ("lambda_per_km2", "<int too long to print> is too large to convert "
             "to linear units")]

    # -5000 dBm rounds to 0 W, and 4000 dBm overflows a float
    @pytest.mark.parametrize("rho_o_dbm, problem", [
        (math.inf, "must be finite"), (math.nan, "must not be NaN"),
        (-5000.0, "cutoff threshold must be positive"),
        (4000.0, "4000.0 is too large to convert to linear units"),
    ], ids=["inf", "nan", "-5000.0", "4000.0"])
    def test_replaced_cutoff_must_be_finite_and_positive(self, rho_o_dbm, problem):
        with pytest.raises(ConfigError) as info:
            paper_defaults().with_tier_rho_o(0, rho_o_dbm)
        assert info.value.errors == [("tiers[0].rho_o_dbm", problem)]

    def test_tier_missing_a_key_keeps_its_other_checks(self):
        # the tier lacking its intensity still has its exponent and its
        # cutoff checked, the cutoff against the floor
        with pytest.raises(ConfigError) as info:
            network_from_mapping(
                {"tiers": [{"rho_o_dbm": -95.0, "eta": 2.0}], "rho_min_dbm": -90.0}
            )
        assert [p for p, _ in info.value.errors] == [
            "tiers[0].lambda_per_km2", "tiers[0].eta", "tiers[0].rho_o_dbm",
        ]

    def test_omitted_sensitivity_sets_no_floor_on_both_routes(self):
        # a -95 dBm cutoff would fail a -90 dBm floor
        from_file = network_from_mapping(
            {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -95.0}]}
        )
        from_python = NetworkConfig.from_engineering(
            [TierConfig.from_engineering(2.0, -95.0)]
        )
        assert from_file == from_python
        assert from_file.rho_min == 0.0

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError) as info:
            network_from_mapping(
                {"tiers": [{"lambda_per_km2": True, "rho_o_dbm": -70.0}],
                 "p_max_watts": True}
            )
        errors = dict(info.value.errors)
        assert errors["tiers[0].lambda_per_km2"] == "not a number: True"
        assert errors["p_max_watts"] == "not a number: True"

    def test_skipped_tier_shifts_no_index(self):
        # tier 1's exponent must not be reported as tier 0's
        with pytest.raises(ConfigError) as info:
            network_from_mapping(
                {"tiers": ["macro", {"lambda_per_km2": 2.0, "rho_o_dbm": -70.0,
                                     "eta": 2.0}]}
            )
        paths = {path for path, _ in info.value.errors}
        assert "tiers[0]" in paths and "tiers[0].eta" not in paths

    def test_boundary_and_si_ingestion_agree(self):
        # identical analytic results whether the config came in engineering
        # units or was built directly in SI
        eng = paper_defaults()
        si = NetworkConfig(
            tiers=(TierConfig(2e-6, 1e-10, 1.0, 4.0),),
            p_max=1.0,
            noise=1e-12,
            rho_min=1e-12,
            window_side=20000.0,
        )
        for j in range(1):
            a = analytic.full_report(eng, j)
            b = analytic.full_report(si, j)
            for field in (
                "truncation_outage", "sinr_outage", "total_outage",
                "spectral_efficiency", "mean_tx_power",
            ):
                np.testing.assert_allclose(
                    getattr(a, field), getattr(b, field), rtol=1e-12
                )


# valid config files: 1-3 tiers whose cutoffs clear any sensitivity floor;
# each optional key present or absent, and the nullable ones also null
_TIER_TABLES = st.fixed_dictionaries(
    {"lambda_per_km2": st.floats(0.01, 100.0), "rho_o_dbm": st.floats(-100.0, -40.0)},
    optional={"theta_db": st.floats(-10.0, 10.0), "eta": st.floats(2.1, 6.0)},
)
_MAPPINGS = st.fixed_dictionaries(
    {"tiers": st.lists(_TIER_TABLES, min_size=1, max_size=3)},
    optional={
        "p_max_watts": st.floats(0.01, 10.0) | st.just("inf"),
        "noise_dbm": st.none() | st.floats(-150.0, -60.0),
        "rho_min_dbm": st.none() | st.floats(-200.0, -101.0),
        "window_km": st.floats(0.5, 50.0),
        "guard_km": st.none(),
    },
)


@settings(max_examples=200, deadline=None)
@given(_MAPPINGS)
def test_file_and_python_routes_agree(mapping):
    network = {key: v for key, v in mapping.items() if key != "tiers"}
    if network.get("p_max_watts") == "inf":
        network["p_max_watts"] = math.inf
    expected = NetworkConfig.from_engineering(
        [TierConfig.from_engineering(**t) for t in mapping["tiers"]], **network
    )
    assert network_from_mapping(mapping) == expected


# the file keys: the arguments of the two constructors
_TIER_ARGS = set(inspect.signature(TierConfig.from_engineering).parameters)
_NETWORK_ARGS = set(inspect.signature(NetworkConfig.from_engineering).parameters)

# one case per rule of the two constructors, each broken alone in a valid
# file: (file key, value, reported path, message).  No dBm level is a
# negative power, so the noise and the floor break only by overflow, NaN or
# infinity.
_RULES = [
    ("tiers", [], "tiers", "must be a non-empty list of tier tables"),
    ("lambda_per_km2", 0.0, "tiers[0].lambda_per_km2", "BS intensity must be positive"),
    ("lambda_per_km2", math.inf, "tiers[0].lambda_per_km2", "must be finite"),
    # a JSON integer too large for a float
    ("lambda_per_km2", 10**400, "tiers[0].lambda_per_km2",
     f"{reprlib.repr(10**400)} is too large to convert to linear units"),
    # 10^-503 W underflows to 0
    ("rho_o_dbm", -5000.0, "tiers[0].rho_o_dbm", "cutoff threshold must be positive"),
    ("rho_o_dbm", 4000.0, "tiers[0].rho_o_dbm",
     "4000.0 is too large to convert to linear units"),
    ("rho_o_dbm", math.nan, "tiers[0].rho_o_dbm", "must not be NaN"),
    ("theta_db", -5000.0, "tiers[0].theta_db", "SINR threshold must be positive"),
    ("theta_db", math.inf, "tiers[0].theta_db", "must be finite"),
    ("eta", 2.0, "tiers[0].eta", "path-loss exponent must exceed 2"),
    ("eta", math.inf, "tiers[0].eta", "must be finite"),
    ("rho_min_dbm", -70.0, "tiers[0].rho_o_dbm",
     "cutoff threshold must exceed the receiver sensitivity rho_min_dbm (-70 dBm)"),
    ("p_max_watts", 0.0, "p_max_watts", "maximum transmit power must be positive"),
    ("p_max_watts", math.nan, "p_max_watts", "must not be NaN"),
    ("p_max_watts", None, "p_max_watts", "not a number: None"),
    ("noise_dbm", math.inf, "noise_dbm", "must be finite"),
    ("noise_dbm", 4000.0, "noise_dbm", "4000.0 is too large to convert to linear units"),
    ("rho_min_dbm", math.nan, "rho_min_dbm", "must not be NaN"),
    ("rho_min_dbm", math.inf, "rho_min_dbm", "must be finite"),
    ("window_km", 0.0, "window_km", "window side must be positive"),
    ("window_km", math.inf, "window_km", "must be finite"),
    ("window_km", 10**400, "window_km",
     f"{reprlib.repr(10**400)} is too large to convert to linear units"),
    ("window_km", None, "window_km", "not a number: None"),
    ("guard_km", -1.0, "guard_km", GUARD_RULE),
    ("guard_km", math.inf, "guard_km", GUARD_RULE),
]


@pytest.mark.parametrize("key, value, path, message", _RULES,
                         ids=[f"{key}={reprlib.repr(value)}" for key, value, *_ in _RULES])
def test_each_rule_rejects_under_its_file_key(key, value, path, message):
    mapping = {"tiers": [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0}]}
    (mapping["tiers"][0] if key in _TIER_ARGS else mapping)[key] = value
    with pytest.raises(ConfigError) as info:
        network_from_mapping(mapping)
    assert info.value.errors == [(path, message)]


# values that break each key's rule, whatever the rest of a _MAPPINGS file
# holds (0 dBm lies above every cutoff there)
_OUT_OF_RANGE = {
    "lambda_per_km2": [0.0, -1.0, math.inf],
    "rho_o_dbm": [-5000.0, 4000.0, math.nan],
    "theta_db": [-5000.0, 4000.0, math.inf],
    "eta": [2.0, 1.0, math.nan],
    "p_max_watts": [0.0, -1.0, math.nan],
    "noise_dbm": [4000.0, math.inf],
    "rho_min_dbm": [0.0, 4000.0],
    "window_km": [0.0, -1.0, math.inf],
    "guard_km": [-1.0, math.inf, 0.0, 1.0],
}


@settings(max_examples=200, deadline=None)
@given(_MAPPINGS, st.data())
def test_errors_named_by_file_keys(mapping, data):
    key = data.draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
    if key in _TIER_ARGS:
        table = data.draw(st.sampled_from(mapping["tiers"]))
    else:
        table = mapping
    table[key] = data.draw(st.sampled_from(_OUT_OF_RANGE[key]))
    with pytest.raises(ConfigError) as info:
        network_from_mapping(mapping)
    held = {"tiers"} | set(mapping) | {
        f"tiers[{k}].{tier_key}"
        for k, tier in enumerate(mapping["tiers"]) for tier_key in tier
    }
    assert {path for path, _ in info.value.errors} <= held


def test_readme_config_matches_constructors():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    mapping = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    network_from_mapping(mapping)
    assert set(mapping) == _NETWORK_ARGS
    for tier in mapping["tiers"]:
        assert set(tier) == _TIER_ARGS


class TestMetricsReport:
    def test_composite_identities_exact(self):
        report = MetricsReport.from_components(0.3, 0.25, 1.5, 0.2)
        assert report.total_outage == 0.3 + (1.0 - 0.3) * 0.25
        assert report.effective_spectral_efficiency == (1.0 - 0.3) * 1.5


class TestGuardMargin:
    # the simulation window is a torus: a config may name no guard ring
    def test_null_guard_accepted(self):
        assert paper_defaults(guard_km=None) == paper_defaults()
        assert "guard_margin" not in {f.name for f in fields(NetworkConfig)}

    @pytest.mark.parametrize("guard_km", [0.0, 2.0])
    def test_explicit_guard_rejected(self, guard_km):
        with pytest.raises(ConfigError) as info:
            paper_defaults(guard_km=guard_km)
        assert info.value.errors == [("guard_km", GUARD_RULE)]
