"""Command-line surface: verbs, exit codes, CSV schema, and manifest
sidecars.  Commands are invoked in-process through ``main``."""

import csv
import json
import math
import os
import reprlib
from pathlib import Path

import pytest
import scipy.integrate

import upcell.analytic
import upcell.specfun
from upcell.cli import BASE_COLUMNS, CI_COLUMNS, build_parser, main
from upcell.model import MetricsReport
from upcell.specfun import QuadratureError

PAPER_CONFIG = {
    "tiers": [
        {"lambda_per_km2": 2.0, "rho_o_dbm": -70.0, "theta_db": 0.0, "eta": 4.0}
    ],
    "p_max_watts": 1.0,
    "noise_dbm": -90.0,
    "rho_min_dbm": -90.0,
    "window_km": 20.0,
}

# small, fast geometry for the simulation-backed verbs
SMALL_CONFIG = {
    "tiers": [
        {"lambda_per_km2": 20.0, "rho_o_dbm": -70.0, "theta_db": 0.0, "eta": 4.0}
    ],
    "p_max_watts": 1.0,
    "noise_dbm": -90.0,
    "rho_min_dbm": None,
    "window_km": 2.0,
}


@pytest.fixture
def paper_config(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(PAPER_CONFIG))
    return str(path)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_paper_defaults_row(self, paper_config, tmp_path):
        out = tmp_path / "analyze.csv"
        assert main(["analyze", "--config", paper_config, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == BASE_COLUMNS
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["O_p"]) == pytest.approx(0.5334880910911033, rel=1e-11)
        assert float(row["rho_o_dbm"]) == pytest.approx(-70.0)
        assert float(row["lambda_per_km2"]) == pytest.approx(2.0)
        # manifest sidecar
        manifest = json.loads((tmp_path / "analyze.csv.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["iterations"] is None
        assert len(manifest["config_digest"]) == 64

    def test_row_per_tier_by_default(self, tmp_path):
        cfg = dict(PAPER_CONFIG)
        cfg["tiers"] = [
            {"lambda_per_km2": 2.0, "rho_o_dbm": -70.0},
            {"lambda_per_km2": 5.0, "rho_o_dbm": -75.0},
        ]
        path = tmp_path / "two.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "two.csv"
        assert main(["analyze", "--config", str(path), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_divergent_exponent_exits_2(self, tmp_path, capsys):
        cfg = dict(PAPER_CONFIG)
        cfg["tiers"] = [{"lambda_per_km2": 2.0, "rho_o_dbm": -70.0, "eta": 2.0}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(path), "--output",
                     str(tmp_path / "x.csv")])
        assert code == 2
        assert "tiers[0].eta" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["analyze", "--config", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_numeric_failure_exits_3(self, paper_config, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(upcell.analytic, "full_report", broken)
        code = main(["analyze", "--config", paper_config, "--output",
                     str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize(
        "path", ["tiers[0].theta_db", "tiers[0].rho_o_dbm", "noise_dbm", "rho_min_dbm"]
    )
    def test_overflowing_level_exits_2(self, path, tmp_path, capsys):
        cfg = json.loads(json.dumps(PAPER_CONFIG))
        table, _, key = path.rpartition(".")
        (cfg["tiers"][0] if table else cfg)[key] = 4000
        config = tmp_path / "big.json"
        config.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(config), "--output",
                     str(tmp_path / "x.csv")])
        assert code == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["tiers[0].lambda_per_km2", "window_km"])
    def test_integer_too_large_for_a_float_exits_2(self, path, tmp_path, capsys):
        cfg = json.loads(json.dumps(PAPER_CONFIG))
        table, _, key = path.rpartition(".")
        (cfg["tiers"][0] if table else cfg)[key] = 10**400
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(config), "--output",
                     str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: {reprlib.repr(10**400)} is too large" in err

    @pytest.mark.parametrize("text, problem", [
        ('{"tiers": [', "config is not valid JSON"),
        ("[1, 2]", "top-level config must be a JSON object"),
        # Python's JSON reader refuses an int literal of over 4,300 digits
        ('{"tiers": [{"lambda_per_km2": 1%s, "rho_o_dbm": -70.0}]}' % ("0" * 5000),
         "config is not valid JSON"),
    ], ids=["invalid", "not-an-object", "int-past-digit-limit"])
    def test_unparsable_config_exits_2(self, text, problem, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(text)
        code = main(["analyze", "--config", str(config), "--output",
                     str(tmp_path / "x.csv")])
        assert code == 2
        assert f"{config}: {problem}" in capsys.readouterr().err

    def test_boolean_number_exits_2(self, tmp_path, capsys):
        cfg = dict(PAPER_CONFIG, p_max_watts=True)
        config = tmp_path / "bool.json"
        config.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(config), "--output",
                     str(tmp_path / "x.csv")])
        assert code == 2
        assert "p_max_watts: not a number: True" in capsys.readouterr().err

    def test_digest_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(SMALL_CONFIG, sort_keys=True))
        b.write_text(json.dumps(dict(reversed(list(SMALL_CONFIG.items())))))
        for name in ("a", "b"):
            assert main(["analyze", "--config", str(tmp_path / f"{name}.json"),
                         "--output", str(tmp_path / f"{name}.csv")]) == 0
        da = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        db = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert da["config_digest"] == db["config_digest"]


class TestSimulate:
    def test_deterministic_output_bytes(self, small_config, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            code = main([
                "simulate", "--config", small_config, "--output", str(out),
                "--iterations", "120", "--seed", "9", "--workers", "2",
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == BASE_COLUMNS + CI_COLUMNS + ["n_discarded"]
        assert len(rows) == 1
        assert float(dict(zip(header, rows[0]))["O_s"]) <= 1.0

    def test_iteration_floor_exits_2(self, small_config, tmp_path):
        code = main([
            "simulate", "--config", small_config, "--output",
            str(tmp_path / "x.csv"), "--iterations", "50", "--seed", "1",
        ])
        assert code == 2

    def test_workers_below_one_exits_2(self, small_config, tmp_path, capsys):
        code = main([
            "simulate", "--config", small_config, "--output",
            str(tmp_path / "x.csv"), "--iterations", "100", "--seed", "1",
            "--workers", "0",
        ])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_infeasible_saturation_exits_4(self, tmp_path):
        # 0.05 BS / km^2 leaves the 2 km window empty in about 82% of
        # realizations, each of them discarded
        cfg = dict(SMALL_CONFIG)
        cfg["tiers"] = [{"lambda_per_km2": 0.05, "rho_o_dbm": -70.0}]
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(cfg))
        code = main([
            "simulate", "--config", str(path), "--output",
            str(tmp_path / "x.csv"), "--iterations", "100", "--seed", "1",
            "--workers", "2",
        ])
        assert code == 4

    def test_workers_default_counts_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU of an eight-CPU host gets one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for verb in ("simulate", "validate"):
            args = build_parser().parse_args([verb, "--config", "c.json",
                                              "--output", "x.csv"])
            assert args.workers == 1


class TestValidate:
    def test_agreement_exits_0(self, small_config, tmp_path):
        out = tmp_path / "val.csv"
        code = main([
            "validate", "--config", small_config, "--output", str(out),
            "--iterations", "400", "--seed", "3", "--workers", "2",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["metric", "analytic", "simulated", "ci95_half_width",
                          "abs_gap", "within"]
        metrics = {row[0] for row in rows}
        assert {"O_p", "O_s", "O_t", "R_nats", "R_eff_nats", "E_P_w"} == metrics

    def test_corrupted_constant_exits_5(self, small_config, tmp_path, monkeypatch):
        real = upcell.analytic.full_report

        def corrupted(config, tier, **kwargs):
            report = real(config, tier, **kwargs)
            return MetricsReport.from_components(
                min(report.truncation_outage + 0.4, 0.99),
                report.sinr_outage,
                report.spectral_efficiency,
                report.mean_tx_power,
            )

        monkeypatch.setattr(upcell.analytic, "full_report", corrupted)
        code = main([
            "validate", "--config", small_config, "--output",
            str(tmp_path / "x.csv"), "--iterations", "400", "--seed", "3",
            "--workers", "2",
        ])
        assert code == 5


    def test_slack_only_agreement_is_named(self, small_config, tmp_path,
                                           monkeypatch, capsys):
        # O_p is about 0.002 here, so its Wilson interval over 400
        # realizations ends below 0.015: an analytic value raised by 0.015
        # lies outside it but within the 0.02 slack
        real = upcell.analytic.full_report

        def shifted(config, tier, **kwargs):
            report = real(config, tier, **kwargs)
            return MetricsReport.from_components(
                report.truncation_outage + 0.015,
                report.sinr_outage,
                report.spectral_efficiency,
                report.mean_tx_power,
            )

        monkeypatch.setattr(upcell.analytic, "full_report", shifted)
        out = tmp_path / "val.csv"
        code = main([
            "validate", "--config", small_config, "--output", str(out),
            "--iterations", "400", "--seed", "3", "--workers", "2",
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert {row[0]: row[5] for row in rows}["O_p"] == "1"
        summary, slack = capsys.readouterr().out.splitlines()
        assert "agree" in summary
        assert "0.02 absolute or 3% relative slack: " in slack
        assert "O_p (gap 0.01" in slack


class TestSweepVerbs:
    def test_two_point_grid_stars_better_endpoint(self, paper_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", paper_config, "--output", str(out),
            "--from", "-80", "--to", "-60", "--steps", "2",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == BASE_COLUMNS + ["is_optimum"]
        assert len(rows) == 3
        grid = [r for r in rows if r[-1] == "0"]
        starred = [r for r in rows if r[-1] == "1"]
        assert len(starred) == 1
        o_t = [float(dict(zip(header, r))["O_t"]) for r in grid]
        best = grid[0] if o_t[0] <= o_t[1] else grid[1]
        assert starred[0][:-1] == best[:-1]

    def test_optimize_beats_grid(self, paper_config, tmp_path):
        out = tmp_path / "opt.csv"
        code = main([
            "optimize", "--config", paper_config, "--output", str(out),
            "--from", "-88", "--to", "-60", "--steps", "15",
            "--tol-db", "0.05",
        ])
        assert code == 0
        header, rows = read_csv(out)
        o_t = {float(dict(zip(header, r))["rho_o_dbm"]):
               float(dict(zip(header, r))["O_t"]) for r in rows}
        starred = [r for r in rows if r[-1] == "1"]
        star = dict(zip(header, starred[0]))
        assert float(star["O_t"]) <= min(o_t.values()) + 1e-12

    @pytest.mark.parametrize("verb", ["sweep", "optimize"])
    @pytest.mark.parametrize("start", ["-90", "-100"])
    def test_grid_at_or_below_sensitivity_exits_2(self, verb, start, paper_config,
                                                  tmp_path, capsys):
        # the paper config's floor is rho_min_dbm = -90
        out = tmp_path / "x.csv"
        code = main([verb, "--config", paper_config, "--output", str(out),
                     "--from", start, "--to", "-60", "--steps", "3"])
        assert code == 2
        assert "tiers[0].rho_o_dbm" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()

    @pytest.mark.parametrize("verb", ["sweep", "optimize"])
    def test_grid_cutoff_overflowing_to_infinity_exits_2(self, verb, tmp_path, capsys):
        # 4000 dBm is 10^397 W, past the largest float: a config error,
        # with no numpy overflow warning (the suite turns one into an error)
        out = tmp_path / "x.csv"
        config = Path(__file__).resolve().parents[1] / "upbench/configs/closed.json"
        code = main([verb, "--config", str(config), "--output", str(out),
                     "--from", "-70", "--to", "4000", "--steps", "3"])
        assert code == 2
        assert ("tiers[0].rho_o_dbm: 4000.0 is too large to convert to linear units"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()

    def test_grid_optimum_reuses_sweep_report(self, tmp_path, monkeypatch):
        calls = []
        full_report = upcell.analytic.full_report

        def counted(*args, **kwargs):
            calls.append(args)
            return full_report(*args, **kwargs)

        monkeypatch.setattr(upcell.analytic, "full_report", counted)
        out = tmp_path / "opt.csv"
        config = Path(__file__).resolve().parents[1] / "upbench/configs/closed.json"
        assert main(["optimize", "--config", str(config), "--output", str(out),
                     "--from", "-60", "--to", "-40", "--steps", "5"]) == 0
        # one report per grid point, none more for the starred grid end
        assert len(calls) == 5
        _, rows = read_csv(out)
        starred = [r for r in rows if r[-1] == "1"]
        grid = {float(r[1]): r for r in rows if r[-1] == "0"}
        assert float(starred[0][1]) == -60.0
        assert starred[0][:-1] == grid[-60.0][:-1]

    def test_usage_error_without_grid(self, paper_config, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", paper_config, "--output",
                  str(tmp_path / "x.csv")])
        assert info.value.code == 2


class TestTierRange:
    # every verb rejects a tier index the config does not have, with a
    # usage error, before any evaluation
    @pytest.mark.parametrize("verb, extra", [
        ("analyze", []),
        ("simulate", ["--iterations", "100"]),
        ("validate", ["--iterations", "100"]),
        ("sweep", ["--from", "-80", "--to", "-60", "--steps", "2"]),
        ("optimize", ["--from", "-80", "--to", "-60", "--steps", "2"]),
    ])
    @pytest.mark.parametrize("tier", ["1", "-1", "3"])
    def test_out_of_range_tier_exits_2(self, verb, extra, tier, paper_config,
                                       tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([verb, "--config", paper_config, "--output", str(out),
                     "--tier", tier] + extra)
        assert code == 2
        assert "--tier" in capsys.readouterr().err
        assert not out.exists()

    def test_last_tier_of_two_accepted(self, tmp_path):
        cfg = dict(PAPER_CONFIG)
        cfg["tiers"] = [
            {"lambda_per_km2": 2.0, "rho_o_dbm": -70.0},
            {"lambda_per_km2": 5.0, "rho_o_dbm": -75.0},
        ]
        path = tmp_path / "two.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "two.csv"
        assert main(["analyze", "--config", str(path), "--output", str(out),
                     "--tier", "1"]) == 0
        _, rows = read_csv(out)
        assert [row[0] for row in rows] == ["1"]
        assert main(["analyze", "--config", str(path), "--output", str(out),
                     "--tier", "2"]) == 2


def test_benchmark_trace_hooks_resolve(paper_config, small_config, tmp_path,
                                       monkeypatch):
    # upbench patches upcell's layer boundaries by attribute name; entering
    # the patch set fails on a renamed or deleted one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "upbench"))
    import spans

    with spans.installed(spans.Tracer()) as tracer:
        assert main(["analyze", "--config", paper_config, "--output",
                     str(tmp_path / "a.csv")]) == 0
        # the lazily importing montecarlo.cKDTree is what the hooks wrap
        assert main(["simulate", "--config", small_config, "--output",
                     str(tmp_path / "s.csv"), "--iterations", "100",
                     "--workers", "1"]) == 0
        # the QUADPACK reference calls the stand-in set on specfun
        upcell.analytic.integrate_interval(math.exp, 0.0, 1.0)
    assert tracer.counts["specfun.quad_calls"] == 1
    names = {span[0] for span in tracer.spans}
    assert {"analytic.full_report", "specfun.tail_interference_integral",
            "scipy.cKDTree", "scipy.cKDTree.query"} <= names
    # the hooks stand in for scipy.integrate, resolved on first access,
    # and put it back
    assert upcell.specfun.integrate is scipy.integrate
