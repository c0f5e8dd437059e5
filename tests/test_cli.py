"""Tests for the seculoc command-line interface."""

import csv
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import seculoc.cli
from seculoc.campaign import METHOD_NAMES, CampaignConfig, CampaignStats
from seculoc.cli import _build_config, _parser, main

FAST = ["--n-deployments", "3", "--n-corruptions", "2", "--seed", "5"]

# One non-default, non-preset value per campaign field, as INI/flag text and as parsed.
FIELD_TEXT = {
    "region_side": "35.5", "n_anchors": "6", "n_deployments": "7", "n_corruptions": "3",
    "k_samples": "4", "sigma": "0.25", "tau": "0.45", "delta_grid": "0,2,...,6",
    "attackers_per_trial": "2", "seed": "11", "methods": "wls_glrt,no_detection", "p_fa": "0.1",
}
FIELD_VALUE = {
    "region_side": 35.5, "n_anchors": 6, "n_deployments": 7, "n_corruptions": 3,
    "k_samples": 4, "sigma": 0.25, "tau": 0.45, "delta_grid": (0.0, 2.0, 4.0, 6.0),
    "attackers_per_trial": 2, "seed": 11, "methods": ("wls_glrt", "no_detection"), "p_fa": 0.1,
}


class Args:
    """Parsed-flag stand-in: every flag unset unless given as a keyword."""

    region_side = None
    n_anchors = None
    n_deployments = None
    n_corruptions = None
    k_samples = None
    sigma = None
    tau = None
    delta_grid = None
    attackers_per_trial = None
    seed = None
    methods = None
    p_fa = None
    config = None
    out = None
    threads = 1

    def __init__(self, **flags):
        self.__dict__.update(flags)


def run(args):
    return main(args)


class TestSubcommands:
    def test_rmse_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rmse.csv"
        code = run(["rmse", "--delta-grid", "0,10", "--out", str(out), *FAST])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert methods == {"proposed", "no_detection", "perfect_detection"}
        assert "wrote" in capsys.readouterr().out

    def test_detection_default_out_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["detection", "--delta-grid", "15", *FAST]) == 0
        assert (tmp_path / "detection.csv").exists()

    def test_bounds_presets_single_sample(self, tmp_path, capsys):
        # The preset's K = 1 gives way to an INI value or a flag, as every
        # preset does; it used to replace both, with a note on stderr.
        ini = tmp_path / "c.ini"
        ini.write_text("[campaign]\nk_samples = 5\n")
        assert _build_config("bounds", Args()).k_samples == 1
        assert _build_config("bounds", Args(k_samples=5)).k_samples == 5
        assert _build_config("bounds", Args(config=str(ini))).k_samples == 5
        out = tmp_path / "b.csv"
        code = run(["bounds", "--delta-grid", "8", "--k-samples", "5", "--out", str(out), *FAST])
        assert code == 0
        assert capsys.readouterr().err == ""
        with open(out, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["up_d"]) >= 0.0

    def test_two_attackers_presets(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["two-attackers", "--delta-grid", "5", "--out", str(out), *FAST])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"proposed", "wls_glrt"}

    def test_compare_runs_both_methods(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["compare", "--delta-grid", "12", "--out", str(out), *FAST]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"proposed", "wls_glrt"}


class TestConfigHandling:
    def test_bad_tau_exits_2(self, tmp_path):
        assert run(["rmse", "--tau", "1.4", "--out", str(tmp_path / "x.csv"), *FAST]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "nan"), ("--sigma", "inf"), ("--region-side", "inf"), ("--region-side", "nan"),
        ("--delta-grid", "0,nan"), ("--delta-grid", "0,inf"), ("--seed", "-1"),
        ("--delta-grid", "0,5,...,inf"), ("--delta-grid", "0,5,...,nan"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, flag, value, capsys):
        # The flag comes last, so it overrides FAST's own --seed.
        assert run(["rmse", "--out", str(tmp_path / "x.csv"), *FAST, flag, value]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_method_exits_2(self, tmp_path):
        assert run(["rmse", "--methods", "wizardry", "--out", str(tmp_path / "x.csv"), *FAST]) == 2

    def test_bad_delta_grid_exits_2(self, tmp_path):
        assert run(["rmse", "--delta-grid", "a,b", "--out", str(tmp_path / "x.csv"), *FAST]) == 2

    @pytest.mark.parametrize("grid, message", [
        ("0,1,...,x", "'x' is not a number"),
        (",", "delta grid must contain at least one value"),
    ], ids=["non-number-end", "empty"])
    def test_bad_delta_grid_names_the_problem(self, tmp_path, capsys, grid, message):
        assert run(["rmse", "--delta-grid", grid, "--out", str(tmp_path / "x.csv"), *FAST]) == 2
        assert message in capsys.readouterr().err

    def test_delta_grid_progression_shorthand(self):
        from seculoc.cli import _parse_delta_grid

        assert _parse_delta_grid("0,1,...,15") == tuple(float(v) for v in range(16))
        assert _parse_delta_grid("2,4,...,14") == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
        assert _parse_delta_grid("0,5,10,15") == (0.0, 5.0, 10.0, 15.0)
        # An end off the progression is still appended.
        assert _parse_delta_grid("0,5,...,12") == (0.0, 5.0, 10.0, 12.0)
        # Decimal steps give the floats of the grid written out: the running
        # float sum gave 0.30000000000000004 and 0.7999999999999999, and a
        # fixed 1e-9 slack stopped the second grid after its first step.
        assert _parse_delta_grid("0,0.1,...,1") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert _parse_delta_grid("0,1e-10,...,1e-9") == tuple(float(f"{k}e-10") for k in range(10)) + (1e-9,)
        with pytest.raises(ValueError):
            _parse_delta_grid("0,...,15")
        with pytest.raises(ValueError):
            _parse_delta_grid("5,4,...,15")
        with pytest.raises(ValueError):
            _parse_delta_grid("0,1,...,")
        # An infinite end would append until memory runs out.
        for end in ("inf", "nan"):
            with pytest.raises(ValueError, match="progression must increase"):
                _parse_delta_grid(f"0,5,...,{end}")

    @pytest.mark.parametrize("flag, value", [("--delta-grid", "0,5,5"), ("--methods", "proposed,proposed")])
    def test_repeated_grid_value_or_method_exits_2(self, tmp_path, flag, value, capsys):
        assert run(["rmse", "--out", str(tmp_path / "x.csv"), *FAST, flag, value]) == 2
        assert "must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_long_progression_rejected_before_expanding(self, tmp_path, capsys):
        from seculoc.cli import _parse_delta_grid

        assert len(_parse_delta_grid("0,1,...,9999")) == 10_000
        for text in ("0,1,...,10000", "0,5,...,1e300"):
            with pytest.raises(ValueError, match="more than 10000 values"):
                _parse_delta_grid(text)
        assert run(["rmse", "--delta-grid", "0,5,...,1e300", "--out", str(tmp_path / "x.csv"), *FAST]) == 2
        assert "more than 10000 values" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["rmse", "--config", str(tmp_path / "nope.ini"), *FAST]) == 2

    def test_config_file_without_campaign_section_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[other]\nsigma = 2.0\n")
        assert run(["rmse", "--config", str(ini), "--out", str(tmp_path / "x.csv"), *FAST]) == 2
        assert "needs a [campaign] section" in capsys.readouterr().err

    def test_csv_failing_after_the_campaign_exits_3(self, tmp_path, monkeypatch, capsys):
        def no_room(stats, path):
            raise OSError(f"cannot write campaign CSV to {path}: disk full")

        monkeypatch.setattr(seculoc.cli, "run_campaign", lambda cfg, threads: CampaignStats())
        monkeypatch.setattr(seculoc.cli, "emit_csv", no_room)
        out = tmp_path / "x.csv"
        assert run(["rmse", "--out", str(out), *FAST]) == 3
        assert capsys.readouterr().err == f"cannot write campaign CSV to {out}: disk full\n"

    def test_unwritable_out_exits_3(self, tmp_path):
        out = tmp_path / "no_dir" / "x.csv"
        assert run(["detection", "--delta-grid", "5", "--out", str(out), *FAST]) == 3

    @pytest.mark.parametrize("parent", ["missing/dir", "a_file"])
    def test_unwritable_out_fails_before_the_campaign(self, tmp_path, monkeypatch, capsys, parent):
        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran before the output directory was checked")

        monkeypatch.setattr(seculoc.cli, "run_campaign", no_campaign)
        (tmp_path / "a_file").write_text("")
        out = tmp_path / parent / "x.csv"
        assert run(["detection", "--out", str(out), *FAST]) == 3
        assert capsys.readouterr().err.startswith(f"cannot write campaign CSV to {out}: ")

    def test_out_naming_a_directory_fails_before_the_campaign(self, tmp_path, monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran before the output path was checked")

        monkeypatch.setattr(seculoc.cli, "run_campaign", no_campaign)
        assert run(["detection", "--out", str(tmp_path), *FAST]) == 3
        assert capsys.readouterr().err == f"cannot write campaign CSV to {tmp_path}: it is a directory\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--region-side", "0.1", "n_anchors=4 anchors, each at least 0.5 m from the target"),
    ])
    def test_campaign_failing_on_its_config_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.csv"
        assert run(["rmse", "--out", str(out), *FAST, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        # 1e160 and 1e78-1e80 used to raise OverflowError mid-run; 1e200 and
        # 1e308 failed mid-run on non-finite samples or circles.
        ("--sigma", "1e160", "sigma"),
        ("--sigma", "1e308", "sigma"),
        ("--region-side", "1e80", "region_side"),
        ("--region-side", "1e200", "region_side"),
        ("--delta-grid", "0,1e78", "delta_grid"),
        ("--delta-grid", "1e308", "delta_grid"),
    ])
    def test_overflowing_length_exits_2(self, tmp_path, monkeypatch, capsys, flag, value, field):
        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran on an overflowing configuration")

        monkeypatch.setattr(seculoc.cli, "run_campaign", no_campaign)
        out = tmp_path / "x.csv"
        assert run(["rmse", "--out", str(out), *FAST, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} ") and "at most 1e+50 m" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[campaign]\nn_anchors = 5\nsigma = 2.0\ndelta_grid = 1,2\n")

        cfg = _build_config("detection", Args(sigma=0.5, config=str(ini)))
        assert cfg.n_anchors == 5       # from file
        assert cfg.sigma == 0.5         # flag wins over file
        assert cfg.delta_grid == (1.0, 2.0)

    def test_every_field_from_ini_and_flag(self, tmp_path):
        assert set(FIELD_TEXT) == {f.name for f in dataclasses.fields(CampaignConfig)}
        ini = tmp_path / "c.ini"
        ini.write_text("[campaign]\n" + "".join(f"{k} = {v}\n" for k, v in FIELD_TEXT.items()))
        from_ini = _build_config("rmse", Args(config=str(ini)))
        argv = ["rmse"]
        for name, text in FIELD_TEXT.items():
            argv += ["--" + name.replace("_", "-"), text]
        from_flags = _build_config("rmse", _parser().parse_args(argv))
        defaults = _build_config("rmse", Args())
        for name, want in FIELD_VALUE.items():
            assert getattr(from_ini, name) == want, name
            assert getattr(from_flags, name) == want, name
            assert getattr(defaults, name) != want, name

    def test_attackers_per_trial_out_of_range_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["rmse", "--attackers-per-trial", "3", "--out", str(out), *FAST]) == 2
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[campaign]\nwizard = 3\n")
        assert run(["rmse", "--config", str(ini), *FAST]) == 2

    @pytest.mark.parametrize("text", [
        "sigma = 2.0\n",
        "[campaign]\nsigma = 2.0\nsigma = 3.0\n",
    ], ids=["no-section-header", "repeated-key"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text):
        ini = tmp_path / "c.ini"
        ini.write_text(text)
        out = tmp_path / "x.csv"
        assert run(["rmse", "--config", str(ini), "--out", str(out), *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(ini) in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("methods = proposed%", "unknown methods ['proposed%']"),
        ("seed = %(x)s", "config key 'seed'"),
    ], ids=["percent", "interpolation"])
    def test_config_values_are_read_as_written(self, tmp_path, capsys, line, message):
        # A '%' used to be an interpolation, and both lines ended in a
        # configparser traceback with exit 1.
        ini = tmp_path / "c.ini"
        ini.write_text(f"[campaign]\n{line}\n")
        out = tmp_path / "x.csv"
        assert run(["rmse", "--config", str(ini), "--out", str(out), *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["seed = abc", "sigma = one", "delta_grid = 0,x"])
    def test_unparsable_config_value_names_its_key_and_file(self, tmp_path, capsys, line):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[campaign]\n{line}\n")
        assert run(["rmse", "--config", str(ini), "--out", str(tmp_path / "x.csv"), *FAST]) == 2
        key = line.split(" = ")[0]
        assert f"config key {key!r} in {str(ini)!r}: " in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


class TestRuntimeDependencies:
    def test_campaign_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with every scipy import blocked, a
        # one-deployment campaign of every method must still run.
        out = tmp_path / "c.csv"
        script = textwrap.dedent(f"""
            import sys
            sys.modules["scipy"] = None
            import seculoc.cli
            code = seculoc.cli.main(["rmse", "--methods", {",".join(METHOD_NAMES)!r},
                                     "--n-deployments", "1", "--n-corruptions", "1",
                                     "--out", {str(out)!r}])
            assert not [m for m in sys.modules if m.startswith("scipy.")]
            sys.exit(code)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().count("\n") == 1 + len(METHOD_NAMES) * len(CampaignConfig().delta_grid)
