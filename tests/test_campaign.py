"""Tests for seculoc.campaign."""

import ast
import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from seculoc import campaign
from seculoc.campaign import (
    METHOD_NAMES,
    CampaignConfig,
    CampaignStats,
    MethodDeltaStats,
    emit_csv,
    run_campaign,
)

TINY = dict(n_deployments=5, n_corruptions=2, seed=7)


class TestConfig:
    def test_defaults_validate(self):
        CampaignConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_anchors=3),
            dict(sigma=0.0),
            dict(tau=1.5),
            dict(delta_grid=()),
            dict(delta_grid=(-1.0,)),
            dict(methods=("nope",)),
            dict(methods=()),
            dict(p_fa=0.0),
            dict(attackers_per_trial=3),
            dict(attackers_per_trial=2, n_anchors=4),
            dict(k_samples=0),
            dict(seed=-1),
            dict(n_deployments=0),
            dict(n_corruptions=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(delta_grid=(5.0, 5.0)), "delta_grid values must not repeat"),
        (dict(methods=("proposed", "proposed")), "methods must not repeat"),
    ])
    def test_rejects_repeats(self, kwargs, message):
        # A repeated cell would run every trial twice and emit two rows that
        # CampaignStats.get cannot tell apart.
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**kwargs)
        with pytest.raises(ValueError, match=message):
            run_campaign(CampaignConfig(n_deployments=1, n_corruptions=1, **kwargs))

    @pytest.mark.parametrize("name", [
        "n_anchors", "n_deployments", "n_corruptions", "k_samples", "attackers_per_trial", "seed",
    ])
    def test_rejects_non_integer_counts(self, name):
        # Even a whole float is refused: the run would fail on it mid-campaign
        # with a bare TypeError.
        for value in (1.5, float(getattr(CampaignConfig(), name))):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                CampaignConfig(**{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        # '15' ran delta in {1.0, 5.0}, and 'wls_glrt' named eight unknown
        # one-letter methods; the others raised a bare TypeError.
        (dict(delta_grid="15"), "delta_grid must be a sequence"),
        (dict(methods="wls_glrt"), "methods must be a sequence"),
        (dict(delta_grid=5.0), "delta_grid must be a sequence"),
        (dict(delta_grid=("0", "5")), "delta_grid values must be real numbers"),
        (dict(methods=[["proposed"]]), "methods must be names"),
        (dict(sigma="1"), "sigma must be a real number"),
        (dict(region_side="20"), "region_side must be a real number"),
        (dict(tau="0.3"), "tau must be a real number"),
        (dict(p_fa=None), "p_fa must be a real number"),
    ])
    def test_rejects_strings_and_non_numbers_naming_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**kwargs)

    def test_keeps_numpy_numbers_as_python_numbers(self):
        cfg = CampaignConfig(sigma=np.float32(0.5), tau=1, delta_grid=np.array([0, 5]))
        assert type(cfg.sigma) is float and cfg.sigma == 0.5
        assert type(cfg.tau) is float and cfg.tau == 1.0
        assert cfg.delta_grid == (0.0, 5.0) and all(type(v) is float for v in cfg.delta_grid)

    def test_keeps_numpy_integer_count_as_int(self):
        cfg = CampaignConfig(n_anchors=np.int64(5))
        assert type(cfg.n_anchors) is int and cfg.n_anchors == 5

    @pytest.mark.parametrize("kwargs", [
        dict(region_side=2e50), dict(sigma=1e51), dict(delta_grid=(0.0, 1e60)),
    ])
    def test_rejects_lengths_above_1e50_m_naming_the_field(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=rf"^{name}\b.* at most 1e\+50 m"):
            CampaignConfig(**kwargs)

    def test_names_each_overflowing_field(self):
        with pytest.raises(ValueError, match="region_side.*sigma.*delta_grid"):
            CampaignConfig(region_side=1e80, sigma=1e80, delta_grid=(1e80,))

    def test_accepts_lengths_of_1e50_m(self):
        CampaignConfig(region_side=1e50, sigma=1e50, delta_grid=(0.0, 1e50))

    def test_unplaceable_region_names_the_reason(self):
        cfg = CampaignConfig(region_side=0.1, n_deployments=1, n_corruptions=1)
        with pytest.raises(ValueError, match=r"n_anchors=4 anchors, each at least 0\.5 m .* region_side=0\.1 m"):
            run_campaign(cfg)


class TestRunCampaign:
    def test_rows_cover_methods_and_grid(self):
        cfg = CampaignConfig(
            methods=("proposed", "no_detection"), delta_grid=(0.0, 15.0), **TINY
        )
        stats = run_campaign(cfg)
        assert [(r.method, r.delta) for r in stats.rows] == [
            ("proposed", 0.0), ("proposed", 15.0),
            ("no_detection", 0.0), ("no_detection", 15.0),
        ]
        assert stats.get("no_detection", 15.0) is stats.rows[3]
        for method, delta in (("wls_glrt", 0.0), ("proposed", 5.0)):
            with pytest.raises(KeyError, match=f"no row for {method!r} at delta={delta}"):
                stats.get(method, delta)

    def test_trial_accounting(self):
        cfg = CampaignConfig(methods=("proposed", "no_detection"), delta_grid=(0.0, 10.0), **TINY)
        stats = run_campaign(cfg)
        total = cfg.n_deployments * cfg.n_anchors * cfg.n_corruptions
        for r in stats.rows:
            assert r.trials + r.excluded_trials == total
            if r.method == "no_detection":
                assert r.excluded_trials == 0
                assert math.isnan(r.detection_rate)
            else:
                assert 0.0 <= r.detection_rate <= 1.0
                assert 0.0 <= r.false_alarm_rate <= 1.0
            assert r.rmse >= 0.0

    def test_two_attacker_trial_count(self):
        cfg = CampaignConfig(
            n_anchors=6, attackers_per_trial=2, methods=("proposed",),
            delta_grid=(5.0,), n_deployments=2, n_corruptions=2, seed=1,
        )
        stats = run_campaign(cfg)
        row = stats.rows[0]
        assert row.trials + row.excluded_trials == 2 * 15 * 2

    def test_bounds_only_for_proposed_single_attacker(self):
        cfg = CampaignConfig(methods=("proposed", "no_detection"), delta_grid=(8.0,), k_samples=1, **TINY)
        stats = run_campaign(cfg)
        prop = stats.get("proposed", 8.0)
        nod = stats.get("no_detection", 8.0)
        assert prop.bound_trials > 0
        assert 0.0 <= prop.lp_d <= prop.up_d <= 1.0
        assert math.isnan(nod.lp_d)

    def test_threshold_event_counts_are_pinned(self):
        # Bound trials and threshold-first removals of the attacker, per delta,
        # as the campaign counted them when it re-derived the event itself.
        cfg = CampaignConfig(methods=("proposed",), delta_grid=(0.0, 2.0, 5.0, 10.0), k_samples=1,
                             n_deployments=6, n_corruptions=5, seed=4)
        pinned = {0.0: (104, 2), 2.0: (111, 0), 5.0: (105, 43), 10.0: (80, 44)}
        for row in run_campaign(cfg).rows:
            nb, hits = pinned[row.delta]
            assert row.bound_trials == nb
            assert row.threshold_detection_rate == hits / nb

    def test_deterministic_across_worker_counts(self):
        cfg = CampaignConfig(
            methods=("proposed", "no_detection", "perfect_detection", "wls_glrt"),
            delta_grid=(0.0, 12.0), **TINY,
        )
        a = run_campaign(cfg, threads=1)
        b = run_campaign(cfg, threads=3)
        assert a.rows == b.rows
        assert a.resampled_deployments == b.resampled_deployments

    @pytest.mark.parametrize("n_deployments, workers", [(1, None), (3, 3)])
    def test_workers_capped_at_deployments(self, monkeypatch, n_deployments, workers):
        # An inline stand-in for the pool: no process is ever started.
        import seculoc.campaign as campaign

        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(campaign, "ProcessPoolExecutor", InlinePool)
        cfg = CampaignConfig(
            methods=("proposed",), delta_grid=(5.0,), n_deployments=n_deployments, n_corruptions=1
        )
        stats = run_campaign(cfg, threads=10**6)
        assert asked == ([] if workers is None else [workers])
        assert stats.rows == run_campaign(cfg, threads=1).rows

    def test_methods_call_entry_points_through_module_globals(self, monkeypatch):
        import seculoc.campaign as campaign

        names = ("locate_secure", "locate_no_detection", "locate_perfect_detection",
                 "wls_locate", "glrt_detect")
        calls = {}
        for name in names:
            def counted(*args, _f=getattr(campaign, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(campaign, name, counted)
        cfg = CampaignConfig(
            methods=campaign.METHOD_NAMES, delta_grid=(5.0,), n_deployments=1, n_corruptions=1
        )
        run_campaign(cfg)
        assert sorted(calls) == sorted(names)

    def test_every_traced_name_is_called_through_its_calling_module(self, monkeypatch, tmp_path):
        # The benchmark's trace plan (benchmarks/spans.py) wraps library
        # functions where their caller looks them up. A name that stops being
        # called there records nothing and fails only the traced run, so each
        # one is patched here and must run in a one-deployment campaign (or,
        # for the locate-mixed entry point, one direct call).
        import importlib

        import seculoc.cli
        import seculoc.pipeline
        from seculoc.measurement import AttackSpec, Scene, generate_measurements

        plan = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
        names = set()
        for node in ast.walk(ast.parse(plan.read_text())):
            args = node.elts if isinstance(node, ast.Tuple) else node.args if isinstance(node, ast.Call) else []
            strings = [a.value for a in args[:2] if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if len(strings) == 2 and strings[0].startswith("seculoc."):
                names.add(tuple(strings))
        assert {
            ("seculoc.pipeline", "build_intersection_graph"), ("seculoc.pipeline", "build_system"),
            ("seculoc.pipeline", "solve"), ("seculoc.detection", "select_honest_points"),
            ("seculoc.detection", "classify_pair"), ("seculoc.detection", "intersect_circles"),
            ("seculoc.baseline", "build_system"),
        } <= names
        calls = dict.fromkeys(names, 0)
        for module_name, attr in names:
            module = importlib.import_module(module_name)

            def counted(*args, _f=getattr(module, attr), _key=(module_name, attr), **kwargs):
                calls[_key] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
        argv = ["rmse", "--methods", ",".join(METHOD_NAMES), "--n-deployments", "1",
                "--n-corruptions", "1", "--delta-grid", "5", "--threads", "1",
                "--out", str(tmp_path / "c.csv")]
        assert seculoc.cli.main(argv) == 0
        anchors = np.array([[1.0, 1.0], [18.0, 2.0], [3.0, 17.0], [16.0, 15.0]])
        rng = np.random.default_rng(0)
        m = generate_measurements(Scene(np.array([8.0, 11.0]), anchors), AttackSpec(), 1.0, 10, rng)
        seculoc.pipeline.locate_secure(anchors, m, 0.3)
        assert [name for name, n in calls.items() if n == 0] == []

    def test_benchmark_ordering_under_strong_attack(self):
        cfg = CampaignConfig(
            methods=("proposed", "no_detection", "perfect_detection"),
            delta_grid=(8.0, 15.0), n_deployments=30, n_corruptions=5, seed=3,
        )
        stats = run_campaign(cfg)
        for delta in (8.0, 15.0):
            prop = stats.get("proposed", delta).rmse
            nod = stats.get("no_detection", delta).rmse
            perf = stats.get("perfect_detection", delta).rmse
            assert perf <= prop * 1.05
            assert prop <= nod * 1.05

    def test_benign_rmse_close_to_perfect_detection(self):
        cfg = CampaignConfig(
            methods=("proposed", "perfect_detection"),
            delta_grid=(0.0,), n_deployments=60, n_corruptions=10, seed=8,
        )
        stats = run_campaign(cfg)
        gap = stats.get("proposed", 0.0).rmse - stats.get("perfect_detection", 0.0).rmse
        assert gap < 0.3


class TestStreams:
    def test_word_seeded_stream_equals_list_seeded_generator(self):
        # Seeds at and across the 32- and 64-bit word boundaries, where one
        # Python integer becomes several seed words.
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5):
            indices = [(seed, 1, dep) for dep in (0, 5, 2**32 + 1)]
            indices += [(seed, 2, *rest) for rest in itertools.product((0, 399), (0, 3), (0, 1), (0, 4))]
            for idx in indices:
                want = np.random.default_rng(list(idx))
                got = campaign._stream(*idx)
                assert got.bit_generator.state == want.bit_generator.state
                assert got.normal(size=8).tolist() == want.normal(size=8).tolist()


class TestEmitCsv:
    HEADER = (
        "method,delta_m,rmse_m,detection_rate,false_alarm_rate,"
        "lpd1,lpd2,lp_d,up_d,trials,excluded_trials"
    )

    def test_header_only_for_empty_stats(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(CampaignStats(rows=[]), path)
        assert path.read_bytes() == (self.HEADER + "\n").encode()

    def test_one_method_three_deltas(self, tmp_path):
        cfg = CampaignConfig(methods=("no_detection",), delta_grid=(0.0, 5.0, 10.0), **TINY)
        path = tmp_path / "c.csv"
        emit_csv(run_campaign(cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 4

    def test_round_trip_parse_recovers_9_digits(self, tmp_path):
        row = MethodDeltaStats(
            method="proposed", delta=7.25, rmse=1.234567891234, detection_rate=0.987654321,
            false_alarm_rate=0.0123456789, lpd1=0.5, lpd2=0.25, lp_d=0.5, up_d=0.75,
            trials=123, excluded_trials=4,
        )
        path = tmp_path / "r.csv"
        emit_csv(CampaignStats(rows=[row]), path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))[0]
        for name, want in [
            ("rmse_m", row.rmse), ("detection_rate", row.detection_rate),
            ("false_alarm_rate", row.false_alarm_rate), ("delta_m", row.delta),
        ]:
            got = float(parsed[name])
            assert got == pytest.approx(want, rel=1e-8)
        assert int(parsed["trials"]) == 123
        assert int(parsed["excluded_trials"]) == 4

    def test_nan_round_trips(self, tmp_path):
        row = MethodDeltaStats(
            method="no_detection", delta=0.0, rmse=0.5, detection_rate=math.nan,
            false_alarm_rate=math.nan, lpd1=math.nan, lpd2=math.nan, lp_d=math.nan,
            up_d=math.nan, trials=10, excluded_trials=0,
        )
        path = tmp_path / "n.csv"
        emit_csv(CampaignStats(rows=[row]), path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))[0]
        assert math.isnan(float(parsed["detection_rate"]))

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(CampaignStats(rows=[]), path)
        assert b"\r" not in path.read_bytes()

    def test_unwritable_path_reports_location(self, tmp_path):
        bad = tmp_path / "missing_dir" / "x.csv"
        with pytest.raises(OSError, match="missing_dir"):
            emit_csv(CampaignStats(rows=[]), bad)
