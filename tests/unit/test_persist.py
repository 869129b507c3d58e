"""Unit tests for experiment-result persistence."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (load_evaluation, load_series, merge_series,
                               save_evaluation, save_series)
from repro.experiments.persist import series_from_jsonable, series_to_jsonable
from repro.types import ExperimentPoint, SeriesResult, speed_change_items


def make_series(name="s", xs=(0.1, 0.2), schemes=("GSS", "SPM")):
    s = SeriesResult(name=name, x_label="load",
                     meta={"app": "atr", "n_runs": 10})
    for x in xs:
        for scheme in schemes:
            s.points.append(ExperimentPoint(
                x=x, scheme=scheme, mean=0.5 + x, std=0.01,
                n_runs=10, ci95=0.002))
    s.meta["speed_changes"] = [[x, {sc: 2.0 for sc in schemes}]
                               for x in xs]
    return s


class TestJsonable:
    def test_round_trip(self):
        s = make_series()
        s2 = series_from_jsonable(series_to_jsonable(s))
        assert s2.name == s.name and s2.x_label == s.x_label
        assert len(s2.points) == len(s.points)
        assert s2.get(0.2, "GSS").mean == pytest.approx(0.7)
        changes = dict(speed_change_items(s2.meta["speed_changes"]))
        assert changes[0.1]["GSS"] == 2.0

    def test_duplicate_x_survives_round_trip(self):
        # the old dict-keyed format silently overwrote duplicate x
        s = make_series(xs=(0.1,))
        s.meta["speed_changes"] = [[0.5, {"GSS": 1.0}], [0.5, {"GSS": 3.0}]]
        s2 = series_from_jsonable(series_to_jsonable(s))
        assert s2.meta["speed_changes"] == [[0.5, {"GSS": 1.0}],
                                            [0.5, {"GSS": 3.0}]]

    def test_legacy_dict_meta_still_serializes(self):
        # an old in-memory series (dict keyed by raw float) must persist
        # and read back as the aligned-list format
        s = make_series()
        s.meta["speed_changes"] = {0.2: {"GSS": 4.0}, 0.1: {"GSS": 2.0}}
        s2 = series_from_jsonable(series_to_jsonable(s))
        assert s2.meta["speed_changes"] == [[0.1, {"GSS": 2.0}],
                                            [0.2, {"GSS": 4.0}]]

    def test_legacy_stringified_dict_reads_back(self):
        # JSON files written before the list format stringified the keys
        d = series_to_jsonable(make_series(xs=(0.1,)))
        d["meta"]["speed_changes"] = {"0.2": {"GSS": 4.0},
                                      "0.1": {"GSS": 2.0}}
        s2 = series_from_jsonable(d)
        assert s2.meta["speed_changes"] == [[0.1, {"GSS": 2.0}],
                                            [0.2, {"GSS": 4.0}]]

    def test_version_check(self):
        d = series_to_jsonable(make_series())
        d["format_version"] = 99
        with pytest.raises(ConfigError, match="version"):
            series_from_jsonable(d)

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            series_from_jsonable({"format_version": 1, "name": "x"})


class TestFiles:
    def test_save_load_bundle(self, tmp_path):
        path = tmp_path / "bundle.json"
        bundle = {"transmeta": make_series("a"),
                  "xscale": make_series("b")}
        save_series(bundle, path)
        loaded = load_series(path)
        assert set(loaded) == {"transmeta", "xscale"}
        assert loaded["xscale"].name == "b"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such"):
            load_series(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_series(p)

    def test_not_a_bundle(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="not a series bundle"):
            load_series(p)


class TestEvaluationFiles:
    @pytest.fixture(scope="class")
    def evaluated(self):
        from repro.experiments import RunConfig, evaluate_application
        from repro.workloads import application_with_load, figure3_graph
        app = application_with_load(figure3_graph(), 0.6, 2)
        config = RunConfig(n_runs=16, seed=5)
        return app, config, evaluate_application(app, config)

    def test_round_trip_bit_identical(self, evaluated, tmp_path):
        app, config, result = evaluated
        path = tmp_path / "point.rec"
        save_evaluation(result, path)
        loaded = load_evaluation(path, app.name, config)
        assert loaded.npm_energy.tobytes() == result.npm_energy.tobytes()
        assert loaded.path_keys == result.path_keys
        assert list(loaded.absolute) == list(result.absolute)
        for scheme in result.absolute:
            for field in ("absolute", "normalized", "speed_changes"):
                assert (getattr(loaded, field)[scheme].tobytes()
                        == getattr(result, field)[scheme].tobytes())

    def test_format1_npz_rejected_by_name(self, evaluated, tmp_path):
        app, config, _ = evaluated
        path = tmp_path / "point.npz"
        np.savez(path, format=np.asarray(1), npm_energy=np.ones(16))
        with pytest.raises(ConfigError, match="format-1 .npz"):
            load_evaluation(path, app.name, config)

    def test_config_mismatch_rejected(self, evaluated, tmp_path):
        app, config, result = evaluated
        path = tmp_path / "point.rec"
        save_evaluation(result, path)
        with pytest.raises(ConfigError, match="runs"):
            load_evaluation(path, app.name, config.with_(n_runs=17))

    def test_missing_file(self, evaluated, tmp_path):
        app, config, _ = evaluated
        with pytest.raises(ConfigError, match="no such"):
            load_evaluation(tmp_path / "nope.rec", app.name, config)


class TestMerge:
    def test_merge_disjoint(self):
        a = make_series(xs=(0.1, 0.2))
        b = make_series(xs=(0.3,))
        merged = merge_series(a, b)
        assert merged.xs() == [0.1, 0.2, 0.3]
        assert [x for x, _ in merged.meta["speed_changes"]] == [0.1, 0.2,
                                                               0.3]

    def test_merge_overlap_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            merge_series(make_series(xs=(0.1,)), make_series(xs=(0.1,)))

    def test_merge_axis_mismatch_rejected(self):
        b = make_series()
        b.x_label = "alpha"
        with pytest.raises(ConfigError, match="different axes"):
            merge_series(make_series(), b)

    def test_cli_save_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "fig6.json"
        assert main(["fig6", "--runs", "4", "--save", str(path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        loaded = load_series(path)
        assert set(loaded) == {"transmeta", "xscale"}
        assert loaded["transmeta"].x_label == "alpha"
