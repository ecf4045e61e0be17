import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmanova
from gmanova import (
    ConfigError,
    DesignSpec,
    GroupedSample,
    one_way_manova,
    run_test,
)
from gmanova.cli import main
from gmanova.io import (
    config_hash,
    load_config,
    load_dataset,
    load_design,
    report_to_dict,
    write_design,
    write_report,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_contiguous_groups(self, tmp_path):
        f = _write(tmp_path / "d.csv",
                   "a,1,2\na,3,4\na,5,6\nb,7,8\nb,9,10\nb,11,12\n")
        sample = load_dataset(f)
        assert sample.group_sizes == (3, 3)
        assert sample.labels == ("a", "b")
        assert sample.p == 2

    def test_shuffled_rows_regrouped(self, tmp_path):
        f1 = _write(tmp_path / "s.csv",
                    "a,1,2\nb,7,8\na,3,4\nb,9,10\na,5,6\nb,11,12\n")
        f2 = _write(tmp_path / "c.csv",
                    "a,1,2\na,3,4\na,5,6\nb,7,8\nb,9,10\nb,11,12\n")
        shuffled = load_dataset(f1)
        contiguous = load_dataset(f2)
        assert shuffled.group_sizes == contiguous.group_sizes
        assert np.array_equal(shuffled.X, contiguous.X)

    def test_missing_cell_names_position(self, tmp_path):
        f = _write(tmp_path / "m.csv", "a,1,2\na,3,4\na,5,6\nb,7,\nb,9,10\n")
        with pytest.raises(ConfigError, match=r"row 4, column 3"):
            load_dataset(f)

    def test_non_numeric_cell(self, tmp_path):
        f = _write(tmp_path / "n.csv", "a,1,2\na,x,4\n")
        with pytest.raises(ConfigError, match=r"row 2, column 2"):
            load_dataset(f)

    def test_ragged_row(self, tmp_path):
        f = _write(tmp_path / "r.csv", "a,1,2\na,3\n")
        with pytest.raises(ConfigError, match=r"row 2"):
            load_dataset(f)

    def test_header_flag(self, tmp_path):
        f = _write(tmp_path / "h.csv", "group,v1,v2\na,1,2\na,3,4\n")
        sample = load_dataset(f, header=True)
        assert sample.N == 2
        with pytest.raises(ConfigError):
            load_dataset(f, header=False)


class TestDesignRoundTrip:
    def test_entrywise_exact(self, tmp_path):
        design = one_way_manova((3, 4, 5), 6).design
        manifest = write_design(design, tmp_path / "design")
        loaded = load_design(manifest)
        for key in ("A", "B", "L", "R"):
            assert np.array_equal(getattr(loaded, key), getattr(design, key))
        assert loaded.group_sizes == design.group_sizes

    def test_irrational_entries_round_trip(self, tmp_path):
        from gmanova import growth_curve
        design = growth_curve((4, 4), 7, 2).design
        loaded = load_design(write_design(design, tmp_path / "gc"))
        assert np.array_equal(loaded.B, design.B)

    def test_manifest_schema_violations(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        _write(d / "manifest.json", json.dumps({"A": "A.csv"}))
        with pytest.raises(ConfigError, match="missing keys"):
            load_design(d / "manifest.json")
        _write(d / "manifest.json", json.dumps(
            {"A": "A.csv", "B": "B.csv", "L": "L.csv", "R": "R.csv",
             "group_sizes": [4], "extra": 1}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_design(d / "manifest.json")


class TestReportSerialization:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        design = one_way_manova((5, 5), 4).design
        X = rng.normal(size=(10, 4))
        report = run_test(GroupedSample(X, (5, 5)), design, 0.05,
                          diagnostics=True)
        out = tmp_path / "report.json"
        write_report(report, out, config={"alpha": 0.05})
        parsed = json.loads(out.read_text())
        assert parsed["z"] == report.z
        assert parsed["t_stat"] == report.t_stat
        assert parsed["p_value"] == report.p_value
        assert parsed["tool_version"]
        assert parsed["config_hash"] == config_hash({"alpha": 0.05})
        assert parsed["diagnostics"]["heuristic"] is True

    def test_report_dict_fields(self):
        from gmanova.trace_test import TestReport
        r = TestReport(t_stat=1.0, sigma0_sq_hat=2.0, z=0.5, p_value=0.3,
                       alpha=0.05, reject=False, degenerate=False)
        d = report_to_dict(r)
        assert set(d) == {"t_stat", "sigma0_sq_hat", "z", "p_value", "alpha",
                          "reject", "degenerate", "diagnostics"}


class TestConfigValidation:
    def _base(self):
        return {"scenario": {"name": "one-way", "group_sizes": [6, 6], "p": 8},
                "reps": 100, "seed": 1}

    def test_valid_config(self, tmp_path):
        f = _write(tmp_path / "c.json", json.dumps(self._base()))
        assert load_config(f)["reps"] == 100

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self._base()
        cfg["bogus"] = True
        f = _write(tmp_path / "c.json", json.dumps(cfg))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(f)

    def test_scenario_xor_design(self, tmp_path):
        cfg = self._base()
        cfg["design"] = "manifest.json"
        f = _write(tmp_path / "c.json", json.dumps(cfg))
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(f)

    def test_reps_floor_in_schema(self, tmp_path):
        cfg = self._base()
        cfg["reps"] = 10
        f = _write(tmp_path / "c.json", json.dumps(cfg))
        with pytest.raises(ConfigError, match="reps"):
            load_config(f)


def _dataset_csv(tmp_path, design, seed=0, name="data.csv"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(design.N, design.p))
    lines = []
    off = 0
    for gi, n in enumerate(design.group_sizes):
        for row in X[off:off + n]:
            lines.append(",".join([f"g{gi}"] + [repr(float(v)) for v in row]))
        off += n
    return _write(tmp_path / name, "\n".join(lines) + "\n"), X


class TestCli:
    def test_scenario_emit_and_test_roundtrip(self, tmp_path, capsys):
        emit = tmp_path / "design"
        assert main(["scenario", "--name", "one-way", "--groups", "5,6",
                     "--p", "4", "--emit", str(emit)]) == 0
        design = load_design(emit / "manifest.json")
        data, _ = _dataset_csv(tmp_path, design)
        out = tmp_path / "report.json"
        code = main(["test", "--data", str(data), "--design",
                     str(emit / "manifest.json"), "--alpha", "0.05",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "z" in report and report["degenerate"] is False

    def test_scenario_flag_without_manifest(self, tmp_path):
        design = one_way_manova((6, 6), 3).design
        data, _ = _dataset_csv(tmp_path, design)
        assert main(["test", "--data", str(data), "--scenario", "one-way"]) == 0

    def test_small_group_named_in_error(self, tmp_path, capsys):
        design = one_way_manova((3, 6), 3).design
        data, _ = _dataset_csv(tmp_path, design)
        assert main(["test", "--data", str(data), "--scenario", "one-way"]) == 2
        assert "group 0" in capsys.readouterr().err

    def test_one_row_group_named_in_error(self, tmp_path, capsys):
        design = one_way_manova((1, 6), 3).design
        data, _ = _dataset_csv(tmp_path, design)
        assert main(["test", "--data", str(data), "--scenario", "one-way"]) == 2
        assert "group 0" in capsys.readouterr().err

    def test_dimension_mismatch_names_both(self, tmp_path, capsys):
        emit = tmp_path / "design"
        main(["scenario", "--name", "one-way", "--groups", "5,5", "--p", "7",
              "--emit", str(emit)])
        design = one_way_manova((5, 5), 3).design
        data, _ = _dataset_csv(tmp_path, design)
        assert main(["test", "--data", str(data), "--design",
                     str(emit / "manifest.json")]) == 2
        err = capsys.readouterr().err
        assert "p=3" in err and "p=7" in err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["test", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_non_utf8_data_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("caf\u00e9,1.0\ncaf\u00e9,2.0\n".encode("latin-1"))
        assert main(["test", "--data", str(data)]) == 2
        assert "latin1.csv" in capsys.readouterr().err

    def test_non_utf8_manifest_is_input_error(self, tmp_path, capsys):
        design = one_way_manova((5, 6), 3).design
        data, _ = _dataset_csv(tmp_path, design)
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"A": "\xe9.csv"}')
        assert main(["test", "--data", str(data), "--design", str(manifest)]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_non_utf8_config_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "exp.json"
        f.write_bytes(b'{"reps": 100, "seed": 1, "out": "\xe9.json"}')
        assert main(["simulate", "--config", str(f)]) == 2
        assert "exp.json" in capsys.readouterr().err

    def test_overlong_csv_field_is_input_error(self, tmp_path, capsys):
        data = _write(tmp_path / "long.csv", "a," + "1" * 140_000 + "\na,2\n")
        assert main(["test", "--data", str(data)]) == 2
        assert "long.csv" in capsys.readouterr().err

    def test_unsolvable_design_exit_code(self, tmp_path):
        design = DesignSpec(A=np.array([[1.0], [2.0]]), B=np.eye(1),
                            L=np.eye(1), R=np.eye(1), group_sizes=(2,))
        manifest = write_design(design, tmp_path / "bad")
        data = _write(tmp_path / "two.csv", "a,1.0\na,2.0\n")
        assert main(["test", "--data", str(data),
                     "--design", str(manifest)]) == 3

    def test_degenerate_variance_exit_code(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        design = DesignSpec(A=np.column_stack([np.ones(5), t]), B=np.eye(2),
                            L=np.array([[0.0, 1.0]]), R=np.eye(2),
                            group_sizes=(5,))
        manifest = write_design(design, tmp_path / "reg")
        # seed chosen so the variance estimate comes out negative
        data, _ = _dataset_csv(tmp_path, design, seed=22)
        out = tmp_path / "report.json"
        code = main(["test", "--data", str(data), "--design", str(manifest),
                     "--out", str(out)])
        assert code == 4
        report = json.loads(out.read_text())
        assert report["degenerate"] is True and report["reject"] is False

    def test_simulate_verb(self, tmp_path):
        cfg = {"scenario": {"name": "one-way", "group_sizes": [6, 6], "p": 6},
               "distributions": {"kind": "gaussian"},
               "covariances": {"kind": "identity"},
               "theta": {"kind": "zero"},
               "alpha": 0.05, "reps": 100, "seed": 3,
               "out": str(tmp_path / "summary.json")}
        f = _write(tmp_path / "exp.json", json.dumps(cfg))
        assert main(["simulate", "--config", str(f), "--threads", "1"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["replications"] == 100
        assert 0.0 <= summary["rejection_rate"] <= 1.0

    def test_simulate_signal_ray_config(self, tmp_path):
        cfg = {"scenario": {"name": "one-way", "group_sizes": [8, 8], "p": 10},
               "theta": {"kind": "signal_ray", "snr": 6.0},
               "reps": 100, "seed": 4, "out": str(tmp_path / "s.json")}
        f = _write(tmp_path / "exp.json", json.dumps(cfg))
        assert main(["simulate", "--config", str(f), "--threads", "1"]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["rejection_rate"] >= 0.8
        assert summary["predicted_power"] >= 0.9

    def test_diagnose_verb(self, tmp_path, capsys):
        cfg = {"scenario": {"name": "growth-curve", "group_sizes": [6, 6],
                            "p": 8, "degree": 2},
               "reps": 100, "seed": 5}
        f = _write(tmp_path / "exp.json", json.dumps(cfg))
        assert main(["diagnose", "--config", str(f)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "row classes: 2 of 12 rows" in out
        assert "PASS  class balancing weights vs dense solve" in out

    def test_bad_config_exit_code(self, tmp_path):
        f = _write(tmp_path / "exp.json", '{"reps": 100}')
        assert main(["simulate", "--config", str(f)]) == 2

    def test_two_way_scenario_cli(self, tmp_path):
        emit = tmp_path / "tw"
        assert main(["scenario", "--name", "two-way", "--groups", "4,4,4,4",
                     "--p", "3", "--levels", "2,2", "--effect", "interaction",
                     "--emit", str(emit)]) == 0
        design = load_design(emit / "manifest.json")
        assert design.ell == 1 and design.k == 4

    def test_row_level_design_needs_file_order(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        sizes = (6, 7)
        groups = np.repeat([0, 1], sizes)
        A = np.column_stack([groups == 0, groups == 1,
                             rng.normal(size=13)]).astype(float)
        design = DesignSpec(A=A, B=np.eye(3), L=np.array([[1.0, -1.0, 0.0]]),
                            R=np.eye(3), group_sizes=sizes)
        manifest = write_design(design, tmp_path / "cov")
        data, X = _dataset_csv(tmp_path, design)
        out = tmp_path / "report.json"
        assert main(["test", "--data", str(data), "--design", str(manifest),
                     "--out", str(out)]) == 0
        expected = run_test(GroupedSample(X, sizes), design)
        assert json.loads(out.read_text())["t_stat"] == expected.t_stat

        lines = data.read_text().splitlines()
        order = np.random.default_rng(9).permutation(len(lines))
        shuffled = _write(tmp_path / "shuffled.csv",
                          "\n".join(lines[i] for i in order) + "\n")
        capsys.readouterr()
        assert main(["test", "--data", str(shuffled), "--design", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "shuffled.csv" in err and "group 0" in err


def test_cli_import_leaves_jsonschema_out():
    """Only config loading needs jsonschema; `gmanova test` does not pay
    for importing it."""
    src = str(Path(gmanova.__file__).resolve().parents[1])
    code = "import sys, gmanova.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
