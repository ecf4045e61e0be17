import dataclasses
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
from gmanova import io
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

    def test_boolean_group_size_rejected(self, tmp_path, capsys):
        """JSON true is a bool, not a group size of 1."""
        manifest = write_design(one_way_manova((1, 8), 2).design, tmp_path / "d")
        spec = json.loads(manifest.read_text())
        spec["group_sizes"] = [True, 8]
        manifest.write_text(json.dumps(spec))
        with pytest.raises(ConfigError, match="group_sizes"):
            load_design(manifest)
        data = _write(tmp_path / "data.csv", "".join(
            f"{'a' if i == 0 else 'b'},{i},{i * i % 5}\n" for i in range(9)))
        assert main(["test", "--data", str(data), "--design", str(manifest)]) == 2
        assert f"error: {manifest}: group_sizes" in capsys.readouterr().err


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

    def test_failing_group_named_by_its_label(self, tmp_path, capsys):
        """In a shuffled file the group index follows first appearance, so
        the message names the group's label as well."""
        rng = np.random.default_rng(3)
        labels = ["ctrl"] * 6 + ["dose"] * 5 + ["treat"] * 2
        rows = [f"{lab}," + ",".join(repr(float(v)) for v in rng.normal(size=3))
                for lab in labels]
        order = [0, 6, 11, 1, 7, 12, 2, 8, 3, 9, 4, 10, 5]  # treat is read third
        data = _write(tmp_path / "shuffled.csv", "\n".join(rows[i] for i in order) + "\n")
        assert main(["test", "--data", str(data), "--scenario", "one-way"]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: design group 2 (label 'treat'): needs N_i - k_i >= 2" in err

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

    @pytest.mark.parametrize("unsolvable", [False, True])
    def test_design_with_wrong_p_is_input_error(self, tmp_path, capsys, unsolvable):
        """The p check comes before the design build, so a design with no
        balancing solution also exits 2, not 3."""
        if unsolvable:
            design = DesignSpec(A=np.array([[1.0], [2.0]]), B=np.eye(1),
                                L=np.eye(1), R=np.eye(1), group_sizes=(2,))
            data = _write(tmp_path / "two.csv", "a,1.0,2.0\na,3.0,4.0\n")
        else:
            design = one_way_manova((5, 5), 1).design
            data, _ = _dataset_csv(tmp_path, one_way_manova((5, 5), 2).design)
        manifest = write_design(design, tmp_path / "design")
        assert main(["test", "--data", str(data), "--design", str(manifest)]) == 2
        assert ("error: data has p=2 response columns but design B has p=1 rows"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, one_pass, where", [
        ("a,1,2\nb,3,4\na,5,nan\nb,7,8\n", True, "row 3, column 3: non-finite value nan"),
        ('"a",1,2\nb,3,4\na,inf,6\nb,7,8\n', False, "row 3, column 2: non-finite value inf"),
    ])
    def test_non_finite_cell_names_position(self, tmp_path, capsys, text, one_pass, where):
        """Rows are counted in file order, before regrouping, on either parser."""
        data = _write(tmp_path / "nf.csv", text)
        assert (io._parse_regular(data, False) is not None) == one_pass
        assert main(["test", "--data", str(data)]) == 2
        assert f"error: {data}: {where}\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize("draws", ["0", "-2"])
    def test_diagnose_needs_a_draw(self, tmp_path, capsys, draws):
        cfg = {"scenario": {"name": "one-way", "group_sizes": [6, 6], "p": 4},
               "reps": 100, "seed": 5}
        f = _write(tmp_path / "exp.json", json.dumps(cfg))
        assert main(["diagnose", "--config", str(f), "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert f"--draws must be at least 1, got {draws}" in captured.err
        assert "PASS" not in captured.out

    def test_bad_config_exit_code(self, tmp_path):
        f = _write(tmp_path / "exp.json", '{"reps": 100}')
        assert main(["simulate", "--config", str(f)]) == 2

    @pytest.mark.parametrize("key", ["cell_sizes", "group_sizes"])
    def test_two_way_config_takes_group_sizes_only(self, tmp_path, capsys, key):
        """A two-way simulate config names its cells by group_sizes, as
        every scenario does; cell_sizes is not a key of the schema."""
        cfg = {"scenario": {"name": "two-way", key: [6, 6, 6, 6], "p": 3,
                            "levels": [2, 2], "effect": "interaction"},
               "reps": 100, "seed": 2}
        f = _write(tmp_path / "exp.json", json.dumps(cfg))
        code = main(["simulate", "--config", str(f), "--threads", "1"])
        if key == "cell_sizes":
            assert code == 2
            assert "'cell_sizes'" in capsys.readouterr().err
        else:
            assert code == 0
            assert "reps=100" in capsys.readouterr().out

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


def test_cli_import_leaves_oracle_out():
    """Only `gmanova diagnose` reads the dense oracles, so importing the
    CLI does not import them."""
    src = str(Path(gmanova.__file__).resolve().parents[1])
    code = "import sys, gmanova.cli; print('gmanova.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_cli_import_loads_nothing_beyond_numpy_and_scipy():
    """Importing the CLI loads only standard-library modules, gmanova's own,
    and what `import numpy, scipy.special, scipy.stats` loads by itself; and
    not gmanova.oracle.  This pins the import that the CLI's start-up
    pays."""
    src = str(Path(gmanova.__file__).resolve().parents[1])
    code = "import json, sys; import {}; print(json.dumps(sorted(sys.modules)))"

    def loaded(modules: str) -> set:
        out = subprocess.run([sys.executable, "-c", code.format(modules)],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        return set(json.loads(out.stdout))

    cli = loaded("gmanova.cli")
    allowed = loaded("numpy, scipy.special, scipy.stats")
    beyond = sorted(name for name in cli - allowed
                    if name.partition(".")[0] not in sys.stdlib_module_names
                    and name.partition(".")[0] != "gmanova")
    assert beyond == []
    assert "gmanova.oracle" not in cli


def _config_file(tmp_path, **entries):
    """A simulate config on a (6, 6) x 3 one-way design (theta is 2 x 3)."""
    cfg = {"scenario": {"name": "one-way", "group_sizes": [6, 6], "p": 3},
           "reps": 100, "seed": 7, **entries}
    return _write(tmp_path / "exp.json", json.dumps(cfg))


def _manifest_with(tmp_path, key, value):
    manifest = write_design(one_way_manova((6, 6), 3).design, tmp_path / "d")
    spec = json.loads(manifest.read_text())
    spec[key] = value
    manifest.write_text(json.dumps(spec))
    return manifest


def _test_argv(tmp_path, manifest):
    data, _ = _dataset_csv(tmp_path, one_way_manova((6, 6), 3).design)
    return ["test", "--data", str(data), "--design", str(manifest)]


@pytest.mark.parametrize("argv, named", [
    (lambda t: ["simulate", "--config", str(_config_file(t, scenario={
        "name": "one-way", "group_sizes": [6, 6], "p": -1}))], "p must be"),
    (lambda t: ["scenario", "--name", "one-way", "--groups", "5,5", "--p", "-2",
                "--emit", str(t / "e")], "p must be"),
    (lambda t: ["simulate", "--config", str(_config_file(t, theta={
        "kind": "matrix", "values": [[1, 2, 3, 4], [1]]}))], "theta.values"),
    (lambda t: ["simulate", "--config", str(_config_file(t, theta={
        "kind": "signal_ray", "snr": 1.0, "direction": [[1, 2, 3], [1]]}))],
     "theta.direction"),
    (lambda t: _test_argv(t, _manifest_with(t, "A", 5)), "manifest.json"),
    (lambda t: ["simulate", "--config", str(_config_file(t, theta={
        "kind": "signal_ray", "snr": 1e200}))], "theta.snr 1e+200 is too large"),
    (lambda t: ["simulate", "--config", str(_config_file(t, theta={
        "kind": "matrix", "values": [[1e308] * 3] * 2}))], "theta is too large"),
    (lambda t: ["simulate", "--config", str(_config_file(t, theta={
        "kind": "matrix", "path": str(_write(t / "theta.csv", "nan,1,2\n1,2,3\n"))}))],
     "theta has non-finite entries"),
], ids=["simulate-p", "scenario-p", "theta-values", "theta-direction", "manifest-A",
        "theta-snr-overflow", "theta-mean-overflow", "theta-non-finite"])
def test_malformed_input_is_exit_2_without_a_traceback(tmp_path, capsys, argv, named):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("theta, key", [
    ({"kind": "matrix", "values": [[1.0, float("nan"), 2.0], [1.0, 2.0, 3.0]]},
     "theta.values"),
    ({"kind": "matrix", "values": [[1.0, 2.0, 3.0], [1.0, float("inf"), 3.0]]},
     "theta.values"),
    ({"kind": "matrix", "path": "theta.csv"}, "theta.path theta.csv"),
    ({"kind": "signal_ray", "snr": 2.0,
      "direction": [[float("nan"), 1.0, 2.0], [1.0, 2.0, 3.0]]}, "theta.direction"),
], ids=["values-nan", "values-inf", "path", "direction"])
def test_non_finite_theta_names_its_key(tmp_path, capsys, theta, key):
    """A non-finite entry of any theta matrix is rejected naming the key it
    came from, before a signal ray is calibrated on it."""
    _write(tmp_path / "theta.csv", "1,inf,2\n1,2,3\n")
    f = _config_file(tmp_path, theta=theta)
    assert main(["simulate", "--config", str(f), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert f"theta has non-finite entries in {key}" in err
    assert "annihilated" not in err and "Traceback" not in err


@pytest.mark.parametrize("scale, flow", [(1e-320, "underflows"), (1e308, "overflows")])
@pytest.mark.parametrize("verb", ["simulate", "diagnose"])
def test_a_covariance_whose_squares_leave_the_float_range_exits_2(
        tmp_path, capsys, recwarn, verb, scale, flow):
    """The variance of T sums squared covariance entries: at scale 1e-320
    they underflow (simulate raised on a zero sigma2) and at 1e308 they
    overflow (simulate wrote NaNs, diagnose failed through NaN gaps).  Both
    verbs exit 2 naming the covariance, before any warning."""
    f = _config_file(tmp_path, covariances={"kind": "identity", "scale": scale})
    assert main([verb, "--config", str(f)]) == 2
    captured = capsys.readouterr()
    assert (f"identity covariance with scale {scale:g} is out of range at p=3: "
            f"the sum of its squared entries {flow}") in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("verb", ["simulate", "diagnose"])
def test_a_signal_ray_whose_variance_overflows_exits_2(tmp_path, capsys, recwarn, verb):
    """At scale 7e153 the covariance's squares fit in a float but the
    variance of T does not: calibrating a signal ray on it exits 2 naming
    that variance, not the mean, and warns of nothing."""
    f = _config_file(tmp_path, covariances={"kind": "identity", "scale": 7e153},
                     theta={"kind": "signal_ray", "snr": 1.0})
    assert main([verb, "--config", str(f)]) == 2
    captured = capsys.readouterr()
    assert "the variance of T under these covariances overflows" in captured.err
    assert "theta.snr" not in captured.err and "Traceback" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestDiagnoseGates:
    def test_a_group_without_an_a2_exits_as_simulate_does(self, tmp_path, capsys):
        """With N_i - k_i = 1 in every group the engine raises naming the
        group; diagnose applies that gate before its oracle checks."""
        f = _write(tmp_path / "exp.json", json.dumps(
            {"scenario": {"name": "one-way", "group_sizes": [2, 2], "p": 3},
             "reps": 100, "seed": 7}))
        messages = []
        for verb in ("simulate", "diagnose"):
            assert main([verb, "--config", str(f)]) == 2
            captured = capsys.readouterr()
            assert "PASS" not in captured.out and "FAIL" not in captured.out
            messages.append(captured.err)
        assert messages[0] == messages[1]
        assert "group 0: needs N_i - k_i >= 2" in messages[0]

    def test_an_overflowing_mean_exits_2(self, tmp_path, capsys):
        f = _config_file(tmp_path, theta={"kind": "matrix", "values": [[1e308] * 3] * 2})
        assert main(["diagnose", "--config", str(f)]) == 2
        captured = capsys.readouterr()
        assert "theta is too large" in captured.err
        assert "PASS" not in captured.out

    def test_a_non_finite_gap_fails(self, tmp_path, capsys, monkeypatch):
        from gmanova import oracle

        monkeypatch.setattr(oracle, "t_by_decomposition", lambda X, design: float("nan"))
        assert main(["diagnose", "--config", str(_config_file(tmp_path))]) == 2
        out = capsys.readouterr().out
        assert "FAIL  statistic identity on 5 draws  worst relative gap nan" in out
        assert "PASS  factored statistic on 5 draws" in out


def _simulated(tmp_path, theta) -> dict:
    out = tmp_path / "summary.json"
    f = _config_file(tmp_path, theta=theta, out=str(out))
    assert main(["simulate", "--config", str(f), "--threads", "1"]) == 0
    return json.loads(out.read_text())


def _summary_of(theta) -> dict:
    """The summary monte_carlo gives the config of _config_file with the
    mean matrix theta (gaussian errors, identity covariances)."""
    design = one_way_manova((6, 6), 3).design
    model = gmanova.MeanModel(theta, (np.eye(3), np.eye(3)))
    summary = gmanova.monte_carlo(design, model, gmanova.ErrorDistribution.gaussian(),
                                  reps=100, seed=7, threads=1)
    return dataclasses.asdict(summary)


class TestMatrixTheta:
    THETA = [[0.5, -0.25, 1.0], [0.0, 0.75, -0.5]]

    def _check(self, summary, theta):
        want = _summary_of(np.array(theta))
        assert {k: summary[k] for k in want} == want

    def test_values(self, tmp_path):
        self._check(_simulated(tmp_path, {"kind": "matrix", "values": self.THETA}),
                    self.THETA)

    def test_path_is_read_next_to_the_config(self, tmp_path):
        np.savetxt(tmp_path / "theta.csv", np.array(self.THETA), delimiter=",",
                   fmt="%.17g")
        self._check(_simulated(tmp_path, {"kind": "matrix", "path": "theta.csv"}),
                    self.THETA)

    def test_explicit_direction(self, tmp_path):
        design = one_way_manova((6, 6), 3).design
        sigmas = (np.eye(3), np.eye(3))
        theta = gmanova.calibrate_signal_ray(design, np.array(self.THETA), sigmas, 1.5)
        summary = _simulated(tmp_path, {"kind": "signal_ray", "snr": 1.5,
                                        "direction": self.THETA})
        self._check(summary, theta)

    @pytest.mark.parametrize("theta, named", [
        ({"kind": "matrix", "values": [[1.0, 2.0], [3.0, 4.0]]},
         "theta.values has shape (2, 2)"),
        ({"kind": "matrix", "path": "theta.csv"}, "theta.path theta.csv has shape (3, 3)"),
        ({"kind": "signal_ray", "snr": 1.0, "direction": [[1.0, 2.0, 3.0]]},
         "theta.direction has shape (1, 3)"),
    ], ids=["values", "path", "direction"])
    def test_wrong_shape_is_exit_2(self, tmp_path, capsys, theta, named):
        np.savetxt(tmp_path / "theta.csv", np.eye(3), delimiter=",")
        f = _config_file(tmp_path, theta=theta)
        assert main(["simulate", "--config", str(f), "--threads", "1"]) == 2
        assert named in capsys.readouterr().err
