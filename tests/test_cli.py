import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from latentsurv import cli, evaluate, joint
from latentsurv.cli import (
    EXIT_ALL_EXCLUDED,
    EXIT_BAD_INPUT,
    EXIT_MANIFEST_MISMATCH,
    main,
)
from latentsurv.data import Dataset, load_dataset
from latentsurv.serialize import write_dataset
from latentsurv.simulate import BlockSpec, SimScenario
from tests.conftest import make_survival, normal_block, scenario_to_dict


@pytest.fixture
def runner():
    return CliRunner()


def scenario_file(tmp_path, n_train=60, n_test=15, seed=3):
    scn = SimScenario(
        d_z=2,
        blocks=(BlockSpec(name="expr", kind="normal", d_x=8),
                BlockSpec(name="mut", kind="binomial", d_x=4)),
        w_T=np.array([0.0, 1.0, -1.0]),
        w_C=np.array([-0.3, 0.0, 0.0]),
        n_train=n_train, n_test=n_test, seed=seed)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(scn)))
    return path


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def corrupted_copy(sim_dir, out, prefix, name, edit):
    """Copy one simulated dataset to ``out`` and edit the cells of its first
    data row in one file; returns the copy's manifest."""
    out.mkdir()
    for f in sim_dir.glob(f"{prefix}_*"):
        shutil.copy(f, out)
    path = out / f"{prefix}_{name}.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(edit(lines[1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return out / f"{prefix}_manifest.json"


def zero_time(cells):
    return [cells[0], "0", cells[2]]


def huge_cell(cells):
    return [cells[0], "1e300"] + cells[2:]


def long_cell(cells):  # longer than csv.field_size_limit(); numpy alone reads it as 1.0
    return [cells[0], "0" * 199_999 + "1"] + cells[2:]


def long_name(cells):
    return ["f" * 200_000] + cells[1:]


def run_python(*args):
    """``python *args`` in a real process with this checkout's ``src`` on its
    path; returns the completed process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=300)


def run_in_process(*args):
    """``python -m latentsurv.cli *args`` in a real process, whose log reaches
    its stderr; returns the completed process."""
    return run_python("-m", "latentsurv.cli", *args)


def test_importing_the_package_loads_no_scipy():
    """``latentsurv``, its CLI and every other module import without scipy:
    importing scipy.special took the CLI's peak memory from 34 to 55 MB.
    scipy is a test dependency only."""
    code = ("import importlib, pkgutil, sys, latentsurv, latentsurv.cli\n"
            "for module in pkgutil.iter_modules(latentsurv.__path__):\n"
            "    importlib.import_module('latentsurv.' + module.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestSimulateCommand:
    def test_writes_manifests_and_config(self, runner, tmp_path):
        scn = scenario_file(tmp_path)
        out = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(out)])
        train = load_dataset(out / "train_manifest.json")
        test = load_dataset(out / "test_manifest.json")
        assert train.n_samples == 60 and test.n_samples == 15
        assert (out / "simulate_config.json").exists()

    def test_bad_scenario_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["simulate", "--scenario", str(bad),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("edit, error", [
        (lambda doc: doc["blocks"][1].update(name=doc["blocks"][0]["name"]),
         "block name 'expr' is repeated"),
        (lambda doc: doc["w_T"].__setitem__(0, -800.0),
         "invalid time inf: must be finite and at least 0"),
        (lambda doc: doc["w_T"].__setitem__(0, 800.0),
         "the event hazard rate exp(w · z) overflows"),
        (lambda doc: doc["w_C"].__setitem__(0, 800.0),
         "the censoring hazard rate exp(w · z) overflows"),
    ], ids=["repeated_block_name", "event_rate_underflows", "event_rate_overflows",
            "censoring_rate_overflows"])
    def test_unsimulable_scenario_exit_2(self, runner, tmp_path, edit, error):
        """A scenario whose draw makes no dataset, two blocks of one name, an
        event rate that underflows to 0 in the test set's draw, or an event or
        censoring rate that overflows, ends in one error line and exit 2, and
        writes nothing."""
        path = scenario_file(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == EXIT_BAD_INPUT, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: cannot simulate this scenario: {error}\n"
        assert not out.exists()

    def test_deterministic_output(self, runner, tmp_path):
        scn = scenario_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(out1)])
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(out2)])
        for name in ("train_expr.csv", "train_survival.csv", "test_expr.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestFitPredictProject:
    @pytest.fixture
    def sim_dir(self, runner, tmp_path):
        scn = scenario_file(tmp_path)
        out = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(out)])
        return out

    def test_roundtrip(self, runner, sim_dir, tmp_path):
        model = tmp_path / "model.json"
        run_ok(runner, ["fit", "--data", str(sim_dir / "train_manifest.json"),
                        "--dz", "2", "--out", str(model)])
        preds = tmp_path / "preds.csv"
        run_ok(runner, ["predict", "--model", str(model),
                        "--data", str(sim_dir / "test_manifest.json"),
                        "--out", str(preds)])
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "sample_id,predicted_time"
        assert len(lines) == 16
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v > 0 for v in values)

        proj = tmp_path / "proj.csv"
        run_ok(runner, ["project", "--model", str(model),
                        "--data", str(sim_dir / "train_manifest.json"),
                        "--out", str(proj)])
        plines = proj.read_text().strip().splitlines()
        assert plines[0] == "sample_id,z1,z2,time_days,event"
        assert len(plines) == 61

    def test_fit_deterministic(self, runner, sim_dir, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["fit", "--data", str(sim_dir / "train_manifest.json"),
                "--dz", "2", "--seed", "5"]
        run_ok(runner, args + ["--out", str(m1)])
        run_ok(runner, args + ["--out", str(m2)])
        assert m1.read_bytes() == m2.read_bytes()

    def test_full_mode_runs(self, runner, sim_dir, tmp_path):
        model = tmp_path / "model_full.json"
        run_ok(runner, ["fit", "--data", str(sim_dir / "train_manifest.json"),
                        "--dz", "2", "--fit-mode", "full", "--gem-iters", "1",
                        "--out", str(model)])
        doc = json.loads(model.read_text())
        assert doc["fit_mode"] == "full_mcem"

    def test_heywood_warning(self, runner, sim_dir, tmp_path):
        """A constant normal feature has no residual variance: fit warns on
        stderr and records the flag in the model file."""
        manifest = corrupted_copy(sim_dir, tmp_path / "constant", "train", "expr",
                                  lambda cells: [cells[0]] + ["1.0"] * (len(cells) - 1))
        model = tmp_path / "model.json"
        result = run_ok(runner, ["fit", "--data", str(manifest), "--dz", "2",
                                 "--out", str(model)])
        assert result.stderr == ("warning: near-zero residual variance detected in the "
                                 "factor fit\n")
        assert json.loads(model.read_text())["heywood_flag"] is True

    @pytest.mark.parametrize("block_edit, line_edit, message", [
        ((0, {"kind": "gaussian"}), None, "unknown block kind 'gaussian'"),
        ((1, {"b": 0}), None, "trial count b must be a positive integer"),
        (None, ("survival", 0, lambda line: "id,time,event"),
         "expected header sample_id,time_days,event"),
        (None, ("survival", 2, lambda line: "tr00000" + line[line.index(","):]),
         "train_survival.csv:3: duplicate sample id 'tr00000'"),
        ((1, {"kind": "multinomial"}), ("mut", 1, lambda line: line.replace(",1.0,", ",-1,", 1)),
         "multinomial entries must be non-negative integers"),
    ], ids=["unknown_block_kind", "zero_trial_count", "survival_header", "repeated_survival_id",
            "negative_multinomial_cell"])
    def test_bad_dataset_exit_2(self, runner, sim_dir, tmp_path, block_edit, line_edit,
                                message):
        """The loader refuses a bad manifest entry, survival file or block
        cell: ``fit`` ends with one error line that says why, and exit 2."""
        data = tmp_path / "bad"
        shutil.copytree(sim_dir, data)
        if block_edit:
            manifest = data / "train_manifest.json"
            doc = json.loads(manifest.read_text())
            doc["blocks"][block_edit[0]].update(block_edit[1])
            manifest.write_text(json.dumps(doc))
        if line_edit:
            name, row, edit = line_edit
            path = data / f"train_{name}.csv"
            lines = path.read_text().splitlines()
            lines[row] = edit(lines[row])
            path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["fit", "--data", str(data / "train_manifest.json"),
                                      "--dz", "2", "--out", str(tmp_path / "refused.json")])
        assert result.exit_code == EXIT_BAD_INPUT, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: cannot load dataset: ")
        assert result.output.count("\n") == 1 and message in result.output
        assert not (tmp_path / "refused.json").exists()

    def test_missing_data_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", "--data", str(tmp_path / "nope.json"),
                                      "--dz", "2", "--out", str(tmp_path / "m.json")])
        assert result.exit_code == EXIT_BAD_INPUT

    def test_bad_cells_exit_2_without_traceback(self, runner, sim_dir, tmp_path):
        model = tmp_path / "model.json"
        run_ok(runner, ["fit", "--data", str(sim_dir / "train_manifest.json"),
                        "--dz", "2", "--out", str(model)])

        def corrupt(tag, prefix, name, edit):
            return corrupted_copy(sim_dir, tmp_path / tag, prefix, name, edit)

        def na(cells):
            return [cells[0], "NA"] + cells[2:]

        def fit(manifest):
            return ["fit", "--data", str(manifest), "--dz", "2",
                    "--out", str(tmp_path / "refused.json")]

        calls = [
            ("impute_missing", fit(corrupt("na", "train", "expr", na))),
            ("expected 3 cells, got 2", fit(corrupt("short", "train", "survival",
                                                    lambda c: c[:2]))),
            ("train_survival.csv:2: invalid time inf",
             fit(corrupt("inf", "train", "survival", lambda c: [c[0], "inf", c[2]]))),
            ("sample 0 has time 0; the hazards need positive times (data.adjust_zero_times",
             fit(corrupt("zero", "train", "survival", zero_time))),
            ("sample 0 has time 0; the hazards need positive times (data.adjust_zero_times",
             fit(tmp_path / "zero/train_manifest.json") + ["--fit-mode", "full",
                                                           "--gem-iters", "1"]),
            ("adjust_zero_times", ["cv", "--data", str(tmp_path / "zero/train_manifest.json"),
                                   "--dz", "2", "--folds", "2", "--test-fraction", "0",
                                   "--out", str(tmp_path / "refused_cv")]),
            ("impute_missing", ["predict", "--model", str(model),
                                "--data", str(corrupt("na_test", "test", "expr", na)),
                                "--out", str(tmp_path / "refused.csv")]),
            ("test_expr.csv:2: non-finite cell 'inf' (column 2)",
             ["predict", "--model", str(model),
              "--data", str(corrupt("inf_test", "test", "expr",
                                    lambda c: [c[0], "inf"] + c[2:])),
              "--out", str(tmp_path / "refused.csv")]),
        ]
        for message, args in calls:
            result = runner.invoke(main, args)
            assert result.exit_code == EXIT_BAD_INPUT, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.output.startswith("error:") and result.output.count("\n") == 1
            assert message in result.output

    @pytest.mark.parametrize("name, edit", [("survival", zero_time), ("expr", huge_cell)])
    def test_cv_on_bad_cells_in_a_real_process(self, sim_dir, tmp_path, name, edit):
        """The log reaches stderr only in a real process: each failed fold is
        one warning line, and the failed refit one error line."""
        manifest = corrupted_copy(sim_dir, tmp_path / "bad", "train", name, edit)
        result = run_in_process("cv", "--data", str(manifest), "--dz", "2,3", "--folds", "3",
                                "--out", str(tmp_path / "cv"))
        assert result.returncode == EXIT_BAD_INPUT, result.stderr
        for text in ("Traceback", "RuntimeWarning", "DLASCL"):
            assert text not in result.stderr
        lines = result.stderr.splitlines()
        [error] = [line for line in lines if line.startswith("error:")]
        assert error.startswith("error: cannot fit this dataset:")
        # sample 0 is in the learning set of two of the three folds
        failed = [line for line in lines if line.startswith("WARNING latentsurv.evaluate:")]
        assert len(failed) == 4 and all(" failed on fold " in line for line in failed)

    @pytest.mark.parametrize("edit", [long_cell, long_name], ids=["cell", "name"])
    def test_fit_on_a_field_over_the_csv_limit_in_a_real_process(self, sim_dir, tmp_path, edit):
        """A block cell or feature name longer than the csv module reads ends
        in one error line naming the file and line, with exit 2."""
        manifest = corrupted_copy(sim_dir, tmp_path / "long", "train", "expr", edit)
        result = run_in_process("fit", "--data", str(manifest), "--dz", "2",
                                "--out", str(tmp_path / "refused.json"))
        assert result.returncode == EXIT_BAD_INPUT, result.stderr
        assert "Traceback" not in result.stderr
        [error] = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert "train_expr.csv:2: field larger than field limit" in error
        assert not (tmp_path / "refused.json").exists()

    def test_manifest_mismatch_exit_4(self, runner, sim_dir, tmp_path):
        model = tmp_path / "model.json"
        run_ok(runner, ["fit", "--data", str(sim_dir / "train_manifest.json"),
                        "--dz", "2", "--out", str(model)])
        # a dataset with different features than the model was fitted on
        rng = np.random.default_rng(0)
        other = Dataset(blocks=(normal_block(rng, 5, 10, d_z=2),),
                        survival=make_survival(rng.exponential(1, 10), np.ones(10)),
                        sample_ids=tuple(f"o{i}" for i in range(10)))
        other_dir = tmp_path / "other"
        manifest = write_dataset(other, other_dir, "other")
        result = runner.invoke(main, ["predict", "--model", str(model),
                                      "--data", str(manifest),
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code == EXIT_MANIFEST_MISMATCH


def test_every_command_echoes_its_options(runner, tmp_path):
    """Each command writes ``<command>_config.json`` in its output directory,
    or beside its output file, holding every option as invoked."""
    scn = scenario_file(tmp_path, n_train=40, n_test=10)
    sim, model, cv_dir = tmp_path / "sim", tmp_path / "fit" / "model.json", tmp_path / "cv"
    train, test = str(sim / "train_manifest.json"), str(sim / "test_manifest.json")
    calls = [
        (sim, ["simulate", "--scenario", str(scn), "--out", str(sim)],
         {"scenario": str(scn), "out": str(sim)}),
        (model.parent, ["fit", "--data", train, "--dz", "2", "--seed", "4", "--out", str(model)],
         {"data": train, "dz": 2, "fit_mode": "fast", "gem_iters": 10, "seed": 4,
          "out": str(model)}),
        (cv_dir, ["cv", "--data", train, "--dz", "1,2", "--gamma", "0.5", "--folds", "2",
                  "--out", str(cv_dir)],
         {"data": train, "dz": [1, 2], "gamma": [0.5], "fit_mode": "fast", "gem_iters": 10,
          "folds": 2, "test_fraction": 0.25, "seed": 0, "out": str(cv_dir)}),
        (tmp_path / "p", ["predict", "--model", str(model), "--data", test,
                          "--out", str(tmp_path / "p" / "preds.csv")],
         {"model": str(model), "data": test, "out": str(tmp_path / "p" / "preds.csv")}),
        (tmp_path / "q", ["project", "--model", str(model), "--data", train,
                          "--out", str(tmp_path / "q" / "proj.csv")],
         {"model": str(model), "data": train, "out": str(tmp_path / "q" / "proj.csv")}),
    ]
    for out_dir, args, options in calls:
        run_ok(runner, args)
        doc = json.loads((out_dir / f"{args[0]}_config.json").read_text())
        assert doc == {"command": args[0], "options": options}
        assert list(doc["options"]) == list(options)


def test_gem_iters_defaults_are_joint_gem_iters():
    """fit_joint, ModelCandidate and both commands' --gem-iters take their
    default GEM iteration count from its one home, joint.GEM_ITERS."""
    assert inspect.signature(joint.fit_joint).parameters["gem_iters"].default == joint.GEM_ITERS
    assert evaluate.ModelCandidate(kind="fa_ecph_c", d_z=1).gem_iters == joint.GEM_ITERS
    for command in (cli.fit, cli.cv):
        [option] = [param for param in command.params if param.name == "gem_iters"]
        assert option.default == joint.GEM_ITERS


def strict_json(text):
    """``text`` parsed as strict JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")
    return json.loads(text, parse_constant=refuse)


def assert_refused(result, path):
    """Exit 2 through one ``error:`` line that names ``path``, no traceback."""
    assert result.exit_code == EXIT_BAD_INPUT, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error:") and result.output.count("\n") == 1
    assert str(path) in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("kind, doc", [
    ("model", {"format_version": 2, "blocks": 5, "d_z": 2}),
    ("model", [1, 2]),
    ("manifest", {"blocks": 7}),
    ("manifest", {"blocks": ["expr"]}),
    ("manifest", []),
    ("scenario", ["x"]),
    ("model", None),
])
def test_wrong_shape_document_exit_2(runner, tmp_path, kind, doc):
    """A JSON document of the wrong shape, or a file that is not JSON, is bad
    input: one error line that names the file, never a traceback."""
    sim = tmp_path / "sim"
    run_ok(runner, ["simulate", "--scenario", str(scenario_file(tmp_path, n_test=0)),
                    "--out", str(sim)])
    train = sim / "train_manifest.json"
    if kind == "manifest" and isinstance(doc, dict):
        doc = {**json.loads(train.read_text()), **doc}
    # a manifest sits beside the block files it names
    path = (sim if kind == "manifest" else tmp_path) / f"{kind}.json"
    path.write_text("{not json" if doc is None else json.dumps(doc))
    args = {"model": ["predict", "--model", str(path), "--data", str(train),
                      "--out", str(tmp_path / "p.csv")],
            "manifest": ["fit", "--data", str(path), "--dz", "2",
                         "--out", str(tmp_path / "m.json")],
            "scenario": ["simulate", "--scenario", str(path), "--out", str(tmp_path / "s")]}
    assert_refused(runner.invoke(main, args[kind]), path)


@pytest.mark.parametrize("top, block", [
    ({}, {"kind": "bogus"}),
    ({}, {"b": 0}),
    ({}, {"d_x": 0}),
    ({}, {"psi_range": [-1, -0.5]}),
    ({}, {"w_sale": 2.0}),
    ({}, {"W": [[0.1, 0.2]] * 8, "mu": [0.0] * 3}),
    ({}, {"W": [[0.1, 0.2]] * 8, "psi": [-1.0] * 8}),
    ({"n_train": -3}, {}),
    ({"seed": -1}, {}),
    (None, None),
], ids=["kind", "b", "d_x", "psi_range", "unknown_key", "mu", "psi", "n_train", "seed",
     "not_json"])
def test_out_of_range_scenario_exit_2(runner, tmp_path, top, block):
    """A scenario value out of range, a key that is no field name, or a file
    that is not JSON is bad input naming the file; nothing is written."""
    path = scenario_file(tmp_path)
    if top is None:
        path.write_text("{not json")
    else:
        doc = json.loads(path.read_text())
        doc["blocks"][0].update(block)
        path.write_text(json.dumps({**doc, **top}))
    out = tmp_path / "sim"
    assert_refused(runner.invoke(main, ["simulate", "--scenario", str(path),
                                        "--out", str(out)]), path)
    assert not out.exists()


def _drop_last_row(doc):
    doc["blocks"][0]["W"].pop()


def _drop_a_column(doc):
    for row in doc["blocks"][0]["W"]:
        row.pop()


def _drop_second_block(doc):
    del doc["blocks"][1]


def _drop_normal_psi(doc):
    doc["blocks"][0]["psi"] = None


def _rename_first_feature(doc):
    doc["blocks"][0]["feature_names"][0] += "_renamed"


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A simulated dataset and the model fitted on its training part."""
    runner, tmp = CliRunner(), tmp_path_factory.mktemp("fitted")
    run_ok(runner, ["simulate", "--scenario", str(scenario_file(tmp)), "--out", str(tmp)])
    run_ok(runner, ["fit", "--data", str(tmp / "train_manifest.json"), "--dz", "2",
                    "--out", str(tmp / "model.json")])
    return tmp


@pytest.mark.parametrize("command", ["predict", "project"])
@pytest.mark.parametrize("edit", [_drop_last_row, _drop_a_column, _drop_second_block,
                                  _drop_normal_psi, _rename_first_feature])
def test_model_arrays_not_fitting_exit_2(runner, fitted, tmp_path, command, edit):
    """A model whose arrays do not fit its blocks, or whose listed blocks are
    not those its manifest digest was made from, is bad input naming the file;
    nothing is written."""
    doc = json.loads((fitted / "model.json").read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert_refused(runner.invoke(main, [command, "--model", str(path), "--data",
                                        str(fitted / "train_manifest.json"),
                                        "--out", str(out)]), path)
    assert not out.exists()


@pytest.mark.parametrize("kind, edit, literal", [
    ("model", lambda doc: doc["w_T"].__setitem__(0, "@"), "NaN"),
    ("model", lambda doc: doc["blocks"][0]["W"][0].__setitem__(0, "@"), "Infinity"),
    ("model", lambda doc: doc["blocks"][1]["xi_mean"].__setitem__(0, "@"), "NaN"),
    ("model", lambda doc: doc["w_C"].__setitem__(1, "@"), "-1e400"),
    ("scenario", lambda doc: doc["blocks"][0].update(w_scale="@"), "NaN"),
    ("scenario", lambda doc: doc["blocks"][0].update(psi_range=[0.5, "@"]), "Infinity"),
    ("scenario", lambda doc: doc["w_T"].__setitem__(0, "@"), "-Infinity"),
    ("scenario", lambda doc: doc["w_T"].__setitem__(0, "@"), "1" + "0" * 400),
    ("manifest", lambda doc: doc["blocks"][1].update(b="@"), "Infinity"),
], ids=["model_w_T_nan", "model_W_infinity", "model_xi_mean_nan", "model_w_C_1e400",
        "scenario_w_scale_nan", "scenario_psi_range_infinity", "scenario_w_T_minus_infinity",
        "scenario_w_T_integer_overflow", "manifest_b_infinity"])
def test_non_finite_json_number_exit_2(runner, fitted, tmp_path, kind, edit, literal):
    """NaN, Infinity and -Infinity are not JSON numbers, and a number literal
    that overflows a double reads as an infinity: a model, scenario or
    manifest holding either is bad input naming the file, and nothing is
    written."""
    if kind == "manifest":  # a manifest sits beside the files it names
        for f in fitted.glob("train_*"):
            shutil.copy(f, tmp_path)
    source = {"model": fitted / "model.json", "scenario": scenario_file(tmp_path),
              "manifest": fitted / "train_manifest.json"}[kind]
    doc = json.loads(source.read_text())
    edit(doc)
    path = tmp_path / f"edited_{kind}.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    out = tmp_path / "out"
    args = {"model": ["predict", "--model", str(path), "--data",
                      str(fitted / "train_manifest.json")],
            "scenario": ["simulate", "--scenario", str(path)],
            "manifest": ["fit", "--data", str(path), "--dz", "2"]}[kind]
    assert_refused(runner.invoke(main, [*args, "--out", str(out)]), path)
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "cv", "predict", "project"])
def test_unwritable_out_exit_2(runner, fitted, tmp_path, command):
    """An --out below a regular file cannot be written: one error line that
    names the path, never a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    train, model = str(fitted / "train_manifest.json"), str(fitted / "model.json")
    args = {"simulate": ["--scenario", str(scenario_file(tmp_path))],
            "fit": ["--data", train, "--dz", "2"],
            "cv": ["--data", train, "--gamma", "0.5", "--folds", "2"],
            "predict": ["--model", model, "--data", train],
            "project": ["--model", model, "--data", train]}[command]
    result = runner.invoke(main, [command, *args, "--out", str(blocker / "out")])
    assert_refused(result, blocker)


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_unwritable_out_refused_before_any_fit(runner, fitted, tmp_path, monkeypatch, command):
    """fit and cv make their output directory before their first fit, so an
    --out below a regular file is refused before any fit starts."""
    monkeypatch.setattr(evaluate, "fit_candidate",
                        lambda *args, **kwargs: pytest.fail("fitted before --out was checked"))
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    args = {"fit": ["--dz", "2"], "cv": ["--gamma", "0.5", "--folds", "2"]}[command]
    result = runner.invoke(main, [command, "--data", str(fitted / "train_manifest.json"), *args,
                                  "--out", str(blocker / "out")])
    assert_refused(result, blocker)


class TestManifestDigest:
    @staticmethod
    def _dataset(names):
        rng = np.random.default_rng(4)
        block = normal_block(rng, len(names), 20, name="g", d_z=1)
        block = block.__class__(name="g", kind="normal", b=1, values=block.values,
                                feature_names=names)
        return Dataset(blocks=(block,),
                       survival=make_survival(rng.exponential(1, 20), np.ones(20)),
                       sample_ids=tuple(f"s{i}" for i in range(20)))

    def _predict(self, runner, model, names, tmp_path):
        tag = "_".join(names)
        manifest = write_dataset(self._dataset(names), tmp_path / tag, "d")
        return runner.invoke(main, ["predict", "--model", str(model), "--data", str(manifest),
                                    "--out", str(tmp_path / f"{tag}.csv")])

    def test_features_split_differently_exit_4(self, runner, tmp_path):
        """Features ('ab', 'c') and ('a', 'bc') concatenate alike but are
        different features."""
        manifest = write_dataset(self._dataset(("ab", "c")), tmp_path / "train", "train")
        model = tmp_path / "model.json"
        run_ok(runner, ["fit", "--data", str(manifest), "--dz", "1", "--out", str(model)])
        assert self._predict(runner, model, ("ab", "c"), tmp_path).exit_code == 0
        result = self._predict(runner, model, ("a", "bc"), tmp_path)
        assert result.exit_code == EXIT_MANIFEST_MISMATCH

    def test_format_1_model_refused(self, runner, tmp_path):
        """A hand-written format-1 document, its digest the names and fields
        concatenated, is refused on the features it lists: predict and project
        exit 2 through one error line that names the file and the supported
        format, and write nothing."""
        v1_digest = hashlib.sha256("gnormal1abc".encode()).hexdigest()
        doc = {"format_version": 1, "d_z": 1, "heywood_flag": False,
               "manifest_hash": v1_digest,
               "blocks": [{"name": "g", "kind": "normal", "b": 1, "feature_names": ["ab", "c"],
                           "W": [[0.5], [-0.25]], "mu": [0.0, 1.0], "psi": [1.0, 2.0],
                           "xi_mean": None, "alpha_mean": None}],
               "w_T": [0.1, 0.7], "w_C": [-0.3, 0.0], "kappa_used": None,
               "fit_mode": "fast_decoupled"}
        model = tmp_path / "v1.json"
        model.write_text(json.dumps(doc))
        manifest = write_dataset(self._dataset(("ab", "c")), tmp_path / "data", "d")
        for command in ("predict", "project"):
            out = tmp_path / f"{command}.csv"
            result = runner.invoke(main, [command, "--model", str(model),
                                          "--data", str(manifest), "--out", str(out)])
            assert_refused(result, model)
            assert "unsupported model format 1; this version reads format 2" in result.output
            assert not out.exists()


class TestCvCommand:
    def test_cv_reports_and_selection(self, runner, tmp_path):
        scn = scenario_file(tmp_path, n_train=50, n_test=0)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        out = tmp_path / "cv"
        result = run_ok(runner, ["cv", "--data", str(sim / "train_manifest.json"),
                                 "--dz", "1,2", "--gamma", "0.5",
                                 "--folds", "3", "--test-fraction", "0.2",
                                 "--out", str(out)])
        doc = json.loads((out / "cv_report.json").read_text())
        ids = {r["candidate_id"] for r in doc["reports"]}
        assert ids == {"latent_dz1_fast", "latent_dz2_fast", "l1_gamma0.5"}
        assert doc["selected"] in ids
        assert f"selected: {doc['selected']}" in result.output
        # fold CSV rows: one per candidate per completed fold
        lines = (out / "cv_folds.csv").read_text().strip().splitlines()
        n_folds = sum(len(r["fold_cindices"]) for r in doc["reports"])
        assert len(lines) == 1 + n_folds
        # selection must agree with a recomputation from the stored reports
        from latentsurv.evaluate import CvReport, select_model
        reports = [CvReport(candidate_id=r["candidate_id"],
                            fold_cindices=tuple(r["fold_cindices"]),
                            mean=r["mean"], std=r["std"],
                            heywood_excluded=r["heywood_excluded"],
                            error_folds=tuple(r["error_folds"]))
                   for r in doc["reports"]]
        assert select_model(reports) == doc["selected"]
        if doc["selected"].startswith("latent"):
            assert (out / "selected_model.json").exists()

    def test_no_held_out_samples_null_test_cindex(self, runner, tmp_path):
        scn = scenario_file(tmp_path, n_train=30, n_test=0)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        run_ok(runner, ["cv", "--data", str(sim / "train_manifest.json"), "--dz", "1",
                        "--folds", "3", "--test-fraction", "0", "--out", str(tmp_path / "cv")])
        doc = json.loads((tmp_path / "cv" / "cv_report.json").read_text())
        assert doc["test_indices"] == [] and doc["test_cindex"] is None

    def test_report_of_a_candidate_failing_every_fold_is_strict_json(self, runner, tmp_path):
        """A candidate that fails every fold has no mean or std: the report
        holds null there, as for an undefined test_cindex, and every JSON
        file the command writes parses as strict JSON."""
        sim, out = tmp_path / "sim", tmp_path / "cv"
        run_ok(runner, ["simulate", "--scenario", str(scenario_file(tmp_path)), "--out", str(sim)])
        run_ok(runner, ["cv", "--data", str(sim / "train_manifest.json"), "--dz", "2,40",
                        "--folds", "3", "--out", str(out)])
        docs = {path.name: strict_json(path.read_text()) for path in out.glob("*.json")}
        assert set(docs) == {"cv_report.json", "cv_config.json", "selected_model.json"}
        [failed] = [r for r in docs["cv_report.json"]["reports"]
                    if r["candidate_id"] == "latent_dz40_fast"]
        assert failed["fold_cindices"] == [] and failed["error_folds"] == [0, 1, 2]
        assert failed["mean"] is None and failed["std"] is None

    def test_no_candidates_exit_2(self, runner, tmp_path):
        scn = scenario_file(tmp_path, n_train=30, n_test=0)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        result = runner.invoke(main, ["cv", "--data", str(sim / "train_manifest.json"),
                                      "--out", str(tmp_path / "cv")])
        assert result.exit_code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("gamma", ["inf", "1e400"])
    def test_infinite_gamma_exit_2_in_a_real_process(self, runner, tmp_path, gamma):
        """An infinite L1 strength is bad input: one error line and exit 2
        before the first fit, with or without latent candidates beside it."""
        scn = scenario_file(tmp_path, n_train=30, n_test=0)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        for extra in ([], ["--dz", "2"]):
            result = run_in_process("cv", "--data", str(sim / "train_manifest.json"),
                                    "--gamma", gamma, *extra, "--folds", "3",
                                    "--out", str(tmp_path / "cv"))
            assert result.returncode == EXIT_BAD_INPUT, result.stderr
            assert "Traceback" not in result.stderr
            [error] = [line for line in result.stderr.splitlines() if line.startswith("error:")]
            assert "gamma=inf must be finite and non-negative" in error
            assert "WARNING" not in result.stderr
            assert not (tmp_path / "cv").exists()

    def test_all_excluded_exit_3(self, runner, tmp_path):
        # noiseless rank-1 data trips the degenerate-variance flag on every fold
        rng = np.random.default_rng(1)
        N = 24
        Z = rng.standard_normal((1, N))
        block = normal_block(rng, 5, N, d_z=1)
        block = block.__class__(name="pure", kind="normal",
                                values=np.ones((5, 1)) @ Z,
                                feature_names=block.feature_names, b=1)
        ds = Dataset(blocks=(block,),
                     survival=make_survival(rng.exponential(1, N), np.ones(N)),
                     sample_ids=tuple(f"s{i}" for i in range(N)))
        manifest = write_dataset(ds, tmp_path / "pure", "train")
        result = runner.invoke(main, ["cv", "--data", str(manifest),
                                      "--dz", "1", "--folds", "3",
                                      "--out", str(tmp_path / "cv")])
        assert result.exit_code == EXIT_ALL_EXCLUDED

    def test_bad_dz_list_exit_2(self, runner, tmp_path):
        scn = scenario_file(tmp_path, n_train=30, n_test=0)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        result = runner.invoke(main, ["cv", "--data", str(sim / "train_manifest.json"),
                                      "--dz", "two", "--out", str(tmp_path / "cv")])
        assert result.exit_code == EXIT_BAD_INPUT


@pytest.mark.parametrize("args", [
    ["cv", "--dz", "1", "--test-fraction", "1.5"],
    ["cv", "--dz", "1", "--test-fraction", "1.0"],
    ["cv", "--dz", "1", "--test-fraction", "-0.5"],
    ["cv", "--dz", "1", "--folds", "1"],
    ["cv", "--dz", "0"],
    ["cv", "--gamma", "-1"],
    ["cv", "--dz", "1", "--fit-mode", "full", "--gem-iters", "-2"],
    ["fit", "--dz", "1", "--fit-mode", "full", "--gem-iters", "-2"],
    ["cv", "--dz", "1", "--seed", "-1"],
    ["fit", "--dz", "1", "--seed", "-1"],
])
def test_out_of_range_options_exit_2(runner, tmp_path, args):
    scn = scenario_file(tmp_path, n_train=30, n_test=0)
    sim = tmp_path / "sim"
    run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
    result = runner.invoke(main, args + ["--data", str(sim / "train_manifest.json"),
                                         "--out", str(tmp_path / "out")])
    assert result.exit_code == EXIT_BAD_INPUT, result.output
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


class TestNoCovariateBlock:
    ERROR = "a dataset needs at least one covariate block"

    def test_simulate_refuses_a_scenario_without_blocks(self, runner, tmp_path):
        path = scenario_file(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "blocks": []}))
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == EXIT_BAD_INPUT, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: cannot simulate this scenario: {self.ERROR}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args", [["fit", "--dz", "2"], ["cv", "--gamma", "0.5"],
                                      ["cv", "--dz", "1"]])
    def test_commands_refuse_a_manifest_without_blocks(self, runner, fitted, tmp_path, args):
        """Bad input, not a failed fit or an excluded candidate: one error line
        and exit 2 before any fit, and nothing written."""
        shutil.copy(fitted / "train_survival.csv", tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"blocks": [], "survival": "train_survival.csv"}))
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--data", str(manifest), "--out", str(out)])
        assert result.exit_code == EXIT_BAD_INPUT, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: cannot load dataset: {self.ERROR}\n"
        assert not out.exists()


class TestSerializationThroughCli:
    def test_saved_model_predictions_bit_exact(self, runner, tmp_path):
        scn = scenario_file(tmp_path)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        model = tmp_path / "model.json"
        run_ok(runner, ["fit", "--data", str(sim / "train_manifest.json"),
                        "--dz", "2", "--out", str(model)])
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for p in (p1, p2):
            run_ok(runner, ["predict", "--model", str(model),
                            "--data", str(sim / "test_manifest.json"),
                            "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()
