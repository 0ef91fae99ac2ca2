import hashlib
import json
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from latentsurv.cli import (
    EXIT_ALL_EXCLUDED,
    EXIT_BAD_INPUT,
    EXIT_MANIFEST_MISMATCH,
    main,
)
from latentsurv.data import Dataset, load_dataset
from latentsurv.serialize import scenario_to_dict, write_dataset
from latentsurv.simulate import BlockSpec, SimScenario
from tests.conftest import make_survival, normal_block


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

    def test_missing_data_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", "--data", str(tmp_path / "nope.json"),
                                      "--dz", "2", "--out", str(tmp_path / "m.json")])
        assert result.exit_code == EXIT_BAD_INPUT

    def test_bad_cells_exit_2_without_traceback(self, runner, sim_dir, tmp_path):
        model = tmp_path / "model.json"
        run_ok(runner, ["fit", "--data", str(sim_dir / "train_manifest.json"),
                        "--dz", "2", "--out", str(model)])

        def corrupt(tag, prefix, name, edit):
            """Copy one simulated dataset and edit the cells of its first data row
            in one file; returns the copy's manifest."""
            out = tmp_path / tag
            out.mkdir()
            for f in sim_dir.glob(f"{prefix}_*"):
                shutil.copy(f, out)
            path = out / f"{prefix}_{name}.csv"
            lines = path.read_text().splitlines()
            lines[1] = ",".join(edit(lines[1].split(",")))
            path.write_text("\n".join(lines) + "\n")
            return out / f"{prefix}_manifest.json"

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
            ("impute_missing", ["predict", "--model", str(model),
                                "--data", str(corrupt("na_test", "test", "expr", na)),
                                "--out", str(tmp_path / "refused.csv")]),
        ]
        for message, args in calls:
            result = runner.invoke(main, args)
            assert result.exit_code == EXIT_BAD_INPUT, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.output.startswith("error:") and result.output.count("\n") == 1
            assert message in result.output

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

    def test_format_1_model_still_predicts(self, runner, tmp_path):
        """A hand-written format-1 document, its digest the names and fields
        concatenated: it predicts on its features and refuses others."""
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
        assert self._predict(runner, model, ("ab", "c"), tmp_path).exit_code == 0
        result = self._predict(runner, model, ("ab", "d"), tmp_path)
        assert result.exit_code == EXIT_MANIFEST_MISMATCH


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

    def test_no_candidates_exit_2(self, runner, tmp_path):
        scn = scenario_file(tmp_path, n_train=30, n_test=0)
        sim = tmp_path / "sim"
        run_ok(runner, ["simulate", "--scenario", str(scn), "--out", str(sim)])
        result = runner.invoke(main, ["cv", "--data", str(sim / "train_manifest.json"),
                                      "--out", str(tmp_path / "cv")])
        assert result.exit_code == EXIT_BAD_INPUT

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
