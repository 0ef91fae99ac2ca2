import csv
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsurv.data import load_dataset
from latentsurv.joint import _prediction_posterior, fit_fast, joint_predict
from latentsurv.serialize import (
    MODEL_FORMAT_VERSION,
    atomic_write,
    block_manifest_hash,
    load_model,
    load_scenario,
    model_from_dict,
    model_to_dict,
    save_model,
    scenario_from_dict,
    write_dataset,
    write_table,
)
from latentsurv.simulate import BlockSpec, SimScenario, simulate_dataset
from tests.conftest import make_dataset, scenario_to_dict, traced_peak


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write(p, "hello\n")
        assert p.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old")
        atomic_write(p, "new")
        assert p.read_text() == "new"

    def test_no_stray_temp_files(self, tmp_path):
        atomic_write(tmp_path / "out.txt", "x")
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_makes_missing_parent_directory(self, tmp_path):
        p = tmp_path / "a" / "b" / "out.txt"
        atomic_write(p, "x")
        assert p.read_text() == "x"

    def test_rows_failing_partway_leave_nothing(self, tmp_path):
        """write_table writes each row as it is drawn; when the rows raise
        partway, neither the table nor its temp file is left."""
        def rows():
            yield ["s1", "1.0"]
            raise RuntimeError("row source failed")
        with pytest.raises(RuntimeError, match="row source failed"):
            write_table(tmp_path / "t.csv", ["sample_id", "value"], rows())
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None)
    @given(table=st.lists(st.lists(st.text(max_size=5), max_size=4), min_size=1, max_size=4))
    def test_lines_as_csv_writer_writes_them(self, table):
        """Every table comes out byte for byte as csv.writer (QUOTE_MINIMAL,
        '\\n' line ends) writes it, quoted cells and empty rows included."""
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(table)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_table(path, table[0], table[1:])
            assert path.read_bytes() == want.getvalue().encode()


class TestManifestHash:
    def test_stable(self, rng):
        ds = make_dataset(rng, N=10)
        assert block_manifest_hash(ds.blocks) == block_manifest_hash(ds.blocks)

    def test_sensitive_to_feature_names(self, rng):
        ds = make_dataset(rng, N=10)
        b = ds.blocks[0]
        renamed = b.__class__(name=b.name, kind=b.kind, values=b.values,
                              feature_names=tuple(f"{n}x" for n in b.feature_names),
                              b=b.b)
        assert block_manifest_hash((renamed,)) != block_manifest_hash(ds.blocks)

    def test_insensitive_to_values(self, rng):
        ds = make_dataset(rng, N=10)
        b = ds.blocks[0]
        shifted = b.__class__(name=b.name, kind=b.kind, values=b.values + 1.0,
                              feature_names=b.feature_names, b=b.b)
        assert block_manifest_hash((shifted,)) == block_manifest_hash(ds.blocks)


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distinct_manifests_distinct_digests(self, data):
        """Different manifests never share a digest: neither two drawn
        independently nor two that split the same characters differently into
        feature names."""
        text = st.text(alphabet="ab1", max_size=3)
        manifest = st.lists(st.tuples(text, st.sampled_from(("normal", "binomial")),
                                      st.integers(1, 12), st.lists(text, max_size=3)),
                            min_size=1, max_size=3)
        a = data.draw(manifest)
        resplit = []
        for name, kind, trials, features in a:
            joined = "".join(features)
            cuts = sorted(data.draw(st.lists(st.integers(0, len(joined)), max_size=3)))
            bounds = zip([0] + cuts, cuts + [len(joined)])
            resplit.append((name, kind, trials, [joined[i:j] for i, j in bounds]))

        def digest(m):
            return block_manifest_hash([SimpleNamespace(name=n, kind=k, b=trials,
                                                        feature_names=tuple(f))
                                        for n, k, trials, f in m])

        for b in (resplit, data.draw(manifest)):
            if b != a:
                assert digest(a) != digest(b)


class TestModelRoundtrip:
    def test_predictions_bit_identical(self, rng, tmp_path):
        ds = make_dataset(rng, N=25, with_binomial=True)
        model = fit_fast(ds, 2, seed=0)
        before = joint_predict(model, ds.blocks)
        save_model(model, ds.blocks, tmp_path / "m.json")
        loaded, stored_hash = load_model(tmp_path / "m.json")
        after = joint_predict(loaded, ds.blocks)
        np.testing.assert_array_equal(before, after)
        assert stored_hash == block_manifest_hash(ds.blocks)

    def test_loaded_predicts_bit_identically_at_criterion_1_size(self, tmp_path):
        """Criterion-1 generator, N = 300: the fitted model and its saved copy
        give the same predictions and projections, bit for bit."""
        beta = np.random.default_rng(202).standard_normal(3)
        scn = SimScenario(
            d_z=3,
            blocks=(BlockSpec(name="expr", kind="normal", d_x=200, w_scale=0.8),
                    BlockSpec(name="mut", kind="binomial", d_x=50, b=1, w_scale=1.2),
                    BlockSpec(name="subtype", kind="multinomial", d_x=4, b=1, w_scale=1.2)),
            w_T=np.concatenate([[0.0], 3.0 * beta / np.linalg.norm(beta)]),
            w_C=np.array([-0.8, 0.0, 0.0, 0.0]), n_train=300, n_test=500, seed=77)
        train, test, _ = simulate_dataset(scn)
        model = fit_fast(train, 3, seed=0)
        save_model(model, train.blocks, tmp_path / "m.json")
        loaded, _ = load_model(tmp_path / "m.json")
        np.testing.assert_array_equal(joint_predict(model, test.blocks),
                                      joint_predict(loaded, test.blocks))
        np.testing.assert_array_equal(_prediction_posterior(model, test.blocks).mean,
                                      _prediction_posterior(loaded, test.blocks).mean)

    def test_version_field(self, rng, tmp_path):
        ds = make_dataset(rng, N=15)
        model = fit_fast(ds, 2, seed=0)
        save_model(model, ds.blocks, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["format_version"] == MODEL_FORMAT_VERSION

    def test_unknown_version_rejected(self, rng):
        ds = make_dataset(rng, N=15)
        doc = model_to_dict(fit_fast(ds, 2, seed=0), ds.blocks)
        doc["format_version"] = 999
        with pytest.raises(ValueError):
            model_from_dict(doc)

    @staticmethod
    def _document():
        """A hand-written format-2 document of one normal block."""
        listed = SimpleNamespace(name="g", kind="normal", b=1, feature_names=("ab", "c"))
        return {"format_version": MODEL_FORMAT_VERSION, "d_z": 1, "heywood_flag": False,
                "manifest_hash": block_manifest_hash([listed]),
                "blocks": [{"name": "g", "kind": "normal", "b": 1, "feature_names": ["ab", "c"],
                            "W": [[0.5], [-0.25]], "mu": [0.0, 1.0], "psi": [1.0, 2.0],
                            "xi_mean": None, "alpha_mean": None}],
                "w_T": [0.1, 0.7], "w_C": [-0.3, 0.0], "kappa_used": None,
                "fit_mode": "fast_decoupled"}

    def test_format_1_document_refused(self):
        """A format-1 document, its digest the block's name, kind, trial count
        and feature names concatenated, is refused for its format."""
        doc = self._document()
        doc.update(format_version=1,
                   manifest_hash=hashlib.sha256("gnormal1abc".encode()).hexdigest())
        with pytest.raises(ValueError, match="unsupported model format 1; "
                                             "this version reads format 2 only"):
            model_from_dict(doc)

    def test_blocks_not_matching_stored_digest_rejected(self):
        doc = self._document()
        model_from_dict(doc)
        doc["blocks"][0]["feature_names"][0] = "renamed"
        with pytest.raises(ValueError, match="manifest_hash"):
            model_from_dict(doc)

    def test_one_W_row_per_feature_name(self):
        doc = self._document()
        doc["blocks"][0].update(W=[[0.5]], mu=[0.0], psi=[1.0])
        with pytest.raises(ValueError, match="1 W rows for 2 feature names"):
            model_from_dict(doc)

    def test_roundtrip_preserves_parameters(self, rng, tmp_path):
        ds = make_dataset(rng, N=20)
        model = fit_fast(ds, 2, seed=1)
        save_model(model, ds.blocks, tmp_path / "m.json")
        loaded, _ = load_model(tmp_path / "m.json")
        np.testing.assert_array_equal(loaded.w_T.w, model.w_T.w)
        np.testing.assert_array_equal(loaded.w_C.w, model.w_C.w)
        np.testing.assert_array_equal(loaded.fa.block_params[0].W,
                                      model.fa.block_params[0].W)
        assert loaded.fit_mode == model.fit_mode


class TestScenarioRoundtrip:
    def _scenario(self):
        return SimScenario(
            d_z=2,
            blocks=(BlockSpec(name="g", kind="normal", d_x=4),
                    BlockSpec(name="m", kind="multinomial", d_x=3, b=2,
                              W=np.arange(6.0).reshape(3, 2))),
            w_T=np.array([0.1, 1.0, -1.0]), w_C=np.array([-0.3, 0.0, 0.0]),
            n_train=30, n_test=10, seed=7)

    def test_dict_roundtrip(self):
        scn = self._scenario()
        back = scenario_from_dict(scenario_to_dict(scn))
        assert back.d_z == scn.d_z and back.seed == scn.seed
        np.testing.assert_array_equal(back.w_T, scn.w_T)
        assert back.blocks[1].b == 2
        np.testing.assert_array_equal(back.blocks[1].W, scn.blocks[1].W)
        assert back.blocks[0].W is None

    def test_file_roundtrip_same_simulation(self, tmp_path):
        scn = self._scenario()
        atomic_write(tmp_path / "s.json", json.dumps(scenario_to_dict(scn)))
        back = load_scenario(tmp_path / "s.json")
        a, _, _ = simulate_dataset(scn)
        b, _, _ = simulate_dataset(back)
        np.testing.assert_array_equal(a.blocks[0].values, b.blocks[0].values)
        np.testing.assert_array_equal(a.times(), b.times())


class TestWriteDataset:
    def test_roundtrip_through_loader(self, rng, tmp_path):
        ds = make_dataset(rng, N=12, with_binomial=True)
        manifest = write_dataset(ds, tmp_path, "train")
        back = load_dataset(manifest)
        assert back.sample_ids == ds.sample_ids
        np.testing.assert_array_equal(back.times(), ds.times())
        np.testing.assert_array_equal(back.events(), ds.events())
        for a, b in zip(back.blocks, ds.blocks):
            assert a.name == b.name and a.kind == b.kind and a.b == b.b
            assert a.feature_names == b.feature_names
            np.testing.assert_array_equal(a.values, b.values)

    def test_names_with_delimiter_quote_and_line_break_roundtrip(self, rng, tmp_path):
        """Feature names and sample ids holding a comma, a quote and a line
        break are quoted on the way out and come back as they were, so the
        manifest hash of the loaded blocks is that of the written ones."""
        ds = make_dataset(rng, N=4, with_binomial=True)
        odd = 'g,"1"\nx'
        blocks = (replace(ds.blocks[0], feature_names=(odd,) + ds.blocks[0].feature_names[1:]),
                  ds.blocks[1])
        ids = ('s,"0"\ny',) + ds.sample_ids[1:]
        ds = replace(ds, blocks=blocks, sample_ids=ids)
        back = load_dataset(write_dataset(ds, tmp_path, "odd"))
        assert back.sample_ids == ids
        assert back.blocks[0].feature_names[0] == odd
        assert block_manifest_hash(back.blocks) == block_manifest_hash(ds.blocks)
        for a, b in zip(back.blocks, ds.blocks):
            assert a.values.tobytes() == b.values.tobytes()
        assert back.times().tobytes() == ds.times().tobytes()

    def test_peak_memory_under_one_matrix(self, rng, tmp_path):
        """Rows are formatted and written one at a time: writing a 200 x 3000
        block peaks under its matrix's size."""
        ds = make_dataset(rng, N=3000, d_x_normal=200)
        _, peak = traced_peak(write_dataset, ds, tmp_path, "wide")
        assert peak < ds.blocks[0].values.nbytes
