"""Versioned JSON serialization for fitted models, scenarios, and datasets."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .data import Dataset, load_document
from .factor import BlockParams, FaModel, VariationalState
from .hazard import HazardParams
from .joint import JointModel, averaged_variational
from .simulate import BlockSpec, SimScenario

MODEL_FORMAT_VERSION = 2


def atomic_write(path, text):
    """Write ``text``, a string or an iterable of string chunks, via a temp
    file + rename so partial output never lands; makes the parent directory
    if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_document(path, doc, default=None):
    """Write ``doc`` as strict JSON, the form ``data.load_document`` reads: a
    NaN or infinite number raises ValueError rather than being written."""
    atomic_write(path, json.dumps(doc, indent=1, allow_nan=False, default=default))


def write_table(path, header, rows):
    """Write a comma-separated table of string cells: the header, then one
    line per row, each written as it is drawn from ``rows``. Lines come out as
    ``csv.writer`` writes them (QUOTE_MINIMAL, ``\\n`` line ends): a cell holding
    a comma, a quote or a line break is quoted, so a row with no such cell is
    its cells joined by commas."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def line(cells):
        joined = ",".join(cells)
        if (joined and joined.count(",") == len(cells) - 1
                and '"' not in joined and "\n" not in joined and "\r" not in joined):
            return joined + "\n"
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(cells)
        return buffer.getvalue()

    atomic_write(path, map(line, itertools.chain([header], rows)))


def block_manifest_hash(blocks) -> str:
    """SHA-256 of the canonical JSON of the block names, kinds, trial counts
    and feature names; guards against scoring a model on misaligned features."""
    manifest = [[block.name, block.kind, int(block.b), list(block.feature_names)]
                for block in blocks]
    return hashlib.sha256(json.dumps(manifest, separators=(",", ":")).encode()).hexdigest()


def _arr(a):
    return None if a is None else np.asarray(a).tolist()


def model_to_dict(model: JointModel, blocks) -> dict:
    fa = model.fa
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "d_z": fa.d_z,
        "heywood_flag": fa.heywood_flag,
        "manifest_hash": block_manifest_hash(blocks),
        "blocks": [
            {
                "name": block.name,
                "kind": block.kind,
                "b": block.b,
                "feature_names": list(block.feature_names),
                "W": _arr(p.W),
                "mu": _arr(p.mu),
                "psi": _arr(p.psi),
                "xi_mean": None if avg is None else _arr(avg[0]),
                "alpha_mean": None if avg is None else avg[1],
            }
            for block, p, avg in zip(blocks, fa.block_params, averaged_variational(fa))
        ],
        "w_T": _arr(model.w_T.w),
        "w_C": _arr(model.w_C.w),
        "kappa_used": model.kappa_used,
        "fit_mode": model.fit_mode,
    }


def model_from_dict(doc: dict) -> tuple[JointModel, str]:
    """Rebuild a model from its document; returns (model, the
    ``block_manifest_hash`` of the blocks it lists). Only format
    ``MODEL_FORMAT_VERSION`` is read; its stored digest must be that of the
    listed blocks, and each listed block needs one W row per feature name.

    Stored variational parameters are the learning-set means, so the rebuilt
    state has one shared column per feature (what prediction uses anyway).
    """
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {version!r}; "
                         f"this version reads format {MODEL_FORMAT_VERSION} only")
    digest = block_manifest_hash([SimpleNamespace(**blk) for blk in doc["blocks"]])
    if doc["manifest_hash"] != digest:
        raise ValueError("its manifest_hash is not the digest of the blocks it lists")
    params, states = [], []
    for blk in doc["blocks"]:
        params.append(BlockParams(W=blk["W"], mu=blk["mu"], psi=blk["psi"]))
        if params[-1].d_x != len(blk["feature_names"]):
            raise ValueError(f"block {blk['name']!r} has {params[-1].d_x} W rows for "
                             f"{len(blk['feature_names'])} feature names")
        states.append(None if blk["xi_mean"] is None else VariationalState(
            xi=np.reshape(blk["xi_mean"], (-1, 1)),
            alpha=None if blk["alpha_mean"] is None else [blk["alpha_mean"]]))
    fa = FaModel(d_z=int(doc["d_z"]), block_params=tuple(params),
                 variational=tuple(states), heywood_flag=bool(doc["heywood_flag"]))
    model = JointModel(fa=fa, w_T=HazardParams(doc["w_T"]), w_C=HazardParams(doc["w_C"]),
                       kappa_used=doc["kappa_used"], fit_mode=doc["fit_mode"])
    return model, digest


def save_model(model: JointModel, blocks, path):
    write_document(path, model_to_dict(model, blocks))


def load_model(path) -> tuple[JointModel, str]:
    return load_document(path, model_from_dict, "model document")


# ---------------------------------------------------------------------------
# scenarios: the documents hold the dataclasses' fields by name
# ---------------------------------------------------------------------------

def scenario_from_dict(doc: dict) -> SimScenario:
    return SimScenario(**{**doc, "blocks": tuple(BlockSpec(**b) for b in doc["blocks"])})


def load_scenario(path) -> SimScenario:
    return load_document(path, scenario_from_dict, "scenario document")


# ---------------------------------------------------------------------------
# dataset writing (manifest format understood by data.load_dataset)
# ---------------------------------------------------------------------------

def write_dataset(dataset: Dataset, out_dir, prefix: str) -> Path:
    """Write block matrices, the survival table, and a manifest; returns the
    manifest path."""
    out_dir = Path(out_dir)
    manifest = {"blocks": [], "survival": f"{prefix}_survival.csv"}
    for block in dataset.blocks:
        fname = f"{prefix}_{block.name}.csv"
        rows = map(np.ndarray.tolist, block.values)  # one row of floats at a time
        write_table(out_dir / fname, ["feature", *dataset.sample_ids],
                    ([name, *map(repr, row)] for name, row in zip(block.feature_names, rows)))
        manifest["blocks"].append(
            {"name": block.name, "kind": block.kind, "b": block.b, "path": fname})
    write_table(out_dir / manifest["survival"], ["sample_id", "time_days", "event"],
                ([sid, repr(t), str(int(e))] for sid, t, e in
                 zip(dataset.sample_ids, dataset.times().tolist(), dataset.events().tolist())))
    manifest_path = out_dir / f"{prefix}_manifest.json"
    write_document(manifest_path, manifest)
    return manifest_path
