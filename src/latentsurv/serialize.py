"""Versioned JSON serialization for fitted models, scenarios, and datasets."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .data import Dataset
from .factor import BlockParams, FaModel, VariationalState
from .hazard import HazardParams
from .joint import JointModel, averaged_variational
from .simulate import BlockSpec, SimScenario

MODEL_FORMAT_VERSION = 2
# A format-1 document's manifest digest comes back from ``model_from_dict``
# with this prefix, so that ``manifest_matches`` checks it the format-1 way.
V1_DIGEST_PREFIX = "v1:"


def atomic_write(path, text: str):
    """Write via a temp file + rename so partial output never lands."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def block_manifest_hash(blocks) -> str:
    """SHA-256 of the canonical JSON of the block names, kinds, trial counts
    and feature names; guards against scoring a model on misaligned features."""
    manifest = [[block.name, block.kind, int(block.b), list(block.feature_names)]
                for block in blocks]
    return hashlib.sha256(json.dumps(manifest, separators=(",", ":")).encode()).hexdigest()


def _v1_manifest_hash(blocks) -> str:
    """The format-1 digest: the same fields joined with no separator, so that
    features ('ab', 'c') and ('a', 'bc') collide."""
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block.name.encode())
        digest.update(block.kind.encode())
        digest.update(str(block.b).encode())
        for name in block.feature_names:
            digest.update(name.encode())
    return digest.hexdigest()


def manifest_matches(stored: str, blocks) -> bool:
    """Whether ``stored``, a digest as ``model_from_dict`` returns it, is the
    manifest digest of ``blocks`` in its document's format."""
    if stored.startswith(V1_DIGEST_PREFIX):
        return stored[len(V1_DIGEST_PREFIX):] == _v1_manifest_hash(blocks)
    return stored == block_manifest_hash(blocks)


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
    """Rebuild a model from its document; returns (model, manifest_hash).
    Formats 1 and 2 differ only in the digest, and a format-1 digest comes
    back prefixed with V1_DIGEST_PREFIX.

    Stored variational parameters are the learning-set means, so the rebuilt
    state has one shared column per feature (what prediction uses anyway).
    """
    version = doc.get("format_version")
    if version not in (1, MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format {version!r}")
    params, states = [], []
    for blk in doc["blocks"]:
        params.append(BlockParams(
            W=np.array(blk["W"], dtype=float),
            mu=np.array(blk["mu"], dtype=float),
            psi=None if blk["psi"] is None else np.array(blk["psi"], dtype=float)))
        if blk["xi_mean"] is None:
            states.append(None)
        else:
            xi = np.array(blk["xi_mean"], dtype=float)[:, None]
            alpha = None if blk["alpha_mean"] is None else np.array([blk["alpha_mean"]])
            states.append(VariationalState(xi=xi, alpha=alpha))
    fa = FaModel(d_z=int(doc["d_z"]), block_params=tuple(params),
                 variational=tuple(states), heywood_flag=bool(doc["heywood_flag"]))
    model = JointModel(fa=fa,
                       w_T=HazardParams(np.array(doc["w_T"], dtype=float)),
                       w_C=HazardParams(np.array(doc["w_C"], dtype=float)),
                       kappa_used=doc["kappa_used"],
                       fit_mode=doc["fit_mode"])
    prefix = V1_DIGEST_PREFIX if version == 1 else ""
    return model, prefix + doc["manifest_hash"]


def save_model(model: JointModel, blocks, path):
    atomic_write(path, json.dumps(model_to_dict(model, blocks), indent=1))


def load_model(path) -> tuple[JointModel, str]:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: SimScenario) -> dict:
    return {
        "d_z": scenario.d_z,
        "n_train": scenario.n_train,
        "n_test": scenario.n_test,
        "seed": scenario.seed,
        "w_T": _arr(scenario.w_T),
        "w_C": _arr(scenario.w_C),
        "blocks": [
            {
                "name": s.name, "kind": s.kind, "d_x": s.d_x, "b": s.b,
                "W": _arr(s.W), "mu": _arr(s.mu), "psi": _arr(s.psi),
                "w_scale": s.w_scale, "psi_range": list(s.psi_range),
            }
            for s in scenario.blocks
        ],
    }


def scenario_from_dict(doc: dict) -> SimScenario:
    blocks = tuple(
        BlockSpec(
            name=b["name"], kind=b["kind"], d_x=int(b["d_x"]), b=int(b.get("b", 1)),
            W=None if b.get("W") is None else np.array(b["W"], dtype=float),
            mu=None if b.get("mu") is None else np.array(b["mu"], dtype=float),
            psi=None if b.get("psi") is None else np.array(b["psi"], dtype=float),
            w_scale=float(b.get("w_scale", 1.0)),
            psi_range=tuple(b.get("psi_range", (0.5, 1.5))),
        )
        for b in doc["blocks"]
    )
    return SimScenario(d_z=int(doc["d_z"]), blocks=blocks,
                       w_T=np.array(doc["w_T"], dtype=float),
                       w_C=np.array(doc["w_C"], dtype=float),
                       n_train=int(doc["n_train"]), n_test=int(doc["n_test"]),
                       seed=int(doc["seed"]))


def load_scenario(path) -> SimScenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# dataset writing (manifest format understood by data.load_dataset)
# ---------------------------------------------------------------------------

def _format_cell(x: float) -> str:
    return repr(float(x))


def write_dataset(dataset: Dataset, out_dir, prefix: str) -> Path:
    """Write block matrices, the survival table, and a manifest; returns the
    manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"blocks": [], "survival": f"{prefix}_survival.csv"}
    for block in dataset.blocks:
        fname = f"{prefix}_{block.name}.csv"
        lines = ["feature," + ",".join(dataset.sample_ids)]
        for i, name in enumerate(block.feature_names):
            lines.append(name + "," + ",".join(_format_cell(v) for v in block.values[i]))
        atomic_write(out_dir / fname, "\n".join(lines) + "\n")
        manifest["blocks"].append(
            {"name": block.name, "kind": block.kind, "b": block.b, "path": fname})
    surv_lines = ["sample_id,time_days,event"]
    for sid, t, e in zip(dataset.sample_ids, dataset.times(), dataset.events()):
        surv_lines.append(f"{sid},{_format_cell(t)},{int(e)}")
    atomic_write(out_dir / manifest["survival"], "\n".join(surv_lines) + "\n")
    manifest_path = out_dir / f"{prefix}_manifest.json"
    atomic_write(manifest_path, json.dumps(manifest, indent=1))
    return manifest_path
