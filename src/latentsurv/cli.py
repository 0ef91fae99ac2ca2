"""Command-line interface: simulate, fit, cv, predict, project.

Exit codes: 0 success, 2 bad input, 3 every candidate excluded during model
selection, 4 model/dataset feature-manifest mismatch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import data as data_mod
from . import evaluate, joint, serialize, simulate

EXIT_BAD_INPUT = 2
EXIT_ALL_EXCLUDED = 3
EXIT_MANIFEST_MISMATCH = 4


def _echo_config(out_dir: Path, command: str, options: dict):
    """Record the exact invocation next to the outputs for reproducibility."""
    doc = {"command": command, "options": options}
    serialize.atomic_write(out_dir / f"{command}_config.json", json.dumps(doc, indent=1))


def _load_dataset_or_die(path):
    try:
        dataset = data_mod.load_dataset(path)
    except (OSError, data_mod.ParseError, KeyError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"error: cannot load dataset: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    masked = [blk.name for blk in dataset.blocks if np.isnan(blk.values).any()]
    if masked:
        click.echo(f"error: missing cells in block(s) {', '.join(map(repr, masked))}; "
                   "impute them with latentsurv.data.impute_missing first", err=True)
        sys.exit(EXIT_BAD_INPUT)
    return dataset


def _load_model_or_die(path, blocks):
    try:
        model, stored_hash = serialize.load_model(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        click.echo(f"error: cannot load model: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    if not serialize.manifest_matches(stored_hash, blocks):
        click.echo("error: model was fitted on different features than this dataset",
                   err=True)
        sys.exit(EXIT_MANIFEST_MISMATCH)
    return model


@contextlib.contextmanager
def _fit_guard():
    """Data a fit cannot handle, such as a zero time or cells whose squares
    overflow, ends as bad input rather than a traceback."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ValueError, FloatingPointError) as exc:
        click.echo(f"error: cannot fit this dataset: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)


def _parse_list(text: str, parse) -> list:
    return [parse(tok) for tok in text.split(",") if tok.strip()]


@click.group()
@click.option("--verbose", is_flag=True, help="Enable info-level logging.")
def main(verbose):
    """Latent-factor survival modeling with informative censoring."""
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True),
              help="JSON scenario description.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
def simulate_cmd(scenario_path, out_dir):
    """Draw a synthetic dataset and write it in the manifest format."""
    try:
        scenario = serialize.load_scenario(scenario_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        click.echo(f"error: cannot load scenario: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    train, test, latents = simulate.simulate_dataset(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_manifest = serialize.write_dataset(train, out, "train")
    click.echo(f"wrote {train_manifest}")
    if test.n_samples:
        test_manifest = serialize.write_dataset(test, out, "test")
        click.echo(f"wrote {test_manifest}")
    _echo_config(out, "simulate", {"scenario": str(scenario_path), "out": str(out_dir)})


main.add_command(simulate_cmd, name="simulate")


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True),
              help="Dataset manifest JSON.")
@click.option("--dz", required=True, type=int, help="Latent dimension.")
@click.option("--fit-mode", type=click.Choice(list(joint.FIT_MODES)), default="fast",
              show_default=True)
@click.option("--gem-iters", type=click.IntRange(min=0), default=10, show_default=True,
              help="Monte Carlo EM iterations (full mode).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Output model JSON path.")
def fit(data_path, dz, fit_mode, gem_iters, seed, out_path):
    """Fit the latent-factor survival model and save it."""
    dataset = _load_dataset_or_die(data_path)
    with _fit_guard():
        candidate = evaluate.ModelCandidate(kind="fa_ecph_c", d_z=dz, gem_iters=gem_iters,
                                            fit_mode=joint.FIT_MODES[fit_mode])
        model = evaluate.fit_candidate(candidate, dataset, seed)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    serialize.save_model(model, dataset.blocks, out_path)
    if model.fa.heywood_flag:
        click.echo("warning: near-zero residual variance detected in the factor fit",
                   err=True)
    _echo_config(out_path.parent, "fit",
                 {"data": str(data_path), "dz": dz, "fit_mode": fit_mode,
                  "gem_iters": gem_iters, "seed": seed, "out": str(out_path)})
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--dz", "dz_list", default="", help="Comma-separated latent dimensions.")
@click.option("--gamma", "gamma_list", default="",
              help="Comma-separated L1 penalties for the baseline.")
@click.option("--fit-mode", type=click.Choice(list(joint.FIT_MODES)), default="fast",
              show_default=True)
@click.option("--gem-iters", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--test-fraction", type=float, default=0.25, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Output directory.")
def cv(data_path, dz_list, gamma_list, fit_mode, gem_iters, folds, test_fraction,
       seed, out_dir):
    """Cross-validate a candidate grid, select a model, and refit it on the
    full learning set."""
    dataset = _load_dataset_or_die(data_path)
    try:
        dzs = _parse_list(dz_list, int)
        gammas = _parse_list(gamma_list, float)
    except ValueError as exc:
        click.echo(f"error: bad --dz/--gamma list: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    if not dzs and not gammas:
        click.echo("error: provide at least one of --dz / --gamma", err=True)
        sys.exit(EXIT_BAD_INPUT)
    try:
        candidates = [evaluate.ModelCandidate(kind="fa_ecph_c", d_z=d, gem_iters=gem_iters,
                                              fit_mode=joint.FIT_MODES[fit_mode]) for d in dzs]
        candidates += [evaluate.ModelCandidate(kind="ecph_c_l1", gamma=g) for g in gammas]
        split = data_mod.make_split(dataset.n_samples, test_fraction=test_fraction,
                                    n_folds=folds, seed=seed)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)

    with _fit_guard():
        reports = evaluate.run_cv(dataset, candidates, split, seed=seed)
    learning = dataset.subset(sorted(i for f in split.folds for i in f))
    try:
        selected = evaluate.select_model(reports, candidates)
    except ValueError:
        click.echo("error: every candidate was excluded or failed", err=True)
        sys.exit(EXIT_ALL_EXCLUDED)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_doc = {
        "selected": selected,
        "reports": [dataclasses.asdict(r) for r in reports],
        "test_indices": list(split.test_indices),
    }

    # Refit the selected candidate on the full learning set and score held-out data.
    chosen = next(c for c in candidates if c.candidate_id == selected)
    test = dataset.subset(split.test_indices)
    with _fit_guard():
        fitted = evaluate.fit_candidate(chosen, learning, seed)
        if test.n_samples >= 2:
            preds = evaluate.predict_candidate(chosen, fitted, test)
            try:
                report_doc["test_cindex"] = evaluate.c_index(test.times(), test.events(), preds)
            except evaluate.UndefinedCIndexError:
                report_doc["test_cindex"] = None
    serialize.atomic_write(out / "cv_report.json", json.dumps(report_doc, indent=1))

    lines = ["candidate,fold,c_index"]
    for r in reports:
        for v, c in enumerate(r.fold_cindices):
            lines.append(f"{r.candidate_id},{v},{c!r}")
    serialize.atomic_write(out / "cv_folds.csv", "\n".join(lines) + "\n")

    if chosen.kind == "fa_ecph_c":
        serialize.save_model(fitted, learning.blocks, out / "selected_model.json")
    _echo_config(out, "cv", {"data": str(data_path), "dz": dzs, "gamma": gammas,
                             "fit_mode": fit_mode, "gem_iters": gem_iters,
                             "folds": folds, "test_fraction": test_fraction,
                             "seed": seed, "out": str(out_dir)})
    click.echo(f"selected: {selected}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def predict(model_path, data_path, out_path):
    """Predict expected event times for each sample."""
    dataset = _load_dataset_or_die(data_path)
    model = _load_model_or_die(model_path, dataset.blocks)
    preds = joint.joint_predict(model, dataset.blocks)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["sample_id,predicted_time"]
    lines += [f"{sid},{float(p)!r}" for sid, p in zip(dataset.sample_ids, preds)]
    serialize.atomic_write(out_path, "\n".join(lines) + "\n")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def project(model_path, data_path, out_path):
    """Write each sample's posterior-mean latent coordinates plus its outcome."""
    dataset = _load_dataset_or_die(data_path)
    model = _load_model_or_die(model_path, dataset.blocks)
    post = joint._prediction_posterior(model, dataset.blocks)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    d_z = model.fa.d_z
    header = "sample_id," + ",".join(f"z{k + 1}" for k in range(d_z)) + ",time_days,event"
    lines = [header]
    for j, (sid, t, e) in enumerate(zip(dataset.sample_ids, dataset.times(), dataset.events())):
        coords = ",".join(repr(float(v)) for v in post.mean[:, j])
        lines.append(f"{sid},{coords},{float(t)!r},{int(e)}")
    serialize.atomic_write(out_path, "\n".join(lines) + "\n")
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
