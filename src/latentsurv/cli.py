"""Command-line interface: simulate, fit, cv, predict, project.

Exit codes: 0 success, 2 bad input, 3 every candidate excluded during model
selection, 4 model/dataset feature-manifest mismatch. Apart from click's own
usage errors, every non-zero exit goes through ``_fail``, the one exit
helper: one ``error:`` line on stderr, then the code.
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


def _fail(message: str, code: int = EXIT_BAD_INPUT):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_on(errors, prefix: str, code: int = EXIT_BAD_INPUT):
    """End the command through ``_fail`` when the block raises one of ``errors``."""
    try:
        yield
    except errors as exc:
        _fail(f"{prefix}{exc}", code)


@contextlib.contextmanager
def _fit_guard():
    """Data a fit cannot handle, such as a zero time or cells whose squares
    overflow, ends as bad input rather than a traceback."""
    with _exit_on((ValueError, FloatingPointError), "cannot fit this dataset: "), \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        yield


def _echo_config(out_dir: Path):
    """Record the running command and its options, in declaration order,
    next to its outputs for reproducibility."""
    ctx = click.get_current_context()
    doc = {"command": ctx.info_name,
           "options": {param.name: ctx.params[param.name] for param in ctx.command.params}}
    serialize.atomic_write(out_dir / f"{ctx.info_name}_config.json",
                           json.dumps(doc, indent=1, default=str))


def _load_dataset(path):
    with _exit_on((OSError, ValueError), "cannot load dataset: "):
        dataset = data_mod.load_dataset(path)
    masked = [blk.name for blk in dataset.blocks if np.isnan(blk.values).any()]
    if masked:
        _fail(f"missing cells in block(s) {', '.join(map(repr, masked))}; "
              "impute them with latentsurv.data.impute_missing first")
    return dataset


def _load_model(path, blocks):
    with _exit_on((OSError, ValueError), "cannot load model: "):
        model, digest = serialize.load_model(path)
    if digest != serialize.block_manifest_hash(blocks):
        _fail("model was fitted on different features than this dataset",
              EXIT_MANIFEST_MISMATCH)
    return model


def _list_of(parse):
    """An option callback that parses a comma-separated list."""
    def callback(ctx, param, text):
        with _exit_on(ValueError, "bad --dz/--gamma list: "):
            return [parse(tok) for tok in text.split(",") if tok.strip()]
    return callback


@click.group()
@click.option("--verbose", is_flag=True, help="Enable info-level logging.")
def main(verbose):
    """Latent-factor survival modeling with informative censoring."""
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command("simulate")
@click.option("--scenario", required=True, type=click.Path(exists=True),
              help="JSON scenario description.")
@click.option("--out", required=True, type=click.Path(path_type=Path), help="Output directory.")
def simulate_cmd(scenario, out):
    """Draw a synthetic dataset and write it in the manifest format."""
    with _exit_on((OSError, ValueError), "cannot load scenario: "):
        scn = serialize.load_scenario(scenario)
    train, test, latents = simulate.simulate_dataset(scn)
    with _exit_on(OSError, "cannot write output: "):
        train_manifest = serialize.write_dataset(train, out, "train")
        click.echo(f"wrote {train_manifest}")
        if test.n_samples:
            test_manifest = serialize.write_dataset(test, out, "test")
            click.echo(f"wrote {test_manifest}")
        _echo_config(out)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True),
              help="Dataset manifest JSON.")
@click.option("--dz", required=True, type=int, help="Latent dimension.")
@click.option("--fit-mode", type=click.Choice(list(joint.FIT_MODES)), default="fast",
              show_default=True)
@click.option("--gem-iters", type=click.IntRange(min=0), default=10, show_default=True,
              help="Monte Carlo EM iterations (full mode).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(path_type=Path),
              help="Output model JSON path.")
def fit(data, dz, fit_mode, gem_iters, seed, out):
    """Fit the latent-factor survival model and save it."""
    dataset = _load_dataset(data)
    with _fit_guard():
        candidate = evaluate.ModelCandidate(kind="fa_ecph_c", d_z=dz, gem_iters=gem_iters,
                                            fit_mode=fit_mode)
        with _exit_on(OSError, "cannot write output: "):  # refused before the fit, not after
            out.parent.mkdir(parents=True, exist_ok=True)
        model = evaluate.fit_candidate(candidate, dataset, seed)
    with _exit_on(OSError, "cannot write output: "):
        serialize.save_model(model, dataset.blocks, out)
        _echo_config(out.parent)
    if model.fa.heywood_flag:
        click.echo("warning: near-zero residual variance detected in the factor fit",
                   err=True)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--dz", default="", callback=_list_of(int),
              help="Comma-separated latent dimensions.")
@click.option("--gamma", default="", callback=_list_of(float),
              help="Comma-separated L1 penalties for the baseline.")
@click.option("--fit-mode", type=click.Choice(list(joint.FIT_MODES)), default="fast",
              show_default=True)
@click.option("--gem-iters", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--test-fraction", type=float, default=0.25, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(path_type=Path),
              help="Output directory.")
def cv(data, dz, gamma, fit_mode, gem_iters, folds, test_fraction, seed, out):
    """Cross-validate a candidate grid, select a model, and refit it on the
    full learning set."""
    dataset = _load_dataset(data)
    if not dz and not gamma:
        _fail("provide at least one of --dz / --gamma")
    with _exit_on(ValueError, ""):
        candidates = [evaluate.ModelCandidate(kind="fa_ecph_c", d_z=d, gem_iters=gem_iters,
                                              fit_mode=fit_mode) for d in dz]
        candidates += [evaluate.ModelCandidate(kind="ecph_c_l1", gamma=g) for g in gamma]
        split = data_mod.make_split(dataset.n_samples, test_fraction=test_fraction,
                                    n_folds=folds, seed=seed)
    with _exit_on(OSError, "cannot write output: "):  # refused before the fits, not after
        out.mkdir(parents=True, exist_ok=True)

    with _fit_guard():
        reports = evaluate.run_cv(dataset, candidates, split, seed=seed)
    learning = dataset.subset(sorted(i for f in split.folds for i in f))
    with _exit_on(ValueError, "", EXIT_ALL_EXCLUDED):
        selected = evaluate.select_model(reports, candidates)

    report_doc = {
        "selected": selected,
        "reports": [dataclasses.asdict(r) for r in reports],
        "test_indices": list(split.test_indices),
        "test_cindex": None,  # stays None when undefined or under two held-out samples
    }

    # Refit the selected candidate on the full learning set and score held-out data.
    chosen = next(c for c in candidates if c.candidate_id == selected)
    test = dataset.subset(split.test_indices)
    with _fit_guard():
        fitted = evaluate.fit_candidate(chosen, learning, seed)
        if test.n_samples >= 2:
            preds = evaluate.predict_candidate(chosen, fitted, test)
            with contextlib.suppress(evaluate.UndefinedCIndexError):
                report_doc["test_cindex"] = evaluate.c_index(test.times(), test.events(), preds)
    with _exit_on(OSError, "cannot write output: "):
        serialize.atomic_write(out / "cv_report.json", json.dumps(report_doc, indent=1))
        serialize.write_table(out / "cv_folds.csv", ["candidate", "fold", "c_index"],
                              ([r.candidate_id, str(v), repr(c)]
                               for r in reports for v, c in enumerate(r.fold_cindices)))
        if chosen.kind == "fa_ecph_c":
            serialize.save_model(fitted, learning.blocks, out / "selected_model.json")
        _echo_config(out)
    click.echo(f"selected: {selected}")


@main.command()
@click.option("--model", required=True, type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(path_type=Path))
def predict(model, data, out):
    """Predict expected event times for each sample."""
    dataset = _load_dataset(data)
    preds = joint.joint_predict(_load_model(model, dataset.blocks), dataset.blocks)
    with _exit_on(OSError, "cannot write output: "):
        serialize.write_table(out, ["sample_id", "predicted_time"],
                              zip(dataset.sample_ids, map(repr, preds.tolist())))
        _echo_config(out.parent)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--model", required=True, type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(path_type=Path))
def project(model, data, out):
    """Write each sample's posterior-mean latent coordinates plus its outcome."""
    dataset = _load_dataset(data)
    fitted = _load_model(model, dataset.blocks)
    post = joint._prediction_posterior(fitted, dataset.blocks)
    header = ["sample_id", *(f"z{k + 1}" for k in range(fitted.fa.d_z)), "time_days", "event"]
    rows = ([sid, *map(repr, coords), repr(t), str(int(e))] for sid, coords, t, e in
            zip(dataset.sample_ids, post.mean.T.tolist(), dataset.times().tolist(),
                dataset.events().tolist()))
    with _exit_on(OSError, "cannot write output: "):
        serialize.write_table(out, header, rows)
        _echo_config(out.parent)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
