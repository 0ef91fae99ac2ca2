"""latentsurv benchmark.

    python3 perfbench/run.py --workload {select_fast,l1_path,score_large,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ``src/``.
``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round and prints the per-layer
metrics, including the tracing overhead. Every run writes a result file with
its environment under ``perfbench/results/``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: timings on a shared two-core machine are steadiest
# single-threaded, and the fitted numbers do not depend on the core count.
BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("select_fast", "l1_path", "score_large")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("test_cindex", "1"), ("train_objective", "nats/sample")]
# The machine this was sized on is a shared two-vCPU host whose speed moves
# between levels up to a factor of two apart: a fast one in short stretches, a
# usual one, and a slower one under heavy load, in proportions that drift over
# minutes. Fast stretches were the commoner intrusion, so a run's minimum and
# median follow them; the usual level is the upper end of an operation's times.
# Each operation's time is therefore the OP_QUANTILE of its times over the
# rounds after the first (a warm-up), which leaves out the few heavy-load
# outliers a maximum would take, and wall_s is the sum over the round's
# operations. setup_s is the same quantile of the set-ups after the first;
# set-ups repeat in bursts of at least BURST_SECONDS, two before the rounds and
# one after.
OP_QUANTILE = 0.9
WARMUP = 1
BURST_SECONDS = 0.5
BURSTS_BEFORE, BURSTS_AFTER = 2, 1


def _git_commit():
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed, workload) -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
    }


def _setup_burst(workload, seed, workdir):
    """Set up until BURST_SECONDS have passed, at least once; returns the
    set-up times and the last inputs."""
    import time

    times = []
    while sum(times) < BURST_SECONDS:
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return times, inputs


def _round(workload, inputs, tracer, context=None):
    """One timed round, inside ``context`` when given, then the checks that run
    outside the timed region; returns (seconds, outcome, aborted)."""
    import contextlib
    import time

    from workloads import RoundAborted

    with context or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            outcome, aborted = workload.run(inputs, tracer), False
        except RoundAborted as exc:
            outcome, aborted = exc.args[1], True
        seconds = time.perf_counter() - start
    if not aborted:
        workload.verify(inputs, outcome)
    return seconds, outcome, aborted


def quantile(values, q) -> float:
    """The q-quantile of ``values``, interpolated linearly between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_total(op_times, q=OP_QUANTILE) -> float:
    """Sum over operation labels of the q-quantile of each label's times;
    ``op_times`` holds one {label: seconds} per round."""
    labels = dict.fromkeys(label for times in op_times for label in times)
    return sum(quantile([times[label] for times in op_times if label in times], q)
               for label in labels)


def op_summary(op_times) -> dict:
    """Per operation label: repetitions, and the minimum, median, OP_QUANTILE
    and maximum of its seconds."""
    labels = dict.fromkeys(label for times in op_times for label in times)
    out = {}
    for label in labels:
        ts = [times[label] for times in op_times if label in times]
        out[label] = {"n": len(ts), "min_s": min(ts), "median_s": quantile(ts, 0.5),
                      "q_s": quantile(ts, OP_QUANTILE), "max_s": max(ts)}
    return out


def measure(name, seed, seconds, trace, workdir) -> dict:
    """Run one workload; returns the result document."""
    import contextlib
    import resource
    import statistics
    import time

    import layers
    import spans as sp
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    seed = workload.default_seed if seed is None else seed
    doc = {"env": environment(seed, name), "trace": trace, "seconds": seconds}
    failures = []

    if not trace:
        start = time.perf_counter()
        counter = sp.WarningCounter()
        with counter.attached():
            setups = []
            for _ in range(BURSTS_BEFORE):
                times, inputs = _setup_burst(workload, seed, workdir)
                setups += times
            # the set-ups after the rounds fit in the time too
            deadline = start + seconds - BURSTS_AFTER * max(BURST_SECONDS, max(setups))
            rounds = []
            while len(rounds) < workload.min_rounds or (
                    time.perf_counter() + statistics.median(r[0] for r in rounds) < deadline):
                rounds.append(_round(workload, inputs, sp.NullTracer()))
                if rounds[-1][2]:
                    break
            del inputs
            for _ in range(BURSTS_AFTER):
                setups += _setup_burst(workload, seed, workdir)[0]
        first = rounds[0][1]
        for i, (_, outcome, _) in enumerate(rounds):
            failures += outcome.failures
            if outcome.quality != first.quality:
                failures.append(f"round {i}: quality {outcome.quality} differs from round 0")
        attempted = sum(r[1].attempted for r in rounds)
        op_times = [r[1].clock.times for r in rounds]
        metrics = {
            "wall_s": op_total(op_times[WARMUP:]),
            "setup_s": quantile(setups[1:], OP_QUANTILE),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{k: first.quality.get(k, 0.0) for k in ("test_cindex", "train_objective")},
        }
        units = dict(END_TO_END)
        doc.update(op_quantile=OP_QUANTILE, warmup_rounds=WARMUP, rounds_s=[r[0] for r in rounds],
                   ops=op_summary(op_times[WARMUP:]), op_times=op_times, setup_s=setups,
                   quality=first.quality, facts=first.facts, warnings=dict(counter.counts))
    else:
        run_id = f"{name}-{seed}-{os.getpid()}"
        tracer = sp.Tracer(run_id)
        counter = sp.WarningCounter()

        @contextlib.contextmanager
        def traced_region():
            with counter.attached(), sp.instrument(tracer, layers.ANNOTATORS):
                yield

        with traced_region():
            inputs = workload.setup(seed, workdir)
        # its warnings go to a counter of their own, so the traced round's stand alone
        plain_s, plain, _ = _round(workload, inputs, sp.NullTracer(),
                                   sp.WarningCounter().attached())
        traced_s, traced, _ = _round(workload, inputs, tracer, traced_region())

        failures += plain.failures + traced.failures
        if plain.quality != traced.quality:
            failures.append(f"traced quality {traced.quality} differs from untraced "
                            f"{plain.quality}")
        attempted = plain.attempted + traced.attempted
        summary = sp.summarize(tracer.spans)
        metrics = layers.layer_metrics(tracer.spans, summary, counter, traced.facts,
                                       traced_s - plain_s)
        units = layers.UNITS
        spans_path = HERE / "results" / f"{run_id}-spans.jsonl.gz"
        tracer.write(spans_path)
        doc.update(untraced_wall_s=plain_s, traced_wall_s=traced_s, quality=traced.quality,
                   untraced_quality=plain.quality, facts=traced.facts,
                   warnings=dict(counter.counts), spans_file=spans_path.name,
                   span_summary=summary)

    doc.update(attempted=attempted, failed=len(failures), failures=failures,
               fail_frac=len(failures) / attempted if attempted else 1.0,
               metrics={k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()})
    return doc


def main(argv=None) -> int:
    # pinned before numpy loads; every numpy import in this file is deferred
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="set-ups and whole rounds take about this many seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latentsurv" / "__init__.py").is_file():
        print(f"error: no latentsurv sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import json
    import tempfile
    import time

    import latentsurv

    if Path(latentsurv.__file__).resolve().parent != SRC / "latentsurv":
        print(f"error: latentsurv imported from {latentsurv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    docs = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=results) as workdir:
            doc = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
        docs[name] = doc
        stamp = time.strftime("%Y%m%dT%H%M%S")
        out = results / f"{name}-seed{doc['env']['seed']}-trace{args.trace}-{stamp}.json"
        out.write_text(json.dumps(doc, indent=1, default=float))
        for metric, mv in doc["metrics"].items():
            print(f"{name:12s} {metric:40s} {mv['value']:.6g} {mv['unit']}")
        print(f"{name:12s} {'fail_frac':40s} {doc['fail_frac']:.6g} ratio "
              f"({doc['failed']} of {doc['attempted']})")
        for failure in doc["failures"]:
            print(f"{name:12s} FAILED {failure}")
        print(f"{name:12s} result file {out.relative_to(ROOT)}")

    if len(names) == 1:
        metrics = docs[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, d in docs.items() for k, v in d["metrics"].items()}
    failed = sum(d["failed"] for d in docs.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(d["attempted"] for d in docs.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
