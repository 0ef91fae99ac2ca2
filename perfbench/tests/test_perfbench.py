"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, and that
tracing changes no fitted number."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402


def _span(name, start, end, parent=None):
    s = sp.Span(name, start, parent, "test")
    s.end = end
    return s


def test_self_time_of_synthetic_nesting():
    #  root [0, 10]
    #    a [1, 4]
    #    b [5, 9]
    #      c [6, 7]
    spans = [_span("root", 0.0, 10.0), _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0), _span("c", 6.0, 7.0, 2)]
    assert sp.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_nested_spans_of_one_name_count_once():
    spans = [_span("f", 0.0, 4.0), _span("g", 1.0, 3.0, 0), _span("f", 1.5, 2.5, 1)]
    assert sp.outermost(spans, ["f"]) == [0]
    assert sp.outermost(spans, ["g"]) == [1]
    summary = sp.summarize(spans)
    assert summary["f"]["calls"] == 2
    assert summary["f"]["s"] == pytest.approx(4.0)
    assert summary["f"]["self_s"] == pytest.approx(2.0 + 1.0)


def test_percentile_keeps_ten_calls_beyond():
    assert "p90_s" in sp.percentile_summary([float(i) for i in range(100)])
    summary = sp.percentile_summary([float(i) for i in range(1000)])
    assert summary["p99_s"] == 989.0 and "p90_s" not in summary
    assert set(sp.percentile_summary([1.0] * 9)) == {"calls", "p50_s"}


def test_operation_quantiles_sum_per_label():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert run.quantile([4.0], 0.9) == 4.0
    rounds = [{"fit": 1.0, "score": 0.1}, {"fit": 3.0, "score": 0.2}, {"fit": 2.0}]
    # fit: 0.9-quantile of (1, 2, 3) is 2.8; score: of (0.1, 0.2) is 0.19
    assert run.op_total(rounds, 0.9) == pytest.approx(2.8 + 0.19)
    summary = run.op_summary(rounds)
    assert summary["score"]["n"] == 2 and summary["fit"]["min_s"] == 1.0


def test_clock_refuses_a_label_twice():
    clock = wl.Clock()
    assert clock.call("a", max, 1, 2) == 2
    with pytest.raises(ValueError):
        clock.call("a", max, 1, 2)
    assert set(clock.times) == {"a"}


def _bindings():
    modules, functions, attributes = sp._targets()
    namespaces = [sys.modules["latentsurv"], *modules.values()]
    found = {(id(ns), attr): obj for ns in namespaces for attr, obj in vars(ns).items()}
    found.update({(id(owner), attr): getattr(owner, attr) for _, owner, attr in attributes})
    return found


def test_wrappers_are_installed_everywhere_and_restored():
    from latentsurv import cli, data, evaluate, hazard, joint

    before = _bindings()
    original = hazard.fit_ecph
    tracer = sp.Tracer("test")
    with sp.instrument(tracer, layers.ANNOTATORS):
        assert hazard.fit_ecph is not original
        assert joint.fit_ecph is hazard.fit_ecph is evaluate.fit_ecph
        assert data.Dataset.times is not before[(id(data.Dataset), "times")]
        assert cli.main.commands["predict"].callback is not before[
            (id(cli.main.commands["predict"]), "callback")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_restored_when_the_block_raises():
    from latentsurv import factor

    original = factor.fit_fa
    with pytest.raises(RuntimeError):
        with sp.instrument(sp.Tracer("test")):
            raise RuntimeError("boom")
    assert factor.fit_fa is original


SMALL = {
    "select_fast": wl.SelectFast(n_train=40, n_test=20, d_x=(10, 4, 3), d_zs=(1, 2), folds=3,
                                 pair_d_z=2, gem_iters=2),
    "l1_path": wl.L1Path(n_train=40, n_test=20, test_pool=60, d_x=(6, 3, 3), gammas=(8.0,)),
    "score_large": wl.ScoreLarge(n_train=40, n_test=60, d_x=(10, 4, 3)),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_reproduces_untraced_quality_bit_for_bit(name, tmp_path):
    workload = SMALL[name]
    inputs = workload.setup(3, tmp_path)
    plain = workload.run(inputs, sp.NullTracer())
    tracer = sp.Tracer("test")
    with sp.instrument(tracer, layers.ANNOTATORS):
        traced = workload.run(inputs, tracer)
    workload.verify(inputs, plain)
    workload.verify(inputs, traced)
    assert traced.quality == plain.quality
    assert set(traced.quality) >= {"test_cindex", "train_objective"}
    assert plain.failures == [] and traced.failures == []
    metrics = layers.layer_metrics(tracer.spans, sp.summarize(tracer.spans), sp.WarningCounter(),
                                    traced.facts, 0.0)
    assert list(metrics) == [n for n, _ in layers.PER_LAYER]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(
        run.WORKLOAD_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, the command fails and prints
    no result."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for src in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / src.name).write_text(src.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "select_fast",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
