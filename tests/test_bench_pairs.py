"""The summary and verdicts of tools/bench_pairs.py on fixed lists of runs,
the assignment of pairs to exported copies, the order and medians of the
traced runs with a stubbed perfbench, and the traced peak of one operation."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "throughput", "better": "higher", "bound": 0.25},
              {"name": "latency_ms_p50", "better": "lower", "bound": 0.25}]


def run(pair, side, throughput, latency, workload="train-s16", failed=0):
    return {"pair": pair, "side": side, "workload": workload, "attempted": 10,
            "failed": failed, "metrics": {"throughput": throughput, "latency_ms_p50": latency}}


RUNS = [
    run(0, "parent", 10.0, 400.0), run(0, "change", 14.0, 300.0),
    run(1, "change", 12.0, 410.0), run(1, "parent", 12.0, 390.0),   # tie, parent faster
    run(2, "parent", 11.0, 420.0), run(2, "change", 15.0, 420.0),   # win, tie
    run(3, "parent", 13.0, 380.0), run(3, "change", 16.0, 310.0, failed=1),
    run(4, "parent", 9.0, 500.0),                                   # no partner: left out
    run(0, "parent", 100.0, 5.0, "preprocess"), run(0, "change", 90.0, 6.0, "preprocess"),
]


def test_wins_count_ties_for_neither_side():
    s = bench_pairs.summarize(RUNS, END_TO_END)["train-s16"]
    assert (s["throughput"]["change_wins"], s["throughput"]["parent_wins"]) == (3, 0)
    assert (s["latency_ms_p50"]["change_wins"], s["latency_ms_p50"]["parent_wins"]) == (2, 1)
    assert s["throughput"]["pairs"] == 4


def test_medians_and_inclusive_quartiles():
    s = bench_pairs.summarize(RUNS, END_TO_END)["train-s16"]
    # parent throughput 10, 12, 11, 13 (pair 4 has no partner)
    assert s["throughput"]["parent"] == pytest.approx({"median": 11.5, "q1": 10.75,
                                                       "q3": 12.25})
    assert s["latency_ms_p50"]["change"] == pytest.approx({"median": 360.0, "q1": 307.5,
                                                           "q3": 412.5})


def test_operations_and_workloads_are_separate():
    summary = bench_pairs.summarize(RUNS, END_TO_END)
    assert list(summary) == ["train-s16", "preprocess"]
    assert summary["train-s16"]["operations"] == {"parent": {"attempted": 40, "failed": 0},
                                                  "change": {"attempted": 40, "failed": 1}}
    pre = summary["preprocess"]
    assert pre["throughput"]["parent_wins"] == 1 and pre["latency_ms_p50"]["parent_wins"] == 1
    assert pre["throughput"]["change"] == {"median": 90.0, "q1": 90.0, "q3": 90.0}


def test_pairs_take_turns_over_the_copies():
    assert bench_pairs.COPIES == 2
    assert [bench_pairs.tree_copy(pair) for pair in range(10)] == [0, 1] * 5


def test_traced_runs_alternate_and_report_medians(tmp_path, monkeypatch):
    # the stub's every metric is the number of runs before it, so a per-layer row
    # shows which runs its median came from
    calls = []

    def perfbench(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, seed, trace))
        metrics = dict.fromkeys(("throughput", "latency_ms_p50", "setup_s", "peak_rss_mb",
                                 "nd.conv2d.self_ms"), float(len(calls) - 1))
        return {"env": {}, "correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: ref)
    monkeypatch.setattr(bench_pairs, "perfbench", perfbench)
    monkeypatch.setattr(bench_pairs, "traced_peak",
                        lambda tree, workload, seed: len(tree.name) + seed)
    monkeypatch.setattr(bench_pairs, "rewrite_ms", lambda workdir: 1.5)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["p", "c", "--pairs", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    workloads = [w["name"] for w in json.loads(
        (_PATH.parent.parent / "BENCHMARK.json").read_text())["workloads"]]
    untraced = 2 * 2 * len(workloads)
    assert [c[3] for c in calls] == [0] * untraced + [1] * 6 * len(workloads)
    for i, workload in enumerate(workloads):
        first = untraced + 6 * i
        assert calls[first:first + 6] == [
            (f"{side}-0", workload, bench_pairs.TRACE_SEED, 1)
            for side in ("parent", "change", "change", "parent", "parent", "change")]
        traced = [r for r in doc["runs"] if r["trace"] == 1 and r["workload"] == workload]
        assert [(r["pair"], r["side"]) for r in traced] == [
            (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"),
            (2, "change")]
        # parent runs first + 0, 3, 4 and change runs first + 1, 2, 5
        assert doc["per_layer"][workload]["nd.conv2d.self_ms"] == {
            "parent": first + 3.0, "change": first + 2.0}
    assert len(doc["runs"]) == untraced + 6 * len(workloads)
    # copy 0 of each side at the untraced pairs' seed: len("parent-0") + 5
    assert doc["traced_peak_bytes"] == {w: {"parent": 13, "change": 13} for w in workloads}
    assert doc["environment"] == {"inplace_rewrite_ms": 1.5}


def test_rewrite_probe_times_rewrites_and_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "REWRITE_BYTES", 1 << 16)
    assert bench_pairs.rewrite_ms(tmp_path) > 0
    assert not any(tmp_path.iterdir())


def test_traced_peak_runs_one_checked_operation_of_the_tree():
    # a preprocess operation holds at least its 365x64x64 float32 grid
    root = _PATH.parent.parent
    assert bench_pairs.traced_peak(root, "preprocess", 0) > 365 * 64 * 64 * 4
    with pytest.raises(RuntimeError, match="no-such-workload"):
        bench_pairs.traced_peak(root, "no-such-workload", 0)


def verdict_of(parent, change):
    """The throughput verdict of pairs (parent[i], change[i]); latency is fixed."""
    runs = [run(i, side, value, 100.0) for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]
    return bench_pairs.summarize(runs, END_TO_END)["train-s16"]["throughput"]["verdict"]


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


@pytest.mark.parametrize("parent, change, expect", [
    # 10/10 wins, median 120 against 100 and an interquartile range of 2
    (PARENT, [v + 20.0 for v in PARENT], "gain"),
    # 9/10 wins is still a gain
    (PARENT, [v + 20.0 for v in PARENT[:9]] + [90.0], "gain"),
    # 8/10 wins is not, however far apart the medians
    (PARENT, [v + 20.0 for v in PARENT[:8]] + [90.0, 90.0], "within bound"),
    # 10/10 wins, but the medians 1 apart against an interquartile range of 2
    (PARENT, [v + 1.0 for v in PARENT], "within bound"),
    # the median 30% below the parent's, over the 25% bound
    (PARENT, [v - 30.0 for v in PARENT], "worse"),
    # 20% below: inside the bound
    (PARENT, [v - 20.0 for v in PARENT], "within bound"),
    # the parent's own runs have an interquartile range of 120 around a
    # median of 100, wider than the bound
    ([40.0, 160.0] * 5, [45.0, 150.0] * 5, "unresolved"),
    # as wide, but every run of the change beats every run of the parent:
    # all 10 pairs won, the medians 30.5 apart against a range of 60
    ([40.0] * 5 + [100.0] * 5, [100.5] * 10, "within bound"),
], ids=["gain", "gain-9-of-10", "8-of-10", "inside-iqr", "worse", "inside-bound",
        "unresolved", "wide-but-apart"])
def test_verdicts(parent, change, expect):
    assert verdict_of(parent, change) == expect


def test_verdict_follows_the_metric_direction():
    # lower latency is better: the same numbers are a gain for latency
    runs = [run(i, side, 10.0, value) for i, pair in
            enumerate(zip(PARENT, [v - 20.0 for v in PARENT]))
            for side, value in zip(("parent", "change"), pair)]
    rows = bench_pairs.summarize(runs, END_TO_END)["train-s16"]
    assert rows["latency_ms_p50"]["verdict"] == "gain"
    assert rows["throughput"]["verdict"] == "within bound"
