"""Compare two git refs with the frozen benchmark in alternating pairs.

    python3 tools/bench_pairs.py PARENT_REF CHANGE_REF --pairs 10 --out BENCH_<pr>.json

Each ref's committed files are exported (``git archive``) into ``COPIES``
fresh directories of its own, so both sides run exactly what is committed and
the repository's own checkout and ``.git`` are left alone. First, per
workload in ``BENCHMARK.json``, ``TRACED_RUNS`` pairs of
``perfbench/run.py --trace 1`` runs on copy 0 at seed ``TRACE_SEED``, with
the side that goes first alternating; each per-layer row is a side's median
over them, so one slow stretch of the machine does not read as a layer's
difference. Then, per workload and side, ``traced_peak`` counts the live
bytes of one warm operation, which peak RSS only bounds: RSS follows the
allocator's layout. These come first so that a run stopped for time still has
them. Last, for each pair and each workload, ``--trace 0`` runs once on each
side at the benchmark's own run length; which side goes first alternates from
pair to pair, so a slow drift of the machine favours neither, and so does
which copy both sides run (``tree_copy``), so neither does the layout of one
directory: byte-identical trees in two directories have read 4-19% apart on
forecast-s64.

The output holds every run, traced or not, with its pair and the copy it
ran, and per workload and end-to-end metric each side's median and
quartiles, the number of pairs the change won (better in the direction
``BENCHMARK.json`` gives; a tie counts for neither side) and a ``verdict``
(see ``verdict``). It is rewritten after each workload's traced runs, each
traced peak and every pair, so an interrupted run leaves what it measured.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 1  # seed of the traced runs, fixed so per-layer rows compare across changes
COPIES = 2      # exports of each side; the pairs take turns over them
TRACED_RUNS = 3  # traced runs of each side per workload

# Builds one workload of the tree it runs in from perfbench/workloads.py, as
# perfbench/run.py does (BLAS on one thread; the set-up ends with a warm-up
# operation), then prints the tracemalloc peak of one more operation and checks it.
PEAK_PROBE = """
import sys, tempfile, tracemalloc
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from workloads import WORKLOADS
with tempfile.TemporaryDirectory() as tmp:
    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(tmp))
    tracemalloc.start()
    out = workload.run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    workload.check(out)
print(peak)
"""


def tree_copy(pair: int) -> int:
    """The export of each side that pair ``pair`` runs."""
    return pair % COPIES


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` in the order they run: parent first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], change_wins: int, better: str,
            bound: float) -> str:
    """What one metric's pairs show, first rule that holds:

    - "gain": the change won at least 9 of 10 pairs, and its median is better
      than the parent's by more than the parent's interquartile range;
    - "worse": its median is worse than the parent's by more than ``bound``,
      a fraction of the parent's median;
    - "unresolved": the parent's interquartile range is wider than ``bound``,
      unless every run of the change beats every run of the parent;
    - "within bound": otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    ahead = sign * (quartiles(change)[1] - p_med)
    if 10 * change_wins >= 9 * len(parent) and ahead > p3 - p1:
        return "gain"
    if -ahead > bound * abs(p_med):
        return "worse"
    apart = min(sign * v for v in change) > max(sign * v for v in parent)
    if p3 - p1 > bound * abs(p_med) and not apart:
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's operations attempted and failed, and per
    metric each side's median and quartiles, the pairs each side won and the
    verdict. ``runs`` are untraced run records (``pair``, ``side``,
    ``workload``, ``attempted``, ``failed``, ``metrics``: name -> value);
    ``end_to_end`` are ``BENCHMARK.json``'s metrics (``name``, ``better``:
    "higher" or "lower", ``bound``). Unmatched runs are left out."""
    by_key: dict[tuple, dict] = {}
    for run in runs:
        by_key.setdefault((run["workload"], run["pair"]), {})[run["side"]] = run
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = [p for (w, _), p in sorted(by_key.items()) if w == workload
                 and all(side in p for side in SIDES)]
        rows = {"operations": {side: {key: sum(p[side][key] for p in pairs)
                                      for key in ("attempted", "failed")} for side in SIDES}}
        for spec in end_to_end:
            metric, direction = spec["name"], spec["better"]
            vals = {side: [p[side]["metrics"][metric] for p in pairs] for side in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
            row = {"pairs": len(pairs), "better": direction,
                   "change_wins": sum(d > 0 for d in diffs),
                   "parent_wins": sum(d < 0 for d in diffs)}
            for side in SIDES:
                q1, med, q3 = quartiles(vals[side])
                row[side] = {"median": med, "q1": q1, "q3": q3}
            row["verdict"] = verdict(vals["parent"], vals["change"], row["change_wins"],
                                     direction, spec["bound"])
            rows[metric] = row
        out[workload] = rows
    return out


def per_layer(runs: list[dict]) -> dict:
    """Metric name -> side -> the median of that side's values over ``runs``
    (run records with ``side`` and ``metrics``: name -> value)."""
    values: dict[str, dict] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault(name, {}).setdefault(run["side"], []).append(value)
    return {name: {side: statistics.median(vals) for side, vals in sides.items()}
            for name, sides in values.items()}


def export(ref: str, dest: Path) -> str:
    """Write the committed files of ``ref`` into ``dest``; return its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its final JSON line plus the environment line it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    return {"env": env, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def traced_peak(tree: Path, workload: str, seed: int) -> int:
    """The tracemalloc peak, in bytes, of one warm operation of ``workload``,
    built at ``seed`` in a fresh process from the source tree ``tree``."""
    env = {**os.environ, **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, workload, str(seed)], cwd=tree,
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"traced peak of {workload} in {tree} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return int(proc.stdout.split()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=5, help="seed of the untraced pairs")
    args = p.parse_args(argv)
    end_to_end = bench["end_to_end"]
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {(side, c): Path(tmp) / f"{side}-{c}" for side in SIDES for c in range(COPIES)}
        shas = {}
        for side, ref in zip(SIDES, (args.parent, args.change)):
            for c in range(COPIES):
                shas[side] = export(ref, trees[side, c])
        doc = {"refs": {side: {"ref": ref, "commit": shas[side]}
                        for side, ref in zip(SIDES, (args.parent, args.change))},
               "seed": args.seed, "trace_seed": TRACE_SEED, "seconds": seconds,
               "pairs": args.pairs, "runs": [], "summary": {}, "per_layer": {},
               "traced_peak_bytes": {}}

        def save():
            args.out.write_text(json.dumps(doc, indent=1) + "\n")

        def record(run, **keys):
            doc.setdefault("environment", run.pop("env") or {})
            doc["runs"].append({**keys, **run})
            return doc["runs"][-1]

        for workload in workloads:
            traced = [record(perfbench(trees[side, 0], workload, TRACE_SEED, seconds, 1),
                             pair=pair, side=side, workload=workload, trace=1, copy=0)
                      for pair in range(TRACED_RUNS) for side in order(pair)]
            doc["per_layer"][workload] = per_layer(traced)
            save()
            print(f"traced {workload}", flush=True)
        for workload in workloads:
            doc["traced_peak_bytes"][workload] = {
                side: traced_peak(trees[side, 0], workload, args.seed) for side in SIDES}
            save()
            print(f"traced peak {workload}: {doc['traced_peak_bytes'][workload]}", flush=True)
        for pair in range(args.pairs):
            copy = tree_copy(pair)
            for workload in workloads:
                for side in order(pair):
                    run = record(perfbench(trees[side, copy], workload, args.seed, seconds, 0),
                                 pair=pair, side=side, workload=workload, trace=0, copy=copy)
                    print(f"pair {pair} copy {copy} {workload} {side}: " + ", ".join(
                        f"{m['name']}={run['metrics'][m['name']]:.4g}" for m in end_to_end),
                        flush=True)
            doc["summary"] = summarize([r for r in doc["runs"] if r["trace"] == 0], end_to_end)
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
