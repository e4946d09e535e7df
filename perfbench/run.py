"""icessm benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload train-s16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of an icessm source tree; the program is imported from its
``src/``. Each workload is one client in a closed loop: the next operation
starts when the previous one has returned and its output has been checked.
``--workload all`` runs every workload in a fresh process of its own.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median over
SETUP_REPEATS fresh processes of the time from process launch to the end of
set-up (imports, inputs, checkpoint round trip, scan routes, one warm-up).

``--trace 1`` reports per-layer metrics per operation. It runs half of the
time untraced and half traced, so ``trace.overhead`` compares the two halves
of one process, and ``trace.coverage`` is the share of traced operation time
that the spans attribute (see ``spans.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
"""

import os
import time

# Parent and change runs must use the same BLAS thread count; one client, one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Span, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-s16", "forecast-s64", "preprocess")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# the name each workload's headline metric goes by, printed beside the neutral one
ALIASES = {
    "train-s16": ("throughput", "train_samples_per_s", "samples/s"),
    "forecast-s64": ("latency_ms_p50", "forecast_ms_p50", "ms"),
    "preprocess": ("throughput", "preprocess_frames_per_s", "frames/s"),
}

END_TO_END_UNITS = {"throughput": "items/s", "latency_ms_p50": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# span -> fields reported per operation in the traced run
SPAN_FIELDS = {
    "nd.ssm_recurrence": ("calls", "self_ms", "bwd_ms"),
    "ssm.selective_scan": ("calls", "self_ms", "bwd_ms"),
    "nd.Tape.backward": ("calls", "self_ms", "ms"),
    "model.AdamW.step": ("calls", "self_ms"),
    "model.validation_mae": ("calls", "self_ms", "ms"),
    "nd.conv2d": ("calls", "self_ms", "bwd_ms"),
    "nd.conv_transpose2d": ("calls", "self_ms", "bwd_ms"),
    "nd.depthwise_conv2d": ("calls", "self_ms", "bwd_ms"),
    "nd.layernorm": ("calls", "self_ms", "bwd_ms"),
    "nd.groupnorm": ("calls", "self_ms", "bwd_ms"),
    "nd.conv1d_depthwise": ("calls", "self_ms", "bwd_ms"),
    "nd.linear": ("calls", "self_ms", "bwd_ms"),
    "nd.matmul": ("calls", "self_ms", "bwd_ms"),
    "nd.gather": ("calls", "self_ms", "bwd_ms"),
    "nd.exp": ("calls", "self_ms", "bwd_ms"),
    "nd.mul": ("calls", "self_ms", "bwd_ms"),
    "nd.add": ("calls", "self_ms", "bwd_ms"),
    "nd.mean": ("calls", "self_ms", "bwd_ms"),
    "nd.reshape": ("calls", "self_ms", "bwd_ms"),
    "nd.moveaxis": ("calls", "self_ms", "bwd_ms"),
    "nd.leaky_relu": ("calls", "self_ms", "bwd_ms"),
    "ssm.mamba_block": ("calls", "self_ms", "bwd_ms"),
    "wavelet.freq_branch": ("calls", "self_ms", "bwd_ms"),
    "hsa.hsa_fuse": ("calls", "self_ms", "bwd_ms"),
    "model.forward_features": ("calls", "self_ms", "bwd_ms"),
    "model.sample_loss": ("calls", "self_ms", "bwd_ms"),
    "metrics.evaluate": ("calls", "self_ms", "ms"),
    "data.read_grid": ("calls", "self_ms"),
    "data.write_grid": ("calls", "self_ms"),
    "data.fill_missing_dates": ("calls", "self_ms"),
    "data.detect_land": ("calls", "self_ms"),
    "data.st_idw_fill": ("calls", "self_ms"),
    "data.windows": ("calls", "self_ms"),
    "data.preprocess": ("calls", "self_ms", "ms"),
}
FIELD_UNITS = {"calls": "count", "self_ms": "ms", "bwd_ms": "ms", "ms": "ms"}
COUNT_UNITS = {"nd.tape_records": "count", "ssm.scan_steps": "count",
               "nd.ssm_recurrence.computed_bytes": "bytes", "data.idw_pixels": "count",
               "data.bytes_read": "bytes", "data.bytes_written": "bytes"}
SETUP_SPANS = ("sfc.make_order", "sfc.routes")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: set up once, print the time set-up ended, exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_icessm():
    """Import icessm from this source tree's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import icessm
        from icessm import data, hsa, metrics, model, nd, sfc, ssm, wavelet  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import icessm from {src}: {exc}")
    if src.resolve() not in Path(icessm.__file__).resolve().parents:
        sys.exit(f"perfbench: icessm imported from {icessm.__file__}, not from {src}")
    return icessm


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu}


def closed_loop(workload, seconds: float, tracer=None):
    """Run operations back to back for ``seconds``; the tracer, if any, is on
    only while an operation runs, not while its output is checked."""
    latencies, failed = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception:  # a failed operation is counted, reported, and the loop goes on
            out = None
            traceback.print_exc()
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        try:
            if out is None:
                failed += 1
            else:
                workload.check(out)
        except Exception:
            failed += 1
            traceback.print_exc()
        del out  # free this output before the next operation runs
        if time.perf_counter() >= deadline:
            return latencies, failed


def setup_seconds(args) -> list[float]:
    """Launch-to-ready time of SETUP_REPEATS fresh processes, one at a time."""
    out = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_done"] - t0)
    return out


def end_to_end(workload, latencies, setups) -> tuple[dict, dict]:
    return {
        "throughput": workload.items * len(latencies) / sum(latencies),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, END_TO_END_UNITS


def per_layer(tracer, setup_tracer, latencies, plain_latencies) -> tuple[dict, dict]:
    n = len(latencies)
    values, units = {}, {}
    for name, fields in SPAN_FIELDS.items():
        s = tracer.spans.get(name, Span())
        raw = {"calls": s.calls, "self_ms": s.self_ * 1e3, "bwd_ms": s.bwd * 1e3,
               "ms": s.total * 1e3}
        for f in fields:
            values[f"{name}.{f}"] = raw[f] / n
            units[f"{name}.{f}"] = FIELD_UNITS[f]
    for name, unit in COUNT_UNITS.items():
        values[name], units[name] = tracer.counts[name] / n, unit

    def calls(name):
        return tracer.spans.get(name, Span()).calls

    # one forward pass per model.forward_features call; one train sample per sample_loss
    forwards, samples = calls("model.forward_features"), calls("model.sample_loss")
    values["nd.ssm_recurrence.calls_per_forward"] = (
        calls("nd.ssm_recurrence") / forwards if forwards else 0.0)
    values["nd.tape_records_per_sample"] = (
        tracer.counts["nd.tape_records"] / samples if samples else 0.0)
    units["nd.ssm_recurrence.calls_per_forward"] = "count"
    units["nd.tape_records_per_sample"] = "count"
    for name in SETUP_SPANS:
        s = setup_tracer.spans.get(name, Span())
        values[f"{name}.setup_calls"], units[f"{name}.setup_calls"] = s.calls, "count"
        values[f"{name}.setup_ms"], units[f"{name}.setup_ms"] = s.total * 1e3, "ms"
    unlisted = sum(s.self_ + s.bwd_self for k, s in tracer.spans.items()
                   if k not in SPAN_FIELDS)
    values["trace.unlisted_ms"], units["trace.unlisted_ms"] = unlisted / n * 1e3, "ms"
    values["trace.coverage"] = tracer.attributed_seconds() / sum(latencies)
    values["trace.overhead"] = statistics.median(latencies) / statistics.median(plain_latencies)
    values["trace.ops"] = n
    units.update({"trace.coverage": "ratio", "trace.overhead": "ratio", "trace.ops": "count"})
    return values, units


def span_table(tracer, n: int, top: int = 25) -> list[str]:
    rows = sorted(((k, s) for k, s in tracer.spans.items() if s.calls),
                  key=lambda kv: -(kv[1].self_ + kv[1].bwd_self))
    lines = [f"  {'span':34s} {'calls/op':>9s} {'self ms/op':>11s} {'bwd ms/op':>10s}"]
    for name, s in rows[:top]:
        lines.append(f"  {name:34s} {s.calls / n:9.1f} {s.self_ / n * 1e3:11.2f} "
                     f"{s.bwd_self / n * 1e3:10.2f}")
    return lines


def run_one(args) -> dict:
    icessm = import_icessm()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        setup_tracer = Tracer(icessm)
        if args.trace:
            setup_tracer.install()
        try:
            workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        finally:
            setup_tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_done": time.time()}))
            return {}
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: closed loop, 1 client")
        print("env " + json.dumps(environment()))
        if args.trace:
            half = args.seconds / 2
            plain, failed_plain = closed_loop(workload, half)
            tracer = Tracer(icessm)
            latencies, failed = closed_loop(workload, half, tracer)
            values, units = per_layer(tracer, setup_tracer, latencies, plain)
            attempted, failed = len(plain) + len(latencies), failed + failed_plain
            print("\n".join(span_table(tracer, len(latencies))))
        else:
            setups = setup_seconds(args)
            latencies, failed = closed_loop(workload, args.seconds)
            values, units = end_to_end(workload, latencies, setups)
            attempted = len(latencies)
            metric, alias, unit = ALIASES[args.workload]
            print(f"  {alias} = {values[metric]:.4f} {unit}")
            print(f"  {attempted} ops, latency min {min(latencies) * 1e3:.1f} ms, "
                  f"max {max(latencies) * 1e3:.1f} ms; set-up processes "
                  f"{', '.join(f'{s:.3f}' for s in setups)} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
