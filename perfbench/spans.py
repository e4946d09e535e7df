"""Per-layer tracing of icessm from outside the program.

``Tracer.install`` replaces every public function of the traced modules, and
every public method of their classes, with a wrapper that opens a span. Spans
nest; a span's self time is its duration minus the time of the spans it
opened. ``nd.Tape.record`` is wrapped too: each recorded backward rule is
timed when ``Tape.backward`` replays it and charged, as backward time, to
every span that was open when the rule was recorded. Its time is taken out of
the self time of ``nd.Tape.backward``, so summing self and backward time over
all spans counts each moment once.

Counters that repeat exactly (scan steps, bytes, pixels) are gathered by
hooks that run after the wrapped call, from its positional arguments; their
cost is charged to no span.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

MODULES = ("model", "nd", "ssm", "wavelet", "hsa", "sfc", "data", "metrics")
RECORD = "nd.Tape.record"


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0     # seconds, children included
    self_: float = 0.0     # seconds, children excluded
    bwd: float = 0.0       # seconds of backward rules recorded under this span
    bwd_self: float = 0.0  # the same, only for rules this span recorded itself


def _ssm_recurrence(counts, args):
    abar, bx = args[0].data, args[1].data
    counts["ssm.scan_steps"] += abar.shape[0]
    # abar, bx and the [L, D, S] state history the forward keeps for backward
    counts["nd.ssm_recurrence.computed_bytes"] += 2 * abar.nbytes + bx.nbytes


def _read_grid(counts, args):
    counts["data.bytes_read"] += os.path.getsize(args[0])


def _write_grid(counts, args):
    counts["data.bytes_written"] += os.path.getsize(args[1])


def _st_idw_fill(counts, args):
    counts["data.idw_pixels"] += int(np.isnan(args[0].frames).sum())


HOOKS = {
    "nd.ssm_recurrence": _ssm_recurrence,
    "data.read_grid": _read_grid,
    "data.write_grid": _write_grid,
    "data.st_idw_fill": _st_idw_fill,
}


class Tracer:
    """Spans and counters for one phase of a run; install, run, uninstall."""

    def __init__(self, package):
        self.package = package
        self.spans: dict[str, Span] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # open frames: [name, child seconds]
        self._saved: list[tuple] = []

    def _targets(self):
        """(owner, attribute, span name) for every function the tracer wraps."""
        for short in MODULES:
            mod = getattr(self.package, short)
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, name, f"{short}.{name}"
                elif inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            yield obj, attr, f"{short}.{name}.{attr}"

    def install(self) -> None:
        for owner, attr, name in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            wrapper = self._record if name == RECORD else self._span
            setattr(owner, attr, wrapper(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _span(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        hook = HOOKS.get(name)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                span.calls += 1
                span.total += dt
                span.self_ += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                t1 = perf_counter()
                hook(counts, args)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return out

        return traced

    def _record(self, name: str, record):
        stack, counts, spans = self._stack, self.counts, self.spans

        def traced_record(tape, rule):
            counts["nd.tape_records"] += 1
            owner = stack[-1][0] if stack else "<untraced>"
            charged = [spans.setdefault(n, Span()) for n in dict.fromkeys(f[0] for f in stack)]
            own = spans.setdefault(owner, Span())

            def timed_rule():
                frame = [owner, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    rule()
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    own.bwd_self += dt - frame[1]
                    for span in charged:
                        span.bwd += dt
                    if stack:
                        stack[-1][1] += dt

            record(tape, timed_rule)

        return traced_record

    def attributed_seconds(self) -> float:
        """Self plus own backward time over all spans: each moment once."""
        return sum(s.self_ + s.bwd_self for s in self.spans.values())
