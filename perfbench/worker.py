"""One workload in a fresh process: set up, measure, check.

    python3 worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON SPAWN_NS [--setup-only]

Set-up (interpreter start, imports, seeded inputs, input files and a
warm-up pass on small inputs) is timed from SPAWN_NS, the parent's
``time.monotonic_ns()`` before it started this process.  Then passes
over the workload's operation list run back to back, one operation at
a time, until the next pass would overrun SECONDS.  With TRACE = 1 the
first half of the time runs untraced and the second half traced.
Every result is checked outside the timed region; the first check of
each operation is also run on a perturbed copy, which must fail.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Attempts, failures and check deviations over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self.negative_missed: list[str] = []
        self._negative_done: set[str] = set()

    def check(self, op: workloads.Op, result) -> bool:
        try:
            got = op.observe(result)
            dev = oracle.deviation(got, op.expected)
        except Exception:
            print(f"check of {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return False
        if op.name not in self._negative_done:
            self._negative_done.add(op.name)
            if oracle.deviation(oracle.perturbed(got), op.expected) <= op.gate:
                self.negative_missed.append(op.name)
        self.max_dev = max(self.max_dev, dev)
        if not dev <= op.gate:
            print(f"{op.name}: deviation {dev:.3e} exceeds gate {op.gate:g}", file=sys.stderr)
            return False
        return True


def run_pass(wl: workloads.Workload, tally: Tally, op_times: list, rec=None) -> float:
    """Run every operation once, in order; returns the summed operation time."""
    wall = 0.0
    for op in wl.ops:
        if rec is not None:
            rec.open("op", op=op.name)
            rec.active = True
        t0 = time.monotonic_ns()
        try:
            result, ok = op.run(rec), True
        except Exception:
            print(f"{op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            result, ok = None, False
        dt = (time.monotonic_ns() - t0) / 1e9
        if rec is not None:
            rec.active = False
            rec.close()
        wall += dt
        op_times.append(dt)
        tally.attempted += 1
        if not (ok and tally.check(op, result)):
            tally.failed += 1
    return wall


def run_passes(seconds: float, one_pass) -> list[float]:
    """Repeat ``one_pass`` while another one fits in ``seconds`` (at least once)."""
    start = time.monotonic()
    walls = []
    while True:
        t0 = time.monotonic()
        walls.append(one_pass())
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return walls


def op_split(span_list: list[dict]) -> dict[str, float]:
    """Per operation: its total time and the time of each span name under it."""
    split: dict[str, float] = defaultdict(float)
    for s in span_list:
        if s["name"] == "op":
            split[f"{s['op']}|total"] += s["dur"]
        else:
            split[f"{s['root_op']}|{s['name']}"] += s["dur"]
    return split


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir, result_path, spawn_ns = argv[:7]
    setup_only = "--setup-only" in argv[7:]
    seed, seconds, trace, spawn_ns = int(seed), float(seconds), trace == "1", int(spawn_ns)
    workdir = Path(workdir)

    import reexpansion

    src = (ROOT / "src").resolve()
    if src not in Path(reexpansion.__file__).resolve().parents:
        print(f"reexpansion imported from {reexpansion.__file__}, not {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # library diagnostics are not benchmark output

    rec = None
    if trace and not setup_only:
        rec = spans.Recorder()
        spans.install(rec)

    build = workloads.BUILDERS[name]
    wl = build(seed, workdir)
    (workdir / "warm").mkdir()
    for op in build(seed, workdir / "warm", small=True).ops:
        op.run(None)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    if setup_only:
        Path(result_path).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    op_times: list[float] = []
    budget = seconds / 2 if trace else seconds
    walls = run_passes(budget, lambda: run_pass(wl, tally, op_times))
    traced_walls, layers, splits = [], [], []
    if trace:
        def traced_pass():
            rec.spans = []
            wall = run_pass(wl, tally, [], rec)
            layers.append(spans.layer_metrics(rec.spans))
            splits.append(op_split(rec.spans))
            return wall

        traced_walls = run_passes(budget, traced_pass)

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "op_times": op_times,
        "traced_walls": traced_walls,
        "layers": {k: median(d[k] for d in layers) for k in (layers[0] if layers else {})},
        "split": {k: median(d.get(k, 0.0) for d in splits) for k in (splits[0] if splits else {})},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "max_dev": tally.max_dev,
        "negative_missed": tally.negative_missed,
        "child_rss_mb": max(wl.child_rss_mb) if wl.child_rss_mb else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
