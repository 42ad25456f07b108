"""In-memory spans around the public functions of each layer, and the
per-layer metrics computed from them.

A span is a dict with ``name``, ``start`` and ``end`` (``time.monotonic_ns``,
comparable across processes on one machine), ``parent`` (index into
the same list, -1 for a root) and optional attributes.  Each benchmark
operation is a root span named ``op`` carrying the operation's name.

Wrappers go on the attribute each caller looks up: names imported with
``from ... import`` are separate bindings, so ``cli.load_sequence``,
``reexpand.dht_even_halved`` and ``weyl.dht_full`` are patched where
they are used.  With the recorder inactive a wrapper costs one
attribute test.
"""

from __future__ import annotations

import functools
import math
import os
import time

FACE_PROBES = 17  # probe points per free axis in sequences.boundary_vanish_check


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> dict:
        parent = self._stack[-1] if self._stack else -1
        span = {"name": name, "start": time.monotonic_ns(), "end": None, "parent": parent, **attrs}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self) -> None:
        self.spans[self._stack.pop()]["end"] = time.monotonic_ns()

    def graft(self, child_spans: list[dict]) -> None:
        """Append spans recorded by another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for s in child_spans:
            self.spans.append({**s, "parent": parent if s["parent"] < 0 else s["parent"] + base})


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def probe_points(q) -> int:
    """Series evaluations in a boundary check: prod q_j * 2d * 17^(d-1)."""
    d = len(q)
    return math.prod(q) * 2 * d * FACE_PROBES ** (d - 1)


def install(rec: Recorder) -> None:
    """Wrap the layer entry points of ``reexpansion`` so calls record spans."""
    from reexpansion import cli, hilbert, reexpand, weyl

    def patch(module, attr, namer, after=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            name, attrs = namer(args, kwargs)
            span = rec.open(name, **attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close()
            if after is not None:
                span.update(after(out, args, kwargs))
            return out

        setattr(module, attr, wrapper)

    def named(name):
        return lambda args, kwargs: (name, {})

    def coeffs(out, args, kwargs):
        return {"coeffs": int(out.values.size)}

    for kind in hilbert.KINDS:
        namer = (lambda kind: lambda args, kwargs: (
            f"hilbert.{kind}", {"algorithm": _arg(args, kwargs, 2, "algorithm", "fast")}))(kind)
        for module in (hilbert, reexpand, weyl):
            if hasattr(module, f"dht_{kind}"):
                patch(module, f"dht_{kind}", namer, coeffs)
    patch(hilbert, "dht_tensor", lambda args, kwargs: (
        "hilbert.tensor", {"algorithm": _arg(args, kwargs, 4, "algorithm", "fast")}), coeffs)
    patch(hilbert, "transform", lambda args, kwargs: (
        f"hilbert.{args[1].kind}", {"algorithm": args[1].algorithm}), coeffs)

    patch(cli, "load_sequence", lambda args, kwargs: (
        "sequences.load", {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}))
    patch(cli, "save_sequence", named("sequences.save"), lambda out, args, kwargs: {
        "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))})
    patch(reexpand, "boundary_vanish_check", lambda args, kwargs: (
        "sequences.boundary", {"probe_points": probe_points(_arg(args, kwargs, 2, "q").exponents)}))

    patch(reexpand, "reexpand_nd", named("reexpand.nd"))
    patch(reexpand, "reexpand_weighted", named("reexpand.weighted"))
    patch(reexpand, "quadrature_oracle_box", named("reexpand.oracle"))
    patch(reexpand, "summability_report", named("reexpand.summability"))

    patch(weyl, "condition_q1_sum", lambda args, kwargs: (
        "weyl.q1", {"mode": _arg(args, kwargs, 3, "mode", "paper")}))
    patch(weyl, "q2_diagnostic", named("weyl.q2"))
    patch(weyl, "ext_fourier_table", named("weyl.table"))
    patch(weyl, "character_coeff", named("weyl.character_coeff"))
    patch(weyl, "su2_sufficiency", named("weyl.sufficiency"))


# ---------------------------------------------------------------------------
# per-layer metrics of one pass

HILBERT_KINDS = ("full", "even", "odd", "even_halved", "odd_halved")
# operations whose hilbert time is reported under their own name
SHAPE_OPS = {"complex": "hilbert.complex_s", "sparse_far": "hilbert.sparse_far_s"}


def _annotate(spans: list[dict]) -> None:
    """Add duration, self time, root operation and parent name to each span."""
    for s in spans:
        s["dur"] = (s["end"] - s["start"]) / 1e9
        s["self"] = s["dur"]
    for s in spans:
        if s["parent"] >= 0:
            spans[s["parent"]]["self"] -= s["dur"]
    for s in spans:
        p = s["parent"]
        s["parent_name"] = spans[p]["name"] if p >= 0 else None
        s["root_op"] = s.get("op") if p < 0 else spans[p]["root_op"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals for the spans of one pass (0 where a layer is not run)."""
    _annotate(spans)
    inner = [s for s in spans if s["name"] != "op"]

    def total(pred, key="dur"):
        return sum(s.get(key, 0) for s in inner if pred(s))

    def is_hilbert(s):
        return s["name"].startswith("hilbert.")

    def top_level(s):
        return s["parent_name"] == "op"

    m = {
        "cli.import_s": total(lambda s: s["name"] == "cli.import"),
        "cli.self_s": total(lambda s: s["name"] == "cli.main", "self"),
        "sequences.load_s": total(lambda s: s["name"] == "sequences.load"),
        "sequences.save_s": total(lambda s: s["name"] == "sequences.save"),
        "sequences.bytes_in": total(lambda s: s["name"] == "sequences.load", "bytes"),
        "sequences.bytes_out": total(lambda s: s["name"] == "sequences.save", "bytes"),
        "sequences.boundary_s": total(lambda s: s["name"] == "sequences.boundary"),
        "sequences.probe_points": total(lambda s: s["name"] == "sequences.boundary", "probe_points"),
    }
    fast = [s for s in inner if is_hilbert(s) and s.get("algorithm") == "fast"]
    for kind in HILBERT_KINDS:
        m[f"hilbert.{kind}_s"] = sum(
            s["dur"] for s in fast if s["name"] == f"hilbert.{kind}" and s["root_op"] not in SHAPE_OPS
        )
    for op, metric in SHAPE_OPS.items():
        m[metric] = sum(s["dur"] for s in fast if s["root_op"] == op)
    m["hilbert.tensor_s"] = total(lambda s: s["name"] == "hilbert.tensor")
    fast_time = sum(s["dur"] for s in fast)
    m["hilbert.coeffs_per_s"] = sum(s.get("coeffs", 0) for s in fast) / fast_time if fast_time else 0.0
    halved = max(m["hilbert.even_halved_s"], m["hilbert.odd_halved_s"])
    m["hilbert.halved_over_full"] = halved / m["hilbert.full_s"] if halved and m["hilbert.full_s"] else 0.0
    m["hilbert.naive_s"] = total(lambda s: is_hilbert(s) and s.get("algorithm") == "naive")

    m["reexpand.nd_s"] = total(lambda s: s["name"] == "reexpand.nd")
    m["reexpand.oracle_s"] = total(lambda s: s["name"] == "reexpand.oracle")
    m["reexpand.oracle_calls"] = float(sum(s["name"] == "reexpand.oracle" for s in inner))
    m["reexpand.weighted_self_s"] = total(lambda s: s["name"] == "reexpand.weighted", "self")
    m["reexpand.summability_s"] = total(lambda s: s["name"] == "reexpand.summability")

    for mode in ("character", "paper"):
        m[f"weyl.q1_{mode}_s"] = total(
            lambda s: s["name"] == "weyl.q1" and s.get("mode") == mode and top_level(s)
        )
    m["weyl.q2_s"] = total(lambda s: s["name"] == "weyl.q2")
    m["weyl.table_s"] = total(lambda s: s["name"] == "weyl.table")
    m["weyl.character_coeff_s"] = total(lambda s: s["name"] == "weyl.character_coeff" and top_level(s))

    wall = sum(s["dur"] for s in spans if s["name"] == "op")
    m["bench.layer_coverage_frac"] = total(lambda s: True, "self") / wall if wall else 0.0
    return m
