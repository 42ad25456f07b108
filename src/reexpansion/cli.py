"""Command-line front end.

Subcommands: hilbert, reexpand, sufficiency, su2.  Inputs and
sequence outputs use the JSON sequence format; reports are CSV with
fixed headers and 17-significant-digit floats.  Output files are
written atomically (write-then-rename) and contain no timestamps, so
identical invocations produce byte-identical artifacts.

Exit status: 0 on success, 2 on usage errors (bad flags, malformed
values or input files, dimension mismatches against the loaded
input, any input the library refuses with a ``ValueError``), 1 on
computation errors: out of memory, or a NaN or infinity in an output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hilbert as _hilbert
from . import reexpand as _reexpand
from . import weyl as _weyl
from .sequences import (
    CoeffND,
    ParityVector,
    WeightExponent,
    atomic_open,
    load_sequence,
    save_sequence,
    weight_apply,
)

__all__ = ["CliInvocation", "parse_args", "run", "emit_report", "main"]


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    options: dict


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected lo:hi") from exc


def _parse_box(text: str) -> list[tuple[int, int]]:
    return [_parse_range(part) for part in text.split(",")]


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {flag} list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reexpansion",
        description="Discrete Hilbert transforms, re-expansions, and SU(2) diagnostics",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    h = sub.add_parser("hilbert", help="one-dimensional discrete Hilbert transforms")
    h.add_argument("--input", required=True)
    h.add_argument("--kind", required=True, choices=_hilbert.KINDS)
    h.add_argument("--range", required=True, help="inclusive output window lo:hi")
    h.add_argument("--algorithm", default="fast", choices=_hilbert.ALGORITHMS)
    h.add_argument("--output", required=True)

    r = sub.add_parser("reexpand", help="re-expansion coefficient maps")
    r.add_argument("--input", required=True)
    r.add_argument("--parity", required=True, help="source parity per axis, e.g. 10")
    r.add_argument("--weight", default=None, help="weight exponents, e.g. 1,0")
    r.add_argument("--box", required=True, help="output box lo:hi[,lo:hi...]")
    r.add_argument("--subtract-mean", action="store_true")
    r.add_argument("--boundary-tol", type=float, default=1e-9)
    r.add_argument("--algorithm", default="fast", choices=_hilbert.ALGORITHMS)
    r.add_argument("--output", required=True)

    s = sub.add_parser("sufficiency", help="summability report for a transform")
    s.add_argument("--input", required=True)
    s.add_argument("--kind", required=True, choices=_hilbert.KINDS)
    s.add_argument("--windows", required=True, help="increasing window sizes, e.g. 64,128,256")
    s.add_argument("--weight", default=None, help="apply k^q before transforming")
    s.add_argument("--algorithm", default="fast", choices=_hilbert.ALGORITHMS)
    s.add_argument("--output", required=True)

    u = sub.add_parser("su2", help="SU(2) central-function diagnostics")
    u.add_argument("--op", required=True, choices=["q1", "q2", "sufficiency", "table", "character"])
    u.add_argument("--input", required=True)
    u.add_argument("--lmax", default=None, help="largest highest weight (half-integers allowed)")
    u.add_argument("--l", dest="level", default=None, help="highest weight for --op character")
    u.add_argument("--mode", default="paper", choices=_weyl.MODES)
    u.add_argument("--convention", default="nonnegative", choices=_weyl.CONVENTIONS)
    u.add_argument("--output", default=None)

    return p


def parse_args(argv: list[str]) -> CliInvocation:
    """Parse and validate argv into an invocation (raises UsageError)."""
    argv = list(argv)
    # argparse takes "-4:4" for a flag: read "--range -4:4" as "--range=-4:4"
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--range", "--box") and re.match(r"-\d", argv[i + 1]):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        raise UsageError(f"argument parsing failed (status {exc.code})") from exc
    return CliInvocation(ns.subcommand, vars(ns))


def _load(path: str):
    try:
        return load_sequence(path)
    except OSError as exc:  # unreadable or missing; malformed is a ValueError
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError while writing ``path`` into one RuntimeError naming
    ``path`` (not the temp file the atomic writer uses).  A result the
    writer refuses as non-finite is a computation error too, and so is
    a number :func:`_floats` refuses."""
    try:
        yield
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    except FloatingPointError as exc:
        raise RuntimeError(f"{path}: {exc}") from exc


def _say(line: str) -> None:
    """Print ``line`` to standard output now; a closed one is a RuntimeError."""
    with _writing("standard output"):
        try:
            print(line, flush=True)
        except OSError:  # the line is still buffered and would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _save(a, path: str) -> None:
    with _writing(path):
        save_sequence(a, path)


def _floats(x, nan: bool = False) -> list[str]:
    """Each value at 17 significant digits, after one check of the whole column:
    a FloatingPointError for an infinity, or for a NaN unless ``nan``."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x) | (nan & np.isnan(x))).all():
        raise FloatingPointError("values must be finite, found NaN or infinity")
    return list(map("%.17g".__mod__, x.tolist()))


def _table_levels(table: _weyl.CentralCoeffTable):
    """The table's CSV lines level by level, joined from its distinct values
    (g on -2lmax..2lmax, or one c_l per level) formatted once."""
    levels, tail = table.entries, f",{table.mode},{table.convention}"
    data, top = levels.data, len(levels) - 1
    values = np.array([*map(",".join, zip(_floats(data.real), _floats(data.imag)))], dtype=object)
    weights = [*map(str, range(-top, top + 1))]
    for two_l in levels:
        head, mus = f"{two_l},{two_l + 1},", weights[top - two_l : top + two_l + 1 : 2]
        rows = map(",".join, zip(mus, values[levels.at(two_l)]))  # mus: -2l, -2l + 2, ..., 2l
        yield head + f"{tail}\n{head}".join(rows) + tail


# each report kind's CSV header and its columns as text (the table's: one cell per level)
_REPORTS = {
    _reexpand.SummabilityReport: ("window,norm,increment", lambda r: (
        map(str, r.windows), _floats(r.norms), _floats(r.increments))),
    _weyl.Q2Diagnostic: ("two_l,hilbert_side,plain_side,ratio", lambda r: (map(str, r.two_l),
        _floats(r.hilbert_side), _floats(r.plain_side), _floats(r.ratio, nan=True))),  # h/0 is nan
    list: ("two_l,partial_sum", lambda r: (map(str, range(len(r))), _floats(r))),  # q1 sums
    _weyl.CentralCoeffTable: ("two_l,dim,weight,value_re,value_im,mode,convention",
                              lambda t: (_table_levels(t),)),
}


def emit_report(data, path: str) -> None:
    """Write a report as CSV with a fixed header per data kind.  A NaN or
    infinity, but for the q2 ratio over a zero plain side, is refused with
    a RuntimeError naming ``path``, and nothing is written."""
    if type(data) not in _REPORTS:
        raise TypeError(f"no CSV writer for {type(data).__name__}")
    header, columns = _REPORTS[type(data)]
    with _writing(path), atomic_open(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns(data)))


def _require_1d(a: CoeffND, what: str) -> CoeffND:
    if a.ndim != 1:
        raise UsageError(f"{what} needs a 1-D sequence, input has {a.ndim} axes")
    return a


def _parse_weight(text, d: int) -> WeightExponent:
    if text is None:
        return WeightExponent.zero(d)
    vals = _parse_int_list(text, "--weight")
    if len(vals) != d:
        raise UsageError(f"--weight has {len(vals)} entries, input has {d} axes")
    if any(v < 0 for v in vals):
        raise UsageError("--weight entries must be >= 0")
    return WeightExponent(tuple(vals))


def _weighted(a: CoeffND, q: WeightExponent, text: str) -> CoeffND:
    """k^q a_k for a nonzero ``q``; a UsageError if a product overflows."""
    a = weight_apply(a, q)
    if not np.isfinite(a.values).all():
        raise UsageError(f"--weight {text}: k^q a_k overflows past the largest double")
    return a


def _parse_half_integer(text: str, flag: str) -> Fraction:
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {flag} value {text!r}") from exc
    if (2 * val).denominator != 1 or val < 0:
        raise UsageError(f"{flag} must be a nonnegative half-integer, got {text}")
    return val


def _run_hilbert(opt) -> str:
    a = _require_1d(_load(opt["input"]), f"kind {opt['kind']!r}")
    rng = _parse_range(opt["range"])
    out = getattr(_hilbert, f"dht_{opt['kind']}")(a, rng, opt["algorithm"])
    _save(out, opt["output"])
    return f"kind={opt['kind']} support={len(a.trim())} window={rng[0]}:{rng[1]}"


def _run_reexpand(opt) -> str:
    nd = _load(opt["input"])
    eta = ParityVector.from_string(opt["parity"])
    if len(eta) != nd.ndim:
        raise UsageError(f"--parity has {len(eta)} axes, input has {nd.ndim}")
    q = _parse_weight(opt["weight"], nd.ndim)
    box = _parse_box(opt["box"])
    if len(box) != nd.ndim:
        raise UsageError(f"--box has {len(box)} axes, input has {nd.ndim}")
    spec = _reexpand.ReexpandSpec(eta, q, tuple(box), opt["subtract_mean"], opt["boundary_tol"])
    if not q.is_zero:
        _weighted(nd, q, opt["weight"])  # refuse an overflowing weight before any transform
    res = None if q.is_zero else _reexpand.reexpand_weighted(nd, spec, opt["algorithm"])
    out = _reexpand.reexpand_nd(nd, spec, opt["algorithm"]) if res is None else res.raw
    _save(out, opt["output"])
    extra = "" if res is None else (
        f" sign={res.sign:+.0f} eta_eff={''.join(map(str, res.eta_effective.bits))}")
    return f"parity={opt['parity']} q={'0' if q.is_zero else opt['weight']} box={opt['box']}{extra}"


def _run_sufficiency(opt) -> str:
    a = _require_1d(_load(opt["input"]), "sufficiency")
    windows = _parse_int_list(opt["windows"], "--windows")
    q = _parse_weight(opt["weight"], 1)
    if not q.is_zero:
        a = _weighted(a, q, opt["weight"])
    report = _reexpand.summability_report(a, opt["kind"], windows, opt["algorithm"])
    emit_report(report, opt["output"])
    _say(
        f"verdict={report.verdict_hint} moments=({report.moment_sum:.6g}, "
        f"{report.moment_sum_alternating:.6g}) log_weighted={report.log_weighted:.6g} "
        f"tail_hint={report.tail_hint:.3g}"
    )
    return f"kind={opt['kind']} windows={opt['windows']} verdict={report.verdict_hint}"


def _run_su2(opt) -> str:
    a = _require_1d(_load(opt["input"]), "su2")
    op = opt["op"]
    denom = _weyl.weyl_denom_sq_coeffs(_weyl.RootSystem.su2(), opt["convention"])
    if op in ("q1", "q2", "table") and opt["lmax"] is None:
        raise UsageError(f"--lmax is required for --op {op}")
    if op == "sufficiency":
        value = _weyl.su2_sufficiency(a)
        with _writing("standard output"):
            _say(*_floats([value]))
        return "op=sufficiency"
    if op == "character":
        if opt["level"] is None:
            raise UsageError("--l is required for --op character")
        value = _weyl.character_coeff(a, _parse_half_integer(opt["level"], "--l"))
        with _writing("standard output"):
            _say(" ".join(_floats([value.real, value.imag])))
        return f"op=character l={opt['level']}"
    lmax = _parse_half_integer(opt["lmax"], "--lmax")
    if opt["output"] is None:
        raise UsageError(f"--output is required for --op {op}")
    compute = {
        "q1": _weyl.condition_q1_sum,
        "q2": _weyl.q2_diagnostic,
        "table": _weyl.ext_fourier_table,
    }[op]
    emit_report(compute(a, lmax, denom, opt["mode"]), opt["output"])
    return f"op={op} lmax={opt['lmax']} mode={opt['mode']} convention={opt['convention']}"


_RUNNERS = {
    "hilbert": _run_hilbert,
    "reexpand": _run_reexpand,
    "sufficiency": _run_sufficiency,
    "su2": _run_su2,
}


def run(invocation: CliInvocation) -> int:
    """Dispatch an invocation; returns the process exit status."""
    t0 = time.perf_counter()
    try:
        # every number written is checked, so numpy's own warnings add nothing;
        # the library's warnings print as "warning:" lines, before any error line
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                summary = _RUNNERS[invocation.subcommand](invocation.options)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        _say(f"{invocation.subcommand} {summary} wall={time.perf_counter() - t0:.3f}s")
    except ValueError as exc:  # UsageError included
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        invocation = parse_args(argv)
    except UsageError:
        return 2
    return run(invocation)


if __name__ == "__main__":
    raise SystemExit(main())
