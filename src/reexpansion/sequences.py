"""Finitely supported trigonometric coefficient sequences.

There is one sequence type, :class:`CoeffND`: a dense complex block
with one integer offset per axis, zero outside the block, whose
``support`` is one inclusive (lo, hi) window per axis.  A sequence over
the integers is the case d = 1, built by ``Coeff1D(offset, values)``;
:func:`load_sequence` always returns a ``CoeffND``.  On top of the
data model this module provides the weighting map ``a_k -> k^q a_k``,
the log-weighted sufficiency sums, direct evaluation of the associated
sine/cosine series, boundary (face) vanishing diagnostics, and what
the quadrature oracles share: the composite Gauss-Legendre grid and
phase tables e^{i k t} built by rotation over chunks of its nodes.

Values are always complex double precision; indices are plain Python
ints.  Instances are treated as immutable after construction and are
safe to share between threads.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import pairtext

__all__ = [
    "Coeff1D",
    "CoeffND",
    "ParityVector",
    "WeightExponent",
    "FaceCheck",
    "BoundaryReport",
    "l1_norm",
    "weight_apply",
    "log_weighted_sum",
    "series_eval",
    "boundary_vanish_check",
    "load_sequence",
    "save_sequence",
]


@dataclass(frozen=True, eq=False)
class CoeffND:
    """A finitely supported d-dimensional coefficient block.

    ``values`` is a dense complex array; entry ``values[i1, ..., id]``
    carries multi-index ``(offsets[0] + i1, ..., offsets[-1] + id)``.
    A sequence over the integers is the case d = 1, built by :class:`Coeff1D`;
    ``offset``, ``indices()`` and ``+`` are defined for it alone.  Two
    sequences are equal when their trims are (same offsets, equal values),
    whichever constructor built them; the type is unhashable.
    """

    offsets: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        offs = tuple(int(o) for o in self.offsets)
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != len(offs):
            raise ValueError(
                f"offsets have length {len(offs)} but values have {arr.ndim} axes"
            )
        if arr.ndim < 1:
            raise ValueError("CoeffND requires at least one axis")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "values", arr)

    @classmethod
    def impulse(cls, index: Sequence[int], value: complex = 1.0) -> "CoeffND":
        return cls(tuple(index), np.full((1,) * len(tuple(index)), value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffND):
            return NotImplemented
        a, b = self.trim(), other.trim()
        return a.offsets == b.offsets and np.array_equal(a.values, b.values)

    # every index reads an entry (0 outside the block), so iteration would not
    # end; numpy defers, so seq == ndarray is False rather than an entrywise loop
    __array_ufunc__ = None

    def __iter__(self):
        raise TypeError("a CoeffND is not iterable; use .values")

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def offset(self) -> int:
        """The offset of a 1-D block; ValueError for d > 1."""
        if len(self.offsets) != 1:
            raise ValueError(f"a {len(self.offsets)}-dimensional block has no single offset")
        return self.offsets[0]

    def __len__(self) -> int:
        """Entries along the first axis: the length of a 1-D sequence."""
        return len(self.values)

    def indices(self) -> np.ndarray:
        """The integer indices of a 1-D block."""
        return self.offset + np.arange(len(self.values))

    def __getitem__(self, index) -> complex:
        if isinstance(index, (int, np.integer)):
            index = (index,)
        if len(index) != self.ndim:
            raise ValueError(f"index has {len(index)} axes, block has {self.ndim}")
        idx = tuple(int(i) - o for i, o in zip(index, self.offsets))
        if all(0 <= i < n for i, n in zip(idx, self.values.shape)):
            return complex(self.values[idx])
        return 0.0 + 0.0j

    def axis_indices(self, axis: int) -> np.ndarray:
        return self.offsets[axis] + np.arange(self.values.shape[axis])

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        """Inclusive index window ``(lo, hi)`` of the stored block, per axis."""
        return tuple(
            (o, o + n - 1) for o, n in zip(self.offsets, self.values.shape)
        )

    def trim(self) -> "CoeffND":
        """Shrink the block to the smallest box containing all nonzeros (itself if it is)."""
        nonzero = self.values != 0
        slices = []
        offs = []
        for ax in range(self.ndim):
            other = tuple(i for i in range(self.ndim) if i != ax)
            nz = np.flatnonzero(nonzero.any(axis=other) if other else nonzero)
            if nz.size == 0:  # all zero: the empty block
                return CoeffND((0,) * self.ndim, np.zeros((0,) * self.ndim))
            slices.append(slice(int(nz[0]), int(nz[-1]) + 1))
            offs.append(self.offsets[ax] + int(nz[0]))
        if all(s.stop - s.start == n for s, n in zip(slices, self.values.shape)):
            return self
        return CoeffND(tuple(offs), self.values[tuple(slices)].copy())

    def scaled(self, c: complex) -> "CoeffND":
        return CoeffND(self.offsets, c * self.values)

    def __add__(self, other: "CoeffND") -> "CoeffND":
        """Entrywise sum of two 1-D sequences over the union of their windows."""
        if len(self) == 0:
            return other
        if len(other) == 0:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.support[0][1], other.support[0][1])
        vals = window_axis(self.values, self.offset, 0, lo, hi)
        vals += window_axis(other.values, other.offset, 0, lo, hi)
        return CoeffND((lo,), vals)


class Coeff1D(CoeffND):
    """The 1-D constructor of :class:`CoeffND`: ``Coeff1D(offset, values)``
    holds ``values[i]`` (flattened) at integer index ``offset + i``."""

    def __init__(self, offset: int, values):
        super().__init__((offset,), np.asarray(values, dtype=np.complex128).reshape(-1))

    @classmethod
    def from_dict(cls, entries: Mapping[int, complex]) -> "Coeff1D":
        """Build a sequence from an ``{index: value}`` mapping."""
        if not entries:
            return cls(0, np.zeros(0))
        lo, hi = min(entries), max(entries)
        vals = np.zeros(hi - lo + 1, dtype=np.complex128)
        for k, v in entries.items():
            vals[k - lo] = v
        return cls(lo, vals)

    @classmethod
    def impulse(cls, k: int, value: complex = 1.0) -> "Coeff1D":
        """The unit impulse e_k (single entry ``value`` at index ``k``)."""
        return cls(k, np.array([value]))


def window_axis(values: np.ndarray, offset: int, axis: int, lo: int, hi: int) -> np.ndarray:
    """The block ``values``, whose ``axis`` starts at index ``offset``,
    restricted or zero-padded along that axis to the inclusive window
    [lo, hi]; a new complex array."""
    shape = list(values.shape)
    shape[axis] = hi - lo + 1
    out = np.zeros(shape, dtype=np.complex128)
    c_lo, c_hi = max(lo, offset), min(hi + 1, offset + values.shape[axis])
    if c_lo < c_hi:
        dst, src = out.swapaxes(0, axis), values.swapaxes(0, axis)
        dst[c_lo - lo : c_hi - lo] = src[c_lo - offset : c_hi - offset]
    return out


@dataclass(frozen=True)
class ParityVector:
    """Per-axis parity selector: 1 = cosine, 0 = sine."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"parity bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, s: str) -> "ParityVector":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"parity string must be nonempty over {{0,1}}: {s!r}")
        return cls(tuple(int(c) for c in s))

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, j: int) -> int:
        return self.bits[j]


@dataclass(frozen=True)
class WeightExponent:
    """Per-axis nonnegative integer weight exponents q_j (k^q = prod k_j^q_j)."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(q) for q in self.exponents)
        if any(q < 0 for q in exps):
            raise ValueError(f"weight exponents must be >= 0, got {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def zero(cls, d: int) -> "WeightExponent":
        return cls((0,) * d)

    def __len__(self) -> int:
        return len(self.exponents)

    def __getitem__(self, j: int) -> int:
        return self.exponents[j]

    @property
    def is_zero(self) -> bool:
        return all(q == 0 for q in self.exponents)


def _check_dim(d: int, obj, name: str) -> None:
    if len(obj) != d:
        raise ValueError(f"{name} has length {len(obj)}, expected {d}")


def _require_finite(a: CoeffND) -> CoeffND:
    """``a`` itself; ValueError if a coefficient is NaN or infinite."""
    if not np.isfinite(a.values).all():
        raise ValueError("coefficients must be finite, found NaN or infinity")
    return a


def l1_norm(a: CoeffND) -> float:
    """Sum of absolute values over the support; 0 iff a is zero."""
    return float(np.sum(np.abs(a.values)))


def _axis_weights(nd: CoeffND, q: WeightExponent) -> list[np.ndarray]:
    """Per-axis vectors k_j^{q_j} as floats (0^0 = 1, 0^q = 0 for q > 0)."""
    out = []
    for ax in range(nd.ndim):
        k = nd.axis_indices(ax).astype(float)
        out.append(k ** q[ax] if q[ax] > 0 else np.ones_like(k))
    return out


def _on_axis(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """The vector ``v`` as an ``ndim``-axis array that broadcasts along ``axis``."""
    return v.reshape((1,) * axis + (-1,) + (1,) * (ndim - axis - 1))


def _negative_entries(a: CoeffND, axis: int) -> bool:
    """Whether ``a`` has a nonzero entry at a negative index along ``axis``."""
    return bool(np.any(np.moveaxis(a.values, axis, 0)[: max(-a.offsets[axis], 0)]))


def weight_apply(a: CoeffND, q: WeightExponent) -> CoeffND:
    """Multiply entrywise by k^q = prod_j k_j^{q_j}.

    Entries at k_j = 0 map to 0 when q_j > 0.  Entries at negative
    indices are rejected on any axis with q_j > 0 (the weighted theory
    lives on Z_+^d).
    """
    _check_dim(a.ndim, q, "weight exponent")
    if q.is_zero:
        return a
    for ax in range(a.ndim):
        if q[ax] > 0 and _negative_entries(a, ax):
            raise ValueError(
                f"weight_apply with q[{ax}]={q[ax]} > 0 requires support in k >= 0 on that axis"
            )
    vals = a.values
    for ax, w in enumerate(_axis_weights(a, q)):
        vals = vals * _on_axis(w, ax, a.ndim)
    return CoeffND(a.offsets, vals)


def log_weighted_sum(a: CoeffND, q: WeightExponent) -> float:
    """The sufficiency sum  sum_k k^q |a_k| prod_j ln(k_j + 1).

    Natural logarithm throughout.  Requires support in Z_+^d.
    """
    _check_dim(a.ndim, q, "weight exponent")
    if a.values.size == 0:
        return 0.0
    if any(_negative_entries(a, ax) for ax in range(a.ndim)):
        raise ValueError("log_weighted_sum requires support in k >= 0")
    acc = np.abs(a.values)
    for ax, w in enumerate(_axis_weights(a, q)):
        k = a.axis_indices(ax).astype(float)
        w = np.where(k >= 0, w * np.log(np.maximum(k, 0) + 1.0), 0.0)  # k^q may overflow at k < 0
        acc = acc * _on_axis(w, ax, a.ndim)
    return float(np.sum(acc))


GL_NODES = 16  # Gauss-Legendre nodes per quadrature panel


def _panels(top: int) -> int:
    """Panels for an integrand of top frequency ``top`` over [0, pi] or
    [-pi, pi]: top + 1, so each panel spans less than 2 pi of phase.  On
    [a, b] at phase span P per panel the GL_NODES-point remainder is at
    most (b - a) P^32 (16!)^4 / (33 (32!)^3), about (b - a) 1e-29 at 2 pi."""
    return top + 1


@functools.cache
def _unit_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """leggauss(GL_NODES), solved once per process on first use; read-only."""
    x, w = leggauss(GL_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_grid(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi], GL_NODES per panel."""
    x, w = _unit_gauss_legendre()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _refined(integrate, tol: float):
    """integrate(2), once integrate(1) confirms it within ``tol``.

    ``integrate(r)`` is a quadrature with r times its base panel count;
    a largest absolute gap beyond ``tol``, or not finite, raises
    RuntimeError.
    """
    coarse, fine = integrate(1), integrate(2)
    gap = float(np.max(np.abs(coarse - fine)))
    if not gap <= tol:  # a NaN gap fails too
        raise RuntimeError(
            f"quadrature failed to confirm tolerance {tol:g} "
            f"(refinement moved results by {gap:.3e})"
        )
    return fine


def _node_chunks(nodes: int, rows: int, elems: int):
    """Slices covering range(nodes), each short enough that a rows x chunk
    phase table holds at most ``elems`` entries (one node at least)."""
    step = max(1, elems // max(rows, 1))
    return (slice(s, s + step) for s in range(0, nodes, step))


def _phase_rows(k0: int, rows: int, t: np.ndarray, q: int = 0, out=None) -> np.ndarray:
    """Rows k = k0..k0+rows-1, columns t: e^{i(k t + q pi/2)}, by rotation.

    The first row is one direct ``np.exp``.  Once rows 0..n-1 are filled,
    rows n..2n-1 are those rows times e^{int}, written in place; e^{int}
    is e^{it} squared again at each doubling.  A table thus costs two
    exponentials per node, not one cosine per entry, and only about
    log2(rows) numpy calls, so narrow node chunks stay cheap.  Row r
    stays within (|k0| + r) * 1e-15 of the direct exponential, the order
    of the rounding of k t itself, as with one rotation per row.  With
    ``out`` (complex, at least rows x t.size) the table fills its
    leading block, which is returned.
    """
    out = (np.empty((rows, t.size), np.complex128) if out is None else out)[:rows, : t.size]
    if rows:
        out[0] = np.exp(1j * (k0 * t + q * np.pi / 2.0))
        turn = np.exp(1j * t)
        n = 1
        while n < rows:
            m = min(n, rows - n)
            np.multiply(out[:m], turn, out=out[n : n + m])
            n += m
            if n < rows:
                turn *= turn
    return out


def _basis_matrix(k: np.ndarray, t: np.ndarray, parity: int, q: int) -> np.ndarray:
    """Rows k, columns t: cos(k t + q pi/2) for parity 1, sin(...) else."""
    arg = np.outer(k, t) + q * np.pi / 2.0
    return np.cos(arg) if parity == 1 else np.sin(arg)


def series_eval(
    a: CoeffND,
    eta: ParityVector,
    q: WeightExponent,
    t: Sequence[float],
) -> complex:
    """Evaluate the (q-times differentiated) trigonometric series at a point.

    Computes  sum_k k^q a_k prod_{eta_j=1} cos(k_j t_j + q_j pi/2)
                           prod_{eta_j=0} sin(k_j t_j + q_j pi/2)
    as an exact finite sum over the support.  Real-valued for real
    coefficients; the complex sum is returned as-is otherwise.
    """
    d = a.ndim
    _check_dim(d, eta, "parity vector")
    _check_dim(d, q, "weight exponent")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (d,):
        raise ValueError(f"evaluation point has shape {t.shape}, expected ({d},)")
    acc = a.values
    for ax, w in enumerate(_axis_weights(a, q)):
        basis = _basis_matrix(a.axis_indices(ax).astype(float), t[ax : ax + 1], eta[ax], q[ax])
        acc = np.tensordot(acc, w[:, None] * basis, axes=([0], [0]))
    return complex(acc.sum())


@dataclass(frozen=True)
class FaceCheck:
    """One boundary-vanishing check: derivative order, face, bound on |D^s f|."""

    order: tuple[int, ...]
    axis: int
    face: float
    max_abs: float
    passed: bool


@dataclass(frozen=True)
class BoundaryReport:
    """Face-vanishing diagnostics for the weighted re-expansion hypotheses."""

    checks: tuple[FaceCheck, ...]
    moment_sums: tuple[tuple[complex, complex], ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fold(b: np.ndarray, offset: int, axis: int, parity: int) -> np.ndarray:
    """A cosine (parity 1) or sine series along ``axis``, first index ``offset``,
    over k >= 0: -k is added onto k for cosine and subtracted for sine (sin 0t
    drops out), on the block's own |k| range, so no longer than the block."""
    lo, hi = offset, offset + b.shape[axis] - 1
    bottom = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    top = max(-lo, hi)
    out = window_axis(b, lo, axis, bottom, top)
    out += (1 if parity else -1) * window_axis(np.flip(b, axis), -hi, axis, bottom, top)
    if parity and bottom == 0:  # cos 0t was added twice; exact in binary
        np.moveaxis(out, axis, 0)[0] *= 0.5
    return out


def boundary_vanish_check(
    a: CoeffND,
    eta: ParityVector,
    q: WeightExponent,
    tol: float,
) -> BoundaryReport:
    """Check D^s f on the faces t_j in {0, pi} for every axis j and order s_j < q_j.

    Exact, from the coefficients: on a face the j-th factor is 0, +-1 or
    +-(-1)^{k_j}, so the restriction is one contraction of ``values`` along
    j, with -k folded onto k on the other axes.  ``max_abs`` is its l1 norm,
    a bound on |D^s f| over the face that is 0 iff the restriction vanishes.
    Tangential derivatives vanish with it, so ``order`` is s_j at axis j and
    0 elsewhere.  The report also carries, per axis j, the moment sums
    sum_k a_k  and  sum_k (-1)^{k_j} a_k  (f(0) = f(pi) = 0 when d = 1).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_finite(a)
    d = a.ndim
    _check_dim(d, eta, "parity vector")
    _check_dim(d, q, "weight exponent")

    checks, moments = [], []
    for ax in range(d):
        folded = a.values
        for other in range(d):
            if other != ax:
                folded = _fold(folded, a.offsets[other], other, eta[other])
        k = a.axis_indices(ax)
        signs = (-1.0) ** (k % 2)
        for s in range(q[ax]):
            u = (1, 0, -1, 0)[(s + eta[ax] - 1) % 4]  # cos or sin of s pi/2
            order = tuple(s if i == ax else 0 for i in range(d))
            for face, at_face in ((0.0, 1.0), (math.pi, signs)):
                restricted = np.tensordot(folded, u * k.astype(float) ** s * at_face, ([ax], [0]))
                bound = float(np.sum(np.abs(restricted)))
                checks.append(FaceCheck(order, ax, face, bound, bound <= tol))
        moments.append((complex(np.sum(a.values)), complex(np.sum(a.values * _on_axis(signs, ax, d)))))
    return BoundaryReport(tuple(checks), tuple(moments), float(tol))


# ---------------------------------------------------------------------------
# sequence file format
#
# One compact JSON line {"dims": [...], "offsets": [...], "values":
# [[re, im], ...]} with values flattened in row-major order; 1-D
# sequences use dims of length 1.  The bytes equal json.dumps(doc) plus
# a newline.  Loading accepts any JSON layout of the document and parses
# the saved one without per-pair lists.  From _TWO_PROCESSES pairs on, a
# child running pairtext.py does the second half of the values; if it
# fails, this process does them all, so the bytes and the rules hold.

_TWO_PROCESSES = 2 * pairtext.CHUNK  # value pairs; the measured break-even is near CHUNK
_SAVED_LAYOUT = re.compile(  # values from "[[" to "]]", or "[]"
    r'\{"dims": (\[[^\]]*\]), "offsets": (\[[^\]]*\]), "values": (\[(?:\[.*\])?\])\}[ \t\n\r]*\Z', re.S)
_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")


@contextlib.contextmanager
def atomic_open(path: str):
    """Open ``path`` for text writing via a temp file renamed on success."""
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _child(mode: str, data, tmpdir: str | None = None):
    """Runs ``pairtext.py mode`` on ``data`` (unless empty) in a child, through
    two anonymous temp files.  Yields a function that waits for it and returns
    its output file, or None if it could not start or failed."""
    with contextlib.ExitStack() as stack:
        proc = None
        try:
            if len(data):
                import subprocess  # here, so that importing the library does not pay for it
                src = stack.enter_context(tempfile.TemporaryFile(dir=tmpdir))
                out = stack.enter_context(tempfile.TemporaryFile(dir=tmpdir))
                src.write(data)
                src.seek(0)
                proc = stack.enter_context(subprocess.Popen(
                    [sys.executable, "-I", "-S", pairtext.__file__, mode],
                    stdin=src, stdout=out, stderr=subprocess.DEVNULL))
                stack.callback(proc.kill)  # before Popen's wait; a no-op once waited for
        except OSError:  # no temp space or no interpreter
            pass

        def output():
            if proc is None or proc.wait():
                return None
            out.seek(0)
            return out

        yield output


def save_sequence(a: CoeffND, path: str) -> None:
    """Write a sequence to ``path`` in the JSON interchange format.

    The write is atomic (temp file, then rename) and encodes values a
    chunk at a time, so memory does not grow with the sequence length; a
    child process encodes a large sequence's second half into a temp file
    beside ``path``.  Raises ValueError naming ``path``, before writing, if
    a value is not finite, since ``load_sequence`` refuses such files.
    """
    pairs = np.ascontiguousarray(a.values).view(np.float64).reshape(-1, 2)
    if not np.isfinite(pairs).all():
        raise ValueError(f"{path}: values must be finite, found NaN or infinity")
    head = json.dumps({"dims": list(a.dims), "offsets": list(a.offsets), "values": []})
    cut = len(pairs) // 2 if len(pairs) >= _TWO_PROCESSES else len(pairs)
    tmpdir = os.path.dirname(os.path.abspath(path))
    with atomic_open(path) as fh, _child("save", pairs[cut:], tmpdir) as theirs:
        fh.write(head[:-2])  # up to and including the values' "["
        pairtext.write_pairs(fh.write, pairs[:cut].reshape(-1))
        if (rest := theirs()) is None:
            pairtext.write_pairs(fh.write, pairs[cut:].reshape(-1), ", ")
        else:  # the child's text begins with its ", "
            fh.flush()
            shutil.copyfileobj(rest, fh.buffer)
        fh.write("]}\n")


def _saved_layout(text: str):
    """dims, offsets, pair count and (count, 2) values of a text in the layout
    ``save_sequence`` writes; ValueError for any other.  Deleting the number
    characters must leave exactly that layout's brackets and separators, so
    deleting the brackets joins no two tokens, and JSON judges each one.
    A child parses the pairs after a "], [" near the middle of a large text."""
    match = _SAVED_LAYOUT.match(text)
    values = match[3] if match else ""  # fails the check below
    n = values.count("], [") + (values != "[]")  # the pair count, if the layout holds
    cut = values.find("], [", len(values) // 2) if n >= _TWO_PROCESSES else -1
    flat = None
    with _child("load", values[cut + 3 :].encode() if cut > 0 else b"") as theirs:
        skeleton = "[" + ", ".join(["[, ]"] * n) + "]"
        if not (match and values.translate(_NUMBER_CHARS) == skeleton):
            raise ValueError("not the saved layout")
        with contextlib.suppress(ValueError):  # a token that is not a JSON float
            mine = np.asarray(pairtext.parse_floats(values[: cut + 1]))  # "" without a child
            if (rest := theirs()) is not None:
                flat = np.concatenate([mine, np.frombuffer(rest.read())])
    if flat is None:
        flat = np.asarray(json.loads("[%s]" % values.translate(str.maketrans("", "", "[]"))))
    return json.loads(match[1]), json.loads(match[2]), n, flat.reshape(-1, 2)


def load_sequence(path: str) -> CoeffND:
    """Read a sequence file as a :class:`CoeffND` with one axis per entry of dims.

    A child process parses a large saved file's second half.  Raises
    ValueError naming ``path`` if the file is not JSON, is not a sequence document
    (dims and offsets are JSON integers), or holds non-numeric or non-finite values.
    """
    with open(path) as fh:
        try:
            text = fh.read()
            try:
                dims, offsets, found, arr = _saved_layout(text)
            except ValueError:  # another layout, or not a sequence: JSON judges it
                doc = json.loads(text)
                dims, offsets, found = list(doc["dims"]), list(doc["offsets"]), len(doc["values"])
                arr = np.asarray(doc["values"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed sequence file {path}: {exc}") from exc
    return _validated(path, dims, offsets, found, arr)


def _validated(path: str, dims: list, offsets: list, found: int, arr: np.ndarray) -> CoeffND:
    """The checks every parser ends in, on ``found`` pairs parsed as ``arr``."""
    if any(type(n) is not int for n in dims + offsets):  # bool is not int here
        raise ValueError(f"{path}: dims and offsets must be JSON integers")
    if not dims or len(dims) != len(offsets) or min(dims) < 0:
        raise ValueError(f"{path}: dims must be one nonnegative size per offset")
    count = math.prod(dims)
    if found != count:
        raise ValueError(f"{path}: expected {count} values, found {found}")
    if arr.dtype.kind not in "iuf" or (count and arr.shape != (count, 2)):
        raise ValueError(f"{path}: values must be [re, im] pairs of numbers")
    arr = arr.astype(np.float64, copy=False).reshape(count, 2)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: values must be finite, found NaN or infinity")
    return CoeffND(tuple(offsets), arr.view(np.complex128).reshape(dims))
