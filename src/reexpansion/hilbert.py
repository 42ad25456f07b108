"""Discrete Hilbert transform kernels.

Five one-dimensional kernels act on finitely supported sequences:

* ``full``         h a(n)   = sum_{k != n} a_k / (n - k),              n in Z
* ``even``         h^e a(n) = sum_{k>=1, k!=n} 2n a_k/(n^2-k^2) + a_n/(2n),   n >= 1
* ``odd``          h^o a(n) = sum_{k>=1, k!=n} 2k a_k/(n^2-k^2) - a_n/(2n),   n >= 0
* ``even_halved``  h^e_- a(n) = sum_{k-n odd} a_k (1/(n+k) + 1/(n-k)),        n >= 1
* ``odd_halved``   h^o_- a(n) = sum_{k-n odd} a_k (1/(n+k) + 1/(k-n)),        n >= 0

For the restricted kinds an index-0 entry is treated as zero and
nonzero entries at negative indices are rejected.  The n = 0 self-term
of the odd kernel is taken as zero (the a_0/0 convention).

Every kernel has two evaluators.  The ``naive`` one is the reference:
a quadratic, FFT-free mat-vec with the kernel matrix built from the
definitions as strided views of two reciprocal tables, a Toeplitz view
of 1/(n-k) (lag 0 set to 0, and every even lag for the halved kinds)
and a Hankel view of 1/(n+k).  ``full`` is the Toeplitz view alone; the
other kinds are the products

    2n (1/(n-k)) (1/(n+k))  (even kinds),   +-2k (1/(n-k)) (1/(n+k))  (odd),

with the self-terms +-a_n/(2n) added apart.  A product has no
subtraction, so each entry is correct to a few roundings even for
support far above the window.  For one sequence (one real row, or two
for complex input) einsum contracts the views without forming the
matrix, in O(window + support) memory; larger batches, as in the n-D
transforms, form it in chunks of at most ``_NAIVE_CHUNK_ELEMS`` entries
and multiply all rows at once.

The ``fast`` evaluator writes every kernel through the reciprocal-lag
sum R a(n) = sum_{k != n} a_k/(n-k) of the support and of its
reflection b_{-k} = a_k, R b(n) = sum_k a_k/(n+k):

    h = R a,   h^e = R a + R b,   h^o = R a - R b,
    h^e_- = R a + R b,   h^o_- = R b - R a   (odd lags k - n only),

as 2n/(n^2-k^2) = 1/(n-k) + 1/(n+k) and 2k/(n^2-k^2) = 1/(n-k) - 1/(n+k);
the k = n term of R b is the a_n/(2n) self-term.  R is a Toeplitz
product, evaluated by a zero-padded real FFT, for the halved kinds once
per output parity on the half-length sublattice at odd lag.

Transforms of finitely supported sequences generally have infinite
support, so the caller always supplies an explicit inclusive output
window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft

from .sequences import Coeff1D, CoeffND, ParityVector

__all__ = [
    "KINDS",
    "TransformRequest",
    "transform",
    "dht_full",
    "dht_even",
    "dht_odd",
    "dht_even_halved",
    "dht_odd_halved",
    "dht_mixed",
    "dht_tensor",
]

KINDS = ("full", "even", "odd", "even_halved", "odd_halved")

ALGORITHMS = ("naive", "fast")

# lowest admissible output index per kind
_KIND_FLOOR = {"full": None, "even": 1, "odd": 0, "even_halved": 1, "odd_halved": 0}

_NAIVE_VIEW_ROWS = 2  # naive batches up to this many rows never form the matrix
_NAIVE_CHUNK_ELEMS = 4_000_000  # cap on a formed kernel-matrix chunk (entries)

# halved kind along an axis with parity bit eta_j
_HALVED = {1: "even_halved", 0: "odd_halved"}


@dataclass(frozen=True)
class TransformRequest:
    """A one-dimensional transform request: kind, output window, algorithm."""

    kind: str
    output_range: tuple[int, int]
    algorithm: str = "fast"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        lo, hi = self.output_range
        _check_range(self.kind, int(lo), int(hi))
        object.__setattr__(self, "output_range", (int(lo), int(hi)))


def _check_range(kind: str, lo: int, hi: int) -> None:
    if hi < lo:
        raise ValueError(f"empty output range [{lo}, {hi}]")
    floor = _KIND_FLOOR[kind]
    if floor is not None and lo < floor:
        raise ValueError(f"kind {kind!r} requires output indices >= {floor}, got {lo}")


# ---------------------------------------------------------------------------
# evaluators; batch shape (rows, support), output shape (rows, window)


def _naive(kind: str, batch: np.ndarray, offset: int, lo: int, hi: int) -> np.ndarray:
    """Quadratic mat-vec with the kernel matrix from the definitions above:
    a Toeplitz view of 1/(n - k) and, but for ``full``, a Hankel view of
    1/(n + k).  Up to ``_NAIVE_VIEW_ROWS`` rows, einsum's own loop contracts
    the views and the matrix is never formed; larger batches form it in
    chunks of at most ``_NAIVE_CHUNK_ELEMS`` entries, once for all rows.
    The factor 2n and the self-terms act on the output and +-2k on the
    input; real and imaginary rows go through one real product."""
    rows = batch.shape[0]
    x = batch.real
    if np.any(batch.imag):  # real input skips the all-zero imaginary rows
        x = np.concatenate([x, batch.imag])
    out = np.zeros((len(x), hi - lo + 1))
    if x.shape[-1] == 0:
        return out
    k = offset + np.arange(x.shape[-1])
    lag = np.arange(lo - k[-1], hi - k[0] + 1)
    with np.errstate(divide="ignore"):
        recip = 1.0 / lag
        hank = 1.0 / np.arange(lo + k[0], hi + k[-1] + 1)
    recip[lag == 0] = 0.0
    if kind.endswith("halved"):
        recip[lag % 2 == 0] = 0.0
    hank[np.isinf(hank)] = 0.0  # n = k = 0: an odd kind's entry there is 0
    toeplitz = sliding_window_view(recip, len(k))[:, ::-1]
    hankel = sliding_window_view(hank, len(k))
    col = {"odd": 2.0 * k, "odd_halved": -2.0 * k}.get(kind, 1.0)  # 2n goes on out
    if len(x) <= _NAIVE_VIEW_ROWS:
        if kind == "full":
            np.einsum("nk,bk->bn", toeplitz, x, out=out, optimize=False)
        else:
            np.einsum("nk,nk,bk->bn", toeplitz, hankel, col * x, out=out, optimize=False)
    else:
        step = max(1, _NAIVE_CHUNK_ELEMS // len(k))
        buf = np.empty((min(step, hi - lo + 1), len(k)))
        for c0 in range(0, hi - lo + 1, step):
            part = slice(c0, c0 + step)
            kern = buf[: len(toeplitz[part])]
            if kind == "full":
                kern[:] = toeplitz[part]
            else:
                np.multiply(toeplitz[part], hankel[part], out=kern)
                kern *= col
            out[:, part] = x @ kern.T
    if kind.startswith("even"):
        out *= 2.0 * np.arange(lo, hi + 1)
    if kind in ("even", "odd"):  # self-terms; the n = 0 one of ``odd`` stays 0
        d = np.arange(max(lo, k[0], 1), min(hi, k[-1]) + 1)
        out[:, d - lo] += (0.5 if kind == "even" else -0.5) * x[:, d - offset] / d
    return out[:rows] + 1j * out[rows:] if len(x) > rows else out


def _recip(batch: np.ndarray, offset: int, lo: int, hi: int, step: int) -> np.ndarray:
    """c(n) = sum_j a_j/(n - k_j), k_j = offset + step*j, n = lo, lo + step, ... <= hi,
    lag 0 dropped, for real rows ``batch``: one zero-padded real FFT product."""
    na = batch.shape[-1]
    nout = (hi - lo) // step + 1
    with np.errstate(divide="ignore"):
        kern = 1.0 / ((lo - offset) + step * np.arange(1 - na, nout, dtype=float))
    kern[np.isinf(kern)] = 0.0
    size = next_fast_len(na + nout - 1, real=True)
    out = irfft(rfft(batch, size, axis=-1) * rfft(kern, size), size, axis=-1)
    return out[..., na - 1 : na - 1 + nout]


# kind -> (sign of R a, sign of R b, lattice step), as in the module docstring
_SPLIT = {
    "full": (1.0, 0.0, 1),
    "even": (1.0, 1.0, 1),
    "odd": (1.0, -1.0, 1),
    "even_halved": (1.0, 1.0, 2),
    "odd_halved": (-1.0, 1.0, 2),
}


def _fast(kind: str, batch: np.ndarray, offset: int, lo: int, hi: int) -> np.ndarray:
    """R a and R b per output class n0 (one class, or two parities at step 2)."""
    direct, reflected, step = _SPLIT[kind]
    rows = batch.shape[0]
    x = batch.real
    if np.any(batch.imag):  # real input skips the all-zero imaginary rows
        x = np.concatenate([x, batch.imag])
    # support above the window: R a and R b of the even kinds nearly cancel,
    # 1/(n-k) + 1/(n+k) = (n/k) (1/(n-k) - 1/(n+k)) adds them instead
    far = kind in ("even", "even_halved") and offset > hi
    if far:
        x, reflected = x / (offset + np.arange(x.shape[-1])), -reflected
    out = np.zeros((len(x), hi - lo + 1))
    for n0 in range(lo, min(lo + step, hi + 1)):
        k0 = offset + (n0 + step - 1 - offset) % step  # first k at a kept lag
        sub = x[:, k0 - offset :: step]
        if sub.shape[-1] == 0:
            continue
        res = direct * _recip(sub, k0, n0, hi, step)
        if reflected:
            k1 = k0 + step * (sub.shape[-1] - 1)
            res += reflected * _recip(sub[:, ::-1], -k1, n0, hi, step)
        out[:, n0 - lo :: step] = res
    if far:
        out *= np.arange(lo, hi + 1)
    return out[:rows] + 1j * out[rows:] if len(x) > rows else out


_BATCH_EVAL = {"naive": _naive, "fast": _fast}


def _prepare_restricted(a: Coeff1D, kind: str) -> Coeff1D:
    """Trim, reject negative support, and apply the a_0 = 0 convention."""
    a = a.trim()
    if len(a) == 0:
        return a
    lo, _ = a.support
    if lo < 0:
        raise ValueError(
            f"kind {kind!r} takes one-sided input (nonzero entry at index {lo})"
        )
    if lo == 0:
        a = Coeff1D(1, a.values[1:]).trim()
    return a


def _run_1d(a: Coeff1D, kind: str, lo: int, hi: int, algorithm: str) -> Coeff1D:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _check_range(kind, lo, hi)
    a = a.trim() if kind == "full" else _prepare_restricted(a, kind)
    out = _BATCH_EVAL[algorithm](kind, a.values[None, :], a.offset, lo, hi)
    return Coeff1D(lo, out[0])


def dht_full(a: Coeff1D, out_range: tuple[int, int], algorithm: str = "fast") -> Coeff1D:
    """Full discrete Hilbert transform over an inclusive output window."""
    lo, hi = int(out_range[0]), int(out_range[1])
    return _run_1d(a, "full", lo, hi, algorithm)


def dht_even(a: Coeff1D, out_range: tuple[int, int], algorithm: str = "fast") -> Coeff1D:
    """Even-sequence kernel; output indices must satisfy n >= 1."""
    lo, hi = int(out_range[0]), int(out_range[1])
    return _run_1d(a, "even", lo, hi, algorithm)


def dht_odd(a: Coeff1D, out_range: tuple[int, int], algorithm: str = "fast") -> Coeff1D:
    """Odd-sequence kernel; output indices must satisfy n >= 0."""
    lo, hi = int(out_range[0]), int(out_range[1])
    return _run_1d(a, "odd", lo, hi, algorithm)


def dht_even_halved(
    a: Coeff1D, out_range: tuple[int, int], algorithm: str = "fast"
) -> Coeff1D:
    """Parity-restricted (k - n odd) even kernel, without the 2/pi prefactor."""
    lo, hi = int(out_range[0]), int(out_range[1])
    return _run_1d(a, "even_halved", lo, hi, algorithm)


def dht_odd_halved(
    a: Coeff1D, out_range: tuple[int, int], algorithm: str = "fast"
) -> Coeff1D:
    """Parity-restricted (k - n odd) odd kernel, without the 2/pi prefactor."""
    lo, hi = int(out_range[0]), int(out_range[1])
    return _run_1d(a, "odd_halved", lo, hi, algorithm)


def transform(a: Coeff1D, request: TransformRequest) -> Coeff1D:
    """Dispatch a TransformRequest to the matching kernel."""
    lo, hi = request.output_range
    return _run_1d(a, request.kind, lo, hi, request.algorithm)


# ---------------------------------------------------------------------------
# multidimensional transforms


def _apply_axis(nd: CoeffND, axis: int, batch_fn, lo: int, hi: int) -> CoeffND:
    arr = np.moveaxis(nd.values, axis, -1)
    lead = arr.shape[:-1]
    batch = arr.reshape(int(np.prod(lead, dtype=np.int64)), arr.shape[-1])
    out = batch_fn(batch, nd.offsets[axis], lo, hi)
    out = np.moveaxis(out.reshape(lead + (hi - lo + 1,)), -1, axis)
    offsets = list(nd.offsets)
    offsets[axis] = lo
    return CoeffND(tuple(offsets), out)


def _normalize_box(box, d: int) -> list[tuple[int, int] | None]:
    box = list(box)
    if len(box) != d:
        raise ValueError(f"box has {len(box)} axes, expected {d}")
    out = []
    for entry in box:
        if entry is None:
            out.append(None)
        else:
            lo, hi = int(entry[0]), int(entry[1])
            if hi < lo:
                raise ValueError(f"empty box axis [{lo}, {hi}]")
            out.append((lo, hi))
    return out


def _prepare_nd_positive(a: CoeffND, keep_zero: bool = False) -> CoeffND:
    """Trim, require support in Z_+^d, drop index-0 slices unless kept."""
    a = a.trim()
    if a.values.size == 0:
        return a
    for ax, (lo, _) in enumerate(a.support):
        if lo < 0:
            raise ValueError(
                f"support must lie in k >= 0 (axis {ax} starts at {lo})"
            )
    if keep_zero:
        return a
    slices = []
    offsets = []
    for ax, (lo, _) in enumerate(a.support):
        drop = 1 if lo == 0 else 0
        slices.append(slice(drop, None))
        offsets.append(a.offsets[ax] + drop)
    return CoeffND(tuple(offsets), a.values[tuple(slices)]).trim()


def _mixed_fast(nd: CoeffND, eta: ParityVector, box) -> CoeffND:
    out = nd
    for ax in range(nd.ndim):
        out = _apply_axis(out, ax, functools.partial(_fast, _HALVED[eta[ax]]), *box[ax])
    return out


def _mixed_naive(nd: CoeffND, eta: ParityVector, box) -> CoeffND:
    """Reference for the axis sweep: one kernel matrix per axis, tensordot."""
    out = nd.values
    for ax, (lo, hi) in enumerate(box):
        size = nd.values.shape[ax]
        kern = _naive(_HALVED[eta[ax]], np.eye(size), nd.offsets[ax], lo, hi)
        out = np.tensordot(out, kern, axes=([0], [0]))  # window axis goes last
    return CoeffND(tuple(lo for lo, _ in box), out)


def dht_mixed(
    a: CoeffND,
    eta: ParityVector,
    box,
    algorithm: str = "fast",
) -> CoeffND:
    """Mixed halved transform: even-halved along axes with eta_j = 1,
    odd-halved along axes with eta_j = 0, with the joint parity
    restriction (all k_j - m_j odd).

    ``box`` is a sequence of inclusive (lo, hi) windows, one per axis;
    axes with eta_j = 1 require lo >= 1, axes with eta_j = 0 require
    lo >= 0.
    """
    return _mixed_impl(a, eta, box, algorithm, keep_zero=False)


def _mixed_impl(a, eta, box, algorithm, keep_zero):
    if len(eta) != a.ndim:
        raise ValueError(f"parity vector has {len(eta)} axes, expected {a.ndim}")
    box = _normalize_box(box, a.ndim)
    for ax, entry in enumerate(box):
        if entry is None:
            raise ValueError("mixed transform requires an explicit window per axis")
        floor = 1 if eta[ax] == 1 else 0
        if entry[0] < floor:
            raise ValueError(
                f"axis {ax}: output indices must be >= {floor} for this parity"
            )
    nd = _prepare_nd_positive(a, keep_zero=keep_zero)
    if nd.values.size == 0:
        shape = tuple(hi - lo + 1 for lo, hi in box)
        return CoeffND(tuple(lo for lo, _ in box), np.zeros(shape, np.complex128))
    if algorithm == "fast":
        return _mixed_fast(nd, eta, box)
    if algorithm == "naive":
        return _mixed_naive(nd, eta, box)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def dht_tensor(
    a: CoeffND,
    chi: ParityVector,
    zeta: ParityVector,
    box,
    algorithm: str = "fast",
) -> CoeffND:
    """Tensor composition of full (unhalved) kernels: the even kernel
    along axes with chi_j = 1, the odd kernel along axes with
    zeta_j = 1, identity elsewhere.  chi and zeta must not overlap.

    Box entries may be None on identity axes (keep the input window).
    """
    d = a.ndim
    if len(chi) != d or len(zeta) != d:
        raise ValueError("parity vectors must match the array dimension")
    if any(c == 1 and z == 1 for c, z in zip(chi.bits, zeta.bits)):
        raise ValueError("chi and zeta overlap: an axis cannot take both kernels")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    box = _normalize_box(box, d)
    nd = _prepare_nd_positive(a, keep_zero=True)
    for ax in range(d):
        kind = "even" if chi[ax] == 1 else ("odd" if zeta[ax] == 1 else None)
        if kind is None:
            if box[ax] is not None:
                nd = _window_axis(nd, ax, *box[ax])
            continue
        if box[ax] is None:
            raise ValueError(f"axis {ax} is transformed and needs a window")
        lo, hi = box[ax]
        _check_range(kind, lo, hi)
        nd = _drop_nonpositive_axis(nd, ax, kind)
        nd = _apply_axis(nd, ax, functools.partial(_BATCH_EVAL[algorithm], kind), lo, hi)
    return nd


def _drop_nonpositive_axis(nd: CoeffND, axis: int, kind: str) -> CoeffND:
    lo, _ = nd.support[axis]
    if lo < 0:
        raise ValueError(
            f"kind {kind!r} takes one-sided input along axis {axis} (support starts at {lo})"
        )
    if lo == 0 and nd.values.shape[axis] > 0:
        slices = [slice(None)] * nd.ndim
        slices[axis] = slice(1, None)
        offsets = list(nd.offsets)
        offsets[axis] += 1
        return CoeffND(tuple(offsets), nd.values[tuple(slices)])
    return nd


def _window_axis(nd: CoeffND, axis: int, lo: int, hi: int) -> CoeffND:
    """Restrict/pad one axis to the inclusive window [lo, hi]."""
    n = hi - lo + 1
    shape = list(nd.values.shape)
    shape[axis] = n
    out = np.zeros(tuple(shape), dtype=np.complex128)
    s_lo, s_hi = nd.support[axis]
    c_lo, c_hi = max(lo, s_lo), min(hi, s_hi)
    if c_lo <= c_hi:
        src = [slice(None)] * nd.ndim
        dst = [slice(None)] * nd.ndim
        src[axis] = slice(c_lo - s_lo, c_hi - s_lo + 1)
        dst[axis] = slice(c_lo - lo, c_hi - lo + 1)
        out[tuple(dst)] = nd.values[tuple(src)]
    offsets = list(nd.offsets)
    offsets[axis] = lo
    return CoeffND(tuple(offsets), out)
