"""Discrete Hilbert transform kernels.

Five one-dimensional kernels act on finitely supported sequences:

* ``full``         h a(n)   = sum_{k != n} a_k / (n - k),              n in Z
* ``even``         h^e a(n) = sum_{k>=1, k!=n} 2n a_k/(n^2-k^2) + a_n/(2n),   n >= 1
* ``odd``          h^o a(n) = sum_{k>=1, k!=n} 2k a_k/(n^2-k^2) - a_n/(2n),   n >= 0
* ``even_halved``  h^e_- a(n) = sum_{k-n odd} a_k (1/(n+k) + 1/(n-k)),        n >= 1
* ``odd_halved``   h^o_- a(n) = sum_{k-n odd} a_k (1/(n+k) + 1/(k-n)),        n >= 0

One support rule holds per axis, in every entry point: a ``full`` axis
is two-sided; every other axis is one-sided (support in k >= 0, a
nonzero entry at a negative index is rejected), the identity axes of
:func:`dht_tensor` included; on a transformed axis the index-0 slice is
dropped (a_0 = 0), except under ``subtract_mean`` in the re-expansion
maps, which keeps it.  The n = 0 self-term of the odd kernel is taken
as zero (the a_0/0 convention).

Every kernel has two evaluators.  The ``naive`` one is the reference:
a quadratic, FFT-free mat-vec with the kernel matrix built from the
definitions as strided views of two reciprocal tables, a Toeplitz view
of 1/(n-k) (lag 0 set to 0, and every even lag for the halved kinds)
and a Hankel view of 1/(n+k).  ``full`` is the Toeplitz view alone; the
other kinds are the products

    2n (1/(n-k)) (1/(n+k))  (even kinds),   +-2k (1/(n-k)) (1/(n+k))  (odd),

with the self-terms +-a_n/(2n) added apart.  A product has no
subtraction, so each entry is correct to a few roundings even for
support far above the window (how the views are contracted: see
:func:`_naive`).

The ``fast`` evaluator writes every kernel through the reciprocal-lag
sum R a(n) = sum_{k != n} a_k/(n-k) of the support and of its
reflection b_{-k} = a_k, R b(n) = sum_k a_k/(n+k):

    h = R a,   h^e = R a + R b,   h^o = R a - R b,
    h^e_- = R a + R b,   h^o_- = R b - R a   (odd lags k - n only),

as 2n/(n^2-k^2) = 1/(n-k) + 1/(n+k) and 2k/(n^2-k^2) = 1/(n-k) - 1/(n+k);
the k = n term of R b is the a_n/(2n) self-term.  R is a Toeplitz
product, evaluated by a zero-padded real FFT, for the halved kinds once
per output parity on the half-length sublattice at odd lag.  R a and R b
share the support's spectrum X and one inverse FFT: the reflection has
spectrum conj(X) e^{-2 pi i (na-1) f/size}, that is R b's kernel shifted.

Transforms of finitely supported sequences generally have infinite
support, so the caller always supplies an explicit inclusive output
window.  The one-dimensional entry points take and return a 1-D
``CoeffND`` (as built by ``Coeff1D``); the n-D ones take any block.
Every public entry point refuses a NaN or infinite coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .sequences import CoeffND, ParityVector, _require_finite, window_axis

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
_FAST_BLOCK_ELEMS = 1 << 18  # cap on a fast row block's rows x FFT length

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
        (window,) = _checked_box((self.kind,), [self.output_range], self.algorithm)
        object.__setattr__(self, "output_range", window)


# ---------------------------------------------------------------------------
# evaluators; real rows of shape (rows, support), output shape (rows, window)


def _naive(kind: str, x: np.ndarray, offset: int, lo: int, hi: int) -> np.ndarray:
    """Quadratic mat-vec with the kernel matrix from the definitions above:
    a Toeplitz view of 1/(n - k) and, but for ``full``, a Hankel view of
    1/(n + k).  Up to ``_NAIVE_VIEW_ROWS`` rows, einsum's own loop contracts
    the views and the matrix is never formed; larger batches form it in
    chunks of at most ``_NAIVE_CHUNK_ELEMS`` entries, once for all rows.
    The factor 2n and the self-terms act on the output and +-2k on the
    input."""
    out = np.zeros((len(x), hi - lo + 1))
    if x.shape[-1] == 0:
        return out
    k = offset + np.arange(x.shape[-1])
    recip = np.arange(lo - k[-1], hi - k[0] + 1, dtype=float)
    if kind.endswith("halved"):
        recip[recip % 2 == 0] = 0.0
    recip = _reciprocal(1.0, recip)
    hank = _reciprocal(1.0, np.arange(lo + k[0], hi + k[-1] + 1, dtype=float))  # n = k = 0 -> 0
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
    return out


def _reciprocal(c: float, lags: np.ndarray) -> np.ndarray:
    """c / lags in ``lags``'s own buffer, 0 at lag 0: every kernel leaves out k = n."""
    return np.divide(c, lags, out=lags, where=lags != 0)


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2^a >= n with the least a
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _recip(
    batch: np.ndarray, offset: int, lo: int, hi: int, step: int, direct: float, reflected: float,
    out: np.ndarray | None, col: int,
) -> np.ndarray:
    """direct R a + reflected R b at n = lo, lo + step, ... <= hi for real rows
    ``batch`` at k_j = offset + step*j, a zero lag dropped, into columns col::step
    of ``out``: per row block, its zero-padded real FFT X times each kernel's,
    conj(X) for R b, and one inverse FFT.  Without ``out``, one block is returned."""
    na = batch.shape[-1]
    nout = (hi - lo) // step + 1
    size = _fast_len(na + nout - 1)
    kern = rfft(_reciprocal(direct, (lo - offset) + step * np.arange(1.0 - na, nout)), size)
    if reflected:
        # R b's kernel 1/(n + k), rolled by na - 1 to take X to the reversed rows' spectrum
        t = np.zeros(size)
        t[: na + nout - 1] = (lo + offset) + step * np.arange(na + nout - 1.0)
        t = rfft(np.roll(_reciprocal(reflected, t), na - 1))

    def block(part):  # numpy's FFT is 1.6x slower on the sweep's axis-0 view
        spec = rfft(np.ascontiguousarray(part), size, axis=-1)
        prod = spec * kern if reflected else np.multiply(spec, kern, out=spec)
        if reflected:
            prod += np.multiply(np.conjugate(spec, out=spec), t, out=spec)
        del spec  # its memory is free for the inverse FFT
        return irfft(prod, size, axis=-1)[..., na - 1 : na - 1 + nout]

    rows = max(1, _FAST_BLOCK_ELEMS // size)  # the kernels' spectra serve every block
    if out is None and rows >= len(batch):  # one block and no ``out``: no staging copy
        return block(batch)
    out = np.empty((len(batch), nout)) if out is None else out
    for r0 in range(0, len(batch), rows):
        out[r0 : r0 + rows, col::step] = block(batch[r0 : r0 + rows])
    return out


# kind -> (sign of R a, sign of R b, lattice step), as in the module docstring
_SPLIT = {
    "full": (1.0, 0.0, 1),
    "even": (1.0, 1.0, 1),
    "odd": (1.0, -1.0, 1),
    "even_halved": (1.0, 1.0, 2),
    "odd_halved": (-1.0, 1.0, 2),
}


def _fast(kind: str, x: np.ndarray, offset: int, lo: int, hi: int) -> np.ndarray:
    """R a and R b per output class n0 (one class, or two parities at step 2)."""
    direct, reflected, step = _SPLIT[kind]
    # support above the window: R a and R b of the even kinds nearly cancel,
    # 1/(n-k) + 1/(n+k) = (n/k) (1/(n-k) - 1/(n+k)) adds them instead
    far = kind in ("even", "even_halved") and offset > hi
    if far:
        x, reflected = x / (offset + np.arange(x.shape[-1])), -reflected
    # one class fills the output without a staging array; a class may be empty
    out = None if step == 1 and x.shape[-1] else np.zeros((len(x), hi - lo + 1))
    for n0 in range(lo, min(lo + step, hi + 1)):
        k0 = offset + (n0 + step - 1 - offset) % step  # first k at a kept lag
        sub = x[:, k0 - offset :: step]
        if sub.shape[-1]:
            out = _recip(sub, k0, n0, hi, step, direct, reflected, out, n0 - lo)
    if far:
        out *= np.arange(lo, hi + 1)
    return out


_BATCH_EVAL = {"naive": _naive, "fast": _fast}


# ---------------------------------------------------------------------------
# the one support rule and the one axis sweep behind every entry point


def _one_sided(nd: CoeffND, floors) -> CoeffND:
    """Trim, then apply each axis's input floor: None is two-sided, 0
    requires k >= 0, and 1 requires k >= 0 and drops the index-0 slice
    (a_0 = 0); a block that lost a slice is trimmed again."""
    nd = nd.trim()
    if nd.values.size == 0:
        return nd
    drop = []
    for ax, ((lo, _), floor) in enumerate(zip(nd.support, floors)):
        if floor is not None and lo < 0:
            raise ValueError(f"support must lie in k >= 0 (axis {ax} starts at {lo})")
        drop.append(int(floor == 1 and lo == 0))
    if not any(drop):
        return nd
    cut = tuple(slice(k, None) for k in drop)
    return CoeffND(tuple(o + k for o, k in zip(nd.offsets, drop)), nd.values[cut]).trim()


def _checked_box(kinds, box, algorithm: str) -> list[tuple[int, int] | None]:
    """The checks of the sweep: algorithm, box, and a window at or above
    the kind's output floor on every transformed axis (kind not None)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    box = _normalize_box(box, len(kinds))
    for ax, (kind, window) in enumerate(zip(kinds, box)):
        if kind is None:
            continue
        if window is None:
            raise ValueError(f"axis {ax} is transformed and needs a window")
        floor = _KIND_FLOOR[kind]
        if floor is not None and window[0] < floor:
            raise ValueError(f"axis {ax}: output indices must be >= {floor} for this parity")
    return box


def _apply_axis(nd: CoeffND, axis: int, kind: str, algorithm: str, lo: int, hi: int) -> np.ndarray:
    """``nd``'s values transformed along ``axis``: every line along it is one
    row, and real and imaginary rows go through one real evaluation."""
    arr = np.moveaxis(nd.values, axis, -1)
    lead = arr.shape[:-1]
    batch = arr.reshape(math.prod(lead), arr.shape[-1])
    rows = batch.real
    if np.any(batch.imag):  # real input skips the all-zero imaginary rows
        rows = np.concatenate([rows, batch.imag])
    out = _BATCH_EVAL[algorithm](kind, rows, nd.offsets[axis], lo, hi)
    if len(rows) > len(batch):  # the bits of re + 1j * im, in one complex allocation
        re, out = out[: len(batch)], 1j * out[len(batch) :]
        out += re
    return np.moveaxis(out.reshape(lead + (hi - lo + 1,)), -1, axis)


def _sweep(a: CoeffND, kinds, box, algorithm: str, floors) -> CoeffND:
    """Check everything, make the input one-sided per ``floors``, then
    transform axis by axis; a ``None`` kind is the identity, windowed to
    its box entry if one is given."""
    box = _checked_box(kinds, box, algorithm)
    nd = _one_sided(a, floors)
    for ax, (kind, window) in enumerate(zip(kinds, box)):
        if window is not None:  # else an identity axis, kept whole
            vals = (window_axis(nd.values, nd.offsets[ax], ax, *window) if kind is None
                    else _apply_axis(nd, ax, kind, algorithm, *window))
            nd = CoeffND(nd.offsets[:ax] + (window[0],) + nd.offsets[ax + 1 :], vals)
    return nd


def _run_1d(a: CoeffND, kind: str, lo: int, hi: int, algorithm: str) -> CoeffND:
    if a.ndim != 1:
        raise ValueError(f"a 1-D transform needs a 1-D sequence, input has {a.ndim} axes")
    floors = (None if kind == "full" else 1,)
    return _sweep(a, (kind,), [(lo, hi)], algorithm, floors)


def dht_full(a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast") -> CoeffND:
    """Full discrete Hilbert transform over an inclusive output window."""
    return _run_1d(_require_finite(a), "full", out_range[0], out_range[1], algorithm)


def dht_even(a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast") -> CoeffND:
    """Even-sequence kernel; output indices must satisfy n >= 1."""
    return _run_1d(_require_finite(a), "even", out_range[0], out_range[1], algorithm)


def dht_odd(a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast") -> CoeffND:
    """Odd-sequence kernel; output indices must satisfy n >= 0."""
    return _run_1d(_require_finite(a), "odd", out_range[0], out_range[1], algorithm)


def dht_even_halved(a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast") -> CoeffND:
    """Parity-restricted (k - n odd) even kernel, without the 2/pi prefactor."""
    return _run_1d(_require_finite(a), "even_halved", out_range[0], out_range[1], algorithm)


def dht_odd_halved(a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast") -> CoeffND:
    """Parity-restricted (k - n odd) odd kernel, without the 2/pi prefactor."""
    return _run_1d(_require_finite(a), "odd_halved", out_range[0], out_range[1], algorithm)


def transform(a: CoeffND, request: TransformRequest) -> CoeffND:
    """Dispatch a TransformRequest to the matching kernel."""
    return _run_1d(_require_finite(a), request.kind, *request.output_range, request.algorithm)


# ---------------------------------------------------------------------------
# multidimensional transforms


def _normalize_box(box, d: int) -> list[tuple[int, int] | None]:
    box = list(box)
    if len(box) != d:
        raise ValueError(f"box has {len(box)} axes, expected {d}")
    out = []
    for entry in box:
        window = None if entry is None else (int(entry[0]), int(entry[1]))
        if window is not None and window[1] < window[0]:
            raise ValueError(f"empty box axis [{window[0]}, {window[1]}]")
        out.append(window)
    return out


def _mixed_naive(nd: CoeffND, kinds, box) -> CoeffND:
    """Reference for the axis sweep: one kernel matrix per axis, tensordot."""
    out = nd.values
    for ax, (lo, hi) in enumerate(box):
        size = nd.values.shape[ax]
        kern = _naive(kinds[ax], np.eye(size), nd.offsets[ax], lo, hi)
        out = np.tensordot(out, kern, axes=([0], [0]))  # window axis goes last
    return CoeffND(tuple(lo for lo, _ in box), out)


def dht_mixed(a: CoeffND, eta: ParityVector, box, algorithm: str = "fast") -> CoeffND:
    """Mixed halved transform: even-halved along axes with eta_j = 1,
    odd-halved along axes with eta_j = 0, with the joint parity
    restriction (all k_j - m_j odd).

    ``box`` is a sequence of inclusive (lo, hi) windows, one per axis;
    axes with eta_j = 1 require lo >= 1, axes with eta_j = 0 require
    lo >= 0.
    """
    return _mixed(_require_finite(a), eta, box, algorithm, (1,) * a.ndim)


def _mixed(a: CoeffND, eta: ParityVector, box, algorithm: str, floors) -> CoeffND:
    """:func:`dht_mixed` with the caller's input floors (0 keeps index 0);
    ``naive`` runs the independent tensordot reference."""
    if len(eta) != a.ndim:
        raise ValueError(f"parity vector has {len(eta)} axes, expected {a.ndim}")
    kinds = tuple(_HALVED[bit] for bit in eta.bits)
    if algorithm != "naive":
        return _sweep(a, kinds, box, algorithm, floors)
    box = _checked_box(kinds, box, algorithm)
    return _mixed_naive(_one_sided(a, floors), kinds, box)


def dht_tensor(
    a: CoeffND, chi: ParityVector, zeta: ParityVector, box, algorithm: str = "fast"
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
    kinds = tuple("even" if c else "odd" if z else None for c, z in zip(chi.bits, zeta.bits))
    return _sweep(_require_finite(a), kinds, box, algorithm, tuple(0 if k is None else 1 for k in kinds))

