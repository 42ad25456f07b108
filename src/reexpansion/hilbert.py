"""Discrete Hilbert transform kernels.

Four one-dimensional kernels act on finitely supported sequences:

* ``full``         h a(n)   = sum_{k != n} a_k / (n - k),              n in Z
* ``even``         h^e a(n) = sum_{k>=1, k!=n} 2n a_k/(n^2-k^2) + a_n/(2n),   n >= 1
* ``odd``          h^o a(n) = sum_{k>=1, k!=n} 2k a_k/(n^2-k^2) - a_n/(2n),   n >= 0
* ``even_halved``  h^e_- a(n) = sum_{k-n odd} a_k (1/(n+k) + 1/(n-k)),        n >= 1
* ``odd_halved``   h^o_- a(n) = sum_{k-n odd} a_k (1/(n+k) + 1/(k-n)),        n >= 0

For the restricted kinds an index-0 entry is treated as zero and
nonzero entries at negative indices are rejected.  The n = 0 self-term
of the odd kernel is taken as zero (the a_0/0 convention).

Every kernel has two evaluators.  The ``naive`` evaluator follows the
defining formula term by term and is the reference.  The ``fast``
evaluator rewrites each kernel as a convolution plus/minus a
correlation with the reciprocal kernel 1/m (after splitting the input
by index parity for the halved kinds) and evaluates both by
zero-padded FFT, restoring self-terms separately:

    h^e a(n) = sum_{k != n} a_k/(n-k) + sum_k a_k/(n+k)
    h^o a(n) = sum_{k != n} a_k/(n-k) - sum_k a_k/(n+k)

Transforms of finitely supported sequences generally have infinite
support, so the caller always supplies an explicit inclusive output
window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

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

_NAIVE_CHUNK_ELEMS = 4_000_000  # cap on kernel-matrix chunk size (complex entries)


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
# FFT convolution machinery


def _fft_conv(batch: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Full linear convolution of each batch row with ``kern``."""
    n = batch.shape[-1] + kern.shape[-1] - 1
    size = next_fast_len(n, real=False)
    fa = fft(batch, size, axis=-1)
    fk = fft(kern, size)
    return ifft(fa * fk, axis=-1)[..., :n]


def _conv_recip(batch: np.ndarray, offset: int, lo: int, hi: int) -> np.ndarray:
    """c(n) = sum_k a_k / (n - k) with the k = n term dropped."""
    na = batch.shape[-1]
    if na == 0:
        return np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    klo = lo - (offset + na - 1)
    khi = hi - offset
    m = np.arange(klo, khi + 1, dtype=float)
    with np.errstate(divide="ignore"):
        kern = np.where(m == 0, 0.0, 1.0 / np.where(m == 0, 1.0, m))
    out = _fft_conv(batch, kern)
    start = na - 1
    return out[..., start : start + (hi - lo + 1)]


def _corr_recip(batch: np.ndarray, offset: int, lo: int, hi: int) -> np.ndarray:
    """c(n) = sum_k a_k / (n + k), the n + k = 0 term taken as zero.

    Every caller keeps genuine n + k = 0 pairs out of play (they are
    excluded by index floors or by the k - n parity restriction); the
    zeroed entry only pads positions that are discarded afterwards.
    """
    na = batch.shape[-1]
    if na == 0:
        return np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    rev = batch[..., ::-1]
    rev_offset = -(offset + na - 1)
    klo = lo - (rev_offset + na - 1)
    khi = hi - rev_offset
    m = np.arange(klo, khi + 1, dtype=float)
    with np.errstate(divide="ignore"):
        kern = np.where(m == 0, 0.0, 1.0 / np.where(m == 0, 1.0, m))
    out = _fft_conv(rev, kern)
    start = na - 1
    return out[..., start : start + (hi - lo + 1)]


# ---------------------------------------------------------------------------
# naive (defining-formula) evaluators; batch shape (rows, support)


def _chunks(lo: int, hi: int, na: int):
    step = max(1, _NAIVE_CHUNK_ELEMS // max(na, 1))
    for start in range(lo, hi + 1, step):
        yield start, min(start + step - 1, hi)


def _naive_full(batch, offset, lo, hi):
    na = batch.shape[-1]
    out = np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    if na == 0:
        return out
    k = offset + np.arange(na)
    for c0, c1 in _chunks(lo, hi, na):
        n = np.arange(c0, c1 + 1)
        diff = n[:, None] - k[None, :]
        mask = diff != 0
        kern = np.where(mask, 1.0 / np.where(mask, diff, 1), 0.0)
        out[..., c0 - lo : c1 - lo + 1] = batch @ kern.T
    return out


def _naive_even(batch, offset, lo, hi):
    na = batch.shape[-1]
    out = np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    if na == 0:
        return out
    k = offset + np.arange(na)
    for c0, c1 in _chunks(lo, hi, na):
        n = np.arange(c0, c1 + 1)
        den = n[:, None] ** 2 - (k**2)[None, :]
        mask = den != 0
        kern = np.where(mask, 2.0 * n[:, None] / np.where(mask, den, 1), 0.0)
        out[..., c0 - lo : c1 - lo + 1] = batch @ kern.T
    _add_self_terms(out, batch, offset, lo, hi, sign=+1.0)
    return out


def _naive_odd(batch, offset, lo, hi):
    na = batch.shape[-1]
    out = np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    if na == 0:
        return out
    k = offset + np.arange(na)
    for c0, c1 in _chunks(lo, hi, na):
        n = np.arange(c0, c1 + 1)
        den = n[:, None] ** 2 - (k**2)[None, :]
        mask = den != 0
        kern = np.where(mask, 2.0 * k[None, :] / np.where(mask, den, 1), 0.0)
        out[..., c0 - lo : c1 - lo + 1] = batch @ kern.T
    _add_self_terms(out, batch, offset, lo, hi, sign=-1.0)
    return out


def _add_self_terms(out, batch, offset, lo, hi, sign):
    """In-place a_n/(2n) self-terms over the window/support overlap (n >= 1)."""
    na = batch.shape[-1]
    n0 = max(lo, offset, 1)
    n1 = min(hi, offset + na - 1)
    if n0 > n1:
        return
    n = np.arange(n0, n1 + 1)
    out[..., n0 - lo : n1 - lo + 1] += sign * batch[..., n0 - offset : n1 - offset + 1] / (
        2.0 * n
    )


def _halved_kern(n, k, parity_bit):
    """Masked halved-kernel matrix over output n (rows) and support k (cols)."""
    odd = (n[:, None] - k[None, :]) % 2 == 1
    s = n[:, None] + k[None, :]
    d = n[:, None] - k[None, :]
    with np.errstate(divide="ignore"):
        term_s = np.where(odd, 1.0 / np.where(s == 0, 1, s), 0.0)
        term_d = np.where(odd, 1.0 / np.where(d == 0, 1, d), 0.0)
    return term_s + term_d if parity_bit == 1 else term_s - term_d


def _naive_halved(batch, offset, lo, hi, parity_bit):
    na = batch.shape[-1]
    out = np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    if na == 0:
        return out
    k = offset + np.arange(na)
    for c0, c1 in _chunks(lo, hi, na):
        n = np.arange(c0, c1 + 1)
        kern = _halved_kern(n, k, parity_bit)
        out[..., c0 - lo : c1 - lo + 1] = batch @ kern.T
    return out


# ---------------------------------------------------------------------------
# fast evaluators


def _fast_full(batch, offset, lo, hi):
    return _conv_recip(batch, offset, lo, hi)


def _fast_even(batch, offset, lo, hi):
    # self-term a_n/(2n) is the k = n term of the correlation
    return _conv_recip(batch, offset, lo, hi) + _corr_recip(batch, offset, lo, hi)


def _fast_odd(batch, offset, lo, hi):
    return _conv_recip(batch, offset, lo, hi) - _corr_recip(batch, offset, lo, hi)


def _parity_split(batch, offset):
    """Zero out entries of one index parity; returns (even_part, odd_part)."""
    na = batch.shape[-1]
    k = offset + np.arange(na)
    even = np.where((k % 2 == 0)[None, :], batch, 0.0)
    odd = np.where((k % 2 == 1)[None, :], batch, 0.0)
    return even, odd


def _fast_halved(batch, offset, lo, hi, parity_bit):
    even_part, odd_part = _parity_split(batch, offset)
    out = np.zeros(batch.shape[:-1] + (hi - lo + 1,), dtype=np.complex128)
    n = np.arange(lo, hi + 1)
    for part, sel in ((odd_part, n % 2 == 0), (even_part, n % 2 == 1)):
        if not np.any(sel) or not np.any(part):
            continue
        conv = _conv_recip(part, offset, lo, hi)
        corr = _corr_recip(part, offset, lo, hi)
        res = corr + conv if parity_bit == 1 else corr - conv
        out[..., sel] = res[..., sel]
    return out


# Note on signs: for parity 1 the kernel is 1/(n+k) + 1/(n-k) (corr + conv),
# for parity 0 it is 1/(n+k) + 1/(k-n) = corr - conv.


_BATCH_EVAL = {
    ("full", "naive"): _naive_full,
    ("full", "fast"): _fast_full,
    ("even", "naive"): _naive_even,
    ("even", "fast"): _fast_even,
    ("odd", "naive"): _naive_odd,
    ("odd", "fast"): _fast_odd,
    ("even_halved", "naive"): lambda b, o, lo, hi: _naive_halved(b, o, lo, hi, 1),
    ("even_halved", "fast"): lambda b, o, lo, hi: _fast_halved(b, o, lo, hi, 1),
    ("odd_halved", "naive"): lambda b, o, lo, hi: _naive_halved(b, o, lo, hi, 0),
    ("odd_halved", "fast"): lambda b, o, lo, hi: _fast_halved(b, o, lo, hi, 0),
}


def _prepare_restricted(a: Coeff1D, kind: str, keep_zero: bool = False) -> Coeff1D:
    """Trim, reject negative support, and apply the a_0 = 0 convention."""
    a = a.trim()
    if len(a) == 0:
        return a
    lo, _ = a.support
    if lo < 0:
        raise ValueError(
            f"kind {kind!r} takes one-sided input (nonzero entry at index {lo})"
        )
    if lo == 0 and not keep_zero:
        a = Coeff1D(1, a.values[1:]).trim()
    return a


def _run_1d(a: Coeff1D, kind: str, lo: int, hi: int, algorithm: str) -> Coeff1D:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _check_range(kind, lo, hi)
    if kind != "full":
        a = _prepare_restricted(a, kind)
    else:
        a = a.trim()
    batch = a.values[None, :]
    out = _BATCH_EVAL[(kind, algorithm)](batch, a.offset, lo, hi)
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
        lo, hi = box[ax]
        bit = eta[ax]
        fn = (
            (lambda b, o, l, h: _fast_halved(b, o, l, h, 1))
            if bit == 1
            else (lambda b, o, l, h: _fast_halved(b, o, l, h, 0))
        )
        out = _apply_axis(out, ax, fn, lo, hi)
    return out


def _mixed_naive(nd: CoeffND, eta: ParityVector, box) -> CoeffND:
    shape = tuple(hi - lo + 1 for lo, hi in box)
    out = np.zeros(shape, dtype=np.complex128)
    if nd.values.size:
        ks = [nd.axis_indices(ax) for ax in range(nd.ndim)]
        for idx in np.ndindex(*shape):
            m = [box[ax][0] + idx[ax] for ax in range(nd.ndim)]
            acc = nd.values
            for ax in range(nd.ndim):
                vec = _halved_kern(np.array([m[ax]]), ks[ax], eta[ax])[0]
                acc = np.tensordot(acc, vec, axes=([0], [0]))
            out[idx] = acc
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
        fn = _BATCH_EVAL[(kind, algorithm)]
        nd = _apply_axis(nd, ax, fn, lo, hi)
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
