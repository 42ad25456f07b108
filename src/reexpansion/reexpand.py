"""Sine/cosine re-expansion coefficient maps and summability diagnostics.

A function on [0, pi]^d given by a finite mixed cosine/sine series
(cosine along axes with eta_j = 1, sine along eta_j = 0) is re-expanded
in the complementary basis.  At coefficient level the re-expansion is
the mixed halved Hilbert transform scaled by (2/pi)^d:

    b_m = (2/pi)^d sum_{k_j - m_j odd} a_k
          prod_{eta_j=1} (1/(m_j+k_j) + 1/(m_j-k_j))
          prod_{eta_j=0} (1/(m_j+k_j) + 1/(k_j-m_j)).

Each map is backed by an independent quadrature oracle that integrates
the evaluated series against the target basis with composite
Gauss-Legendre panels; the oracle never touches the 1/(m +- k) kernel
formulas.  It evaluates both bases at every node, as the real or
imaginary parts of phase tables e^{i k t} built by rotation (rows
n..2n-1 are rows 0..n-1 times e^{int}) over chunks of nodes, and sums.

Conventions

* The n = 0 output of the sine-to-cosine map is the raw formula value,
  which is twice the mean coefficient (a reconstruction should use
  b_0 / 2 as the constant term).
* The coefficient formulas hold without the boundary conditions
  f = 0 on the faces; summability reports surface the moment sums
  instead of rejecting inputs.
* For weighted re-expansion with odd exponents the differentiated
  series changes parity axiswise (d/dt cos = -sin), so the exact
  coefficient map applies the mixed transform with the flipped parity
  and a global sign; see :func:`reexpand_weighted`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import hilbert
from .hilbert import KINDS, dht_even_halved, dht_odd_halved
from .sequences import (
    GL_NODES,
    BoundaryReport,
    CoeffND,
    ParityVector,
    WeightExponent,
    _node_chunks,
    _panels,
    _phase_rows,
    _refined,
    _require_finite,
    boundary_vanish_check,
    gauss_legendre_grid,
    l1_norm,
    weight_apply,
    window_axis,
)

__all__ = [
    "ReexpandSpec",
    "SummabilityReport",
    "WeightedReexpansion",
    "cos_to_sin",
    "sin_to_cos",
    "reexpand_nd",
    "reexpand_weighted",
    "quadrature_oracle",
    "quadrature_oracle_box",
    "summability_report",
]

TWO_OVER_PI = 2.0 / np.pi

# bound on one axis's basis work in the fine pass, counted as the bytes
# its (support + window) x nodes basis values would fill if held whole
_ORACLE_MAX_BYTES = 10**9
# complex entries in the oracle's phase table, one 4 MB buffer per axis
# pass.  2**16 to 2**18 run equally fast, but with 1 MB buffers a later
# 2^15-point FFT call in the same process ran slow enough that
# criterion 2 read 2.9-3.2, in 6 of 6 runs after criterion 1 (2.0-2.1
# at 2**18): glibc trims its heap at twice the largest block freed so
# far, so its work arrays were likely faulted in afresh.
_ORACLE_CHUNK_ELEMS = 2**18


@dataclass(frozen=True)
class ReexpandSpec:
    """Parameters of a re-expansion request.

    ``eta`` is the source parity per axis (1 = cosine, 0 = sine), ``q``
    the weight exponents, ``output_box`` a sequence of inclusive
    (lo, hi) index windows per axis.  ``boundary_tol`` is the tolerance
    handed to the face-vanishing precondition check of the weighted map.
    """

    eta: ParityVector
    q: WeightExponent
    output_box: tuple
    subtract_mean: bool = False
    boundary_tol: float = 1e-9

    def __post_init__(self):
        if len(self.eta) != len(self.q):
            raise ValueError("eta and q dimensions differ")
        if self.boundary_tol <= 0:
            raise ValueError("boundary_tol must be positive")
        box = hilbert._normalize_box(self.output_box, len(self.eta))
        object.__setattr__(self, "output_box", tuple(box))


def cos_to_sin(
    a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast"
) -> CoeffND:
    """Sine coefficients of a function given by a cosine series.

    b_n = (2/pi) sum_{k-n odd} a_k (1/(n+k) + 1/(n-k)), n >= 1.
    """
    return dht_even_halved(a, out_range, algorithm).scaled(TWO_OVER_PI)


def sin_to_cos(
    a: CoeffND, out_range: tuple[int, int], algorithm: str = "fast"
) -> CoeffND:
    """Cosine coefficients of a function given by a sine series.

    b_n = (2/pi) sum_{k-n odd} a_k (1/(n+k) + 1/(k-n)), n >= 0; the
    n = 0 entry is the raw formula value (twice the mean coefficient).
    """
    return dht_odd_halved(a, out_range, algorithm).scaled(TWO_OVER_PI)


def _subtract_face_means(nd: CoeffND, eta: ParityVector) -> CoeffND:
    """Coefficient-level analogue of removing f's values on cosine faces.

    For each cosine axis j the index-0 slice is replaced so that the
    modified series vanishes identically on the face t_j = 0; this is
    the d-dimensional version of re-expanding f(t) - f(0).
    """
    offsets, vals = list(nd.offsets), nd.values
    for ax in range(nd.ndim):
        if eta[ax] != 1 or vals.size == 0:  # the zero series has no face values
            continue
        vals = window_axis(vals, offsets[ax], ax, 0, nd.support[ax][1])
        offsets[ax] = 0
        face = np.moveaxis(vals, ax, 0)
        face[0] -= face.sum(axis=0)
    return CoeffND(tuple(offsets), vals)


def reexpand_nd(a, spec: ReexpandSpec, algorithm: str = "fast") -> CoeffND:
    """Re-expand a mixed cosine/sine series in the complementary basis.

    Requires q = 0 (use :func:`reexpand_weighted` otherwise).  With
    ``subtract_mean`` the constant (cosine-face) components are removed
    before transforming, so the result re-expands f minus its values on
    the cosine faces.
    """
    _require_finite(a)
    if not spec.q.is_zero:
        raise ValueError("reexpand_nd handles q = 0 only; use reexpand_weighted")
    if a.ndim != len(spec.eta):
        raise ValueError(f"input has {a.ndim} axes, spec has {len(spec.eta)}")
    floors = (0 if spec.subtract_mean else 1,) * a.ndim  # subtract_mean keeps index 0
    if spec.subtract_mean:
        a = _subtract_face_means(hilbert._one_sided(a, floors), spec.eta)
    out = hilbert._mixed(a, spec.eta, spec.output_box, algorithm, floors)
    return out.scaled(TWO_OVER_PI ** a.ndim)


@dataclass(frozen=True)
class WeightedReexpansion:
    """Result of a weighted re-expansion.

    ``raw`` holds m^q b_m (the coefficients of the differentiated
    series in the shifted target basis); ``deweighted`` holds b_m, with
    NaN at indices where m_j = 0 meets q_j > 0 (listed in ``flagged``).
    ``eta_effective`` and ``sign`` record the parity/sign bookkeeping
    that was applied; ``boundary`` is the face-vanishing report (the
    formula result is returned whether or not it passed).
    """

    raw: CoeffND
    deweighted: CoeffND
    flagged: tuple[tuple[int, ...], ...]
    boundary: BoundaryReport
    eta_effective: ParityVector
    sign: float


def reexpand_weighted(a, spec: ReexpandSpec, algorithm: str = "fast") -> WeightedReexpansion:
    """Re-expansion at the level of the q-th derivative series.

    The differentiated series D^q f_eta is a plain trigonometric series
    with coefficients (+-) k^q a_k whose parity flips on every axis
    with odd q_j.  Re-expanding it in the shifted target basis
    (sin/cos at phase q_j pi/2) therefore amounts to

        m^q b_m = (-1)^{#odd q_j} * [mixed re-expansion of k^q a_k
                                     at the flipped parity]

    which is what ``raw`` carries; this agrees with the quadrature
    oracle exactly.  When every q_j is even the flip and sign drop out
    and raw equals ``reexpand_nd(weight_apply(a, q))`` literally.

    The identity between raw and the re-expansion of f itself is only
    guaranteed when D^s f vanishes on the faces for all s < q; that
    precondition is checked at ``spec.boundary_tol`` and reported in
    ``boundary``, not enforced; a failed check also issues a
    ``UserWarning`` once the result is computed.  A NaN or infinite
    coefficient raises ``ValueError``, and so does a finite one whose
    k^q a_k overflows, before any warning.
    """
    eta, q = spec.eta, spec.q
    if a.ndim != len(eta):
        raise ValueError(f"input has {a.ndim} axes, spec has {len(eta)}")
    if spec.subtract_mean:
        raise ValueError("subtract_mean is only defined for the unweighted map")

    report = boundary_vanish_check(a, eta, q, spec.boundary_tol)
    weighted = weight_apply(a, q)
    eta_eff = ParityVector(tuple(b ^ (qj % 2) for b, qj in zip(eta.bits, q.exponents)))
    sign = -1.0 if sum(qj % 2 for qj in q.exponents) % 2 else 1.0
    inner = replace(spec, eta=eta_eff, q=WeightExponent.zero(a.ndim))
    raw = reexpand_nd(weighted, inner, algorithm).scaled(sign)

    mq = weight_apply(CoeffND(raw.offsets, np.ones(raw.dims)), q).values.real
    zero = mq == 0  # m_j = 0 on an axis with q_j > 0
    dew = np.divide(raw.values, mq, out=np.full(raw.dims, np.nan, complex), where=~zero)
    flagged = [tuple(idx) for idx in (np.argwhere(zero) + raw.offsets).tolist()]
    if not report.passed:  # only for a result, so a refused request does not warn
        bad = [c for c in report.checks if not c.passed]
        warnings.warn(
            f"boundary precondition failed for {len(bad)} face/order checks "
            f"(|D^s f| <= {max(c.max_abs for c in bad):.3e} on those faces); "
            "the coefficient identity with the re-expansion of f is not guaranteed",
            stacklevel=2,
        )
    return WeightedReexpansion(
        raw=raw,
        deweighted=CoeffND(raw.offsets, dew),
        flagged=tuple(flagged),
        boundary=report,
        eta_effective=eta_eff,
        sign=sign,
    )


# ---------------------------------------------------------------------------
# quadrature oracle


def _axis_integrals(
    k0: int, nk: int, m0: int, nm: int, eta_bit: int, q: int, panels: int, acc=None
) -> np.ndarray:
    """G[k, m] = integral over [0, pi] of source basis x target basis,
    for k = k0..k0+nk-1 and m = m0..m0+nm-1; given ``acc``, whose first
    axis runs over k, acc contracted with G instead (m axis last).

    Source: cos(k t + q pi/2) if eta_bit else sin(k t + q pi/2);
    target: sin(m t + q pi/2) if eta_bit else cos(m t + q pi/2).
    Both bases are evaluated at every node, as the real or imaginary
    part of a phase table, one chunk of nodes at a time in one buffer,
    so memory stays at one chunk's table.  The products take the
    cheaper matrix chain: with R = acc.size / nk, when R (nk + nm) <
    nk nm (always in 1-D) each chunk evaluates the series acc^T . source
    at its nodes and integrates it against the target basis; otherwise
    each chunk's weighted products are summed into G.
    """
    t, w = gauss_legendre_grid(0.0, np.pi, panels)
    lo = min(k0, m0)
    rows = max(k0 + nk, m0 + nm) - lo
    shared = rows <= nk + nm  # overlapping ranges: one table holds both
    height = rows if shared else nk + nm
    chunks = list(_node_chunks(t.size, height, _ORACLE_CHUNK_ELEMS))
    table = np.empty((height, t[chunks[0]].size), np.complex128)
    a = None if acc is None else acc.reshape(nk, -1)
    series = a is not None and a.shape[1] * (nk + nm) < nk * nm
    if series:  # as real columns re, im, re, im, ...
        a = np.ascontiguousarray(a, np.complex128).view(np.float64)
    g = np.zeros((a.shape[1] if series else nk, nm))
    for c in chunks:
        if shared:
            tab = _phase_rows(lo, rows, t[c], q, table)
            src, tgt = tab[k0 - lo : k0 - lo + nk], tab[m0 - lo : m0 - lo + nm]
        else:
            src, tgt = _phase_rows(k0, nk, t[c], q, table[:nk]), _phase_rows(m0, nm, t[c], q, table[nk:])
        src, tgt = (src.real, tgt.imag) if eta_bit else (src.imag, tgt.real)
        # BLAS needs unit strides; the .real/.imag views step over pairs
        f = a.T @ np.ascontiguousarray(src) if series else src  # the series at the nodes, or the basis
        g += (f * w[c]) @ np.ascontiguousarray(tgt).T
    if acc is None:
        return g
    g = g[0::2] + 1j * g[1::2] if series else a.T @ g
    return g.reshape(acc.shape[1:] + (nm,))


def _oracle_values(nd, eta, q, box, panel_counts) -> np.ndarray:
    acc = weight_apply(nd, q).values
    for ax, (lo, hi) in enumerate(box):
        acc = _axis_integrals(
            nd.offsets[ax], nd.dims[ax], lo, hi - lo + 1, eta[ax], q[ax], panel_counts[ax], acc
        )
    return acc * TWO_OVER_PI ** nd.ndim


def quadrature_oracle_box(
    a,
    eta: ParityVector,
    q: WeightExponent,
    box,
    tol: float = 1e-10,
) -> CoeffND:
    """Re-expansion coefficients over a box, by numerical integration.

    Computes  (2/pi)^d  integral of [the evaluated series of D^q f_eta]
    against the shifted target basis, using composite Gauss-Legendre
    panels (16 nodes each; max |k| + max |m| + 1 panels per axis, one
    more than the integrand's top frequency).  The whole box is
    confirmed by one refinement step with doubled panels; disagreement
    beyond ``tol`` raises rather than returning a silent result, and a
    coefficient that is not finite raises ValueError first.  The bases
    are built chunk by chunk of nodes in one table buffer, so memory
    stays near one chunk's table; the work grows with (support +
    window) x nodes.  Per axis, the series is evaluated at the nodes
    and then integrated (always in 1-D), or the whole support x window
    matrix of integrals is formed, whichever is the cheaper product for
    the shapes.  A box whose fine-pass basis values on one axis,
    (support + window) x 16 x 2 panels x 8 bytes, would pass 1 GB is
    refused with a ``ValueError`` before any basis is evaluated.
    """
    a = _require_finite(a.trim())
    d = a.ndim
    if len(eta) != d or len(q) != d:
        raise ValueError("eta/q dimensions must match the input")
    box = hilbert._normalize_box(box, d)
    if None in box:
        raise ValueError(f"axis {box.index(None)} needs a window")
    if a.values.size == 0:
        shape = tuple(hi - lo + 1 for lo, hi in box)
        return CoeffND(tuple(lo for lo, _ in box), np.zeros(shape, np.complex128))
    panel_counts = []
    for ax in range(d):
        kmax = int(np.max(np.abs(a.axis_indices(ax))))
        mmax = max(abs(box[ax][0]), abs(box[ax][1]))
        panel_counts.append(_panels(kmax + mmax))
    need = max(
        (size + hi - lo + 1) * GL_NODES * 2 * panels * 8
        for size, (lo, hi), panels in zip(a.values.shape, box, panel_counts)
    )
    if need > _ORACLE_MAX_BYTES:
        raise ValueError(
            f"quadrature oracle needs {need / 1e9:.1f} GB of basis values on one axis "
            f"(work cap {_ORACLE_MAX_BYTES / 1e9:g} GB); use a smaller support or box"
        )
    fine = _refined(lambda r: _oracle_values(a, eta, q, box, [r * p for p in panel_counts]), tol)
    return CoeffND(tuple(lo for lo, _ in box), fine)


def quadrature_oracle(
    a,
    eta: ParityVector,
    q: WeightExponent,
    m: Sequence[int] | int,
    tol: float = 1e-10,
) -> complex:
    """Single re-expansion coefficient by numerical integration."""
    if isinstance(m, (int, np.integer)):
        m = (int(m),)
    box = [(int(mi), int(mi)) for mi in m]
    out = quadrature_oracle_box(a, eta, q, box, tol)
    return complex(out.values.reshape(-1)[0])


# ---------------------------------------------------------------------------
# summability diagnostics


@dataclass(frozen=True)
class SummabilityReport:
    """Windowed l1 norms of a transform plus the classical side conditions.

    ``verdict_hint`` is "converging" if the moment sums, tested within a
    float band (:func:`summability_report`), say the transform is l1, else "diverging".
    """

    kind: str
    windows: tuple[int, ...]
    norms: tuple[float, ...]
    increments: tuple[float, ...]
    moment_sum: complex
    moment_sum_alternating: complex
    log_weighted: float
    tail_hint: float
    verdict_hint: str


def summability_report(
    a: CoeffND,
    kind: str,
    windows: Sequence[int],
    algorithm: str = "fast",
) -> SummabilityReport:
    """Truncated l1 norms of a discrete Hilbert transform over growing windows.

    For window size N the norm covers n in [1, N] (even kinds),
    [0, N] (odd kinds), or [-N, N] (full).  Also reports the moment
    sums sum a_k and sum (-1)^k a_k, the log-weighted sufficiency sum
    sum |a_k| ln(|k| + 1), and a window-adequacy hint (the l1 bound
    ||a||_1/(N+1-kmax) on the first neglected term).

    Past a finite support the transform is a series in 1/n led by
    moment sums: ``full`` and ``even`` are l1 iff sum a_k = 0,
    ``even_halved`` iff also sum (-1)^k a_k = 0, ``odd``/``odd_halved``
    always (a_0 left out but for ``full``).  A sum counts as zero within
    n eps sum |a_k| (n the support length), so {1: 1, 2: -(1 - 2^-52)},
    whose sum is 2^-52, reads "converging" on ``full``.  A NaN or
    infinite coefficient raises ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    windows = [int(w) for w in windows]
    if not windows or any(w2 <= w1 for w1, w2 in zip(windows, windows[1:])):
        raise ValueError("windows must be strictly increasing and nonempty")
    if windows[0] < 1:
        raise ValueError("windows must be positive")

    nd = _require_finite(a.trim())
    big = windows[-1]
    lo = -big if kind == "full" else hilbert._KIND_FLOOR[kind]
    out = hilbert._run_1d(nd, kind, lo, big, algorithm)
    mags = np.abs(out.values)
    idx = out.indices()
    norms = []
    for w in windows:
        sel = (np.abs(idx) <= w) if kind == "full" else (idx <= w)
        norms.append(float(np.sum(mags[sel])))
    incs = [norms[0]] + [norms[j] - norms[j - 1] for j in range(1, len(norms))]

    ks, mag = nd.indices(), np.abs(nd.values)
    sign = (-1.0) ** (ks % 2)
    total, alt = complex(np.sum(nd.values)), complex(np.sum(nd.values * sign))
    kmax = int(np.max(np.abs(ks), initial=0))
    tail_hint = l1_norm(a) / max(1, big + 1 - kmax)
    # on k >= 0 this is log_weighted_sum with q = 0, bit for bit
    logw = float(np.sum(mag * np.log(np.abs(ks) + 1.0)))
    # the verdict sums the entries in units of the peak part's power of two:
    # that scaling is exact, and no partial sum or modulus of finite entries
    # overflows (|c + ci| does for c near the largest double)
    parts = (np.max(np.abs(p), initial=0.0) for p in (nd.values.real, nd.values.imag))
    peak = max(*map(float, parts), np.finfo(float).tiny)
    u = nd.scaled(np.ldexp(1.0, -int(np.frexp(peak)[1])))
    s, s_alt, u0 = complex(np.sum(u.values)), complex(np.sum(u.values * sign)), u[0]
    sums = {"full": [s], "even": [s - u0], "even_halved": [s - u0, s_alt - u0]}
    band = len(nd) * np.finfo(float).eps * float(np.sum(np.abs(u.values)))
    converging = all(abs(v) <= band for v in sums.get(kind, []))

    return SummabilityReport(
        kind=kind,
        windows=tuple(windows),
        norms=tuple(norms),
        increments=tuple(incs),
        moment_sum=total,
        moment_sum_alternating=alt,
        log_weighted=logw,
        tail_hint=tail_hint,
        verdict_hint="converging" if converging else "diverging",
    )
