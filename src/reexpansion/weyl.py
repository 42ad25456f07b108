"""Root systems, SU(2) characters, and central-function Fourier data.

The torus coordinate for SU(2) is chosen so that the irreducible
representation with highest weight l (2l a nonnegative integer) has
integer weights -2l, -2l+2, ..., 2l and the Weyl density is
|Delta(t)|^2 = 2 - 2 cos 2t, i.e. the single positive root is alpha = 2.
The Weyl group has two elements, and the 1/|W| factor is kept in the
diagonal Fourier coefficients: with it the constant function f = 1 has
coefficient exactly 1 at the trivial representation.

The expansion of the squared Weyl denominator supports two
conventions: ``nonnegative`` expands prod (2 - 2 cos(alpha, t)) (the
density that enters the Weyl integral formula) and ``paper_signed``
expands prod (e^{i(alpha,t)} + e^{-i(alpha,t)} - 2), which differs by
(-1)^{#roots}.

Every SU(2) sum is read from two objects.  The inner sequence
g(mu) = (1/|W|) sum_nu D(nu) a[mu + nu] of a rank-1 table D is one
convolution of a's whole support with D (D is symmetric), and the
paper-mode diagonal at highest weight l is g at the weights of l.
Against |Delta|^2 the character coefficient telescopes to
c_l = (a_{2l} + a_{-2l} - a_{2l+2} - a_{-2l-2}) / (2 (2l + 1)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .hilbert import dht_full
from .sequences import (
    Coeff1D, CoeffND, _node_chunks, _panels, _phase_rows, _refined, _require_finite,
    gauss_legendre_grid, window_axis,
)

__all__ = [
    "RootSystem",
    "WeylDenomSq",
    "CentralCoeffTable",
    "TelescopingResult",
    "Q2Diagnostic",
    "weyl_denom_sq_coeffs",
    "weyl_dimension",
    "su2_weights",
    "su2_character",
    "diag_fourier_coeff",
    "character_coeff",
    "character_coeff_quadrature",
    "schatten_lp_norm",
    "condition_q1_sum",
    "q2_diagnostic",
    "su2_sufficiency",
    "telescoping_sum",
    "parity_check",
    "ext_fourier_table",
]

CONVENTIONS = ("nonnegative", "paper_signed")
MODES = ("paper", "character")

_SU2_WEYL_ORDER = 2


def _two_l(l) -> int:
    """Validate a half-integer highest weight and return 2l as an int."""
    two = 2 * Fraction(l)
    if two.denominator != 1 or two < 0:
        raise ValueError(f"highest weight must lie in (1/2)N_0, got {l}")
    return int(two)


@dataclass(frozen=True)
class RootSystem:
    """Rank, positive roots (integer vectors), and their half-sum."""

    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    half_sum: tuple[Fraction, ...]

    def __post_init__(self):
        roots = tuple(tuple(int(c) for c in alpha) for alpha in self.positive_roots)
        if not roots:
            raise ValueError("at least one positive root is required")
        if any(len(alpha) != self.rank for alpha in roots):
            raise ValueError("every root must have length equal to the rank")
        if any(all(c == 0 for c in alpha) for alpha in roots):
            raise ValueError("roots must be nonzero")
        delta = tuple(
            Fraction(sum(alpha[j] for alpha in roots), 2) for j in range(self.rank)
        )
        stored = tuple(Fraction(x) for x in self.half_sum)
        if stored != delta:
            raise ValueError(f"half_sum {stored} != recomputed {delta}")
        object.__setattr__(self, "positive_roots", roots)
        object.__setattr__(self, "half_sum", stored)

    @classmethod
    def make(cls, positive_roots: Sequence[Sequence[int]]) -> "RootSystem":
        roots = tuple(tuple(int(c) for c in alpha) for alpha in positive_roots)
        rank = len(roots[0]) if roots else 0
        delta = tuple(
            Fraction(sum(alpha[j] for alpha in roots), 2) for j in range(rank)
        )
        return cls(rank, roots, delta)

    @classmethod
    def su2(cls) -> "RootSystem":
        """SU(2) in the torus coordinate with |Delta|^2 = 2 - 2 cos 2t."""
        return cls.make([(2,)])


@dataclass(frozen=True)
class WeylDenomSq:
    """Finite Fourier support of the squared Weyl denominator."""

    coeffs: Mapping[tuple[int, ...], int]
    convention: str

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        coeffs = {tuple(int(x) for x in k): int(v) for k, v in self.coeffs.items() if v}
        if sum(coeffs.values()) != 0:
            raise ValueError("Weyl denominator coefficients must sum to 0")
        for nu, v in coeffs.items():
            neg = tuple(-x for x in nu)
            if coeffs.get(neg, 0) != v:
                raise ValueError("Weyl denominator coefficients must be symmetric")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def support_size(self) -> int:
        return len(self.coeffs)

    @property
    def rank(self) -> int:
        return len(next(iter(self.coeffs)))

    def get(self, nu) -> int:
        key = (int(nu),) if isinstance(nu, (int, np.integer)) else tuple(int(x) for x in nu)
        return self.coeffs.get(key, 0)


def weyl_denom_sq_coeffs(roots: RootSystem, convention: str = "nonnegative") -> WeylDenomSq:
    """Expand the squared Weyl denominator into its finite Fourier support.

    One factor per positive root alpha:
    2 - 2 cos(alpha, t) for the nonnegative convention (coefficients
    {0: 2, +-alpha: -1}), or e^{i(alpha,t)} + e^{-i(alpha,t)} - 2 for
    the literal signed product form.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    acc: dict[tuple[int, ...], int] = {(0,) * roots.rank: 1}
    for alpha in roots.positive_roots:
        neg = tuple(-c for c in alpha)
        zero = (0,) * roots.rank
        if convention == "nonnegative":
            factor = {zero: 2, alpha: -1}
            factor[neg] = factor.get(neg, 0) - 1
        else:
            factor = {zero: -2, alpha: 1}
            factor[neg] = factor.get(neg, 0) + 1
        nxt: dict[tuple[int, ...], int] = {}
        for nu, c in acc.items():
            for mu, f in factor.items():
                key = tuple(n + m for n, m in zip(nu, mu))
                nxt[key] = nxt.get(key, 0) + c * f
        acc = {k: v for k, v in nxt.items() if v}
    return WeylDenomSq(acc, convention)


def weyl_dimension(mu: Sequence[int], roots: RootSystem) -> int:
    """Dimension of the representation with dominant weight mu.

    Exact rational product of (mu + delta, alpha) / (delta, alpha) over
    the positive roots, with the standard dot pairing; raises if the
    result is not a positive integer.
    """
    mu = tuple(int(x) for x in mu)
    if len(mu) != roots.rank:
        raise ValueError(f"weight has length {len(mu)}, rank is {roots.rank}")
    num = Fraction(1)
    den = Fraction(1)
    for alpha in roots.positive_roots:
        d_a = sum(dj * aj for dj, aj in zip(roots.half_sum, alpha))
        if d_a == 0:
            raise ValueError(f"(delta, alpha) = 0 for root {alpha}")
        n_a = sum((mj + dj) * aj for mj, dj, aj in zip(mu, roots.half_sum, alpha))
        num *= n_a
        den *= d_a
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise ValueError(f"weight {mu} is not dominant (dimension formula gives {dim})")
    return int(dim)


def su2_weights(l) -> list[int]:
    """Weights of the SU(2) representation with highest weight l, ascending."""
    two_l = _two_l(l)
    return list(range(-two_l, two_l + 1, 2))


def su2_character(l, t):
    """SU(2) character sin((2l+1)t)/sin(t), singularities filled by the
    weight sum.  Accepts scalars or arrays."""
    two_l = _two_l(l)
    n = two_l + 1
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sin_t = np.sin(arr)
    out = np.empty_like(arr)
    safe = np.abs(sin_t) > 1e-8
    out[safe] = np.sin(n * arr[safe]) / sin_t[safe]
    if np.any(~safe):
        w = np.arange(-two_l, two_l + 1, 2, dtype=float)
        out[~safe] = np.cos(np.outer(arr[~safe], w)).sum(axis=1)
    return float(out[0]) if scalar else out


def _table(denom: WeylDenomSq) -> np.ndarray:
    """The rank-1 table D as a dense array on -span..span."""
    if denom.rank != 1:
        raise ValueError("SU(2) operations need a rank-1 denominator table")
    span = max(abs(nu) for (nu,) in denom.coeffs)
    return np.array([denom.get(nu) for nu in range(-span, span + 1)], dtype=float)


def _inner(a: CoeffND, denom: WeylDenomSq) -> CoeffND:
    """g(mu) = (1/|W|) sum_nu D(nu) a[mu + nu] over its whole support.

    D is symmetric, so g is the convolution a * D / |W|, on a's block
    widened by the span of D.
    """
    table = _table(denom)
    if not len(a):  # np.convolve refuses an empty operand
        return a
    return Coeff1D(a.offset - len(table) // 2, np.convolve(a.values, table) / _SU2_WEYL_ORDER)


def _character_coeffs(a: CoeffND, two_lmax: int) -> np.ndarray:
    """c_l for every 2l in 0..two_lmax, by the telescoped closed form."""
    w = window_axis(a.values, a.offset, 0, -two_lmax - 2, two_lmax + 2)
    both = w[two_lmax + 2 :] + w[two_lmax + 2 :: -1]  # a_k + a_{-k}, k = 0..2 lmax + 2
    return (both[:-2] - both[2:]) / (_SU2_WEYL_ORDER * np.arange(1, two_lmax + 2))


def _diagonals(a: CoeffND, two_lmax: int, denom: WeylDenomSq, mode: str) -> list[np.ndarray]:
    """Diagonal Fourier data for every 2l in 0..two_lmax, indexed by 2l."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "character":
        return [np.full(t + 1, c) for t, c in enumerate(_character_coeffs(a, two_lmax))]
    g = _inner(a, denom)
    g = window_axis(g.values, g.offset, 0, -two_lmax, two_lmax)
    return [g[two_lmax - t : two_lmax + t + 1 : 2] for t in range(two_lmax + 1)]


def diag_fourier_coeff(a: CoeffND, l, denom: WeylDenomSq, mode: str = "paper") -> np.ndarray:
    """Diagonal Fourier data of the central extension at highest weight l.

    mode "paper": value at weight mu_m is (1/|W|) sum_nu D(nu) a[mu_m + nu]
    over the finite support of the denominator table D.  mode
    "character": the true (Schur-scalar) coefficient repeated over the
    diagonal; see :func:`character_coeff`.
    """
    two_l = _two_l(l)
    return _diagonals(a, two_l, denom, mode)[two_l]


def character_coeff(a: CoeffND, l) -> complex:
    """Fourier coefficient of the central extension against the character.

    c_l = (1/d) (1/|W|) (1/2pi) integral of f(t) chi_l(t) |Delta(t)|^2
    (|Delta|^2 in the nonnegative convention; chi real), which the
    finite Fourier supports telescope to
    (a_{2l} + a_{-2l} - a_{2l+2} - a_{-2l-2}) / (|W| d).
    """
    two_l = _two_l(l)
    return complex(_character_coeffs(a, two_l)[two_l])


def character_coeff_quadrature(a: CoeffND, l, tol: float = 1e-10) -> complex:
    """Numerical cross-check of :func:`character_coeff`.

    Composite Gauss-Legendre on [-pi, pi], max |k| + 2l + 3 panels (one
    more than the integrand's top frequency), with one confirming
    refinement; raises if it moves the value beyond tol (ValueError
    first for a coefficient that is not finite).  The series is
    evaluated at every node from phase tables built by rotation over
    node chunks, each no larger than one array over the nodes.
    """
    _require_finite(a)
    two_l = _two_l(l)
    d = two_l + 1
    kmax = int(np.max(np.abs(a.indices()))) if len(a) else 0
    panels = _panels(kmax + two_l + 2)  # 2l + 2: top frequency of chi_l |Delta|^2

    def integrate(refine):
        t, wt = gauss_legendre_grid(-np.pi, np.pi, refine * panels)
        g = su2_character(l, t) * (2.0 - 2.0 * np.cos(2.0 * t)) * wt
        moments = np.zeros(len(a), dtype=np.complex128)  # sum_t e^{ikt} g(t), per k
        # a table no larger than one node-length array: memory stays O(nodes)
        for c in _node_chunks(t.size, len(a), t.size):
            moments += _phase_rows(a.offset, len(a), t[c]) @ g[c]
        return a.values @ moments / (2.0 * np.pi)

    return complex(_refined(integrate, tol) / (_SU2_WEYL_ORDER * d))


@dataclass(frozen=True)
class CentralCoeffTable:
    """Per-representation diagonal Fourier data, keyed by 2l."""

    entries: Mapping[int, tuple[int, np.ndarray]]
    mode: str
    convention: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        ent = {}
        for two_l, (dim, vals) in self.entries.items():
            vals = np.asarray(vals, dtype=np.complex128)
            if len(vals) != dim:
                raise ValueError(
                    f"entry 2l={two_l}: {len(vals)} diagonal values for dimension {dim}"
                )
            ent[int(two_l)] = (int(dim), vals)
        object.__setattr__(self, "entries", ent)

    def rows(self) -> list[tuple]:
        """(two_l, dim, weight, value_re, value_im, mode, convention) rows."""
        out = []
        for two_l in sorted(self.entries):
            dim, vals = self.entries[two_l]
            for mu, v in zip(range(-two_l, two_l + 1, 2), vals):
                out.append(
                    (two_l, dim, mu, float(v.real), float(v.imag), self.mode, self.convention)
                )
        return out


def ext_fourier_table(
    a: CoeffND, lmax, denom: WeylDenomSq, mode: str = "paper"
) -> CentralCoeffTable:
    """Assemble diagonal Fourier data for all highest weights up to lmax."""
    diagonals = _diagonals(a, _two_l(lmax), denom, mode)
    entries = {two_l: (two_l + 1, vals) for two_l, vals in enumerate(diagonals)}
    return CentralCoeffTable(entries, mode, denom.convention)


def schatten_lp_norm(table: CentralCoeffTable, p: float) -> float:
    """Dimension-weighted Schatten sum (sum_pi d_pi sum_m |v_m|^p)^{1/p}.

    Valid for the central self-adjoint case where the matrix data is
    diagonal, so the S^p norm is the p-sum of the diagonal moduli.
    """
    if p < 1:
        raise ValueError("Schatten exponent must satisfy p >= 1")
    total = sum(dim * float(np.sum(np.abs(vals) ** p)) for dim, vals in table.entries.values())
    return total ** (1.0 / p)


def condition_q1_sum(
    a: CoeffND, lmax, denom: WeylDenomSq, mode: str = "paper"
) -> list[float]:
    """Cumulative sums of d_pi * sum_m |diagonal value| over l <= lmax.

    One partial sum per l in 0, 1/2, 1, ..., lmax (indexed by 2l).  In
    character mode the d_pi diagonal values all equal c_l, so level 2l
    adds d_pi^2 |c_l|.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    two_lmax = _two_l(lmax)
    if mode == "paper":
        g = _inner(a, denom)
        return _partial_sums(np.abs(window_axis(g.values, g.offset, 0, -two_lmax, two_lmax)), two_lmax)
    d = np.arange(1, two_lmax + 2)
    return np.cumsum(d * d * np.abs(_character_coeffs(a, two_lmax))).tolist()


def _partial_sums(x: np.ndarray, two_lmax: int) -> list[float]:
    """Cumulative sums of (2l + 1) sum_m x(mu_m) over 2l <= two_lmax, x on -two_lmax..two_lmax.

    Level 2l adds the pair mu = +-2l to level 2l - 2: one cumsum per parity class."""
    level = x[two_lmax:].copy()
    level[1:] += x[:two_lmax][::-1]
    level[0::2] = np.cumsum(level[0::2])
    level[1::2] = np.cumsum(level[1::2])
    return np.cumsum(np.arange(1, two_lmax + 2) * level).tolist()


@dataclass(frozen=True)
class Q2Diagnostic:
    """Both sides of the even/odd re-expansion summability comparison."""

    two_l: tuple[int, ...]
    hilbert_side: tuple[float, ...]
    plain_side: tuple[float, ...]
    parity: str

    @property
    def ratio(self) -> tuple[float, ...]:
        return tuple(
            h / p if p > 0 else float("nan")
            for h, p in zip(self.hilbert_side, self.plain_side)
        )


def q2_diagnostic(
    a: CoeffND, lmax, denom: WeylDenomSq, mode: str = "paper"
) -> Q2Diagnostic:
    """Partial sums of d_pi sum_m |h g(mu_m)| against d_pi sum_m |g(mu_m)|.

    g is the weight-indexed inner sequence g(mu) = (1/|W|) sum_nu
    D(nu) a[mu + nu] (the paper-mode diagonal values), regarded as a
    sequence over the integer weight lattice (its whole support), and
    h is the full discrete Hilbert transform.
    The plain side is :func:`condition_q1_sum` in the requested mode.
    The comparison is reported as data; no constant is adjudicated.
    """
    g = _inner(a, denom)  # a table of rank other than 1 is refused before any warning
    two_lmax = _two_l(lmax)
    parity = parity_check(a)
    if parity != "even":
        warnings.warn(f"q2_diagnostic expects an even sequence, got {parity}", stacklevel=2)
    hg = np.abs(dht_full(g, (-two_lmax, two_lmax)).values)
    return Q2Diagnostic(
        two_l=tuple(range(two_lmax + 1)),
        hilbert_side=tuple(_partial_sums(hg, two_lmax)),
        plain_side=tuple(condition_q1_sum(a, lmax, denom, mode)),
        parity=parity,
    )


def su2_sufficiency(a: CoeffND) -> float:
    """The SU(2) sufficiency sum over odd n: sum n ln(n) |a_n|.

    Entries at even or nonpositive indices do not enter; their total
    l1 mass is reported through a warning when nonzero.
    """
    k = a.indices()
    mag = np.abs(a.values)
    odd = (k >= 1) & (k % 2 == 1)
    total = np.sum(k[odd] * np.log(k[odd]) * mag[odd])
    ignored = np.sum(mag[~odd])
    if ignored > 0:
        warnings.warn(
            f"ignored l1 mass {ignored:.6g} outside the odd positive integers",
            stacklevel=2,
        )
    return float(total)


@dataclass(frozen=True)
class TelescopingResult:
    brute: complex
    paper_form: complex
    derived_form: complex


def telescoping_sum(a: CoeffND, l) -> TelescopingResult:
    """The telescoping sum sum_{m=1}^{2l+1} (a_{m-2} - 2 a_m + a_{m+2}).

    ``brute`` is the literal summation; ``paper_form`` is the printed
    closed form -a_{2l} - a_{2l+1} + a_{2l+2} + a_{2l+3}; and
    ``derived_form`` is the re-derived closed form

        -a_1 - a_2 - a_M - a_{M-1} + a_{M+1} + a_{M+2},  M = 2l + 1,

    valid for all l >= 0 with a_0 = a_{-1} = 0 (duplicate indices
    summed literally, which covers small l).  The two closed forms
    differ by a_1 + a_2 in general; see the brute values.
    """
    top = _two_l(l) + 1  # M = 2l + 1
    if a[0] != 0 or a[-1] != 0:
        warnings.warn("forcing a_0 = a_{-1} = 0 for the telescoping identity", stacklevel=2)
        entries = {int(k): v for k, v in zip(a.indices(), a.values)}
        entries[0] = 0.0
        entries[-1] = 0.0
        a = Coeff1D.from_dict(entries)
    brute = sum(a[m - 2] - 2 * a[m] + a[m + 2] for m in range(1, top + 1))
    paper = -a[top - 1] - a[top] + a[top + 1] + a[top + 2]
    derived = (
        a[-1] + a[0] - a[1] - a[2] - a[top - 1] - a[top] + a[top + 1] + a[top + 2]
    )
    return TelescopingResult(_tidy(brute), _tidy(paper), _tidy(derived))


def _tidy(z: complex):
    return z.real if z.imag == 0 else z


def parity_check(a: CoeffND, tol: float = 1e-12) -> str:
    """Classify a two-sided sequence as even, odd, or neither.

    The zero sequence reports as even (it is both).
    """
    t = a.trim()
    if len(t) == 0:
        return "even"
    bound = max(abs(x) for x in t.support[0])
    w = window_axis(t.values, t.offset, 0, -bound, bound)
    if np.max(np.abs(w - w[::-1])) <= tol:
        return "even"
    if np.max(np.abs(w + w[::-1])) <= tol:
        return "odd"
    return "neither"
