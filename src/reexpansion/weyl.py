"""Rank-1 root systems, SU(2) characters, and central-function Fourier data.

The torus coordinate for SU(2) is chosen so that the irreducible
representation with highest weight l (2l a nonnegative integer) has
integer weights -2l, -2l+2, ..., 2l and the Weyl density is
|Delta(t)|^2 = 2 - 2 cos 2t, i.e. the single positive root is alpha = 2.
The Weyl group has two elements, and the 1/|W| factor is kept in the
diagonal Fourier coefficients: with it the constant function f = 1 has
coefficient exactly 1 at the trivial representation.

Root data is rank 1 only: a root is an integer 1-tuple (alpha,).  The
squared Weyl denominator expands in two conventions: ``nonnegative``,
prod (2 - 2 cos(alpha t)) (the density of the Weyl integral formula),
and ``paper_signed``, prod (e^{i alpha t} + e^{-i alpha t} - 2), which
differs by (-1)^{#roots}.

Every SU(2) sum is read from two objects.  The inner sequence
g(mu) = (1/|W|) sum_nu D(nu) a[mu + nu] of a rank-1 table D is one
convolution of a's whole support with D (D is symmetric), and the
paper-mode diagonal at highest weight l is g at the weights of l.
Against |Delta|^2 the character coefficient telescopes to
c_l = (a_{2l} + a_{-2l} - a_{2l+2} - a_{-2l-2}) / (2 (2l + 1)).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

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
    if isinstance(l, int):
        num, den = l, 1
    else:  # lowest terms, so 2l is an integer iff den divides 2
        num, den = (l if isinstance(l, (float, Fraction)) else Fraction(l)).as_integer_ratio()
    if den > 2 or num < 0:
        raise ValueError(f"highest weight must lie in (1/2)N_0, got {l}")
    return 2 * int(num) // int(den)


def _ints(xs, what: str) -> tuple[int, ...]:
    """xs as ints; an entry that int() would truncate is refused."""
    xs = tuple(xs)
    if any(int(x) != x for x in xs):
        raise ValueError(f"{what} must be integers, got {xs}")
    return tuple(int(x) for x in xs)


@dataclass(frozen=True)
class RootSystem:
    """Rank (always 1), positive roots (integer 1-tuples), and their half-sum."""

    rank: int
    positive_roots: tuple[tuple[int], ...]
    half_sum: tuple[Fraction]

    def __post_init__(self):
        roots = tuple(_ints(alpha, "roots") for alpha in self.positive_roots)
        if self.rank != 1 or any(len(alpha) != 1 for alpha in roots):
            raise ValueError("only rank-1 root systems are supported")
        if not roots or (0,) in roots:
            raise ValueError("at least one positive root is required, and roots must be nonzero")
        stored = tuple(Fraction(x) for x in self.half_sum)
        if stored != (Fraction(sum(map(sum, roots)), 2),):
            raise ValueError(f"half_sum {stored} is not half the sum of the roots {roots}")
        if stored == (0,):  # (delta, alpha) = 0: no dimension formula, no group density
            raise ValueError(f"the roots {roots} have half-sum 0")
        object.__setattr__(self, "positive_roots", roots)
        object.__setattr__(self, "half_sum", stored)

    @classmethod
    def make(cls, positive_roots: Sequence[Sequence[int]]) -> "RootSystem":
        roots = [_ints(alpha, "roots") for alpha in positive_roots]
        return cls(len(roots[0]) if roots else 1, tuple(roots), (Fraction(sum(map(sum, roots)), 2),))

    @classmethod
    def su2(cls) -> "RootSystem":
        """SU(2) in the torus coordinate with |Delta|^2 = 2 - 2 cos 2t."""
        return cls.make([(2,)])


@dataclass(frozen=True)
class WeylDenomSq:
    """Finite Fourier support of the squared Weyl denominator: ``table`` is D on
    -span..span as one read-only integer array, and ``coeffs`` maps (nu,) to D(nu)."""

    coeffs: Mapping[tuple[int], int]
    convention: str

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if any(len(nu) != 1 for nu in self.coeffs):
            raise ValueError("Weyl denominator weights must be 1-tuples (nu,): rank 1 only")
        nus = _ints((nu for (nu,) in self.coeffs), "weights")
        coeffs = {nu: c for nu, c in zip(nus, _ints(self.coeffs.values(), "coefficients")) if c}
        if not coeffs:
            raise ValueError("Weyl denominator table is empty")
        span = max(map(abs, coeffs))
        table = np.array([coeffs.get(nu, 0) for nu in range(-span, span + 1)], dtype=np.int64)
        if table.sum() != 0 or np.any(table != table[::-1]):
            raise ValueError("Weyl denominator coefficients must sum to 0 and be symmetric")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coeffs", {(nu - span,): int(c) for nu, c in enumerate(table) if c})

    @property
    def support_size(self) -> int:
        return len(self.coeffs)

    def get(self, nu) -> int:
        return self.coeffs.get(tuple(np.atleast_1d(nu).tolist()), 0)  # nu an integer or (nu,)


def weyl_denom_sq_coeffs(roots: RootSystem, convention: str = "nonnegative") -> WeylDenomSq:
    """Expand the squared Weyl denominator: the convolution of one integer factor per
    positive root alpha, 2 - 2 cos(alpha t) (-1, 2, -1 at -alpha, 0, alpha) in the nonnegative
    convention, or its negation e^{i alpha t} + e^{-i alpha t} - 2 in the signed product form."""
    if len(roots.positive_roots) > 31:  # sum |D| <= 4^#roots, which int64 holds up to 4^31
        raise ValueError("at most 31 positive roots are supported")
    sign = 1 if convention == "nonnegative" else -1
    table = np.ones(1, dtype=np.int64)
    for (alpha,) in roots.positive_roots:
        factor = np.zeros(2 * abs(alpha) + 1, dtype=np.int64)
        factor[[0, abs(alpha), -1]] = -sign, 2 * sign, -sign
        table = np.convolve(table, factor)
    span = len(table) // 2
    return WeylDenomSq({(nu - span,): int(c) for nu, c in enumerate(table)}, convention)


def weyl_dimension(mu: Sequence[int], roots: RootSystem) -> int:
    """Dimension of the representation with dominant weight mu = (m,).

    In rank 1 each factor (mu + delta, alpha) / (delta, alpha) of the Weyl product is
    (m + delta) / delta, so the dimension is ((m + delta) / delta)^#roots, exact in
    Fractions; raises if it is not a positive integer."""
    (m,), (delta,) = _ints(mu, "weights"), roots.half_sum  # a weight of length 1; delta != 0
    dim = ((m + delta) / delta) ** len(roots.positive_roots)
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
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sin_t = np.sin(arr)
    out = np.empty_like(arr)
    safe = np.abs(sin_t) > 1e-8
    out[safe] = np.sin((two_l + 1) * arr[safe]) / sin_t[safe]
    w = np.arange(-two_l, two_l + 1, 2, dtype=float)
    out[~safe] = np.cos(np.outer(arr[~safe], w)).sum(axis=1)
    return float(out[0]) if scalar else out


def _inner(a: CoeffND, denom: WeylDenomSq) -> CoeffND:
    """g(mu) = (1/|W|) sum_nu D(nu) a[mu + nu] over its whole support.

    D is symmetric, so g is the convolution a * D / |W|, on a's block
    widened by the span of D.
    """
    if not len(a):  # np.convolve refuses an empty operand
        return a
    return Coeff1D(a.offset - len(denom.table) // 2, np.convolve(a.values, denom.table) / _SU2_WEYL_ORDER)


def _character_coeffs(a: CoeffND, two_lmax: int) -> np.ndarray:
    """c_l for every 2l in 0..two_lmax, by the telescoped closed form."""
    w = window_axis(a.values, a.offset, 0, -two_lmax - 2, two_lmax + 2)
    both = w[two_lmax + 2 :] + w[two_lmax + 2 :: -1]  # a_k + a_{-k}, k = 0..2 lmax + 2
    c = both[:-2]  # in place, so w and both are the only arrays of this size
    c -= both[2:]
    c /= _SU2_WEYL_ORDER * np.arange(1, two_lmax + 2)
    return c


class _Levels(Mapping):
    """Read-only diagonal data for 2l = 0..top from one array: level 2l is
    (2l + 1, data[at(2l)]).  In paper mode ``data`` is g on -top..top and the
    diagonal its view at the weights of l; in character mode ``data[2l]``
    is c_l, repeated over the diagonal when the level is read."""

    def __init__(self, data: np.ndarray, character: bool):
        data.flags.writeable = False
        self.data, self._character = data, character
        self._top = len(data) - 1 if character else (len(data) - 1) // 2

    def __contains__(self, two_l) -> bool:
        return isinstance(two_l, (int, np.integer)) and 0 <= two_l <= self._top

    def at(self, two_l: int):
        """Where level 2l's diagonal sits in ``data``: the strided slice at the
        weights of l (paper), or index 2l once per weight (character)."""
        if self._character:
            return np.full(two_l + 1, two_l)
        return slice(self._top - two_l, self._top + two_l + 1, 2)

    def __getitem__(self, two_l) -> tuple[int, np.ndarray]:
        if two_l not in self:
            raise KeyError(two_l)
        vals = self.data[self.at(int(two_l))]
        vals.flags.writeable = False  # a paper view already is; a character level is a copy
        return int(two_l) + 1, vals

    def __len__(self) -> int:
        return self._top + 1

    def __iter__(self):
        return iter(range(self._top + 1))

    def sums(self, p: float = 1) -> np.ndarray:
        """Running totals of (2l + 1) sum_m |v_m|^p over the levels: a character level
        adds d^2 |c_l|^p, and paper level 2l adds mu = +-2l to level 2l - 2 (parity class)."""
        x, top = np.abs(self.data), self._top
        if p != 1:
            x **= p
        d = np.arange(1, top + 2)
        if self._character:
            return np.cumsum(d * d * x)
        level = x[top:]  # x is our own, so the level sums build in place
        level[1:] += x[:top][::-1]
        level[0::2] = np.cumsum(level[0::2])
        level[1::2] = np.cumsum(level[1::2])
        return np.cumsum(d * level)


def _levels(a: CoeffND, two_lmax: int, denom: WeylDenomSq, mode: str, g=None) -> _Levels:
    """Diagonal Fourier data for every 2l in 0..two_lmax, keyed by 2l (paper mode: g if given)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "character":
        return _Levels(_character_coeffs(a, two_lmax), character=True)
    g = _inner(a, denom) if g is None else g
    return _Levels(window_axis(g.values, g.offset, 0, -two_lmax, two_lmax), character=False)


def diag_fourier_coeff(a: CoeffND, l, denom: WeylDenomSq, mode: str = "paper") -> np.ndarray:
    """Diagonal Fourier data of the central extension at highest weight l.

    mode "paper": value at weight mu_m is (1/|W|) sum_nu D(nu) a[mu_m + nu]
    over the finite support of the denominator table D.  mode
    "character": the true (Schur-scalar) coefficient repeated over the
    diagonal; see :func:`character_coeff`.  A read-only array.
    """
    two_l = _two_l(l)
    return _levels(a, two_l, denom, mode)[two_l][1]


def character_coeff(a: CoeffND, l) -> complex:
    """Fourier coefficient of the central extension against the character.

    c_l = (1/d) (1/|W|) (1/2pi) integral of f(t) chi_l(t) |Delta(t)|^2
    (|Delta|^2 in the nonnegative convention; chi real), which the
    finite Fourier supports telescope to
    (a_{2l} + a_{-2l} - a_{2l+2} - a_{-2l-2}) / (|W| d).
    """
    two_l = _two_l(l)
    v, lo = a.values, a.offset

    def at(k):  # a_k, 0 off the support
        return v[k - lo] if 0 <= k - lo < len(v) else 0j

    # the operations of _character_coeffs at one level, numpy's complex division included
    diff = np.complex128((at(two_l) + at(-two_l)) - (at(two_l + 2) + at(-two_l - 2)))
    return complex(diff / (_SU2_WEYL_ORDER * (two_l + 1)))


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

    return complex(_refined(integrate, tol) / (_SU2_WEYL_ORDER * (two_l + 1)))


@dataclass(frozen=True)
class CentralCoeffTable:
    """Diagonal Fourier data keyed by 2l, as :func:`ext_fourier_table` builds it."""

    entries: Mapping[int, tuple[int, np.ndarray]]
    mode: str
    convention: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not isinstance(self.entries, _Levels):
            raise TypeError("table entries must come from ext_fourier_table")


def ext_fourier_table(
    a: CoeffND, lmax, denom: WeylDenomSq, mode: str = "paper"
) -> CentralCoeffTable:
    """Diagonal Fourier data for all highest weights up to lmax.

    The entries are read-only views over one array of O(lmax) numbers:
    the paper-mode diagonals slice g, and a character-mode diagonal is
    built when its level is read."""
    return CentralCoeffTable(_levels(a, _two_l(lmax), denom, mode), mode, denom.convention)


def schatten_lp_norm(table: CentralCoeffTable, p: float) -> float:
    """Dimension-weighted Schatten sum (sum_pi d_pi sum_m |v_m|^p)^{1/p}.

    Valid for the central self-adjoint case where the matrix data is
    diagonal, so the S^p norm is the p-sum of the diagonal moduli.  One
    O(lmax) level sum, as in :func:`condition_q1_sum` (its last value is p = 1).
    """
    if p < 1:
        raise ValueError("Schatten exponent must satisfy p >= 1")
    return float(table.entries.sums(p)[-1]) ** (1.0 / p)


def condition_q1_sum(
    a: CoeffND, lmax, denom: WeylDenomSq, mode: str = "paper"
) -> list[float]:
    """Cumulative sums of d_pi * sum_m |diagonal value| over l <= lmax.

    One partial sum per l in 0, 1/2, 1, ..., lmax (indexed by 2l): the
    level sums of :func:`ext_fourier_table`'s data, so the last one is
    ``schatten_lp_norm(table, 1)`` exactly.  In character mode the d_pi
    diagonal values all equal c_l, so level 2l adds d_pi^2 |c_l|.
    """
    return _levels(a, _two_l(lmax), denom, mode).sums().tolist()


@dataclass(frozen=True)
class Q2Diagnostic:
    """Both sides of the even/odd re-expansion summability comparison."""

    two_l: tuple[int, ...]
    hilbert_side: tuple[float, ...]
    plain_side: tuple[float, ...]
    parity: str

    @property
    def ratio(self) -> tuple[float, ...]:
        pairs = zip(self.hilbert_side, self.plain_side)
        return tuple(h / p if p > 0 else float("nan") for h, p in pairs)


def q2_diagnostic(
    a: CoeffND, lmax, denom: WeylDenomSq, mode: str = "paper"
) -> Q2Diagnostic:
    """Partial sums of d_pi sum_m |h g(mu_m)| against d_pi sum_m |g(mu_m)|.

    g is the weight-indexed inner sequence g(mu) = (1/|W|) sum_nu
    D(nu) a[mu + nu] (the paper-mode diagonal values), regarded as a
    sequence over the integer weight lattice (its whole support), and
    h is the full discrete Hilbert transform.
    Both sides are the O(lmax) level sum of :func:`condition_q1_sum`: over
    h g on -2lmax..2lmax, and over the requested mode's table (paper: same g).
    The comparison is reported as data; no constant is adjudicated.
    """
    g = _inner(a, denom)
    two_lmax = _two_l(lmax)
    plain = _levels(a, two_lmax, denom, mode, g)  # a bad mode raises before the transform
    parity = parity_check(a)
    if parity != "even":
        warnings.warn(f"q2_diagnostic expects an even sequence, got {parity}", stacklevel=2)
    hg = dht_full(g, (-two_lmax, two_lmax)).values
    return Q2Diagnostic(
        two_l=tuple(range(two_lmax + 1)),
        hilbert_side=tuple(_Levels(hg, character=False).sums().tolist()),
        plain_side=tuple(plain.sums().tolist()),
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
    # w[k + 1] = a_k for k = -1 .. M + 2, as Python complex numbers, so the
    # sums below round exactly as entrywise lookups would
    w = window_axis(a.values, a.offset, 0, -1, top + 2).tolist()
    if w[0] != 0 or w[1] != 0:
        warnings.warn("forcing a_0 = a_{-1} = 0 for the telescoping identity", stacklevel=2)
        w[0] = w[1] = 0j
    brute = sum(w[m - 1] - 2 * w[m + 1] + w[m + 3] for m in range(1, top + 1))
    paper = -w[top] - w[top + 1] + w[top + 2] + w[top + 3]
    derived = w[0] + w[1] - w[2] - w[3] - w[top] - w[top + 1] + w[top + 2] + w[top + 3]
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
