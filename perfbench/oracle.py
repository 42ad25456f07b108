"""Benchmark-owned reference formulas and sequence-file I/O.

Nothing here imports ``reexpansion``.  The kernel sums are restated
term by term from their definitions in plain numpy, and sequence files
are written and parsed with :mod:`json` directly, so a change to the
program can change neither the benchmark's inputs nor its references.
"""

from __future__ import annotations

import json

import numpy as np

TWO_OVER_PI = 2.0 / np.pi


def write_sequence(path, offsets, values) -> None:
    """Write ``{"dims", "offsets", "values": [[re, im], ...]}`` to ``path``."""
    vals = np.asarray(values, dtype=np.complex128)
    flat = vals.reshape(-1)
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    doc = {"dims": list(vals.shape), "offsets": [int(o) for o in offsets], "values": pairs}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_sequence(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Parse a sequence file into (offsets, complex array shaped by dims)."""
    with open(path) as fh:
        doc = json.load(fh)
    pairs = np.asarray(doc["values"], dtype=float).reshape(-1, 2)
    vals = (pairs[:, 0] + 1j * pairs[:, 1]).reshape([int(n) for n in doc["dims"]])
    return tuple(int(o) for o in doc["offsets"]), vals


def _recip(x: np.ndarray) -> np.ndarray:
    """1/x with 0 where x == 0."""
    safe = np.where(x == 0, 1.0, x)
    return np.where(x == 0, 0.0, 1.0 / safe)


def kernel_row(kind: str, n: int, k: np.ndarray) -> np.ndarray:
    """Weights w_k with (h a)(n) = sum_k w_k a_k, from the kernel definitions.

    full:        1/(n-k), k != n
    even:        2n/(n^2-k^2), k >= 1, k != n; plus 1/(2n) at k = n
    odd:         2k/(n^2-k^2), k >= 1, k != n; minus 1/(2n) at k = n >= 1
    even_halved: 1/(n+k) + 1/(n-k) for k >= 1 with k - n odd
    odd_halved:  1/(n+k) + 1/(k-n) for k >= 1 with k - n odd
    """
    k = np.asarray(k, dtype=float)
    n = float(n)
    if kind == "full":
        return _recip(n - k)
    pos = k >= 1
    if kind in ("even", "odd"):
        num = 2.0 * n if kind == "even" else 2.0 * k
        row = num * _recip(n * n - k * k)
        if n >= 1:
            row = row + np.where(k == n, (1.0 if kind == "even" else -1.0) / (2.0 * n), 0.0)
        return np.where(pos, row, 0.0)
    odd = pos & ((k - n) % 2 == 1)
    plus = _recip(n + k)
    minus = _recip(n - k)
    row = plus + minus if kind == "even_halved" else plus - minus
    return np.where(odd, row, 0.0)


def transform_at(kind: str, offset: int, values: np.ndarray, ns) -> np.ndarray:
    """The ``kind`` transform of a 1-D sequence at output indices ``ns``."""
    k = offset + np.arange(len(values))
    return np.array([kernel_row(kind, n, k) @ values for n in ns])


def transform_matrix(kind: str, offset: int, size: int, lo: int, hi: int) -> np.ndarray:
    """Rows n = lo..hi of the ``kind`` kernel over support offset..offset+size-1."""
    k = offset + np.arange(size)
    return np.array([kernel_row(kind, n, k) for n in range(lo, hi + 1)])


def tensor_at(kinds, offsets, values: np.ndarray, index) -> complex:
    """sum_k a_k prod_j w_j(index_j, k_j), one kernel kind per axis."""
    acc = values
    for kind, off, n in zip(kinds, offsets, index):
        k = off + np.arange(acc.shape[0])
        acc = np.tensordot(acc, kernel_row(kind, n, k), axes=([0], [0]))
    return complex(acc)


def mixed_kinds(bits) -> list[str]:
    """Per-axis halved kernel of the re-expansion map for source parity bits."""
    return ["even_halved" if b == 1 else "odd_halved" for b in bits]


def reexpand_box(bits, offsets, values: np.ndarray, box) -> np.ndarray:
    """(2/pi)^d times the mixed halved transform over a whole output box."""
    acc = values
    for kind, off, (lo, hi) in zip(mixed_kinds(bits), offsets, box):
        mat = transform_matrix(kind, off, acc.shape[0], lo, hi)
        acc = np.tensordot(acc, mat, axes=([0], [1]))
    return acc * TWO_OVER_PI ** values.ndim


def weighted_raw_box(bits, q, offsets, values: np.ndarray, box) -> np.ndarray:
    """Coefficients of the q-th derivative series in the shifted target basis.

    m^q b_m = (-1)^{#odd q_j} * (2/pi)^d * mixed transform of k^q a_k at
    the parity flipped on every axis with odd q_j.
    """
    weighted = values.astype(np.complex128)
    for ax, (off, qj) in enumerate(zip(offsets, q)):
        shape = [1] * values.ndim
        shape[ax] = -1
        weighted = weighted * ((off + np.arange(values.shape[ax])) ** float(qj)).reshape(shape)
    flipped = [b ^ (qj % 2) for b, qj in zip(bits, q)]
    sign = -1.0 if sum(qj % 2 for qj in q) % 2 else 1.0
    return sign * reexpand_box(flipped, offsets, weighted, box)


# ---------------------------------------------------------------------------
# SU(2): denominator table {0: 2, +-2: -1} (nonnegative convention), |W| = 2


def su2_inner(a: dict, mu: int) -> complex:
    """g(mu) = (1/2) sum_nu D(nu) a[mu + nu] = a_mu - (a_{mu+2} + a_{mu-2}) / 2."""
    return a.get(mu, 0.0) - 0.5 * (a.get(mu + 2, 0.0) + a.get(mu - 2, 0.0))


def su2_character_coeff(a: dict, two_l: int) -> complex:
    """Closed form c_l = (a_{2l} + a_{-2l} - a_{2l+2} - a_{-2l-2}) / (2(2l+1))."""
    num = a.get(two_l, 0.0) + a.get(-two_l, 0.0) - a.get(two_l + 2, 0.0) - a.get(-two_l - 2, 0.0)
    return num / (2.0 * (two_l + 1))


def su2_q1(a: dict, two_lmax: int, mode: str) -> np.ndarray:
    """Partial sums over 2l of d_l * sum_m |diagonal value| (d_l = 2l + 1)."""
    terms = []
    for two_l in range(two_lmax + 1):
        d = two_l + 1
        if mode == "character":
            terms.append(d * d * abs(su2_character_coeff(a, two_l)))
        else:
            terms.append(d * sum(abs(su2_inner(a, mu)) for mu in range(-two_l, two_l + 1, 2)))
    return np.cumsum(terms)


def su2_q2_hilbert_side(a: dict, two_lmax: int) -> np.ndarray:
    """Partial sums of d_l sum_m |h g(mu_m)|, g windowed to |mu| <= 2*2lmax + 8."""
    bound = 2 * two_lmax + 8
    mus = np.arange(-bound, bound + 1)
    g = np.array([su2_inner(a, int(mu)) for mu in mus])
    hg = {int(mu): kernel_row("full", int(mu), mus) @ g for mu in mus}
    terms = [
        (two_l + 1) * sum(abs(hg[mu]) for mu in range(-two_l, two_l + 1, 2))
        for two_l in range(two_lmax + 1)
    ]
    return np.cumsum(terms)


def su2_sufficiency(a: dict) -> float:
    """sum over odd n >= 1 of n ln(n) |a_n|."""
    return float(sum(k * np.log(k) * abs(v) for k, v in a.items() if k >= 1 and k % 2 == 1))


# ---------------------------------------------------------------------------


def deviation(got, want) -> float:
    """max |got - want| / max(1, max |want|): absolute for O(1) data, relative above."""
    got = np.asarray(got, dtype=np.complex128).reshape(-1)
    want = np.asarray(want, dtype=np.complex128).reshape(-1)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return float("inf")
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def perturbed(got) -> np.ndarray:
    """A copy of ``got`` moved by 1e-6 of its scale: every check must flag it."""
    got = np.asarray(got, dtype=np.complex128)
    return got + 1e-6 * max(1.0, float(np.max(np.abs(got))))
