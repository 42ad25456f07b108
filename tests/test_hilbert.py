"""Tests for the discrete Hilbert transform kernels.

Expected values for single impulses follow directly from the defining
formulas; multi-term expectations were computed by hand (naive
double-loop summation) and are cross-checked here against both
evaluators.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from reexpansion import (
    Coeff1D,
    CoeffND,
    ParityVector,
    TransformRequest,
    cos_to_sin,
    dht_even,
    dht_even_halved,
    dht_full,
    dht_mixed,
    dht_odd,
    dht_odd_halved,
    dht_tensor,
    l1_norm,
    sin_to_cos,
    transform,
)

ALGS = ("naive", "fast")


def impulse(k):
    return Coeff1D.impulse(k)


@pytest.mark.parametrize("alg", ALGS)
class TestKernelExamples:
    def test_full_zero(self, alg):
        out = dht_full(Coeff1D(0, np.zeros(0)), (-5, 5), alg)
        assert l1_norm(out) == 0.0

    def test_full_impulse(self, alg):
        out = dht_full(impulse(0), (-1, 2), alg)
        np.testing.assert_allclose(
            [out[-1], out[0], out[1], out[2]], [-1.0, 0.0, 1.0, 0.5], atol=1e-14
        )

    def test_full_two_terms(self, alg):
        out = dht_full(impulse(0) + impulse(1), (0, 2), alg)
        np.testing.assert_allclose([out[0], out[1], out[2]], [-1.0, 1.0, 1.5], atol=1e-14)

    def test_even_impulse(self, alg):
        out = dht_even(impulse(1), (1, 3), alg)
        np.testing.assert_allclose(
            [out[1], out[2], out[3]], [0.5, 4.0 / 3.0, 0.75], atol=1e-14
        )

    def test_even_two_terms(self, alg):
        out = dht_even(impulse(1) + impulse(2), (1, 1), alg)
        np.testing.assert_allclose(out[1], -1.0 / 6.0, atol=1e-14)

    def test_even_zero(self, alg):
        assert l1_norm(dht_even(Coeff1D(1, np.zeros(3)), (1, 9), alg)) == 0.0

    def test_odd_impulse(self, alg):
        out = dht_odd(impulse(1), (0, 2), alg)
        np.testing.assert_allclose(
            [out[0], out[1], out[2]], [-2.0, -0.5, 2.0 / 3.0], atol=1e-14
        )

    def test_odd_self_term_only(self, alg):
        np.testing.assert_allclose(dht_odd(impulse(2), (2, 2), alg)[2], -0.25, atol=1e-15)

    def test_odd_two_terms(self, alg):
        out = dht_odd(impulse(1) + impulse(3), (2, 2), alg)
        np.testing.assert_allclose(out[2], -8.0 / 15.0, atol=1e-14)

    def test_even_halved_impulse_and_parity(self, alg):
        out = dht_even_halved(impulse(1), (1, 4), alg)
        np.testing.assert_allclose(
            [out[2], out[3], out[4]], [4.0 / 3.0, 0.0, 8.0 / 15.0], atol=1e-14
        )

    def test_even_halved_two_terms(self, alg):
        out = dht_even_halved(impulse(1) + impulse(3), (2, 2), alg)
        np.testing.assert_allclose(out[2], 8.0 / 15.0, atol=1e-14)

    def test_odd_halved_impulse_and_parity(self, alg):
        out = dht_odd_halved(impulse(1), (0, 2), alg)
        np.testing.assert_allclose([out[0], out[1], out[2]], [2.0, 0.0, -2.0 / 3.0], atol=1e-14)

    def test_odd_halved_single_term(self, alg):
        np.testing.assert_allclose(dht_odd_halved(impulse(2), (1, 1), alg)[1], 4.0 / 3.0, atol=1e-14)

    def test_odd_halved_two_terms(self, alg):
        out = dht_odd_halved(impulse(1) + impulse(3), (2, 2), alg)
        np.testing.assert_allclose(out[2], 8.0 / 15.0, atol=1e-14)


def test_range_validation():
    with pytest.raises(ValueError):
        dht_even(impulse(1), (0, 4))
    with pytest.raises(ValueError):
        dht_odd(impulse(1), (-1, 4))
    with pytest.raises(ValueError):
        dht_full(impulse(1), (3, 2))
    with pytest.raises(ValueError):
        TransformRequest("even", (0, 8))
    with pytest.raises(ValueError):
        TransformRequest("sideways", (1, 8))


def test_restricted_kinds_reject_negative_support():
    a = Coeff1D.from_dict({-2: 1.0, 3: 1.0})
    for op, rng in ((dht_even, (1, 4)), (dht_odd, (0, 4)), (dht_even_halved, (1, 4))):
        with pytest.raises(ValueError):
            op(a, rng)
    dht_full(a, (-4, 4))  # full kind takes two-sided input


def test_index_zero_entry_is_dropped():
    # a_0 is treated as zero for the restricted kinds
    with_zero = Coeff1D.from_dict({0: 5.0, 1: 1.0})
    without = Coeff1D.impulse(1)
    for op, rng in ((dht_even, (1, 6)), (dht_odd, (0, 6)), (dht_odd_halved, (0, 6))):
        np.testing.assert_array_equal(op(with_zero, rng).values, op(without, rng).values)


def test_transform_request_dispatch():
    req = TransformRequest("even_halved", (1, 4), "naive")
    out = transform(impulse(1), req)
    np.testing.assert_allclose(out[2], 4.0 / 3.0)


@pytest.mark.parametrize("kind,lo", [("full", -64), ("even", 1), ("odd", 0),
                                     ("even_halved", 1), ("odd_halved", 0)])
def test_linearity(kind, lo):
    from reexpansion.hilbert import _run_1d

    rng = np.random.default_rng(17)
    a = Coeff1D(1, rng.standard_normal(40) + 1j * rng.standard_normal(40))
    b = Coeff1D(1, rng.standard_normal(40))
    al, be = 0.7 - 0.2j, -1.3
    combo = Coeff1D(1, al * a.values + be * b.values)
    lhs = _run_1d(combo, kind, lo, 64, "fast")
    rhs = al * _run_1d(a, kind, lo, 64, "fast").values + be * _run_1d(b, kind, lo, 64, "fast").values
    scale = np.max(np.abs(rhs)) or 1.0
    np.testing.assert_allclose(lhs.values, rhs, rtol=0, atol=1e-12 * scale)


def test_full_kernel_skew_adjoint():
    # sum_n (h a)(n) b(n) = -sum_n a(n) (h b)(n) over a wide window
    rng = np.random.default_rng(23)
    a = Coeff1D(-10, rng.standard_normal(21))
    b = Coeff1D(-10, rng.standard_normal(21))
    window = (-2000, 2000)
    ha = dht_full(a, window)
    hb = dht_full(b, window)
    idx = ha.indices()
    bv = np.array([b[int(n)].real for n in idx])
    av = np.array([a[int(n)].real for n in idx])
    lhs = float(np.sum(ha.values.real * bv))
    rhs = -float(np.sum(av * hb.values.real))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("op,lo", [(dht_even_halved, 1), (dht_odd_halved, 0)])
def test_parity_decoupling_exact(op, lo):
    for k in (1, 2, 5, 8):
        out = op(Coeff1D.impulse(k), (lo, 40))
        idx = out.indices()
        same_parity = (idx - k) % 2 == 0
        assert np.all(out.values[same_parity] == 0.0)


# name -> (support offset, support size, window start above the floor,
# complex input); the halved kinds pick their sublattices from the
# parities of the offset and of the window start
FAST_NAIVE_CASES = {
    "": (1, 128, 0, True),
    "offset2": (2, 128, 0, True),
    "above-floor": (1, 128, 1, True),
    "sparse-far": (10**6, 16, 0, True),
    "real": (1, 128, 0, False),
}


@pytest.mark.parametrize("kind,lo,offset,size,shift,complex_input", [
    pytest.param(kind, lo, *case, id=f"{kind}-{lo}" + (f"-{name}" if name else ""))
    for kind, lo in (("full", -256), ("even", 1), ("odd", 0), ("even_halved", 1), ("odd_halved", 0))
    for name, case in FAST_NAIVE_CASES.items()
])
def test_fast_matches_naive_random(kind, lo, offset, size, shift, complex_input):
    rng = np.random.default_rng(31)
    values = rng.standard_normal(size)
    if complex_input:
        values = values + 1j * rng.standard_normal(size)
    a = Coeff1D(offset, values)
    from reexpansion.hilbert import _run_1d

    naive = _run_1d(a, kind, lo + shift, 256, "naive")
    fast = _run_1d(a, kind, lo + shift, 256, "fast")
    scale = np.max(np.abs(naive.values))
    assert np.max(np.abs(naive.values - fast.values)) <= 1e-12 * scale


def _exact_transform(kind: str, offset: int, values, n: int) -> Fraction:
    """The kernel definition at output n as an exact sum over real ``values``."""
    total = Fraction(0)
    for k, v in enumerate(map(Fraction, values), start=offset):
        if kind == "full":
            total += v / (n - k) if k != n else 0
        elif kind in ("even", "odd"):
            if k != n:
                total += v * 2 * (n if kind == "even" else k) / (n * n - k * k)
            elif n != 0:
                total += (v if kind == "even" else -v) / (2 * n)
        elif (k - n) % 2 == 1:
            total += v * (Fraction(1, n + k) + Fraction(1, n - k if kind == "even_halved" else k - n))
    return total


# (kind, support offset, window); the one-point windows sit at the floor,
# inside the support and just above it
EXACT_CASES = [
    pytest.param(kind, offset, window, id=f"{kind}-{offset}-{window[0]}:{window[1]}")
    for kind, floor in (("full", -20), ("even", 1), ("odd", 0), ("even_halved", 1), ("odd_halved", 0))
    for offset in ((-7, 1, 10**6) if kind == "full" else (1, 10**6))
    for window in ((floor, 40), (floor, floor), (offset + 5, offset + 5),
                   (offset + 24, offset + 24))
]


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind,offset,window", EXACT_CASES)
def test_naive_matches_exact_sums(kind, offset, window, complex_input):
    # Products of reciprocals keep every kernel entry to a few roundings;
    # a sum of two quotients would lose ~offset/n relative at offset 10^6.
    from reexpansion.hilbert import _run_1d

    rng = np.random.default_rng(53)
    values = rng.standard_normal(24)
    if complex_input:
        values = values + 1j * rng.standard_normal(24)
    lo, hi = window
    out = _run_1d(Coeff1D(offset, values), kind, lo, hi, "naive").values
    exact = np.array([
        complex(float(_exact_transform(kind, offset, values.real, n)),
                float(_exact_transform(kind, offset, values.imag, n)))
        for n in range(lo, hi + 1)
    ])
    assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_naive_path_is_fft_free_and_linear_in_memory(monkeypatch):
    from reexpansion import hilbert

    def unreachable(*args, **kwargs):
        raise AssertionError("the naive path reached the FFT evaluator")

    for name in ("_recip", "rfft", "irfft"):
        monkeypatch.setattr(hilbert, name, unreachable)
    rng = np.random.default_rng(59)
    a = Coeff1D(1, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    for kind in hilbert.KINDS:
        floor = hilbert._KIND_FLOOR[kind]
        hilbert._run_1d(a, kind, -40 if floor is None else floor, 40, "naive")
    grid = CoeffND((1, 1), rng.standard_normal((6, 6)))
    dht_mixed(grid, ParityVector((1, 0)), [(1, 12), (0, 12)], "naive")

    # the kernel matrix is never formed: at 2^13 it would take 512 MB
    n = 1 << 13
    a = Coeff1D(1, rng.standard_normal(n))
    for kind in hilbert.KINDS:
        tracemalloc.start()
        try:
            hilbert._run_1d(a, kind, hilbert._KIND_FLOOR[kind] or 1, n, "naive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * (n + n) * 8, f"{kind}: peak {peak} bytes"

    # many-row batches form the matrix, one chunk of at most
    # _NAIVE_CHUNK_ELEMS entries at a time (whole, 2^12 x 2^12 is 128 MB)
    n = 1 << 12
    batch = rng.standard_normal((hilbert._NAIVE_VIEW_ROWS + 1, n))
    for kind in hilbert.KINDS:
        lo = hilbert._KIND_FLOOR[kind] or 1
        tracemalloc.start()
        try:
            out = hilbert._naive(kind, batch, 1, lo, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = [hilbert._naive(kind, row[None, :], 1, lo, n)[0] for row in batch]
        np.testing.assert_allclose(out, rows, rtol=0, atol=1e-12 * np.max(np.abs(rows)))
        assert peak <= 2 * hilbert._NAIVE_CHUNK_ELEMS * 8, f"{kind}: peak {peak} bytes"


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fast_len_is_the_least_5_smooth_length():
    from reexpansion import hilbert

    for n in range(1, 4097):
        assert hilbert._fast_len(n) == next(m for m in itertools.count(n) if _is_5_smooth(m))


def test_fast_len_matches_scipy_next_fast_len():
    from reexpansion import hilbert

    sfft = pytest.importorskip("scipy.fft")
    ns = [*range(1, 65537), 3 * 2**20, 2**21 + 1]
    assert [hilbert._fast_len(n) for n in ns] == [sfft.next_fast_len(n, real=True) for n in ns]


def test_fast_path_takes_one_fft_pair_per_output_class(monkeypatch):
    # R a and R b share the rows' spectrum: per output class one batch rfft
    # of the rows, one rfft per kernel and one irfft
    from reexpansion import hilbert

    calls = {"rows": 0, "kernel": 0, "irfft": 0}

    def counted(fft, name):
        def wrapper(x, *args, **kwargs):
            calls["irfft" if name == "irfft" else "rows" if np.ndim(x) == 2 else "kernel"] += 1
            return fft(x, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(hilbert, "rfft", counted(hilbert.rfft, "rfft"))
    monkeypatch.setattr(hilbert, "irfft", counted(hilbert.irfft, "irfft"))
    a = Coeff1D(1, np.random.default_rng(61).standard_normal(64))
    expected = {"full": (1, 1), "even": (1, 2), "odd": (1, 2),
                "even_halved": (2, 2), "odd_halved": (2, 2)}  # (classes, kernels per class)
    for kind, (classes, kernels) in expected.items():
        calls.update(rows=0, kernel=0, irfft=0)
        hilbert._run_1d(a, kind, hilbert._KIND_FLOOR[kind] or 1, 100, "fast")
        assert calls == {"rows": classes, "kernel": classes * kernels, "irfft": classes}, kind


def _traced_peak(call):
    """``call()`` and the peak of the memory numpy allocated during it, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_fast_path_memory_is_bounded_by_its_row_blocks(monkeypatch):
    from reexpansion import hilbert

    # a complex input is two real rows, each a block of its own at this size:
    # beyond the rows, the staged real outputs and one kernel spectrum, one
    # row's FFTs are held (3.75x the result; 6x with both rows' at once).
    # numpy < 2 zero-pads irfft's input to the FFT length: 1.5x more per row
    rng = np.random.default_rng(67)
    n = 1 << 16
    a = Coeff1D(1, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    out, peak = _traced_peak(lambda: dht_full(a, (-n, n)))
    bound = 4.5 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 6.0
    assert peak <= bound * out.values.nbytes, f"peak {peak / out.values.nbytes:.2f}x the result"

    # many short rows in small blocks: past the output (staged as reals, then
    # returned complex: 1.5x its bytes) a few blocks' arrays at most
    monkeypatch.setattr(hilbert, "_FAST_BLOCK_ELEMS", 1 << 14)
    wide = CoeffND((1, 0), rng.standard_normal((512, 1024)))
    tall = CoeffND((0, 1), rng.standard_normal((1024, 512)))
    for call in (
        lambda: dht_tensor(wide, ParityVector((0, 0)), ParityVector((0, 1)), [None, (0, 63)]),
        lambda: dht_tensor(tall, ParityVector((1, 0)), ParityVector((0, 0)), [(1, 64), None]),
    ):
        out, peak = _traced_peak(call)
        assert out.values.shape in ((512, 64), (64, 512))
        assert peak <= 1.5 * out.values.nbytes + 4 * 8 * hilbert._FAST_BLOCK_ELEMS, f"peak {peak}"


def test_row_blocks_leave_every_output_bit_unchanged(monkeypatch):
    from reexpansion import hilbert

    default = hilbert._FAST_BLOCK_ELEMS
    rng = np.random.default_rng(71)
    vec = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    grid = rng.standard_normal((24, 20)) + 1j * rng.standard_normal((24, 20))
    calls = []
    for values in (vec, vec.real):
        a = Coeff1D(1, values)
        for kind in hilbert.KINDS:
            lo = -400 if kind == "full" else hilbert._KIND_FLOOR[kind]
            calls += [(getattr(hilbert, f"dht_{kind}"), (a, (lo, 400), alg)) for alg in ALGS]
    for values in (grid, grid.real):
        g = CoeffND((1, 0), values)
        calls += [(dht_mixed, (g, ParityVector((1, 0)), [(1, 50), (0, 41)], alg)) for alg in ALGS]
        calls += [(dht_tensor, (g, ParityVector((0, 1)), ParityVector((1, 0)), [(0, 47), (1, 43)], alg))
                  for alg in ALGS]
    whole = [f(*args).values.tobytes() for f, args in calls]  # every batch in one block
    monkeypatch.setattr(hilbert, "_FAST_BLOCK_ELEMS", 1)  # one row per block
    for (f, args), expected in zip(calls, whole):
        assert f(*args).values.tobytes() == expected, (f.__name__, args[-1])

    # a complex sequence is its real and imaginary rows, recombined as 1j * im + re
    for budget in (1, default):
        monkeypatch.setattr(hilbert, "_FAST_BLOCK_ELEMS", budget)
        whole, re, im = (dht_full(Coeff1D(1, v), (-400, 400)).values for v in (vec, vec.real, vec.imag))
        assert whole.tobytes() == (1j * im + re).tobytes()


# The invariants below need no quadratic reference, so they check the
# fast path at the largest advertised size.
LARGE_N = 1 << 20


def test_full_antisymmetry_large():
    # <h a, b> = -<a, h b> exactly when both supports lie in the window
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal(LARGE_N), rng.standard_normal(LARGE_N)
    ha = dht_full(Coeff1D(1, a), (1, LARGE_N)).values
    hb = dht_full(Coeff1D(1, b), (1, LARGE_N)).values
    scale = np.linalg.norm(ha) * np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(hb)
    assert abs(np.dot(ha, b) + np.dot(a, hb)) <= 1e-12 * scale


def test_hilbert_inequality_large():
    # ||h a||_2 <= pi ||a||_2 (Montgomery & Vaughan 1974); a low-frequency
    # input comes within about 1e-4 of the bound, so there is little slack
    k = np.arange(LARGE_N)
    a = np.sin(np.pi * k / LARGE_N) ** 2 * np.cos(2 * np.pi * 64 * k / LARGE_N)
    ha = dht_full(Coeff1D(1, a), (1 - LARGE_N, 2 * LARGE_N)).values
    ratio = np.linalg.norm(ha) / (np.pi * np.linalg.norm(a))
    assert 0.999 <= ratio <= 1.0


def test_halved_kinds_are_masked_full_transforms_large():
    # for outputs n of parity p, with m the input kept at parity 1 - p and
    # r its reflection r_{-k} = m_k: h^e_- a = h m + h r, h^o_- a = h r - h m
    rng = np.random.default_rng(43)
    a = Coeff1D(1, rng.standard_normal(LARGE_N))
    window = (1, LARGE_N)
    even = dht_even_halved(a, window).values
    odd = dht_odd_halved(a, window).values
    n = np.arange(1, LARGE_N + 1)
    for p in (0, 1):
        m = np.where(a.indices() % 2 == 1 - p, a.values, 0.0)
        hm = dht_full(Coeff1D(1, m), window).values
        hr = dht_full(Coeff1D(-LARGE_N, m[::-1]), window).values
        sel = n % 2 == p
        for got, want in ((even, hm + hr), (odd, hr - hm)):
            scale = np.max(np.abs(want[sel]))
            assert np.max(np.abs(got[sel] - want[sel])) <= 1e-12 * scale


def test_halved_vs_full_norm_equivalence_sampled():
    # |  ||h^o_- a||_1 - 1/2 ||h^o a||_1  | stays bounded by an O(||a||_1)
    # constant; checked here on a few normalized random sequences with a
    # generous bound, the calibrated version lives in the acceptance suite.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 96))
        vals = rng.standard_normal(n)
        a = Coeff1D(1, vals / np.sum(np.abs(vals)))
        ho = l1_norm(dht_odd(a, (0, 1024)))
        hoh = l1_norm(dht_odd_halved(a, (0, 1024)))
        he = l1_norm(dht_even(a, (1, 1024)))
        heh = l1_norm(dht_even_halved(a, (1, 1024)))
        assert abs(hoh - 0.5 * ho) < 3.0
        assert abs(heh - 0.5 * he) < 3.0


class TestMixed:
    def test_example_2d(self):
        a = CoeffND.impulse((1, 1))
        for alg in ALGS:
            out = dht_mixed(a, ParityVector((1, 0)), [(1, 3), (0, 3)], alg)
            np.testing.assert_allclose(out[(2, 2)], -8.0 / 9.0, atol=1e-14)

    def test_zero(self):
        a = CoeffND((1, 1), np.zeros((2, 2)))
        out = dht_mixed(a, ParityVector((1, 0)), [(1, 4), (0, 4)])
        assert l1_norm(out) == 0.0

    def test_separable_factorization(self):
        rng = np.random.default_rng(2)
        u = Coeff1D(1, rng.standard_normal(7))
        v = Coeff1D(1, rng.standard_normal(9))
        a = CoeffND((1, 1), np.outer(u.values, v.values))
        out = dht_mixed(a, ParityVector((1, 0)), [(1, 20), (0, 20)])
        tu = dht_even_halved(u, (1, 20))
        tv = dht_odd_halved(v, (0, 20))
        expected = np.outer(tu.values, tv.values)
        np.testing.assert_allclose(out.values, expected, atol=1e-12 * np.max(np.abs(expected)))

    def test_naive_matches_fast_2d(self):
        rng = np.random.default_rng(8)
        a = CoeffND((1, 1), rng.standard_normal((6, 5)))
        eta = ParityVector((0, 1))
        box = [(0, 12), (1, 12)]
        nv = dht_mixed(a, eta, box, "naive")
        fv = dht_mixed(a, eta, box, "fast")
        np.testing.assert_allclose(nv.values, fv.values, atol=1e-13)

    def test_dimension_mismatch(self):
        a = CoeffND.impulse((1, 1))
        with pytest.raises(ValueError):
            dht_mixed(a, ParityVector((1,)), [(1, 3), (0, 3)])
        with pytest.raises(ValueError):
            dht_mixed(a, ParityVector((1, 0)), [(0, 3), (0, 3)])  # cosine axis floor is 1


class TestTensor:
    def test_identity_when_no_axis_selected(self):
        a = CoeffND((1, 1), np.arange(6.0).reshape(2, 3))
        out = dht_tensor(a, ParityVector((0, 0)), ParityVector((0, 0)), [None, None])
        np.testing.assert_array_equal(out.values, a.values)
        assert out.offsets == a.offsets

    def test_example_2d(self):
        a = CoeffND.impulse((1, 1))
        for alg in ALGS:
            out = dht_tensor(a, ParityVector((1, 0)), ParityVector((0, 1)), [(1, 3), (0, 3)], alg)
            np.testing.assert_allclose(out[(2, 2)], 8.0 / 9.0, atol=1e-14)

    def test_axiswise_equals_1d_products(self):
        rng = np.random.default_rng(19)
        u = Coeff1D(1, rng.standard_normal(5))
        v = Coeff1D(1, rng.standard_normal(6))
        a = CoeffND((1, 1), np.outer(u.values, v.values))
        out = dht_tensor(a, ParityVector((1, 0)), ParityVector((0, 1)), [(1, 15), (0, 15)])
        expected = np.outer(dht_even(u, (1, 15)).values, dht_odd(v, (0, 15)).values)
        np.testing.assert_allclose(out.values, expected, atol=1e-12 * np.max(np.abs(expected)))

    def test_overlap_rejected(self):
        a = CoeffND.impulse((1, 1))
        with pytest.raises(ValueError):
            dht_tensor(a, ParityVector((1, 0)), ParityVector((1, 0)), [(1, 3), None])

    def test_zero(self):
        a = CoeffND((1, 1), np.zeros((3, 3)))
        out = dht_tensor(a, ParityVector((1, 0)), ParityVector((0, 0)), [(1, 5), None])
        assert l1_norm(out) == 0.0

    def test_identity_axis_with_explicit_window(self):
        a = CoeffND((1, 1), np.arange(1.0, 10.0).reshape(3, 3))
        out = dht_tensor(a, ParityVector((1, 0)), ParityVector((0, 0)), [(1, 4), (2, 5)])
        assert out.offsets == (1, 2)
        # identity axis keeps rows 2..3 of the input, zero-padded to 5
        expected_cols = np.array([[r[1], r[2], 0.0, 0.0] for r in a.values])
        transformed = dht_even(Coeff1D(1, expected_cols[:, 0]), (1, 4)).values
        np.testing.assert_allclose(out.values[:, 0], transformed, atol=1e-14)
        assert np.all(out.values[:, 2:] == 0.0)


class TestOneSupportRule:
    """Every entry point applies one rule per axis: ``full`` is two-sided,
    every other axis one-sided, and index 0 is dropped on transformed axes."""

    A = Coeff1D(0, [3.0, -1.0, 0.5, 2.0, 0.25])  # a_0 != 0
    NEG = Coeff1D(-2, [1.0, 0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("alg", ALGS)
    @pytest.mark.parametrize("bit,op,lo", [(1, dht_even, 1), (0, dht_odd, 0)])
    def test_one_axis_tensor_is_the_1d_kernel(self, alg, bit, op, lo):
        chi, zeta = ParityVector((bit,)), ParityVector((1 - bit,))
        out = dht_tensor(self.A, chi, zeta, [(lo, 12)], alg)
        np.testing.assert_array_equal(out.values, op(self.A, (lo, 12), alg).values)
        assert out.offsets == (lo,)

    @pytest.mark.parametrize("alg", ALGS)
    @pytest.mark.parametrize("bit,op,lo", [(1, dht_even_halved, 1), (0, dht_odd_halved, 0)])
    def test_one_axis_mixed_is_the_halved_kernel(self, alg, bit, op, lo):
        out = dht_mixed(self.A, ParityVector((bit,)), [(lo, 12)], alg)
        expected = op(self.A, (lo, 12), alg).values
        if alg == "fast":  # the same sweep
            np.testing.assert_array_equal(out.values, expected)
        else:  # the separate tensordot reference
            np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("call", [
        lambda a: dht_even(a, (1, 4)),
        lambda a: dht_odd(a, (0, 4)),
        lambda a: dht_even_halved(a, (1, 4)),
        lambda a: dht_odd_halved(a, (0, 4), "naive"),
        lambda a: transform(a, TransformRequest("odd", (0, 4))),
        lambda a: dht_mixed(a, ParityVector((1,)), [(1, 4)]),
        lambda a: dht_mixed(a, ParityVector((0,)), [(0, 4)], "naive"),
        lambda a: dht_tensor(a, ParityVector((1,)), ParityVector((0,)), [(1, 4)]),
        lambda a: dht_tensor(a, ParityVector((0,)), ParityVector((0,)), [None]),
        lambda a: dht_tensor(  # negative support on the identity axis only
            CoeffND((1, -2), np.ones((1, 5))), ParityVector((1, 0)), ParityVector((0, 0)),
            [(1, 4), (0, 4)]),
    ], ids=["even", "odd", "even_halved", "odd_halved-naive", "transform", "mixed",
            "mixed-naive", "tensor", "tensor-identity", "tensor-identity-2d"])
    def test_every_entry_point_rejects_negative_support(self, call):
        with pytest.raises(ValueError, match=r"support must lie in k >= 0"):
            call(self.NEG)

    @pytest.mark.parametrize("call", [
        lambda z: dht_mixed(z, ParityVector((1, 0)), [(1, 4), (0, 4)], "bogus"),
        lambda z: dht_tensor(z, ParityVector((1, 0)), ParityVector((0, 1)), [(1, 4), (0, 4)], "bogus"),
        lambda z: dht_tensor(z, ParityVector((0, 0)), ParityVector((0, 0)), [None, None], "bogus"),
    ], ids=["mixed", "tensor", "tensor-identity"])
    def test_zero_input_still_checks_the_algorithm(self, call):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            call(CoeffND((1, 1), np.zeros((3, 3))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
@pytest.mark.parametrize("call", [
    lambda a: dht_full(a, (-3, 3)),
    lambda a: dht_even(a, (1, 4)),
    lambda a: dht_odd(a, (0, 4), "naive"),
    lambda a: dht_even_halved(a, (1, 4)),
    lambda a: dht_odd_halved(a, (0, 4)),
    lambda a: dht_mixed(a, ParityVector((1,)), [(1, 4)]),
    lambda a: dht_tensor(a, ParityVector((0,)), ParityVector((1,)), [(0, 4)]),
    lambda a: transform(a, TransformRequest("full", (-3, 3))),
    lambda a: cos_to_sin(a, (1, 4)),
    lambda a: sin_to_cos(a, (0, 4), "naive"),
], ids=["full", "even", "odd-naive", "even_halved", "odd_halved", "mixed", "tensor",
        "transform", "cos_to_sin", "sin_to_cos-naive"])
def test_every_entry_point_rejects_non_finite_coefficients(call, bad):
    # a NaN or infinity would otherwise come back as NaN at some or all outputs
    with pytest.raises(ValueError, match="coefficients must be finite"):
        call(Coeff1D(1, [1.0, bad, 2.0]))


def _kernel_row(kind: str, n: int, k: np.ndarray) -> np.ndarray:
    """Row n of the kernel matrix over indices k >= 1, from the definitions;
    each entry has at most two roundings, (n - k)(n + k) being exact."""
    lag, prod = n - k, ((n - k) * (n + k)).astype(float)
    with np.errstate(divide="ignore"):
        row = {
            "full": 1.0 / lag,
            "even": 2.0 * n / prod, "even_halved": 2.0 * n / prod,
            "odd": 2.0 * k / prod, "odd_halved": -2.0 * k / prod,
        }[kind]
    row[lag == 0] = {"even": 0.5 / n, "odd": -0.5 / n}.get(kind, 0.0) if n else 0.0
    if kind.endswith("halved"):
        row[lag % 2 == 0] = 0.0
    return row


def test_fast_path_matches_exact_sums_at_large_size():
    # the fast path at the advertised size against math.fsum of the kernel
    # rows, at both window ends and both parities in the middle
    rng = np.random.default_rng(67)
    values = rng.standard_normal(LARGE_N)
    a = Coeff1D(1, values)
    k = np.arange(1, LARGE_N + 1)
    for kind in ("full", "even", "odd", "even_halved", "odd_halved"):
        lo = 0 if kind.startswith("odd") else 1
        out = transform(a, TransformRequest(kind, (lo, LARGE_N))).values.real
        scale = np.max(np.abs(out))
        for n in (lo, LARGE_N // 2, LARGE_N // 2 + 1, LARGE_N):
            exact = math.fsum((values * _kernel_row(kind, n, k)).tolist())
            assert abs(out[n - lo] - exact) <= 1e-14 * scale, (kind, n)
