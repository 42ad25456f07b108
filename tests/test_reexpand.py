"""Tests for the re-expansion maps, quadrature oracle, and summability reports.

Closed-form expectations come from the orthogonality integrals
(2/pi) int_0^pi cos kt sin nt dt = (2/pi) (1/(n+k) + 1/(n-k)) for
k - n odd, evaluated by hand; every map is also compared against the
independent Gauss-Legendre oracle.
"""

import time
import tracemalloc
import warnings

import numpy as np
import pytest

from reexpansion import (
    Coeff1D,
    CoeffND,
    ParityVector,
    ReexpandSpec,
    WeightExponent,
    cos_to_sin,
    dht_even_halved,
    l1_norm,
    quadrature_oracle,
    quadrature_oracle_box,
    reexpand_nd,
    reexpand_weighted,
    sin_to_cos,
    summability_report,
    weight_apply,
)
from reexpansion import reexpand
from reexpansion.reexpand import TWO_OVER_PI, _axis_integrals
from reexpansion.sequences import _basis_matrix, gauss_legendre_grid

E1 = Coeff1D.impulse(1)
COS = ParityVector((1,))
SIN = ParityVector((0,))
Q0 = WeightExponent((0,))


class TestOneDimensionalMaps:
    def test_cos_to_sin_impulse(self):
        b = cos_to_sin(E1, (1, 4))
        np.testing.assert_allclose(b[2], 8 / (3 * np.pi), atol=1e-15)
        np.testing.assert_allclose(b[3], 0.0, atol=1e-15)
        np.testing.assert_allclose(b[4], 16 / (15 * np.pi), atol=1e-15)

    def test_cos_to_sin_zero(self):
        assert l1_norm(cos_to_sin(Coeff1D(1, np.zeros(2)), (1, 8))) == 0.0

    def test_cos_to_sin_two_term_fixture(self):
        # f = cos t - cos 3t; b_2 = (2/pi)(4/3 + 4/5): the k=3 kernel value
        # 2n/(n^2-9) = -4/5 meets the coefficient -1.  Confirmed by the
        # quadrature oracle below.
        a = Coeff1D.from_dict({1: 1, 3: -1})
        b = cos_to_sin(a, (1, 6))
        expected = TWO_OVER_PI * (4.0 / 3.0 + 4.0 / 5.0)
        np.testing.assert_allclose(b[2], expected, atol=1e-15)
        oracle = quadrature_oracle(a, COS, Q0, 2)
        np.testing.assert_allclose(b[2], oracle, atol=1e-12)

    def test_sin_to_cos_impulse(self):
        b = sin_to_cos(E1, (0, 2))
        np.testing.assert_allclose(b[0], 4 / np.pi, atol=1e-15)
        np.testing.assert_allclose(b[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(b[2], -4 / (3 * np.pi), atol=1e-15)

    def test_sin_to_cos_zero(self):
        assert l1_norm(sin_to_cos(Coeff1D(1, np.zeros(3)), (0, 8))) == 0.0

    def test_prefactor_identity_exact(self):
        rng = np.random.default_rng(4)
        a = Coeff1D(1, rng.standard_normal(16))
        lhs = cos_to_sin(a, (1, 40)).values
        rhs = TWO_OVER_PI * dht_even_halved(a, (1, 40)).values
        np.testing.assert_array_equal(lhs, rhs)


class TestReexpandNd:
    def test_2d_example(self):
        a = CoeffND.impulse((1, 1))
        spec = ReexpandSpec(ParityVector((1, 0)), WeightExponent.zero(2), ((1, 3), (0, 3)))
        out = reexpand_nd(a, spec)
        np.testing.assert_allclose(out[(2, 2)], -32 / (9 * np.pi**2), atol=1e-15)

    def test_zero(self):
        a = CoeffND((1, 1), np.zeros((2, 2)))
        spec = ReexpandSpec(ParityVector((1, 0)), WeightExponent.zero(2), ((1, 4), (0, 4)))
        assert l1_norm(reexpand_nd(a, spec)) == 0.0

    def test_separable_outer_product(self):
        rng = np.random.default_rng(14)
        u = Coeff1D(1, rng.standard_normal(6))
        v = Coeff1D(1, rng.standard_normal(4))
        a = CoeffND((1, 1), np.outer(u.values, v.values))
        spec = ReexpandSpec(ParityVector((1, 0)), WeightExponent.zero(2), ((1, 16), (0, 16)))
        out = reexpand_nd(a, spec)
        expected = np.outer(cos_to_sin(u, (1, 16)).values, sin_to_cos(v, (0, 16)).values)
        # one (2/pi) factor per axis
        np.testing.assert_allclose(out.values, expected, atol=1e-13)

    def test_rejects_weighted_spec(self):
        a = CoeffND.impulse((1,))
        spec = ReexpandSpec(COS, WeightExponent((1,)), ((1, 4),))
        with pytest.raises(ValueError):
            reexpand_nd(a, spec)

    def test_dimension_mismatch(self):
        spec = ReexpandSpec(ParityVector((1, 0)), WeightExponent.zero(2), ((1, 3), (0, 3)))
        with pytest.raises(ValueError):
            reexpand_nd(E1, spec)


class TestSubtractMean:
    def test_1d_constant_removed(self):
        # f = cos t, f(0) = 1: re-expanding f - f(0) shifts odd outputs by
        # the sine coefficients of the constant, -(2/pi) * 2/n.
        spec = ReexpandSpec(COS, Q0, ((1, 5),), subtract_mean=True)
        b = reexpand_nd(E1, spec)
        plain = cos_to_sin(E1, (1, 5))
        np.testing.assert_allclose(b[1], -4 / np.pi, atol=1e-14)
        np.testing.assert_allclose(b[3], -TWO_OVER_PI * 2.0 / 3.0, atol=1e-14)
        np.testing.assert_allclose(b[2], plain[2], atol=1e-15)
        np.testing.assert_allclose(b[4], plain[4], atol=1e-15)

    def test_1d_matches_oracle_of_modified_series(self):
        from reexpansion.reexpand import _subtract_face_means

        rng = np.random.default_rng(21)
        a = Coeff1D(1, rng.standard_normal(5))
        spec = ReexpandSpec(COS, Q0, ((1, 12),), subtract_mean=True)
        out = reexpand_nd(a, spec)
        modified = _subtract_face_means(a, COS)
        oracle = quadrature_oracle_box(modified, COS, Q0, [(1, 12)])
        np.testing.assert_allclose(out.values, oracle.values, atol=1e-10)

    @pytest.mark.parametrize(
        "a,eta,box",
        [
            (Coeff1D(0, np.arange(1.0, 7.0)), SIN, ((0, 8),)),
            (CoeffND((0, 0), np.arange(1.0, 13.0).reshape(3, 4)), ParityVector((1, 0)),
             ((1, 8), (0, 8))),
        ],
        ids=["1d-sine", "2d-sine-axis"],
    )
    def test_naive_matches_fast_with_index_zero_kept(self, a, eta, box):
        # subtract_mean keeps k = 0 on a sine axis, and the window starts
        # at n = 0 there: the kernel entry at n = k = 0 is zero
        spec = ReexpandSpec(eta, WeightExponent.zero(len(eta)), box, subtract_mean=True)
        with np.errstate(all="raise"):
            naive = reexpand_nd(a, spec, "naive")
        fast = reexpand_nd(a, spec, "fast")
        assert np.all(np.isfinite(naive.values))
        np.testing.assert_allclose(
            naive.values, fast.values, atol=1e-12 * np.max(np.abs(fast.values))
        )

    @pytest.mark.parametrize("alg", ["naive", "fast"])
    @pytest.mark.parametrize(
        "a,eta,box",
        [
            (Coeff1D(0, [2.0, -1.0, 0.5, 3.0]), COS, ((1, 9),)),
            (CoeffND((0, 0), np.arange(1.0, 13.0).reshape(3, 4)), ParityVector((1, 1)),
             ((1, 7), (1, 7))),
            # cosine offsets past 0 are padded down to the face; complex values
            (CoeffND((2, 1, 3), np.random.default_rng(5).standard_normal((2, 3, 2, 2)) @ [1, 1j]),
             ParityVector((1, 1, 1)), ((1, 4), (1, 3), (1, 5))),
        ],
        ids=["1d-cosine", "2d-cosine", "3d-cosine-complex"],
    )
    def test_index_zero_is_kept(self, a, eta, box, alg):
        # after the face means are subtracted the index-0 slice is nonzero
        # and enters the sum: the kernel (1/(m+k) + 1/(m-k)) at k = 0 is 2/m
        from reexpansion.reexpand import _subtract_face_means

        modified = _subtract_face_means(a, eta)
        assert modified[(0,) * len(eta)] != 0
        spec = ReexpandSpec(eta, WeightExponent.zero(len(eta)), box, subtract_mean=True)
        out = reexpand_nd(a, spec, alg)
        for m in np.ndindex(*out.dims):
            m = tuple(i + o for i, o in zip(m, out.offsets))
            expected = 0.0
            for k in np.ndindex(*modified.dims):
                k = tuple(i + o for i, o in zip(k, modified.offsets))
                if all((kj - mj) % 2 == 1 for kj, mj in zip(k, m)):
                    expected += modified[k] * np.prod(
                        [1 / (mj + kj) + 1 / (mj - kj) for kj, mj in zip(k, m)])
            np.testing.assert_allclose(out[m], TWO_OVER_PI ** len(eta) * expected,
                                       rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("subtract_mean", [False, True])
    def test_zero_input(self, subtract_mean):
        z = CoeffND((1, 1), np.zeros((3, 3)))
        spec = ReexpandSpec(ParityVector((1, 0)), WeightExponent.zero(2), ((1, 4), (0, 4)),
                            subtract_mean=subtract_mean)
        out = reexpand_nd(z, spec)
        assert out.offsets == (1, 0) and out.dims == (4, 5) and l1_norm(out) == 0.0
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            reexpand_nd(z, spec, "bogus")

    def test_2d_vanishes_on_cosine_faces(self):
        from reexpansion.reexpand import _subtract_face_means
        from reexpansion.sequences import series_eval

        rng = np.random.default_rng(22)
        eta = ParityVector((1, 1))
        # offsets 0: the index-0 slices hold input values before the subtraction
        for offsets in ((1, 1), (0, 0)):
            modified = _subtract_face_means(CoeffND(offsets, rng.standard_normal((4, 3))), eta)
            for t in ([0.0, 0.83], [0.83, 0.0], [0.0, 0.0]):
                val = series_eval(modified, eta, WeightExponent.zero(2), t)
                assert abs(val) < 1e-13


class TestQuadratureOracle:
    def test_closed_form_impulse(self):
        v = quadrature_oracle(E1, COS, Q0, 2)
        np.testing.assert_allclose(v, 8 / (3 * np.pi), atol=1e-12)

    def test_parity_orthogonality(self):
        assert abs(quadrature_oracle(E1, COS, Q0, 3)) < 1e-10

    def test_2d_product(self):
        a = CoeffND.impulse((1, 1))
        v = quadrature_oracle(a, ParityVector((1, 0)), WeightExponent.zero(2), (2, 2))
        np.testing.assert_allclose(v, -32 / (9 * np.pi**2), atol=1e-12)

    def test_box_matches_maps_small(self):
        rng = np.random.default_rng(33)
        for seed in range(3):
            vals = np.random.default_rng(seed).standard_normal(8)
            a = Coeff1D(1, vals)
            got = quadrature_oracle_box(a, COS, Q0, [(1, 20)])
            np.testing.assert_allclose(got.values, cos_to_sin(a, (1, 20)).values, atol=1e-10)
            got = quadrature_oracle_box(a, SIN, Q0, [(0, 20)])
            np.testing.assert_allclose(got.values, sin_to_cos(a, (0, 20)).values, atol=1e-10)

    def test_unreachable_tolerance_fails_loudly(self):
        # an impulse's two passes can agree exactly; a random support's cannot
        a = Coeff1D(1, np.random.default_rng(3).standard_normal(13))
        with pytest.raises(RuntimeError, match="quadrature failed to confirm tolerance 0 "):
            quadrature_oracle_box(a, COS, Q0, [(1, 20)], tol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_box_of_a_non_finite_coefficient_raises(self, bad):
        # the input is named before any quadrature runs, and numpy warns of nothing
        with warnings.catch_warnings(), pytest.raises(ValueError, match="coefficients must be finite"):
            warnings.simplefilter("error")
            quadrature_oracle_box(Coeff1D(1, [1.0, bad, 2.0]), COS, Q0, [(1, 5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_coefficient_of_a_non_finite_series_raises(self, bad):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="coefficients must be finite"):
            warnings.simplefilter("error")
            quadrature_oracle(Coeff1D(1, [1.0, bad, 2.0]), SIN, Q0, 2)

    @pytest.mark.parametrize("a", [E1, Coeff1D(0, [0.0])], ids=["impulse", "zero"])
    def test_empty_box_axis_is_refused(self, a):
        with pytest.raises(ValueError, match=r"empty box axis \[5, 3\]"):
            quadrature_oracle_box(a, COS, Q0, [(5, 3)])

    @pytest.mark.parametrize("a", [E1, Coeff1D(0, [0.0])], ids=["impulse", "zero"])
    def test_none_box_entry_is_refused(self, a):
        with pytest.raises(ValueError, match="axis 0 needs a window"):
            quadrature_oracle_box(a, COS, Q0, [None])

    @pytest.mark.parametrize(
        "k0, nk, m0, nm", [(1, 64, 1, 128), (500, 8, 490, 31), (1, 8, 40, 11), (-30, 50, -10, 51)],
        ids=["overlap", "far-overlap", "disjoint", "negative"],
    )
    @pytest.mark.parametrize("eta_bit, q", [(1, 0), (0, 0), (1, 1), (0, 2)])
    def test_chunked_integrals_match_whole_basis_matrices(self, monkeypatch, k0, nk, m0, nm, eta_bit, q):
        # a small chunk budget forces many node chunks and a short last one
        monkeypatch.setattr(reexpand, "_ORACLE_CHUNK_ELEMS", 5000)
        panels = 37  # 592 nodes, a multiple of no chunk size used here
        t, w = gauss_legendre_grid(0.0, np.pi, panels)
        k = np.arange(k0, k0 + nk, dtype=float)
        m = np.arange(m0, m0 + nm, dtype=float)
        src = _basis_matrix(k, t, eta_bit, q)
        tgt = _basis_matrix(m, t, 1 - eta_bit, q)
        want = src @ (w[:, None] * tgt.T)
        got = _axis_integrals(k0, nk, m0, nm, eta_bit, q, panels)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # one column evaluates the series at the nodes first; nk columns
        # meet R (nk + nm) >= nk nm and contract with G
        rng = np.random.default_rng(nk + nm)
        for cols in (1, nk):
            for acc in (rng.standard_normal((nk, cols)),
                        rng.standard_normal((nk, cols)) + 1j * rng.standard_normal((nk, cols))):
                expect = acc.T @ want
                got = _axis_integrals(k0, nk, m0, nm, eta_bit, q, panels, acc)
                assert got.shape == (cols, nm)
                assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_oracle_calls_nothing_in_hilbert(self, monkeypatch):
        from reexpansion import hilbert

        def unreachable(*args, **kwargs):
            raise AssertionError("the quadrature oracle reached hilbert")

        for name in ("_recip", "_naive", "rfft", "irfft"):
            monkeypatch.setattr(hilbert, name, unreachable)
        rng = np.random.default_rng(46)
        # 1-D complex: the series at the nodes first; 2-D 8 x 8 -> 33^2: through G
        a = Coeff1D(1, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        got = quadrature_oracle_box(a, SIN, WeightExponent((1,)), [(0, 40)])
        assert got.values.dtype == np.complex128 and np.any(got.values.imag != 0)
        grid = CoeffND((1, 1), rng.standard_normal((8, 8)))
        got = quadrature_oracle_box(grid, ParityVector((1, 0)), WeightExponent.zero(2), [(1, 33), (0, 32)])
        assert got.dims == (33, 33)

    _GRID_RNG = np.random.default_rng(47)
    _GRID_CASES = {
        "1d-cos": (Coeff1D(1, _GRID_RNG.standard_normal(64)), COS, Q0, [(1, 128)]),
        "1d-sin": (Coeff1D(1, _GRID_RNG.standard_normal(64)), SIN, Q0, [(0, 128)]),
        "complex-200": (
            Coeff1D(200, _GRID_RNG.standard_normal(16) + 1j * _GRID_RNG.standard_normal(16)),
            SIN, WeightExponent((1,)), [(190, 240)],
        ),
        "q2": (Coeff1D(1, _GRID_RNG.standard_normal(32)), COS, WeightExponent((2,)), [(0, 64)]),
        "impulse-500": (Coeff1D.impulse(500), COS, Q0, [(480, 530)]),
        "2d": (CoeffND((1, 1), _GRID_RNG.standard_normal((8, 8))), ParityVector((1, 0)),
               WeightExponent.zero(2), [(1, 32), (0, 32)]),
        "3d": (CoeffND((1, 1, 1), _GRID_RNG.standard_normal((6, 6, 6))), ParityVector((1, 0, 1)),
               WeightExponent((1, 0, 2)), [(0, 12), (0, 12), (1, 12)]),
    }

    @pytest.mark.parametrize("case", _GRID_CASES)
    def test_grid_is_as_accurate_as_four_times_its_panels(self, monkeypatch, case):
        # one panel per unit of top frequency: both passes against a pass of 4x the fine panels
        a, eta, q, box = self._GRID_CASES[case]
        inner, passes = reexpand._oracle_values, []

        def recorded(nd, eta, q, box, panel_counts):
            passes.append(((nd, eta, q, box), panel_counts, inner(nd, eta, q, box, panel_counts)))
            return passes[-1][2]

        monkeypatch.setattr(reexpand, "_oracle_values", recorded)
        got = quadrature_oracle_box(a, eta, q, box).values
        (args, _, coarse), (_, fine_panels, fine) = passes
        dense = inner(*args, [4 * p for p in fine_panels])
        peak = np.max(np.abs(dense))
        np.testing.assert_array_equal(got, fine)
        assert np.max(np.abs(fine - dense)) <= 1e-13 * peak
        assert np.max(np.abs(coarse - fine)) <= 1e-12 * peak

    def test_far_offset_box_matches_map(self):
        rng = np.random.default_rng(44)
        a = Coeff1D(500, rng.standard_normal(8))
        got = quadrature_oracle_box(a, COS, Q0, [(490, 520)])
        np.testing.assert_allclose(got.values, cos_to_sin(a, (490, 520)).values, atol=1e-10)

    def test_peak_memory_is_a_few_node_chunks(self):
        # whole basis matrices for 64 -> 128 took 63.7 MB at the peak
        a = Coeff1D(1, np.random.default_rng(45).standard_normal(64))
        tracemalloc.start()
        try:
            quadrature_oracle_box(a, COS, Q0, [(1, 128)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 10**6

    def test_oversized_box_is_refused_before_allocating(self):
        # 4096 -> 4096 would need (4096 + 4096) x 16 x 2 x 8,193 x 8 bytes
        a = Coeff1D(1, np.ones(4096))
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"needs 17\.2 GB"):
                quadrature_oracle_box(a, COS, Q0, [(1, 4096)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 10**6


class TestWeighted:
    def test_q0_reduces_to_reexpand_nd(self):
        rng = np.random.default_rng(6)
        a = Coeff1D(1, rng.standard_normal(6))
        spec = ReexpandSpec(COS, Q0, ((1, 10),))
        res = reexpand_weighted(a, spec)
        plain = reexpand_nd(a, spec)
        np.testing.assert_array_equal(res.raw.values, plain.values)
        np.testing.assert_array_equal(res.deweighted.values, plain.values)
        assert res.sign == 1.0 and res.eta_effective.bits == (1,)

    def test_q1_matches_derivative_oracle(self):
        # f = cos t - cos 3t, f' = -sin t + 3 sin 3t; raw output carries
        # m b_m = (2/pi) int f'(t) sin(mt + pi/2) dt.
        a = Coeff1D.from_dict({1: 1, 3: -1})
        spec = ReexpandSpec(COS, WeightExponent((1,)), ((0, 10),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = reexpand_weighted(a, spec)
        assert caught == []  # fixture satisfies f(0) = f(pi) = 0
        oracle = quadrature_oracle_box(a, COS, WeightExponent((1,)), [(0, 10)])
        np.testing.assert_allclose(res.raw.values, oracle.values, atol=1e-10)
        assert res.sign == -1.0
        assert res.eta_effective.bits == (0,)

    def test_q1_bookkeeping_identity_exact(self):
        a = Coeff1D.from_dict({1: 1, 3: -1})
        spec = ReexpandSpec(COS, WeightExponent((1,)), ((0, 10),))
        res = reexpand_weighted(a, spec)
        inner = ReexpandSpec(SIN, Q0, ((0, 10),))
        expected = reexpand_nd(weight_apply(a, WeightExponent((1,))), inner).scaled(-1.0)
        np.testing.assert_array_equal(res.raw.values, expected.values)

    def test_q2_identity_is_literal(self):
        a = Coeff1D.from_dict({1: 1, 3: -1})
        q = WeightExponent((2,))
        spec = ReexpandSpec(COS, q, ((1, 10),))
        res = reexpand_weighted(a, spec)
        expected = reexpand_nd(weight_apply(a, q), ReexpandSpec(COS, Q0, ((1, 10),)))
        np.testing.assert_array_equal(res.raw.values, expected.values)
        oracle = quadrature_oracle_box(a, COS, q, [(1, 10)])
        np.testing.assert_allclose(res.raw.values, oracle.values, atol=1e-10)

    def test_deweighting_and_flags(self):
        a = Coeff1D.from_dict({1: 1, 3: -1})
        spec = ReexpandSpec(COS, WeightExponent((1,)), ((0, 6),))
        res = reexpand_weighted(a, spec)
        assert res.flagged == ((0,),)
        assert np.isnan(res.deweighted[(0,)].real)
        for m in range(1, 7):
            np.testing.assert_allclose(
                res.deweighted[(m,)], res.raw[(m,)] / m, atol=1e-15
            )

    def test_deweighting_flags_3d_match_index_loop(self):
        # m_j = 0 lies in the box on axes 0 and 1 (both q_j > 0); axis 2 has q_j = 0
        rng = np.random.default_rng(11)
        a = CoeffND((1, 1, 1), rng.standard_normal((3, 4, 2)))
        q = WeightExponent((2, 1, 0))
        spec = ReexpandSpec(ParityVector((0, 1, 1)), q, ((0, 3), (0, 2), (1, 3)))
        res = reexpand_weighted(a, spec)
        raw = res.raw
        flagged, nan, dew = [], np.zeros(raw.dims, bool), raw.values.copy()
        for idx in np.ndindex(*raw.dims):  # reference: one output index at a time
            m = tuple(o + i for o, i in zip(raw.offsets, idx))
            if any(mj == 0 and qj > 0 for mj, qj in zip(m, q.exponents)):
                flagged.append(m)
                nan[idx] = True
            else:
                dew[idx] /= np.prod([float(mj) ** qj for mj, qj in zip(m, q.exponents)])
        assert res.flagged == tuple(flagged)
        assert len(flagged) == 9 + 12 - 3  # m_0 = 0, m_1 = 0, both
        np.testing.assert_array_equal(np.isnan(res.deweighted.values), nan)
        np.testing.assert_allclose(res.deweighted.values[~nan], dew[~nan], rtol=1e-15)

    def test_boundary_failure_warns_but_computes(self):
        spec = ReexpandSpec(COS, WeightExponent((1,)), ((0, 6),))
        with pytest.warns(UserWarning, match="boundary precondition failed"):
            res = reexpand_weighted(E1, spec)  # cos t has f(0) = 1
        assert not res.boundary.passed
        oracle = quadrature_oracle_box(E1, COS, WeightExponent((1,)), [(0, 6)])
        np.testing.assert_allclose(res.raw.values, oracle.values, atol=1e-10)

    def test_zero(self):
        spec = ReexpandSpec(COS, WeightExponent((1,)), ((0, 4),))
        res = reexpand_weighted(Coeff1D(1, np.zeros(2)), spec)
        assert l1_norm(res.raw) == 0.0

    def test_2d_mixed_weights_vs_oracle(self):
        rng = np.random.default_rng(40)
        vals = rng.standard_normal((3, 3))
        a = CoeffND((1, 1), vals)
        eta = ParityVector((1, 0))
        q = WeightExponent((1, 2))
        spec = ReexpandSpec(eta, q, ((0, 6), (0, 6)), boundary_tol=1e-9)
        res = reexpand_weighted(a, spec)
        oracle = quadrature_oracle_box(a, eta, q, [(0, 6), (0, 6)])
        np.testing.assert_allclose(res.raw.values, oracle.values, atol=1e-9)
        assert res.eta_effective.bits == (0, 0)
        assert res.sign == -1.0


class TestSummabilityReport:
    WINDOWS = (64, 128, 256, 512, 1024)

    def test_decaying_fixture_converges(self):
        a = Coeff1D.from_dict({1: 1, 3: -1})
        rep = summability_report(a, "even_halved", self.WINDOWS)
        assert rep.verdict_hint == "converging"
        assert abs(rep.moment_sum) < 1e-15
        assert abs(rep.moment_sum_alternating) < 1e-15
        # increments decay at least quadratically across doublings
        between = rep.increments[1:]
        for prev, cur in zip(between, between[1:]):
            assert cur <= 0.3 * prev

    def test_harmonic_fixture_diverges(self):
        rep = summability_report(E1, "even_halved", self.WINDOWS)
        assert rep.verdict_hint == "diverging"
        between = np.array(rep.increments[1:])
        np.testing.assert_allclose(between, np.log(2), rtol=0.12)

    def test_zero_sequence(self):
        rep = summability_report(Coeff1D(1, np.zeros(2)), "even_halved", (8, 16, 32))
        assert rep.verdict_hint == "converging"
        assert all(n == 0.0 for n in rep.norms)

    def test_norms_nondecreasing_and_rows(self):
        rng = np.random.default_rng(3)
        a = Coeff1D(1, rng.standard_normal(10))
        rep = summability_report(a, "full", (16, 32, 64))
        assert list(rep.norms) == sorted(rep.norms)
        assert rep.windows == (16, 32, 64)
        assert len(rep.norms) == len(rep.increments) == 3

    def test_window_validation(self):
        with pytest.raises(ValueError):
            summability_report(E1, "even_halved", (64, 64))
        with pytest.raises(ValueError):
            summability_report(E1, "nope", (8, 16))

    def test_log_weighted_field_matches_module(self):
        from reexpansion import log_weighted_sum

        a = Coeff1D.from_dict({1: 0.5, 3: 0.25})
        rep = summability_report(a, "even_halved", (16, 32, 64))
        assert rep.log_weighted == log_weighted_sum(a, Q0)

    def test_two_sided_input_full_kind(self):
        a = Coeff1D.from_dict({-2: 1.0, 2: 1.0})
        rep = summability_report(a, "full", (16, 32, 64))
        assert rep.kind == "full"
        # |k|-weighted logarithm for two-sided support
        np.testing.assert_allclose(rep.log_weighted, 2 * np.log(3), atol=1e-14)
        assert rep.norms[-1] > 0

    def test_small_moment_diverges(self):
        # M_0 = 1e-6: the increments still halve per doubling up to 1024, and
        # the 2 |M_0| ln 2 growth shows only past n ~ |M_1| / |M_0|
        rep = summability_report(Coeff1D.from_dict({1: 1, 2: -1 + 1e-6}), "full", self.WINDOWS)
        assert rep.verdict_hint == "diverging"
        between = rep.increments[1:]
        assert all(cur <= 0.6 * prev for prev, cur in zip(between, between[1:]))

    def test_level_increments_get_a_verdict(self):
        # increments 89, 28, 23, 22.4, 22.2: no window trend, but M_0 = 16
        rep = summability_report(Coeff1D(32, np.ones(16)), "full", self.WINDOWS)
        assert rep.verdict_hint == "diverging"

    def test_rounding_band(self):
        # 0.1 + 0.2 - 0.3 is 5.6e-17 in floating point, inside 3 eps (0.1 + 0.2 + 0.3)
        rep = summability_report(Coeff1D.from_dict({1: 0.1, 2: 0.2, 3: -0.3}), "full", self.WINDOWS)
        assert rep.moment_sum != 0
        assert rep.verdict_hint == "converging"

    def test_one_sided_kinds_leave_a0_out(self):
        a = Coeff1D.from_dict({0: 5, 1: 1, 3: -1})
        assert summability_report(a, "even_halved", self.WINDOWS).verdict_hint == "converging"
        assert summability_report(a, "even", self.WINDOWS).verdict_hint == "converging"
        assert summability_report(a, "full", self.WINDOWS).verdict_hint == "diverging"
        # S_even = -1 once a_0 is out, though sum a_k = 0
        b = Coeff1D.from_dict({0: 1, 1: 1, 2: -1, 3: -1})
        assert summability_report(b, "even_halved", self.WINDOWS).verdict_hint == "diverging"

    @pytest.mark.parametrize("kind", ["odd", "odd_halved"])
    @pytest.mark.parametrize("a", [
        E1,
        Coeff1D(32, np.ones(16)),
        Coeff1D.from_dict({1: 1, 2: -1 + 1e-6}),
        Coeff1D(0, np.random.default_rng(5).standard_normal(64)),
        Coeff1D(0, [3.0]),
    ], ids=["impulse", "ones", "small-moment", "random", "a0-only"])
    def test_odd_kinds_always_converge(self, kind, a):
        assert summability_report(a, kind, self.WINDOWS).verdict_hint == "converging"

    def test_growth_per_doubling_at_large_windows(self):
        a = Coeff1D(1, np.random.default_rng(11).standard_normal(8))
        windows = tuple(2**e for e in range(12, 17))
        full = summability_report(a, "full", windows)
        np.testing.assert_allclose(full.increments[1:], 2 * abs(full.moment_sum) * np.log(2), rtol=1e-3)
        k = a.indices()
        s_odd, s_even = a.values[k % 2 == 1].sum(), a.values[k % 2 == 0].sum()
        half = summability_report(a, "even_halved", windows)
        assert half.verdict_hint == full.verdict_hint == "diverging"
        np.testing.assert_allclose(half.increments[1:], (abs(s_odd) + abs(s_even)) * np.log(2), rtol=1e-3)

    def test_sums_near_the_float_limit(self):
        # judged in units of the peak entry: an overflowed sum is not zero,
        # and an exact cancellation still is
        big = 1.7e308
        with np.errstate(all="ignore"):  # the overflow itself is the fixture
            over = summability_report(Coeff1D.from_dict({1: big, 2: big}), "even", (4, 8))
            cancel = summability_report(Coeff1D.from_dict({1: big, 2: -big}), "full", (4, 8))
        assert over.verdict_hint == "diverging"
        assert cancel.verdict_hint == "converging"

    @pytest.mark.parametrize("kind", ["full", "even"])
    @pytest.mark.parametrize("entries, verdict", [
        ({1: 1.7e308, 2: 1.7e308, 3: -1.7e308, 4: -1.7e308}, "converging"),
        ({1: 1.7e308, 2: 1.7e308}, "diverging"),
    ], ids=["cancelling", "one-signed"])
    def test_verdict_survives_overflowing_partial_sums(self, kind, entries, verdict):
        # c + c overflows on the way to sum a_k = 0; the verdict sums the
        # entries scaled by a power of two, the reported sums stay unscaled
        a = Coeff1D.from_dict(entries)
        with np.errstate(all="ignore"):  # the transform itself overflows here
            rep = summability_report(a, kind, (4, 8))
            plain = complex(np.sum(a.values))
        assert rep.verdict_hint == verdict
        np.testing.assert_equal(rep.moment_sum, plain)

    @pytest.mark.parametrize("entries, verdict", [
        ({1: 1.7e308 + 1.7e308j, 2: -(1.7e308 + 1.7e308j)}, "converging"),
        ({1: 1.7e308 + 1.7e308j, 2: 1.7e308 + 1.7e308j}, "diverging"),
    ], ids=["cancelling", "one-signed"])
    def test_verdict_survives_overflowing_moduli(self, entries, verdict):
        # |c + ci| overflows although both parts are finite; the peak and the
        # band come from the real and imaginary parts, scaled by a power of two
        a = Coeff1D.from_dict(entries)
        with np.errstate(all="ignore"):  # the transform itself overflows here
            rep = summability_report(a, "full", (4, 8))
            plain = complex(np.sum(a.values))
        assert rep.verdict_hint == verdict
        np.testing.assert_equal(rep.moment_sum, plain)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_raises(self, bad):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="coefficients must be finite"):
            warnings.simplefilter("error")
            summability_report(Coeff1D(1, [1.0, bad, 2.0]), "even_halved", self.WINDOWS)
