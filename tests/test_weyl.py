"""Tests for the compact-group layer.

Independent expectations: the orthonormality integrals are evaluated in
exact rational arithmetic directly from the finite Fourier supports;
the telescoping sums are brute-forced; Hilbert-side partial sums are
recomputed with literal double loops.
"""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from reexpansion import (
    CentralCoeffTable,
    Coeff1D,
    RootSystem,
    WeylDenomSq,
    character_coeff,
    character_coeff_quadrature,
    condition_q1_sum,
    diag_fourier_coeff,
    ext_fourier_table,
    parity_check,
    q2_diagnostic,
    schatten_lp_norm,
    su2_character,
    su2_sufficiency,
    su2_weights,
    telescoping_sum,
    weyl_denom_sq_coeffs,
    weyl_dimension,
)
from reexpansion import weyl
from reexpansion.cli import emit_report
from reexpansion.weyl import _two_l

SU2 = RootSystem.su2()
DNN = weyl_denom_sq_coeffs(SU2, "nonnegative")
DPS = weyl_denom_sq_coeffs(SU2, "paper_signed")
D_WIDE = weyl_denom_sq_coeffs(RootSystem.make([(2,), (4,)]))  # rank 1, reaches nu = +-6
E0 = Coeff1D.impulse(0)


def chi_restriction(l) -> Coeff1D:
    """Torus coefficients of the SU(2) character: 1 at each weight."""
    return Coeff1D.from_dict({mu: 1.0 for mu in su2_weights(l)})


class TestDenominator:
    def test_su2_nonnegative(self):
        assert DNN.coeffs == {(-2,): -1, (0,): 2, (2,): -1}
        assert DNN.support_size == 3
        np.testing.assert_array_equal(DNN.table, [-1, 0, 2, 0, -1])
        assert not DNN.table.flags.writeable

    def test_su2_paper_signed(self):
        assert DPS.coeffs == {(-2,): 1, (0,): -2, (2,): 1}

    @pytest.mark.parametrize("convention", ["nonnegative", "paper_signed"])
    @pytest.mark.parametrize("roots", [[(2,)], [(2,), (4,)], [(1,), (3,), (-2,)]])
    def test_matches_dft_of_trig_product(self, roots, convention):
        # D is the Fourier series of prod_alpha (+-)(2 - 2 cos(alpha t)), which has
        # frequencies |nu| <= span: the DFT on n > 2 span + 1 samples reads it unaliased
        span = sum(abs(alpha) for (alpha,) in roots)
        n = 2 * span + 3
        t = 2 * np.pi * np.arange(n) / n
        sign = 1.0 if convention == "nonnegative" else -1.0
        product = np.prod([sign * (2 - 2 * np.cos(alpha * t)) for (alpha,) in roots], axis=0)
        spectrum = np.fft.fft(product) / n
        np.testing.assert_allclose(spectrum.imag, 0, atol=1e-9)
        exact = np.rint(spectrum.real).astype(np.int64)
        np.testing.assert_allclose(spectrum.real, exact, atol=1e-9)
        assert exact[span + 1] == exact[n - span - 1] == 0  # nothing beyond the span
        d = weyl_denom_sq_coeffs(RootSystem.make(roots), convention)
        np.testing.assert_array_equal(d.table, exact[np.arange(-span, span + 1) % n])
        assert d.coeffs == {(nu,): int(exact[nu % n]) for nu in range(-span, span + 1) if exact[nu % n]}
        assert sum(d.coeffs.values()) == 0
        for (nu,), c in d.coeffs.items():
            assert d.get(-nu) == d.get((-nu,)) == c

    def test_largest_root_count_is_exact(self):
        # the central coefficient of (2 - 2 cos t)^31 is C(62, 31), just inside int64
        d = weyl_denom_sq_coeffs(RootSystem.make([(1,)] * 31))
        assert d.get(0) == math.comb(62, 31)
        with pytest.raises(ValueError):
            weyl_denom_sq_coeffs(RootSystem.make([(1,)] * 32))

    def test_validation(self):
        with pytest.raises(ValueError):
            WeylDenomSq({(0,): 1}, "nonnegative")  # sum != 0
        with pytest.raises(ValueError):
            WeylDenomSq({(1,): 1, (-1,): -1}, "nonnegative")  # not symmetric
        with pytest.raises(ValueError):
            weyl_denom_sq_coeffs(SU2, "sideways")

    @pytest.mark.parametrize("coeffs", [{}, {(0,): 0, (3,): 0}])
    def test_rejects_empty_table(self, coeffs):
        with pytest.raises(ValueError, match="empty"):
            WeylDenomSq(coeffs, "nonnegative")

    def test_rejects_non_integral_coefficients(self):
        with pytest.raises(ValueError, match="integers"):
            WeylDenomSq({(0,): 2.5, (1,): -1.25, (-1,): -1.25}, "nonnegative")

    def test_rejects_rank2_table(self):
        with pytest.raises(ValueError, match="rank 1"):
            WeylDenomSq({(0, 0): 2, (1, 0): -1, (-1, 0): -1}, "nonnegative")


class TestRootSystem:
    def test_su2_factory(self):
        assert SU2.rank == 1
        assert SU2.positive_roots == ((2,),)
        assert SU2.half_sum == (Fraction(1),)

    def test_half_sum_consistency_enforced(self):
        with pytest.raises(ValueError):
            RootSystem(1, ((2,),), (Fraction(2),))

    def test_rejects_zero_root(self):
        with pytest.raises(ValueError):
            RootSystem.make([(0,)])

    def test_rejects_rank2(self):
        with pytest.raises(ValueError, match="rank-1"):
            RootSystem.make([(1, 0), (0, 1)])

    def test_rejects_non_integral_root(self):
        with pytest.raises(ValueError, match="integers"):
            RootSystem.make([(2.7,)])


class TestDimension:
    def test_trivial(self):
        assert weyl_dimension((0,), SU2) == 1

    def test_su2_matches_2l_plus_1(self):
        for two_l in range(0, 41):
            assert weyl_dimension((two_l,), SU2) == two_l + 1

    @pytest.mark.parametrize("roots", [[(1,)], [(2,), (4,)], [(1,), (3,), (-2,)]])
    def test_matches_general_product(self, roots):
        # prod_alpha (mu + delta, alpha) / (delta, alpha), the formula for any rank
        rs = RootSystem.make(roots)
        delta = (Fraction(sum(alpha for (alpha,) in roots), 2),)
        for m in range(-8, 13):
            mu = (m,)
            dim = Fraction(1)
            for alpha in roots:
                dim *= sum((mj + dj) * aj for mj, dj, aj in zip(mu, delta, alpha))
                dim /= sum(dj * aj for dj, aj in zip(delta, alpha))
            if dim.denominator == 1 and dim > 0:
                assert weyl_dimension(mu, rs) == dim
            else:
                with pytest.raises(ValueError):
                    weyl_dimension(mu, rs)

    def test_rejects_nondominant(self):
        with pytest.raises(ValueError):
            weyl_dimension((-1,), SU2)

    def test_rejects_non_integral_weight(self):
        with pytest.raises(ValueError, match="integers"):
            weyl_dimension((1.5,), SU2)

    def test_rejects_vanishing_half_sum(self):
        # alpha and -alpha: (delta, alpha) = 0, and D would be (2 - 2 cos 2t)^2, no group's density
        with pytest.raises(ValueError, match="half-sum 0"):
            RootSystem.make([(2,), (-2,)])
        assert RootSystem.make([(1,), (3,), (-2,)]).half_sum == (Fraction(1),)


class TestSu2Characters:
    def test_weights(self):
        assert su2_weights(0) == [0]
        assert su2_weights(1) == [-2, 0, 2]
        assert su2_weights(Fraction(1, 2)) == [-1, 1]
        with pytest.raises(ValueError):
            su2_weights(0.3)

    def test_trivial_character(self):
        t = np.linspace(0, np.pi, 7)
        np.testing.assert_array_equal(su2_character(0, t), np.ones(7))

    def test_value_at_identity_is_dimension(self):
        for two_l in range(0, 41):
            assert su2_character(Fraction(two_l, 2), 0.0) == two_l + 1

    def test_weight_sum_example(self):
        np.testing.assert_allclose(su2_character(1, np.pi / 2), -1.0, atol=1e-14)

    def test_singularity_at_pi_matches_limit(self):
        for l in (1, Fraction(3, 2), 5):
            near = su2_character(l, np.pi - 1e-5)
            at = su2_character(l, np.pi)
            assert abs(near - at) < 1e-3
            assert abs(abs(at) - (2 * Fraction(l) + 1)) < 1e-12


class TestDiagFourier:
    def test_constant_total_mass(self):
        np.testing.assert_allclose(diag_fourier_coeff(E0, 0, DNN, "paper"), [1.0])

    def test_constant_l1_paper(self):
        np.testing.assert_allclose(
            diag_fourier_coeff(E0, 1, DNN, "paper"), [-0.5, 1.0, -0.5]
        )

    def test_constant_l1_character(self):
        np.testing.assert_allclose(
            diag_fourier_coeff(E0, 1, DNN, "character"), [0.0, 0.0, 0.0], atol=1e-15
        )

    def test_character_mode_is_constant_list(self):
        a = chi_restriction(1)
        vals = diag_fourier_coeff(a, 1, DNN, "character")
        assert np.all(vals == vals[0])
        np.testing.assert_allclose(vals[0], 1.0 / 3.0, atol=1e-15)

    def test_real_even_input_gives_real_values(self):
        rng = np.random.default_rng(12)
        half = rng.standard_normal(6)
        entries = {k: half[k - 1] for k in range(1, 7)}
        entries.update({-k: half[k - 1] for k in range(1, 7)})
        entries[0] = 0.7
        a = Coeff1D.from_dict(entries)
        for mode in ("paper", "character"):
            for two_l in range(0, 9):
                vals = diag_fourier_coeff(a, Fraction(two_l, 2), DNN, mode)
                assert np.all(vals.imag == 0.0)

    def test_trace_equals_dimension_times_character_coeff(self):
        rng = np.random.default_rng(13)
        half = rng.standard_normal(10)
        entries = {k: half[k - 1] for k in range(1, 11)}
        entries.update({-k: v for k, v in entries.items()})
        entries[0] = -0.3
        a = Coeff1D.from_dict(entries)
        for two_l in range(0, 13):
            l = Fraction(two_l, 2)
            trace = np.sum(diag_fourier_coeff(a, l, DNN, "paper"))
            target = (two_l + 1) * character_coeff(a, l)
            np.testing.assert_allclose(trace, target, atol=1e-12)

    @pytest.mark.parametrize("denom", [DNN, DPS, D_WIDE], ids=["DNN", "DPS", "span-6"])
    def test_paper_mode_matches_literal_double_loop(self, denom):
        # complex, not even, odd offset; half-integer lmax
        rng = np.random.default_rng(71)
        a = Coeff1D(-5, rng.standard_normal(14) + 1j * rng.standard_normal(14))
        lmax = Fraction(9, 2)
        table = ext_fourier_table(a, lmax, denom, "paper")
        sums = condition_q1_sum(a, lmax, denom, "paper")
        acc = 0.0
        for two_l in range(10):
            want = [
                0.5 * sum(c * a[mu + nu] for (nu,), c in denom.coeffs.items())
                for mu in range(-two_l, two_l + 1, 2)
            ]
            got = diag_fourier_coeff(a, Fraction(two_l, 2), denom, "paper")
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(table.entries[two_l][1], want, rtol=1e-14, atol=1e-14)
            acc += (two_l + 1) * sum(abs(v) for v in want)
            np.testing.assert_allclose(sums[two_l], acc, rtol=1e-13)


class TestCharacterCoeff:
    def test_constant_against_trivial(self):
        assert character_coeff(E0, 0) == 1.0

    def test_constant_orthogonal_to_higher(self):
        for two_l in range(1, 21):
            assert abs(character_coeff(E0, Fraction(two_l, 2))) < 1e-15

    def test_chi1_against_itself(self):
        np.testing.assert_allclose(character_coeff(chi_restriction(1), 1), 1.0 / 3.0)

    @pytest.mark.parametrize(
        "offset, size, complex_values, two_ls",
        [
            (-3, 7, False, range(0, 7)),
            (-14, 29, False, range(0, 13)),
            (-5, 11, True, range(0, 9)),
            (-1, 20, True, range(0, 13)),  # past +(2l+2) only
            (-7, 15, True, range(1, 13, 2)),
            # one panel per unit of top frequency, at l up to 50 and |k| up to 300
            (-300, 601, False, (0, 1, 40, 99, 100)),
            (300, 12, True, (0, 7, 100)),
            (-20, 41, False, (100,)),
        ],
        ids=["real", "2l-to-12", "complex", "one-sided-reach", "half-integer", "wide", "complex-300", "l-50"],
    )
    def test_quadrature_cross_check(self, offset, size, complex_values, two_ls):
        rng = np.random.default_rng(27)
        vals = rng.standard_normal(size)
        if complex_values:
            vals = vals + 1j * rng.standard_normal(size)
        a = Coeff1D(offset, vals)
        for two_l in two_ls:
            l = Fraction(two_l, 2)
            exact = character_coeff(a, l)
            quad = character_coeff_quadrature(a, l)
            np.testing.assert_allclose(quad, exact, rtol=0, atol=1e-12)

    def test_quadrature_with_the_su2_benchmark_support(self):
        # 401 rows cut the grids into chunks of 8 to 19 nodes; for
        # 2l = 40 the last chunk of the fine grid is shorter
        a = Coeff1D(-200, np.random.default_rng(28).standard_normal(401))
        for two_l in (0, 7, 40):
            l = Fraction(two_l, 2)
            np.testing.assert_allclose(character_coeff_quadrature(a, l), character_coeff(a, l), atol=1e-12)

    def test_quadrature_unreachable_tolerance_fails_loudly(self):
        a = Coeff1D(-6, np.random.default_rng(3).standard_normal(13))
        with pytest.raises(RuntimeError, match="quadrature failed to confirm tolerance 0 "):
            character_coeff_quadrature(a, 1, tol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quadrature_of_a_non_finite_coefficient_raises(self, bad):
        # the input is named before any quadrature runs, and numpy warns of nothing
        with warnings.catch_warnings(), pytest.raises(ValueError, match="coefficients must be finite"):
            warnings.simplefilter("error")
            character_coeff_quadrature(Coeff1D(1, [1.0, bad, 2.0]), 1)

    def test_orthonormality_exact_rational(self):
        # (1/|W|) (1/2pi) int chi_l chi_l' |Delta|^2 = delta_{ll'},
        # evaluated in exact integer arithmetic from the finite supports.
        for two_l in range(0, 9):
            for two_lp in range(0, 9):
                total = Fraction(0)
                for mu in range(-two_l, two_l + 1, 2):
                    for nu in range(-two_lp, two_lp + 1, 2):
                        total += DNN.get(-mu - nu)
                total = Fraction(total, 2)
                assert total == (1 if two_l == two_lp else 0)


class TestCentralTable:
    def test_ext_table_constant_character(self):
        table = ext_fourier_table(E0, 2, DNN, "character")
        assert set(table.entries) == {0, 1, 2, 3, 4}
        np.testing.assert_allclose(table.entries[0][1], [1.0])
        for two_l in range(1, 5):
            np.testing.assert_allclose(
                table.entries[two_l][1], np.zeros(two_l + 1), atol=1e-15
            )

    def test_ext_table_chi1_character(self):
        table = ext_fourier_table(chi_restriction(1), 2, DNN, "character")
        for two_l, (dim, vals) in table.entries.items():
            expected = 1.0 / 3.0 if two_l == 2 else 0.0
            np.testing.assert_allclose(vals, np.full(dim, expected), atol=1e-14)

    def test_zero_sequence(self):
        table = ext_fourier_table(Coeff1D(0, np.zeros(0)), 1, DNN, "paper")
        for _, vals in table.entries.values():
            assert np.all(vals == 0)

    def test_rows_format(self, tmp_path):
        table = ext_fourier_table(E0, Fraction(1, 2), DNN, "character")
        emit_report(table, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "two_l,dim,weight,value_re,value_im,mode,convention",
            "0,1,0,1,0,character,nonnegative",
            "1,2,-1,0,0,character,nonnegative",
            "1,2,1,0,0,character,nonnegative",
        ]

    def test_length_mismatch_rejected(self):
        # a dimension that disagrees with its values can only come from a caller's
        # dict, and a table's entries are the levels ext_fourier_table builds
        with pytest.raises(TypeError, match="ext_fourier_table"):
            CentralCoeffTable({2: (3, np.array([1.0]))}, "paper", "nonnegative")
        for dim, vals in ext_fourier_table(E0, 3, DNN, "paper").entries.values():
            assert dim == len(vals)


def _table_inputs():
    rng = np.random.default_rng(29)
    return {
        "real": Coeff1D(-13, rng.standard_normal(30)),
        "complex": Coeff1D(-150, rng.standard_normal(301) + 1j * rng.standard_normal(301)),
        "empty": Coeff1D(4, np.zeros(0)),
    }


def _reference_level(a, two_l, denom, mode) -> np.ndarray:
    """Level 2l computed on its own: g at the weights of l (paper), or c_l by
    the all-levels closed form repeated (character)."""
    if mode == "character":
        return np.full(two_l + 1, _all_levels_character(a, two_l)[two_l])
    span = max(abs(nu) for (nu,) in denom.coeffs)
    table = np.array([denom.get(nu) for nu in range(-span, span + 1)], dtype=float)
    g = np.convolve(a.values, table) / 2 if len(a) else np.zeros(0, complex)
    lo = a.offset - span
    return np.array(
        [g[mu - lo] if 0 <= mu - lo < len(g) else 0j for mu in range(-two_l, two_l + 1, 2)],
        dtype=np.complex128,
    )


def _all_levels_character(a, two_lmax) -> np.ndarray:
    """(a_k + a_{-k} - a_{k+2} - a_{-k-2}) / (2 (k + 1)) for k = 0..two_lmax, as one array."""
    w = np.array([a[k] for k in range(-two_lmax - 2, two_lmax + 3)], dtype=np.complex128)
    both = w[two_lmax + 2 :] + w[two_lmax + 2 :: -1]
    return (both[:-2] - both[2:]) / (2 * np.arange(1, two_lmax + 2))


class TestTableViews:
    """ext_fourier_table is read-only levels over one array, each level
    bit for bit what it is when computed on its own."""

    @pytest.mark.parametrize("mode", ["paper", "character"])
    @pytest.mark.parametrize("lmax", [0, Fraction(1, 2), 6, Fraction(31, 2)], ids=str)
    @pytest.mark.parametrize("name", ["real", "complex", "empty"])
    @pytest.mark.parametrize("denom", [DNN, DPS, D_WIDE], ids=["DNN", "DPS", "span-6"])
    def test_every_level_matches_its_reference(self, denom, name, lmax, mode):
        a = _table_inputs()[name]
        table = ext_fourier_table(a, lmax, denom, mode)
        top = int(2 * lmax)
        assert list(table.entries) == list(range(top + 1))
        assert len(table.entries) == top + 1
        for two_l, (dim, vals) in table.entries.items():
            want = _reference_level(a, two_l, denom, mode)
            assert dim == two_l + 1 and vals.dtype == np.complex128
            assert vals.tobytes() == want.tobytes()
            alone = diag_fourier_coeff(a, Fraction(two_l, 2), denom, mode)
            assert alone.tobytes() == want.tobytes()
        assert sum(dim for dim, _ in table.entries.values()) == sum(t + 1 for t in range(top + 1))

    @pytest.mark.parametrize("mode", ["paper", "character"])
    def test_keys_outside_the_levels_raise(self, mode):
        entries = ext_fourier_table(_table_inputs()["real"], 3, DNN, mode).entries
        for key in (-1, 7, 1.0, "1", None):
            assert key not in entries
            with pytest.raises(KeyError):
                entries[key]
        assert 6 in entries and np.int64(6) in entries
        assert entries.get(7) is None
        assert entries[np.int64(2)][1].tobytes() == entries[2][1].tobytes()

    @pytest.mark.parametrize("mode", ["paper", "character"])
    def test_levels_are_read_only(self, mode):
        a = _table_inputs()["complex"]
        table = ext_fourier_table(a, 5, DNN, mode)
        for _, vals in table.entries.values():
            with pytest.raises(ValueError, match="read-only"):
                vals[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            diag_fourier_coeff(a, 2, DNN, mode)[0] = 1.0
        with pytest.raises(TypeError):
            table.entries[0] = (1, np.zeros(1))

    def test_caller_tables_are_still_validated(self):
        for entries in ({np.int64(1): (2.0, [1, 2])}, {}):
            with pytest.raises(TypeError, match="ext_fourier_table"):
                CentralCoeffTable(entries, "paper", "nonnegative")
        with pytest.raises(ValueError, match="mode must be one of"):
            CentralCoeffTable({}, "bogus", "nonnegative")

    def test_character_mode_table_is_linear_in_lmax(self):
        # sum_l (2l + 1) copies of c_l would be 50M complex numbers (800 MB) here;
        # the table holds the 10,001 values of c_l and builds a level when read
        import tracemalloc

        a = _table_inputs()["complex"]
        ext_fourier_table(a, 1, DNN, "character")  # warm
        tracemalloc.start()
        try:
            table = ext_fourier_table(a, 5000, DNN, "character")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(table.entries) == 10_001
        dim, vals = table.entries[10_000]
        want = _all_levels_character(a, 10_000)[10_000]
        assert dim == 10_001 and np.all(vals == want)


class TestCharacterCoeffLookups:
    @pytest.mark.parametrize("name", ["real", "complex", "empty"])
    def test_bit_identical_to_all_levels_formula(self, name):
        a = _table_inputs()[name]
        want = _all_levels_character(a, 60)
        for two_l in range(61):
            got = np.complex128(character_coeff(a, Fraction(two_l, 2)))
            assert got.tobytes() == want[two_l].tobytes(), two_l

    def test_signed_zeros_follow_the_formula(self):
        a = Coeff1D(-3, np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0]) * (1 - 1j))
        want = _all_levels_character(a, 4)
        for two_l in range(5):
            got = np.complex128(character_coeff(a, Fraction(two_l, 2)))
            assert got.tobytes() == want[two_l].tobytes()

    @pytest.mark.parametrize("l, two_l", [
        (0, 0), (3, 6), (True, 2), (0.5, 1), (-0.0, 0), (Fraction(7, 2), 7), ("5/2", 5),
        ("1.5", 3), (Decimal("2.5"), 5), (np.int64(4), 8), (np.float64(2.5), 5), (2**70, 2**71),
    ], ids=repr)
    def test_highest_weights_accepted(self, l, two_l):
        got = _two_l(l)
        assert type(got) is int and got == two_l

    @pytest.mark.parametrize("l", [-1, -0.5, 0.3, Fraction(1, 3), "1/4", 5e-324, Fraction(-1, 2)], ids=repr)
    def test_highest_weights_refused(self, l):
        with pytest.raises(ValueError, match=rf"^highest weight must lie in \(1/2\)N_0, got {re.escape(str(l))}$"):
            su2_weights(l)


class TestSchatten:
    def test_empty(self):
        for mode in ("paper", "character"):
            table = ext_fourier_table(Coeff1D(0, np.zeros(0)), 3, DNN, mode)
            assert schatten_lp_norm(table, 1) == schatten_lp_norm(table, 2) == 0.0

    def test_single_entry_p1(self):
        # g = D * e_0 / 2: 1 at mu = 0 and -1/2 at mu = +-2, so level 0 adds 1 * 1, level 1
        # adds nothing, and level 2 adds 3 * (1/2 + 1 + 1/2); character mode has c_0 = 1 only
        assert schatten_lp_norm(ext_fourier_table(E0, 1, DNN, "paper"), 1) == 7.0
        assert schatten_lp_norm(ext_fourier_table(E0, 1, DNN, "character"), 1) == 1.0

    def test_character_mode_d_squared(self):
        table = ext_fourier_table(chi_restriction(1), 3, DNN, "character")
        # only l = 1 contributes: d^2 |c| = 9 / 3 = 3
        np.testing.assert_allclose(schatten_lp_norm(table, 1), 3.0, atol=1e-13)

    def test_p2(self):
        # a = 2 e_0 at l = 0: g(0) = D(0) * 2 / 2 = 2 and c_0 = (2 + 2) / 2 = 2
        for mode in ("paper", "character"):
            assert schatten_lp_norm(ext_fourier_table(Coeff1D(0, [2.0]), 0, DNN, mode), 2) == 2.0
        # the impulse's paper levels: 1 * 1^2 + 3 * (1/4 + 1 + 1/4) = 11/2
        assert schatten_lp_norm(ext_fourier_table(E0, 1, DNN, "paper"), 2) == 5.5 ** 0.5

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_lp_norm(ext_fourier_table(E0, 1, DNN), 0.5)


def _loop_schatten(table, p) -> float:
    """The per-level loop: (sum over levels of dim * sum |vals|^p)^(1/p)."""
    total = sum(dim * float(np.sum(np.abs(vals) ** p)) for dim, vals in table.entries.values())
    return total ** (1.0 / p)


class TestOneLevelSum:
    """q1, q2 and the Schatten norm read one O(lmax) level sum."""

    @pytest.mark.parametrize("mode", ["paper", "character"])
    @pytest.mark.parametrize("lmax", [0, Fraction(1, 2), 7, Fraction(41, 2)], ids=str)
    @pytest.mark.parametrize("name", ["real", "complex", "empty"])
    @pytest.mark.parametrize("denom", [DNN, DPS, D_WIDE], ids=["DNN", "DPS", "span-6"])
    def test_schatten_matches_the_per_level_loop(self, denom, name, lmax, mode):
        table = ext_fourier_table(_table_inputs()[name], lmax, denom, mode)
        for p in (1, 2, 3.5):
            got = schatten_lp_norm(table, p)
            assert type(got) is float
            np.testing.assert_allclose(got, _loop_schatten(table, p), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("mode", ["paper", "character"])
    @pytest.mark.parametrize("name", ["real", "complex", "empty"])
    @pytest.mark.parametrize("denom", [DNN, DPS, D_WIDE], ids=["DNN", "DPS", "span-6"])
    def test_q1_is_the_s1_sum(self, denom, name, mode):
        a = _table_inputs()[name]
        for lmax in (0, Fraction(1, 2), 7, Fraction(41, 2)):
            table = ext_fourier_table(a, lmax, denom, mode)
            assert condition_q1_sum(a, lmax, denom, mode)[-1] == schatten_lp_norm(table, 1)


class TestConditionQ1:
    def test_constant_character_mode(self):
        sums = condition_q1_sum(E0, 2, DNN, "character")
        np.testing.assert_allclose(sums, [1.0] * 5, atol=1e-15)

    def test_constant_paper_mode_diverges(self):
        sums = condition_q1_sum(E0, 3, DNN, "paper")
        # l = 0 contributes 1; each further integer l adds 2(2l+1)
        np.testing.assert_allclose(sums, [1.0, 1.0, 7.0, 7.0, 17.0, 17.0, 31.0])

    def test_zero_sequence(self):
        sums = condition_q1_sum(Coeff1D(0, np.zeros(0)), 2, DNN, "paper")
        assert all(s == 0.0 for s in sums)

    def test_character_mode_equals_d_squared_sums(self):
        rng = np.random.default_rng(61)
        a = Coeff1D(-4, rng.standard_normal(9))
        sums = condition_q1_sum(a, 5, DNN, "character")
        acc = 0.0
        expected = []
        for two_l in range(0, 11):
            c = character_coeff(a, Fraction(two_l, 2))
            acc += (two_l + 1) ** 2 * abs(c)
            expected.append(acc)
        np.testing.assert_allclose(sums, expected, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            condition_q1_sum(E0, 1, DNN, "bogus")
        with pytest.raises(ValueError, match="mode must be one of"):
            ext_fourier_table(E0, 1, DNN, "bogus")
        with pytest.raises(ValueError, match="mode must be one of"):
            CentralCoeffTable(ext_fourier_table(E0, 1, DNN).entries, "bogus", "nonnegative")


class TestQ2Diagnostic:
    def test_zero_sequence(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = q2_diagnostic(Coeff1D(0, np.zeros(0)), 5, DNN)
        assert all(v == 0.0 for v in d.hilbert_side)
        assert all(v == 0.0 for v in d.plain_side)

    def test_cosine_fixture_finite_ratio_and_brute_force(self):
        a = Coeff1D.from_dict({-1: 1.0, 1: 1.0})  # f = 2 cos t
        d = q2_diagnostic(a, 10, DNN)
        assert d.parity == "even"
        assert np.isfinite(d.ratio[-1]) and d.ratio[-1] > 0
        # literal recomputation: g on the window, full kernel by double loop
        bound = 2 * 20 + 8
        g = {}
        for mu in range(-bound, bound + 1):
            g[mu] = 0.5 * sum(c * a[mu + nu[0]] for nu, c in DNN.coeffs.items())
        expected = []
        acc = 0.0
        for two_l in range(0, 21):
            for mu in range(-two_l, two_l + 1, 2):
                hg = sum(
                    g[k] / (mu - k) for k in range(-bound, bound + 1) if k != mu
                )
                acc += (two_l + 1) * abs(hg)
            expected.append(acc)
        np.testing.assert_allclose(d.hilbert_side, expected, atol=1e-10)

    def test_hilbert_side_transforms_the_whole_inner_sequence(self):
        # g reaches mu = +-32, beyond any window tied to lmax = 5
        a = Coeff1D.from_dict({-30: 1.0, -1: 1.0, 1: 1.0, 30: 1.0})
        d = q2_diagnostic(a, 5, DNN)
        g = {}
        for k in range(-40, 41):
            g[k] = 0.5 * sum(c * a[k + nu[0]] for nu, c in DNN.coeffs.items())
        support = [k for k, v in g.items() if v != 0]
        assert (min(support), max(support)) == (-32, 32)
        expected, acc = [], 0.0
        for two_l in range(0, 11):
            for mu in range(-two_l, two_l + 1, 2):
                acc += (two_l + 1) * abs(sum(g[k] / (mu - k) for k in support if k != mu))
            expected.append(acc)
        np.testing.assert_allclose(d.hilbert_side, expected, rtol=1e-13, atol=1e-13)

    def test_chi1_character_plain_side_constant(self):
        d = q2_diagnostic(chi_restriction(1), 10, DNN, mode="character")
        np.testing.assert_allclose(d.plain_side[2:], [3.0] * 19, atol=1e-13)

    @pytest.mark.parametrize("lmax, mode", [  # paper cases keep their ids
        pytest.param(lmax, mode, id=str(lmax) if mode == "paper" else f"{lmax}-{mode}")
        for mode in ("paper", "character") for lmax in (0, 0.5, 7.5, 20)
    ])
    def test_paper_plain_side_is_condition_q1_sum(self, lmax, mode):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(41)
        a = Coeff1D(-20, v + v[::-1])
        d = q2_diagnostic(a, lmax, DNN, mode)
        assert isinstance(d.plain_side, tuple) and isinstance(d.hilbert_side, tuple)
        sums = condition_q1_sum(a, lmax, DNN, mode)
        np.testing.assert_allclose(d.plain_side, sums, rtol=1e-13)
        # the per-level definition: d_pi sum_m |diagonal value|, summed in order
        levels = [
            (two_l + 1) * np.sum(np.abs(diag_fourier_coeff(a, Fraction(two_l, 2), DNN, mode)))
            for two_l in range(int(2 * lmax) + 1)
        ]
        np.testing.assert_allclose(sums, np.cumsum(levels), rtol=1e-13)

    def test_warns_on_non_even_input(self):
        with pytest.warns(UserWarning):
            q2_diagnostic(Coeff1D.impulse(1), 2, DNN)

    def test_unknown_mode_rejected_before_the_work(self, monkeypatch):
        # a bad mode is one ValueError: no parity warning, no Hilbert transform
        def transform(*args):
            raise AssertionError("q2_diagnostic transformed before checking its mode")

        monkeypatch.setattr(weyl, "dht_full", transform)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="mode must be one of"):
                q2_diagnostic(Coeff1D.impulse(1), 2, DNN, "bogus")
        assert caught == []


class TestSufficiencySum:
    def test_single_odd_term(self):
        np.testing.assert_allclose(su2_sufficiency(Coeff1D.impulse(3)), 3 * np.log(3))

    def test_partial_sum_matches_direct(self):
        entries = {n: n**-3.0 for n in range(1, 100, 2)}
        a = Coeff1D.from_dict(entries)
        direct = sum(n * np.log(n) * n**-3.0 for n in range(1, 100, 2))
        assert abs(su2_sufficiency(a) - direct) < 1e-12 * direct

    def test_zero(self):
        assert su2_sufficiency(Coeff1D(1, np.zeros(4))) == 0.0

    def test_ignored_mass_warns(self):
        a = Coeff1D.from_dict({2: 1.0, 3: 1.0})
        with pytest.warns(UserWarning, match="ignored"):
            val = su2_sufficiency(a)
        np.testing.assert_allclose(val, 3 * np.log(3))


class TestTelescoping:
    def test_zero(self):
        res = telescoping_sum(Coeff1D(1, np.zeros(3)), 4)
        assert res.brute == res.paper_form == res.derived_form == 0.0

    def test_arithmetic_fixture_l2(self):
        a = Coeff1D.from_dict({m: float(m) for m in range(1, 10)})
        res = telescoping_sum(a, 2)
        assert res.brute == 1.0
        assert res.derived_form == 1.0

    def test_documented_discrepancy_l1(self):
        a = Coeff1D.from_dict({m: float(m) for m in range(1, 8)})
        res = telescoping_sum(a, 1)
        assert res.brute == 1.0
        assert res.paper_form == 4.0  # printed closed form misses -a_1 - a_2
        assert res.derived_form == res.brute

    def test_random_integer_sequences_exact(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            vals = rng.integers(-9, 10, size=50).astype(float)
            a = Coeff1D(1, vals)
            for two_l in range(0, 17):
                res = telescoping_sum(a, Fraction(two_l, 2))
                assert res.brute == res.derived_form

    def test_matches_entrywise_lookups_exactly(self):
        # the literal sums over a[k], on complex inputs at shifted offsets
        rng = np.random.default_rng(8)
        for _ in range(40):
            n, off = int(rng.integers(0, 20)), int(rng.integers(1, 5))  # a_0 = a_{-1} = 0
            a = Coeff1D(off, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for two_l in range(0, 21):
                top = two_l + 1
                brute = sum(a[m - 2] - 2 * a[m] + a[m + 2] for m in range(1, top + 1))
                paper = -a[top - 1] - a[top] + a[top + 1] + a[top + 2]
                derived = a[-1] + a[0] - a[1] - a[2] - a[top - 1] - a[top] + a[top + 1] + a[top + 2]
                res = telescoping_sum(a, Fraction(two_l, 2))
                assert (res.brute, res.paper_form, res.derived_form) == tuple(
                    z.real if z.imag == 0 else z for z in (brute, paper, derived))

    def test_forces_zero_head_with_warning(self):
        a = Coeff1D.from_dict({-1: 2.0, 0: 3.0, 1: 1.0})
        with pytest.warns(UserWarning, match="forcing"):
            res = telescoping_sum(a, 1)
        # identical to the cleaned sequence
        clean = telescoping_sum(Coeff1D.from_dict({1: 1.0}), 1)
        assert res.brute == clean.brute


class TestParity:
    def test_even(self):
        assert parity_check(Coeff1D.from_dict({-1: 1, 1: 1})) == "even"

    def test_odd(self):
        assert parity_check(Coeff1D.from_dict({-1: -1, 1: 1})) == "odd"

    def test_neither(self):
        assert parity_check(Coeff1D.impulse(1)) == "neither"

    def test_zero_reports_even(self):
        assert parity_check(Coeff1D(3, np.zeros(2))) == "even"
