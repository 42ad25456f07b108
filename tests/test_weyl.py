"""Tests for the compact-group layer.

Independent expectations: the orthonormality integrals are evaluated in
exact rational arithmetic directly from the finite Fourier supports;
the telescoping sums are brute-forced; Hilbert-side partial sums are
recomputed with literal double loops.
"""

import warnings
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

    def test_su2_paper_signed(self):
        assert DPS.coeffs == {(-2,): 1, (0,): -2, (2,): 1}

    def test_rank2_outer_product(self):
        rs = RootSystem.make([(2, 0), (0, 2)])
        d = weyl_denom_sq_coeffs(rs)
        assert d.support_size == 9
        # outer product of two rank-1 tables
        for (n1,), c1 in DNN.coeffs.items():
            for (n2,), c2 in DNN.coeffs.items():
                assert d.get((n1, n2)) == c1 * c2

    @pytest.mark.parametrize("convention", ["nonnegative", "paper_signed"])
    def test_invariants_any_root_list(self, convention):
        rs = RootSystem.make([(1, 0), (0, 1), (1, 1)])
        d = weyl_denom_sq_coeffs(rs, convention)
        assert sum(d.coeffs.values()) == 0
        for nu, c in d.coeffs.items():
            assert d.get(tuple(-x for x in nu)) == c

    def test_validation(self):
        with pytest.raises(ValueError):
            WeylDenomSq({(0,): 1}, "nonnegative")  # sum != 0
        with pytest.raises(ValueError):
            WeylDenomSq({(1,): 1, (-1,): -1}, "nonnegative")  # not symmetric
        with pytest.raises(ValueError):
            weyl_denom_sq_coeffs(SU2, "sideways")


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
            RootSystem.make([(0, 0)])


class TestDimension:
    def test_trivial(self):
        assert weyl_dimension((0,), SU2) == 1

    def test_su2_matches_2l_plus_1(self):
        for two_l in range(0, 41):
            assert weyl_dimension((two_l,), SU2) == two_l + 1

    def test_su3_adjoint(self):
        su3 = RootSystem.make([(1, 0), (0, 1), (1, 1)])
        assert weyl_dimension((1, 1), su3) == 8

    def test_rejects_nondominant(self):
        with pytest.raises(ValueError):
            weyl_dimension((-1,), SU2)


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

    def test_rows_format(self):
        table = ext_fourier_table(E0, Fraction(1, 2), DNN, "character")
        rows = table.rows()
        assert rows[0] == (0, 1, 0, 1.0, 0.0, "character", "nonnegative")
        assert [r[:3] for r in rows[1:]] == [(1, 2, -1), (1, 2, 1)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CentralCoeffTable({2: (3, np.array([1.0]))}, "paper", "nonnegative")


class TestSchatten:
    def test_empty(self):
        assert schatten_lp_norm(CentralCoeffTable({}, "paper", "nonnegative"), 1) == 0.0

    def test_single_entry_p1(self):
        t = CentralCoeffTable({2: (3, np.array([1.0, -0.5, -0.5]))}, "paper", "nonnegative")
        assert schatten_lp_norm(t, 1) == 6.0

    def test_character_mode_d_squared(self):
        table = ext_fourier_table(chi_restriction(1), 3, DNN, "character")
        # only l = 1 contributes: d^2 |c| = 9 / 3 = 3
        np.testing.assert_allclose(schatten_lp_norm(table, 1), 3.0, atol=1e-13)

    def test_p2(self):
        t = CentralCoeffTable({0: (1, np.array([2.0]))}, "paper", "nonnegative")
        assert schatten_lp_norm(t, 2) == 2.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_lp_norm(CentralCoeffTable({}, "paper", "nonnegative"), 0.5)


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
