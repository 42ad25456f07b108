"""SU(2): Weyl data, characters, and central-function summability.

A central function on SU(2) is determined by its restriction to the
maximal torus; its group Fourier coefficients reduce to finite sums of
torus coefficients against the Fourier support of the squared Weyl
denominator.  This demo walks the whole chain: root data, dimension
formula, characters, diagonal coefficient tables, the summability
partial sums, the SU(2) sufficiency sum, and the telescoping identity
(including the discrepancy of the printed closed form).

Run:  python3 demos/05_su2.py
"""

import warnings
from fractions import Fraction

import numpy as np

from reexpansion import (
    Coeff1D,
    RootSystem,
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

print("=" * 72)
print("1. Root data and the squared Weyl denominator")
print("=" * 72)

su2 = RootSystem.su2()
print(f"\n  rank {su2.rank}, positive roots {su2.positive_roots}, half-sum {su2.half_sum}")
dnn = weyl_denom_sq_coeffs(su2, "nonnegative")
dps = weyl_denom_sq_coeffs(su2, "paper_signed")
print(f"  |Delta|^2 = 2 - 2 cos 2t  ->  {dict(sorted(dnn.coeffs.items()))}")
print(f"  signed product form       ->  {dict(sorted(dps.coeffs.items()))}")
print(f"  support size v = {dnn.support_size}; coefficients sum to zero and are symmetric")

print(f"\n  Weyl dimension formula: SU(2) weight 2l=7 -> {weyl_dimension((7,), su2)}")

print()
print("=" * 72)
print("2. Characters on the torus")
print("=" * 72)

print("\n  chi_l(t) = sin((2l+1)t)/sin t; at t = 0 it equals the dimension:")
for two_l in (0, 1, 2, 5):
    l = Fraction(two_l, 2)
    print(f"  l = {str(l):>4s}: weights {su2_weights(l)},  chi(0) = {su2_character(l, 0.0):.0f},"
          f"  chi(pi/2) = {su2_character(l, np.pi / 2):+.4f}")

print()
print("=" * 72)
print("3. Diagonal Fourier data of a central extension")
print("=" * 72)

f = Coeff1D.from_dict({-2: 1.0, 0: 1.0, 2: 1.0})  # restriction of chi_1
print(f"\n  f = restriction of chi_1, parity: {parity_check(f)}")
print("  paper mode (weight-shifted sums) vs character mode (Schur scalar):")
for two_l in range(0, 5):
    l = Fraction(two_l, 2)
    paper = diag_fourier_coeff(f, l, dnn, "paper").real
    char = diag_fourier_coeff(f, l, dnn, "character").real
    print(f"  l = {str(l):>4s}: paper {np.array2string(paper, precision=3):<26s}"
          f" character {np.array2string(char, precision=3)}")
print("\n  Traces agree (sum of paper diagonal = d * c_l) even though the")
print("  entrywise values differ: individual matrix entries pi(g)_mm are")
print("  not central functions.")

table = ext_fourier_table(f, 3, dnn, "character")
print(f"\n  Schatten l1 sum of the character-mode table: "
      f"{schatten_lp_norm(table, 1):.6f}  (= d^2 |c_1| = 9/3)")

print()
print("=" * 72)
print("4. Summability partial sums (Q1) and the Hilbert-transform side (Q2)")
print("=" * 72)

e0 = Coeff1D.impulse(0)
print("\n  f = 1 in character mode: only the trivial representation contributes")
print(f"  partial sums: {condition_q1_sum(e0, 2, dnn, 'character')}")
print("  f = 1 in paper mode: the diagonal sums keep growing")
print(f"  partial sums: {condition_q1_sum(e0, 2, dnn, 'paper')}")

cos_f = Coeff1D.from_dict({-1: 1.0, 1: 1.0})  # 2 cos t
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    diag = q2_diagnostic(cos_f, 8, dnn)
print(f"\n  f = 2 cos t, lmax = 8: hilbert side {diag.hilbert_side[-1]:.4f},"
      f" plain side {diag.plain_side[-1]:.4f}, ratio {diag.ratio[-1]:.4f}")
print("  (the comparison behind the even/odd re-expansion criterion; the")
print("   constant relating the two sides is reported, never adjudicated)")

print()
print("=" * 72)
print("5. The SU(2) sufficiency sum and the telescoping identity")
print("=" * 72)

tail = Coeff1D.from_dict({n: n**-3.0 for n in range(1, 60, 2)})
print(f"\n  sum n ln(n) |a_n| over odd n for a_n = n^-3: {su2_sufficiency(tail):.6f} (finite)")

seq = Coeff1D.from_dict({m: float(m) for m in range(1, 8)})
res = telescoping_sum(seq, 1)
print(f"\n  telescoping sum for a_m = m, l = 1:")
print(f"  brute force        = {res.brute}")
print(f"  printed closed form = {res.paper_form}   <- misses -a_1 - a_2")
print(f"  re-derived form     = {res.derived_form}")
