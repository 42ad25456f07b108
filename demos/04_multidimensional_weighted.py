"""Multidimensional and weighted re-expansion.

On [0, pi]^d each axis carries its own parity, the mixed transform
factorizes axiswise, and weighting by k^q moves the problem to the
q-th derivative series, where odd exponents flip the parity of an axis
and contribute a global sign.

Run:  python3 demos/04_multidimensional_weighted.py
"""

import warnings

import numpy as np

from reexpansion import (
    Coeff1D,
    CoeffND,
    ParityVector,
    ReexpandSpec,
    WeightExponent,
    cos_to_sin,
    dht_even_halved,
    dht_mixed,
    dht_odd_halved,
    quadrature_oracle_box,
    reexpand_nd,
    reexpand_weighted,
    sin_to_cos,
)

print("=" * 72)
print("1. Separable 2-D inputs factorize through the mixed transform")
print("=" * 72)

rng = np.random.default_rng(42)
u = Coeff1D(1, rng.standard_normal(5))
v = Coeff1D(1, rng.standard_normal(4))
a = CoeffND((1, 1), np.outer(u.values, v.values))
eta = ParityVector((1, 0))  # cosine along axis 0, sine along axis 1
box = ((1, 10), (0, 10))

out = dht_mixed(a, eta, box)
outer = np.outer(dht_even_halved(u, box[0]).values, dht_odd_halved(v, box[1]).values)
print(f"\n  max |mixed(u x v) - evenh(u) x oddh(v)| = {np.max(np.abs(out.values - outer)):.2e}")

spec = ReexpandSpec(eta, WeightExponent.zero(2), box)
b = reexpand_nd(a, spec)
outer = np.outer(cos_to_sin(u, box[0]).values, sin_to_cos(v, box[1]).values)
print(f"  max |reexpand(u x v) - c2s(u) x s2c(v)|  = {np.max(np.abs(b.values - outer)):.2e}")
print("\nOne (2/pi) prefactor enters per axis.")

print()
print("=" * 72)
print("2. Weighted re-expansion: q = 1 is a parity-flipping derivative")
print("=" * 72)

fixture = Coeff1D.from_dict({1: 1.0, 3: -1.0})  # f = cos t - cos 3t
q1 = WeightExponent((1,))
spec1 = ReexpandSpec(ParityVector((1,)), q1, ((0, 8),))
res = reexpand_weighted(fixture, spec1)
print(f"\n  source parity eta = (1,)  ->  effective parity {res.eta_effective.bits},"
      f"  global sign {res.sign:+.0f}")
print("  (d/dt turns the cosine series into a sine series with k a_k)")

oracle = quadrature_oracle_box(fixture, ParityVector((1,)), q1, [(0, 8)])
print("\n  m    raw = m b_m         derivative oracle")
for m in range(0, 9):
    print(f"  {m}   {res.raw[m].real:+.10f}    {oracle[m].real:+.10f}")
print(f"\n  boundary hypothesis satisfied: {res.boundary.passed}")
print(f"  flagged deweighting indices (m_j = 0 with q_j > 0): {res.flagged}")

print()
print("=" * 72)
print("3. A failing boundary hypothesis is reported, not rejected")
print("=" * 72)

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    res_bad = reexpand_weighted(Coeff1D.impulse(1), spec1)  # f = cos t, f(0) = 1
print(f"\n  boundary passed: {res_bad.boundary.passed}")
for w in caught:
    print(f"  warning: {w.message}")
print("\nThe coefficient map is still computed (it only depends on the")
print("orthogonality integrals); the warning records that the identity")
print("with the re-expansion of f itself is not guaranteed.")
