"""Summability diagnostics: when is the re-expansion absolutely convergent?

The classical answer is controlled by the discrete Hilbert transform of
the coefficients: the re-expanded series is absolutely convergent
exactly when the (halved) transform is summable, and the simple
sufficient condition is  sum |a_k| ln(k+1) < infinity together with
the moment conditions  sum a_k = sum (-1)^k a_k = 0.

This demo contrasts a fixture that satisfies everything with one that
fails the moment conditions.

Run:  python3 demos/03_summability.py
"""

import numpy as np

from reexpansion import Coeff1D, WeightExponent, log_weighted_sum, summability_report

WINDOWS = (64, 128, 256, 512, 1024, 2048)


def show(report):
    print(f"  kind = {report.kind}")
    print("  window    truncated l1 norm    increment")
    for w, norm, inc in zip(report.windows, report.norms, report.increments):
        print(f"  {w:6d}    {norm:17.12f}    {inc:12.3e}")
    ms, msa = report.moment_sum, report.moment_sum_alternating
    print(f"  moment sums: sum a_k = {ms.real:+.3e}, sum (-1)^k a_k = {msa.real:+.3e}")
    print(f"  log-weighted sum: {report.log_weighted:.6f}")
    print(f"  window tail hint: {report.tail_hint:.2e}")
    print(f"  verdict hint: {report.verdict_hint}")


print("=" * 72)
print("1. f = cos t - cos 3t: both moment sums vanish")
print("=" * 72)
print()
good = Coeff1D.from_dict({1: 1, 3: -1})
show(summability_report(good, "even_halved", WINDOWS))
print("\nThe transform decays like n^-3, so the windowed norms saturate:")
print("increments fall by ~4x per doubling.  The verdict needs no window:")
print("both moment sums vanish, so the whole transform is l1.")

print()
print("=" * 72)
print("2. f = cos t alone: f(0) = 1 breaks the moment condition")
print("=" * 72)
print()
bad = Coeff1D.impulse(1)
show(summability_report(bad, "even_halved", WINDOWS))
print("\nHere b_n ~ 2/n on even n, the increments approach ln 2 per")
print(f"doubling ({np.log(2):.4f}), and the norms grow without bound:")
print("(|sum_odd| + |sum_even|) ln 2 per doubling, read from the moment sums.")

print()
print("=" * 72)
print("3. The log-weighted sufficiency sums")
print("=" * 72)
print()
for q in (0, 1, 2):
    w = WeightExponent((q,))
    print(
        f"  q = {q}:  fixture 1 -> {log_weighted_sum(good, w):9.5f}   "
        f"fixture 2 -> {log_weighted_sum(bad, w):9.5f}"
    )
print("\nFinite log-weighted sums are the cheap sufficient test; the")
print("windowed transform norms above are the sharper (necessary and")
print("sufficient) diagnostic, at the price of actually transforming.")
