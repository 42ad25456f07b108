"""Self-tests of the benchmark: its reference formulas, its checks (a
perturbed output must be flagged) and its span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from fractions import Fraction

import numpy as np
import pytest

import oracle
import spans
import workloads


def _literal(kind, offset, values, n):
    """The kernel definitions summed term by term in Python."""
    total = 0.0
    for i, a in enumerate(values):
        k = offset + i
        if kind == "full":
            total += a / (n - k) if k != n else 0.0
        elif kind in ("even", "odd"):
            if k == n:
                total += (a if kind == "even" else -a) / (2 * n) if n >= 1 else 0.0
            else:
                total += a * (2 * n if kind == "even" else 2 * k) / (n * n - k * k)
        elif (k - n) % 2 == 1:
            total += a * (1 / (n + k) + (1 / (n - k) if kind == "even_halved" else 1 / (k - n)))
    return total


@pytest.mark.parametrize("kind", ["full", "even", "odd", "even_halved", "odd_halved"])
def test_kernel_rows_match_the_definitions(kind):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(12)
    lo = -15 if kind == "full" else (1 if kind.startswith("even") else 0)
    ns = range(lo, 16)
    got = oracle.transform_at(kind, 1, values, ns)
    want = [_literal(kind, 1, values, n) for n in ns]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_su2_closed_form_matches_the_program():
    from reexpansion import weyl
    from reexpansion.sequences import Coeff1D

    rng = np.random.default_rng(1)
    entries = {k: float(v) for k, v in zip(range(-9, 10), rng.standard_normal(19))}
    a = Coeff1D.from_dict(entries)
    for two_l in range(8):
        want = weyl.character_coeff_quadrature(a, Fraction(two_l, 2))
        assert abs(oracle.su2_character_coeff(entries, two_l) - want) <= 1e-10


@pytest.mark.parametrize("name", ["cli-large", "kernels", "verify", "su2"])
def test_checks_pass_and_flag_a_perturbed_output(name, tmp_path):
    wl = workloads.BUILDERS[name](5, tmp_path, small=True)
    for op in wl.ops:
        got = op.observe(op.run(None))
        assert oracle.deviation(got, op.expected) <= op.gate, op.name
        assert oracle.deviation(oracle.perturbed(got), op.expected) > op.gate, op.name


def test_self_time_and_layer_totals():
    def span(name, start, end, parent, **attrs):
        return {"name": name, "start": start, "end": end, "parent": parent, **attrs}

    s = 10**9
    trace = [
        span("op", 0, 10 * s, -1, op="hilbert_even_halved_2^20"),
        span("cli.import", 0, 1 * s, 0),
        span("cli.main", 1 * s, 9 * s, 0),
        span("sequences.load", 1 * s, 3 * s, 2, bytes=100),
        span("hilbert.even_halved", 3 * s, 5 * s, 2, algorithm="fast", coeffs=4),
        span("sequences.save", 5 * s, 8 * s, 2, bytes=300),
    ]
    m = spans.layer_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["sequences.load_s"] + m["sequences.save_s"] == pytest.approx(5.0)
    assert m["sequences.bytes_out"] == 300
    assert m["hilbert.coeffs_per_s"] == pytest.approx(2.0)
    assert m["bench.layer_coverage_frac"] == pytest.approx(0.9)


def test_probe_points():
    assert spans.probe_points((2, 2, 2)) == 13872
    assert spans.probe_points((1, 0)) == 0
