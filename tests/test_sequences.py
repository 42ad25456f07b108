"""Tests for the coefficient-sequence data model and series evaluation."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from reexpansion import (
    Coeff1D,
    CoeffND,
    ParityVector,
    ReexpandSpec,
    TransformRequest,
    WeightExponent,
    boundary_vanish_check,
    cos_to_sin,
    dht_even,
    dht_even_halved,
    dht_full,
    dht_mixed,
    dht_odd,
    dht_odd_halved,
    dht_tensor,
    l1_norm,
    load_sequence,
    log_weighted_sum,
    quadrature_oracle_box,
    reexpand_nd,
    save_sequence,
    series_eval,
    sin_to_cos,
    transform,
    weight_apply,
)
from reexpansion import pairtext, sequences
from reexpansion.pairtext import CHUNK as _CHUNK
from reexpansion.sequences import (
    _TWO_PROCESSES,
    GL_NODES,
    _node_chunks,
    _phase_rows,
    _saved_layout,
    gauss_legendre_grid,
)


def test_l1_norm_zero_sequence():
    assert l1_norm(Coeff1D(0, np.zeros(0))) == 0.0
    assert l1_norm(Coeff1D(5, np.zeros(4))) == 0.0


def test_l1_norm_two_unit_entries():
    a = Coeff1D.from_dict({1: 1, 3: -1})
    assert l1_norm(a) == 2.0


def test_l1_norm_matches_direct_resummation():
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    a = Coeff1D(-37, vals)
    direct = sum(abs(v) for v in vals)
    assert abs(l1_norm(a) - direct) < 1e-12 * direct


def test_getitem_uses_true_indices():
    a = Coeff1D.from_dict({-2: 3.0, 4: 1.0})
    assert a[-2] == 3.0
    assert a[0] == 0.0
    assert a[4] == 1.0
    assert a[100] == 0.0


def test_trim_idempotent():
    a = Coeff1D(0, np.array([0, 0, 1, 2, 0, 0]))
    t1 = a.trim()
    t2 = t1.trim()
    assert t1.offset == t2.offset == 2
    np.testing.assert_array_equal(t1.values, t2.values)


def test_trim_copies_only_a_block_it_shrinks():
    tight = CoeffND((2, -1), np.arange(1.0, 7.0).reshape(2, 3))
    assert np.shares_memory(tight.trim().values, tight.values)
    assert tight.trim() == tight
    loose = CoeffND((2, -2), np.pad(tight.values, ((0, 1), (1, 0))))
    trimmed = loose.trim()
    assert not np.shares_memory(trimmed.values, loose.values)
    assert trimmed.offsets == (2, -1) and trimmed == tight


def test_trim_nd():
    vals = np.zeros((4, 5))
    vals[1, 2] = 1.0
    vals[2, 3] = -1.0
    a = CoeffND((0, 0), vals).trim()
    assert a.offsets == (1, 2)
    assert a.dims == (2, 2)
    t2 = a.trim()
    assert t2.offsets == a.offsets and t2.dims == a.dims


@pytest.mark.parametrize(
    "shape, nonzero, offsets, dims",
    [
        ((7,), [], (0,), (0,)),
        ((3, 4, 5), [], (0, 0, 0), (0, 0, 0)),
        ((7,), [(6,)], (16,), (1,)),
        ((7,), [(0,)], (10,), (1,)),
        ((3, 4, 5), [(2, 3, 4)], (12, 23, 34), (1, 1, 1)),
        ((3, 4, 5), [(0, 0, 0)], (10, 20, 30), (1, 1, 1)),
        ((3, 4, 5), [(0, 3, 0), (2, 0, 4)], (10, 20, 30), (3, 4, 5)),
    ],
    ids=["1d-zeros", "3d-zeros", "1d-last", "1d-first", "3d-far-corner",
         "3d-near-corner", "3d-opposite-corners"],
)
def test_trim_nd_edge_cases(shape, nonzero, offsets, dims):
    vals = np.zeros(shape, dtype=np.complex128)
    for i, idx in enumerate(nonzero):
        vals[idx] = 1.0 + i
    base = (10, 20, 30)[: len(shape)]
    t = CoeffND(base, vals).trim()
    assert t.offsets == offsets and t.dims == dims
    if nonzero:
        want = vals[tuple(slice(o - b, o - b + n) for o, b, n in zip(offsets, base, dims))]
        assert t.values.tobytes() == want.tobytes()
        assert t.values.base is None  # a copy, never a view of the input
    if len(shape) == 1:
        ref = Coeff1D(base[0], vals).trim()
        assert (ref.offset, len(ref)) == (t.offsets[0], t.dims[0])
        assert ref.values.tobytes() == t.values.tobytes()


def test_weight_apply_identity_for_zero_exponent():
    a = Coeff1D.from_dict({2: 1.5, 7: -2.0})
    out = weight_apply(a, WeightExponent((0,)))
    np.testing.assert_array_equal(out.values, a.values)


def test_weight_apply_single_term_power():
    a = Coeff1D.impulse(3)
    out = weight_apply(a, WeightExponent((2,)))
    assert out[3] == 9.0


def test_weight_apply_product_of_indices():
    a = CoeffND.impulse((2, 5))
    out = weight_apply(a, WeightExponent((1, 1)))
    assert out[(2, 5)] == 10.0


def test_weight_apply_zero_index_maps_to_zero():
    a = Coeff1D.from_dict({0: 4.0, 1: 1.0})
    out = weight_apply(a, WeightExponent((1,)))
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_weight_apply_rejects_negative_support():
    a = Coeff1D.from_dict({-1: 1.0, 2: 1.0})
    with pytest.raises(ValueError):
        weight_apply(a, WeightExponent((1,)))
    # fine when the exponent is zero
    weight_apply(a, WeightExponent((0,)))


@pytest.mark.parametrize(
    "a",
    [Coeff1D(-1, [1.0, 0.0]), CoeffND((0, -1), [[1.0, 0.0]])],
    ids=["1d", "2d-behind-a-zero-log-weight"],
)
def test_log_weighted_sum_rejects_negative_support(a):
    # in 2-D the entry at (0, -1) meets the weight ln(0 + 1) = 0 on axis 0
    with pytest.raises(ValueError, match="requires support in k >= 0"):
        log_weighted_sum(a, WeightExponent.zero(a.ndim))


@pytest.mark.parametrize(
    "a, b, equal",
    [
        (Coeff1D(2, [1.0, 2.0]), Coeff1D(2, [1.0, 2.0]), True),
        (Coeff1D(0, [1.0, 2.0j]), CoeffND((0,), [1.0, 2.0j]), True),
        (CoeffND((0, 0), [[0, 0, 0], [0, 1.0, 2.0]]), CoeffND((1, 1), [[1.0, 2.0]]), True),
        (Coeff1D(0, [1.0, 2.0]), Coeff1D(1, [1.0, 2.0]), False),
        (Coeff1D(0, [1.0, 2.0]), Coeff1D(0, [1.0, 3.0]), False),
    ],
    ids=["same-block", "coeff1d-vs-coeffnd", "zero-padding-trims-away", "other-offset",
         "other-value"],
)
def test_sequence_equality_compares_trimmed_entries(a, b, equal):
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    assert (a == a.offsets) is False  # anything else: NotImplemented, then identity
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_sequence_is_not_iterable_and_numpy_does_not_loop_over_it():
    # every index reads an entry, so an iterator would never end: a hang
    # here must fail the test, hence the subprocess and its timeout
    code = """
import numpy as np
from reexpansion import Coeff1D, CoeffND
for seq in (Coeff1D(0, [1.0, 2.0]), CoeffND((0, 0), [[1.0, 2.0]])):
    for convert in (iter, list, np.asarray):
        try:
            convert(seq)
        except TypeError:
            continue
        raise SystemExit(f"{convert.__name__} accepted {seq!r}")
    grid = np.zeros(seq.dims)
    assert (seq == grid) is False and (grid == seq) is False
    assert (seq != grid) is True and (grid != seq) is True
print("ok")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    assert proc.stdout.strip() == "ok"


def test_weight_apply_composes_additively():
    rng = np.random.default_rng(3)
    a = Coeff1D(0, rng.standard_normal(20))
    q1, q2 = WeightExponent((1,)), WeightExponent((2,))
    twice = weight_apply(weight_apply(a, q1), q2)
    once = weight_apply(a, WeightExponent((3,)))
    np.testing.assert_allclose(twice.values, once.values, rtol=1e-12)


def test_log_weighted_sum_single_term():
    assert abs(log_weighted_sum(Coeff1D.impulse(1), WeightExponent((0,))) - np.log(2)) < 1e-15


def test_log_weighted_sum_two_terms_weighted():
    a = Coeff1D.from_dict({1: 1, 3: 1})
    expected = 1 * np.log(2) + 3 * np.log(4)
    assert abs(log_weighted_sum(a, WeightExponent((1,))) - expected) < 1e-12
    assert abs(expected - 4.85203026391962) < 1e-10


def test_log_weighted_sum_zero_sequence():
    assert log_weighted_sum(Coeff1D(0, np.zeros(0)), WeightExponent((0,))) == 0.0


def test_log_weighted_sum_equals_weighted_then_unweighted():
    rng = np.random.default_rng(11)
    a = Coeff1D(0, rng.standard_normal(30))
    q = WeightExponent((2,))
    lhs = log_weighted_sum(a, q)
    rhs = log_weighted_sum(weight_apply(a, q), WeightExponent((0,)))
    assert lhs == rhs


def test_series_eval_basic_points():
    e1 = Coeff1D.impulse(1)
    eta = ParityVector((1,))
    assert series_eval(e1, eta, WeightExponent((0,)), [0.0]).real == pytest.approx(1.0)
    # derivative of cos t is -sin t
    v = series_eval(e1, eta, WeightExponent((1,)), [np.pi / 2])
    assert v.real == pytest.approx(-1.0)


def test_series_eval_2d_mixed():
    a = CoeffND.impulse((1, 1))
    v = series_eval(a, ParityVector((1, 0)), WeightExponent.zero(2), [np.pi / 3, np.pi / 2])
    assert v.real == pytest.approx(0.5, abs=1e-14)


def test_series_eval_linear_in_coefficients():
    rng = np.random.default_rng(5)
    a = Coeff1D(1, rng.standard_normal(8))
    b = Coeff1D(1, rng.standard_normal(8))
    eta, q = ParityVector((0,)), WeightExponent((0,))
    t = [0.37]
    combo = Coeff1D(1, 2.0 * a.values - 3.0 * b.values)
    lhs = series_eval(combo, eta, q, t)
    rhs = 2.0 * series_eval(a, eta, q, t) - 3.0 * series_eval(b, eta, q, t)
    assert abs(lhs - rhs) < 1e-12


def test_series_eval_dimension_mismatch():
    a = CoeffND.impulse((1, 1))
    with pytest.raises(ValueError):
        series_eval(a, ParityVector((1,)), WeightExponent.zero(2), [0.1, 0.2])


def test_boundary_check_cos_fails_at_zero():
    report = boundary_vanish_check(
        Coeff1D.impulse(1), ParityVector((1,)), WeightExponent((1,)), tol=1e-9
    )
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any(c.face == 0.0 and abs(c.max_abs - 1.0) < 1e-12 for c in failing)


def test_boundary_check_cos_difference_passes():
    a = Coeff1D.from_dict({1: 1, 3: -1})  # cos t - cos 3t vanishes at 0 and pi
    report = boundary_vanish_check(a, ParityVector((1,)), WeightExponent((1,)), tol=1e-12)
    assert report.passed
    total, alternating = report.moment_sums[0]
    assert abs(total) < 1e-15 and abs(alternating) < 1e-15


def test_boundary_check_zero_sequence_passes_all_orders():
    z = Coeff1D(0, np.zeros(0))
    report = boundary_vanish_check(z, ParityVector((1,)), WeightExponent((3,)), tol=1e-12)
    assert report.passed
    assert len(report.checks) == 3 * 2  # three orders, two faces


def test_boundary_check_sees_a_face_frequency_that_sampling_aliases():
    # f = cos t1 sin 16 t2 is 1 at (0, pi/32), between zeros of sin 16 t2
    a = CoeffND((1, 16), [[1.0]])
    report = boundary_vanish_check(a, ParityVector.from_string("10"), WeightExponent((1, 1)), 1e-9)
    assert not report.passed
    assert [(c.axis, c.face, c.max_abs) for c in report.checks if not c.passed] == [
        (0, 0.0, 1.0), (0, math.pi, 1.0)
    ]


def test_boundary_check_keeps_axes_whose_exponent_is_zero():
    # q = (1, 0) still asks f = cos t1 sin 3 t2 to vanish on the faces t1 in {0, pi}
    a = CoeffND((1, 3), [[1.0]])
    report = boundary_vanish_check(a, ParityVector.from_string("10"), WeightExponent((1, 0)), 1e-9)
    assert [(c.order, c.axis, c.passed) for c in report.checks] == [
        ((0, 0), 0, False), ((0, 0), 0, False)
    ]


@pytest.mark.parametrize("offsets, values, eta, bound", [
    ((1, 0), [[1.0]], "11", 1.0),  # cos t1: the face t1 = 0 sees the constant 1
    ((1, 0), [[1.0]], "10", 0.0),  # cos t1 sin 0t2 is zero everywhere
    ((1, -1), [[0.5, 0.0, 0.5]], "11", 1.0),  # cos(-t2) folds onto cos t2
    ((1, -1), [[0.5, 0.0, -0.5]], "10", 1.0),  # sin(-t2) folds onto -sin t2
    ((1, -1), [[0.5, 0.0, 0.5]], "10", 0.0),  # and cancels sin t2
])
def test_boundary_bound_is_the_size_of_a_one_term_restriction(offsets, values, eta, bound):
    report = boundary_vanish_check(
        CoeffND(offsets, values), ParityVector.from_string(eta), WeightExponent((1, 0)), 1e-9
    )
    assert [(c.axis, c.max_abs) for c in report.checks] == [(0, bound), (0, bound)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_boundary_check_of_a_non_finite_coefficient_raises(bad):
    vals = np.ones((2, 3), complex)
    vals[1, 1] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        boundary_vanish_check(
            CoeffND((1, 1), vals), ParityVector.from_string("10"), WeightExponent((1, 0)), 1e-9
        )


def test_boundary_check_of_a_far_block_allocates_no_window_from_zero():
    import tracemalloc

    rng = np.random.default_rng(3)
    a = CoeffND((10**6,) * 3, rng.standard_normal((3, 4, 2)))
    tracemalloc.start()
    try:
        report = boundary_vanish_check(a, ParityVector((1, 0, 1)), WeightExponent((1, 1, 1)), 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.checks) == 6 and not report.passed
    assert peak < 64 * 1024  # a window from -10^6 to 10^6 would take 32 MB per axis


def _probe_reference(nd, eta, q):
    """Face checks by a literal loop: one term at a time, one probe point at a time.

    Each free axis takes 2 max|k| + 2 equispaced probes on [0, pi], more than
    a trigonometric polynomial of that degree can vanish at without vanishing,
    so the sampling cannot alias.  Each check also carries the sum of
    |a_k| k^s, which bounds every term: the scale of the rounding error."""
    top = max([abs(k) for lo, hi in nd.support for k in (lo, hi)], default=0)
    grid = np.linspace(0.0, np.pi, 2 * top + 2)
    entries = [
        (tuple(o + i for o, i in zip(nd.offsets, idx)), complex(nd.values[idx]))
        for idx in np.ndindex(*nd.dims)
    ]
    checks = []
    for ax in range(nd.ndim):
        for sj in range(q[ax]):
            s = tuple(sj if i == ax else 0 for i in range(nd.ndim))
            for face in (0.0, np.pi):
                worst = 0.0
                for pt in itertools.product(*([face] if i == ax else grid for i in range(nd.ndim))):
                    total = 0j
                    for k, v in entries:
                        term = v
                        for kj, tj, ej, si in zip(k, pt, eta.bits, s):
                            arg = kj * tj + si * math.pi / 2
                            term *= float(kj) ** si * (math.cos(arg) if ej else math.sin(arg))
                        total += term
                    worst = max(worst, abs(total))
                size = sum(abs(v) * abs(float(k[ax])) ** sj for k, v in entries)
                checks.append((s, ax, face, worst, size))
    return checks


@pytest.mark.parametrize(
    "offsets, dims, eta, q",
    [
        ((0,), (9,), (1,), (3,)),
        ((-3,), (7,), (0,), (2,)),
        ((1, -2), (5, 4), (1, 0), (2, 1)),
        ((-1, 2), (3, 6), (0, 0), (1, 2)),
        ((1, 0, -1), (3, 4, 2), (1, 0, 1), (2, 0, 1)),
        ((2, 1, 0), (2, 3, 3), (0, 1, 1), (1, 1, 1)),
        ((0, 0), (0, 0), (1, 1), (2, 1)),
    ],
)
def test_boundary_check_matches_per_point_loop(offsets, dims, eta, q):
    """The exact face rule against dense sampling: the same orders (s_j on
    axis j alone), the same verdicts, and a max_abs that bounds every sample."""
    rng = np.random.default_rng(sum(dims) + 10 * len(dims))
    vals = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    nd, eta, q, tol = CoeffND(offsets, vals), ParityVector(eta), WeightExponent(q), 1e-9
    report = boundary_vanish_check(nd, eta, q, tol)
    ref = _probe_reference(nd, eta, q)
    for ax in range(nd.ndim):
        want = [(c[0], c[2]) for c in ref if c[1] == ax]
        assert [(c.order, c.face) for c in report.checks if c.axis == ax] == want
    assert len(report.checks) == len(ref) == 2 * sum(q.exponents)
    for c, (_, _, _, worst, size) in zip(report.checks, ref):
        assert c.passed == (worst <= tol)
        assert c.max_abs >= worst - 1e-13 * size
        if nd.ndim == 1:  # a face is a point, where the bound is the value
            assert abs(c.max_abs - worst) <= 1e-13 * size
    if nd.values.size:  # both outcomes occur on random input
        assert {c.passed for c in report.checks} == {True, False}


def test_sequence_file_roundtrip_1d(tmp_path):
    rng = np.random.default_rng(9)
    a = Coeff1D(-4, rng.standard_normal(11) + 1j * rng.standard_normal(11))
    path = tmp_path / "a.json"
    save_sequence(a, str(path))
    b = load_sequence(str(path))
    assert b.ndim == 1
    assert b.offset == a.offset
    np.testing.assert_array_equal(b.values, a.values)


def test_sequence_file_roundtrip_nd(tmp_path):
    rng = np.random.default_rng(10)
    a = CoeffND((1, 2), rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    path = tmp_path / "a2.json"
    save_sequence(a, str(path))
    b = load_sequence(str(path))
    assert isinstance(b, CoeffND)
    assert b.offsets == a.offsets
    np.testing.assert_array_equal(b.values, a.values)


_SEQ = Coeff1D(2, [0.5, -1.0, 0.25 + 0.5j, 2.0])  # indices 2..5


def _saved_and_loaded(tmp_path):
    save_sequence(_SEQ, str(tmp_path / "s.json"))
    return load_sequence(str(tmp_path / "s.json"))


# every entry point that hands back a 1-D sequence; windows stay in k >= 1
_ONE_D_RESULTS = {
    "dht_full": lambda tmp: dht_full(_SEQ, (1, 6)),
    "dht_even": lambda tmp: dht_even(_SEQ, (1, 6)),
    "dht_odd": lambda tmp: dht_odd(_SEQ, (1, 6)),
    "dht_even_halved": lambda tmp: dht_even_halved(_SEQ, (1, 6)),
    "dht_odd_halved": lambda tmp: dht_odd_halved(_SEQ, (1, 6)),
    "transform": lambda tmp: transform(_SEQ, TransformRequest("odd", (1, 6), "naive")),
    "cos_to_sin": lambda tmp: cos_to_sin(_SEQ, (1, 6)),
    "sin_to_cos": lambda tmp: sin_to_cos(_SEQ, (1, 6)),
    "weight_apply": lambda tmp: weight_apply(_SEQ, WeightExponent((2,))),
    "trim": lambda tmp: Coeff1D(0, [0.0, 0.0, 3.0, 0.0, 1.0j, 0.0]).trim(),
    "load_sequence": _saved_and_loaded,
    "from_dict": lambda tmp: Coeff1D.from_dict({3: 1.0, 6: -2.0}),
    "impulse": lambda tmp: Coeff1D.impulse(4, 2.5),
}


@pytest.mark.parametrize("make", _ONE_D_RESULTS.values(), ids=_ONE_D_RESULTS.keys())
def test_one_dimensional_results_are_the_one_sequence_type(tmp_path, make):
    a = make(tmp_path)
    assert isinstance(a, CoeffND) and a.ndim == 1
    lo, hi = a.offset, a.offset + len(a) - 1
    assert a.support == ((lo, hi),)
    np.testing.assert_array_equal(a.indices(), np.arange(lo, hi + 1))
    assert [a[k] for k in range(lo - 1, hi + 2)] == [0, *a.values, 0]
    total = a + Coeff1D.impulse(hi + 2, 7.0)
    assert total.support == ((lo, hi + 2),)
    assert [total[k] for k in range(lo, hi + 3)] == [*a.values, 0, 7.0]

    # the n-D entry points take the result as it is
    box = [(1, 4)]
    np.testing.assert_array_equal(
        dht_mixed(a, ParityVector((1,)), box).values, dht_even_halved(a, box[0]).values
    )
    np.testing.assert_array_equal(
        dht_tensor(a, ParityVector((1,)), ParityVector((0,)), box).values,
        dht_even(a, box[0]).values,
    )
    spec = ReexpandSpec(ParityVector((1,)), WeightExponent((0,)), tuple(box))
    fast = reexpand_nd(a, spec)
    np.testing.assert_array_equal(fast.values, cos_to_sin(a, box[0]).values)
    oracle = quadrature_oracle_box(a, ParityVector((1,)), WeightExponent((0,)), box)
    np.testing.assert_allclose(oracle.values, fast.values, rtol=0, atol=1e-9)


def test_one_dimensional_members_refuse_an_nd_block():
    block = CoeffND((1, 1), np.ones((2, 3)))
    with pytest.raises(ValueError, match="no single offset"):
        block.indices()
    with pytest.raises(ValueError, match="needs a 1-D sequence, input has 2 axes"):
        dht_full(block, (1, 3))


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dims": [2], "offsets": [0], "values": [[1, 0]]}')
    with pytest.raises(ValueError):
        load_sequence(str(p))


def _reference_bytes(dims, offsets, values):
    """The one-shot ``json.dumps`` layout that ``save_sequence`` streams."""
    flat = np.asarray(values, dtype=np.complex128).reshape(-1)
    doc = {"dims": list(dims), "offsets": list(offsets),
           "values": [[float(v.real), float(v.imag)] for v in flat]}
    return (json.dumps(doc) + "\n").encode()


# floats whose repr is easy to get wrong: signed zero, a short decimal, an
# integral value, the exponent thresholds, the extremes and a 17-digit integer
_FLOAT_EDGES = [-0.0, 0.1, 2.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, 123456789012345680.0]


def _spawned(monkeypatch) -> list:
    """The argv of every process started from here on, through a spy on Popen."""
    started, popen = [], subprocess.Popen

    def spy(args, **kwargs):
        started.append(args)
        return popen(args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def _assert_no_leftovers(directory, *kept):
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert sorted(p.name for p in directory.iterdir()) == sorted(kept)  # no *.tmp file


@pytest.mark.parametrize("n", [0, 1, _CHUNK, _CHUNK + 1, "float-edges", _TWO_PROCESSES - 1,
                               _TWO_PROCESSES, _TWO_PROCESSES + 1, "float-edges-at-the-cuts"])
def test_save_layout_matches_one_shot_dumps_1d(tmp_path, monkeypatch, n):
    case = n if isinstance(n, str) else ""
    n = {"float-edges": _CHUNK + 1, "float-edges-at-the-cuts": _TWO_PROCESSES + 1}.get(case, n)
    rng = np.random.default_rng(n)
    a = Coeff1D(-7, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pairs = np.array(_FLOAT_EDGES).view(np.complex128)
    if case == "float-edges":  # as (re, im) pairs: three before the chunk boundary, one after
        a.values[_CHUNK - 3 :] = pairs
        a.values[:4] = -pairs
    if case == "float-edges-at-the-cuts":  # a band around the middle, where the halves meet
        a.values[n // 2 - 1000 : n // 2 + 1000] = np.tile(pairs, 500)
    started = _spawned(monkeypatch)
    path = tmp_path / "a.json"
    save_sequence(a, str(path))
    text = path.read_bytes()
    assert text == _reference_bytes([n], [-7], a.values)
    if case == "float-edges-at-the-cuts":  # loading cuts near the text's midpoint: in the band
        assert n // 2 - 900 < text[: len(text) // 2].count(b"], [") < n // 2 + 900
    np.testing.assert_array_equal(load_sequence(str(path)).values, a.values)
    assert len(started) == (2 if n >= _TWO_PROCESSES else 0)  # one child to save, one to load
    _assert_no_leftovers(tmp_path, "a.json")


def _outcome(path):
    """What loading ``path`` gives: its values, or its ValueError's message."""
    try:
        return load_sequence(str(path)).values
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("half", ["child", "parent"])
@pytest.mark.parametrize("token", ["01", "1.", "+1", ".5", "true", "1" * 400, str(2**64)],
                         ids=["leading-zero", "no-fraction-digit", "plus", "no-leading-digit",
                              "true", "400-digit-integer", "integer-numpy-keeps-as-object"])
def test_two_process_load_judges_each_token_as_one_process_does(tmp_path, monkeypatch, token, half):
    # a token in either half gives the one-process path's error or values
    n = _TWO_PROCESSES
    path = tmp_path / "in.json"
    save_sequence(Coeff1D(0, np.arange(n) + 0.5j), str(path))
    k = 3 * n // 4 if half == "child" else n // 4
    path.write_text(path.read_text().replace(f"[{float(k)!r}, 0.5]", f"[{token}, 0.5]"))
    monkeypatch.setattr(sequences, "_TWO_PROCESSES", n + 1)
    one = _outcome(path)
    monkeypatch.undo()
    started = _spawned(monkeypatch)
    two = _outcome(path)
    assert len(started) == 1
    if isinstance(one, str):
        assert two == one and str(path) in one
    else:
        np.testing.assert_array_equal(two, one)
    _assert_no_leftovers(tmp_path, "in.json")


@pytest.mark.parametrize("failure", ["no-interpreter", "child-exits-1"])
def test_a_failed_child_leaves_the_same_bytes_and_values(tmp_path, monkeypatch, failure):
    if failure == "no-interpreter":
        monkeypatch.setattr(sys, "executable", str(tmp_path / "missing" / "python"))
    else:
        (tmp_path / "fail.py").write_text("raise SystemExit(1)\n")
        monkeypatch.setattr(pairtext, "__file__", str(tmp_path / "fail.py"))
    rng = np.random.default_rng(12)
    a = CoeffND((4, -2), rng.standard_normal((_TWO_PROCESSES // 64, 64)) + 1j)
    path = tmp_path / "a.json"
    save_sequence(a, str(path))
    assert path.read_bytes() == _reference_bytes(a.dims, a.offsets, a.values)
    np.testing.assert_array_equal(load_sequence(str(path)).values, a.values)
    _assert_no_leftovers(tmp_path, "a.json", *(["fail.py"] if failure == "child-exits-1" else []))


def test_save_layout_matches_one_shot_dumps_2d(tmp_path):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    vals[0, 0] = -0.0 + 1e-300j
    a = CoeffND((2, -1), vals)
    path = tmp_path / "a2.json"
    save_sequence(a, str(path))
    assert path.read_bytes() == _reference_bytes([5, 3], [2, -1], vals)
    assert path.read_bytes().count(b"\n") == 1


_HEADER = '{"dims": [2], "offsets": [0], "values": '


@pytest.mark.parametrize(
    "text, valid",
    [
        (_HEADER + "[[+1, 0], [2, 0]]}", False),
        (_HEADER + "[[.5, 0], [2, 0]]}", False),
        (_HEADER + "[[01, 0], [2, 0]]}", False),
        (_HEADER + "[[1., 0], [2, 0]]}", False),
        (_HEADER + "[[1_0, 0], [2, 0]]}", False),
        (_HEADER + "[[\u0661, 0], [2, 0]]}", False),
        (_HEADER + "[[{}, 0], [2, 0]]}", False),
        (_HEADER + "[[true, 1], [2, 0]]}", True),
        (_HEADER + "[[1, 2, 3], [4]]}", False),
        (_HEADER + "[[1, 0], [2, 0]]} x", False),
        (_HEADER + "[[1, 2]3, [4, 5]]}", False),
        (_HEADER + "[2[1, 0], [2, 0]]}", False),
        (_HEADER + "[[1, 0], [2, 1]]5}", False),
        (_HEADER + "[[1,0],[2,0]]}", True),
        (_HEADER + "[ [1, 0] , [2, 0] ]}", True),
        (_HEADER + " [[1, 0],  [2, 0]]}", True),
        (_HEADER + "[[1, 0], [2, 0]]} \t\n\n", True),
        (json.dumps({"dims": [3], "offsets": [-1], "values": [[1, 0], [2.5, -1], [0, 3]]},
                    indent=0), True),
    ],
    ids=["plus", "no-leading-digit", "leading-zero", "no-fraction-digit", "underscore",
         "arabic-indic-digit", "object", "true", "ragged", "text-after", "joined-by-bracket",
         "digit-before-pairs", "digit-after-values", "no-spaces", "spaced", "two-spaces",
         "trailing-whitespace", "indent-0"],
)
def test_load_agrees_with_json_loads(tmp_path, text, valid):
    p = tmp_path / "edge.json"
    p.write_text(text, encoding="utf-8")
    if not valid:
        with pytest.raises(ValueError, match="edge.json"):
            load_sequence(str(p))
        return
    doc = json.loads(text)
    expected = np.asarray(doc["values"], dtype=float) @ np.array([1.0, 1.0j])
    b = load_sequence(str(p))
    assert b.offsets == tuple(doc["offsets"])
    np.testing.assert_array_equal(b.values, expected)


_PAIRS = ", ".join(["[0.125, -3]"] * 30)  # 329 characters of the saved layout


@pytest.mark.parametrize(
    "tail, valid",
    [
        ("[+1, 0]", False),
        ("[01, 0]", False),
        ("[1_0, 0]", False),
        ("[\u0661, 0]", False),
        ("[true, 1]", True),
        ("[1, 2, 3]", False),
        ("[1, 2]3, [4, 5]", False),
        ("3[1, 0]", False),
        ("[1,0]", True),
        ("[1, 0] , [2, 0]", True),
        ("[1, 0],  [2, 0]", True),
    ],
    ids=["plus", "leading-zero", "underscore", "arabic-indic-digit", "true", "ragged",
         "joined-by-bracket", "digit-before-pair", "no-spaces", "spaced", "two-spaces"],
)
def test_load_agrees_with_json_loads_past_the_first_pairs(tmp_path, tail, valid):
    # the same rules hold where the text leaves the saved layout only after
    # its first few hundred characters
    n = 30 + tail.count("[")
    text = '{"dims": [%d], "offsets": [0], "values": [%s, %s]}' % (n, _PAIRS, tail)
    p = tmp_path / "late.json"
    p.write_text(text, encoding="utf-8")
    if not valid:
        with pytest.raises(ValueError, match="late.json"):
            load_sequence(str(p))
        return
    expected = np.asarray(json.loads(text)["values"], dtype=float) @ np.array([1.0, 1.0j])
    np.testing.assert_array_equal(load_sequence(str(p)).values, expected)


@pytest.mark.parametrize("vals", [np.zeros(0), np.arange(5) - 2.5j, np.ones((2, 3)) * 1e-300])
def test_saved_layout_is_parsed_without_the_json_fallback(tmp_path, vals):
    path = tmp_path / "a.json"
    save_sequence(CoeffND((0,) * vals.ndim, vals), str(path))
    dims, offsets, found, pairs = _saved_layout(path.read_text())
    assert (dims, offsets, found) == (list(vals.shape), [0] * vals.ndim, vals.size)
    np.testing.assert_array_equal(pairs @ np.array([1.0, 1.0j]), vals.reshape(-1))


@pytest.mark.parametrize(
    "values",
    [
        "[[1, 0], [NaN, 0]]",
        "[[1, 0], [0, Infinity]]",
        "[[1, 0], [-Infinity, 0]]",
        "[[1, 0], [null, 0]]",
        '[[1, 0], ["a", 0]]',
        '[[1, 0], ["1.5", 0]]',
        "[[1, 0], [1]]",
        "[[1], [2]]",
        "[[1, 0], [1, 2, 3]]",
        "[[[1, 0]], [[2, 0]]]",
    ],
    ids=["nan", "inf", "neg-inf", "null", "string", "numeric-string", "short",
         "all-short", "long", "nested"],
)
def test_load_rejects_bad_values_naming_the_file(tmp_path, values):
    p = tmp_path / "bad.json"
    p.write_text('{"dims": [2], "offsets": [0], "values": %s}' % values)
    with pytest.raises(ValueError, match="bad.json"):
        load_sequence(str(p))


@pytest.mark.parametrize(
    "text",
    ["not json", "", '{"dims": [1], "offsets": [0], "values": [[1, 0]]',
     '{"dims": [], "offsets": [], "values": []}',
     '{"dims": [1], "offsets": [0], "values": 5}',
     '{"dims": [2.7], "offsets": [true], "values": [[1, 0], [2, 0]]}',
     '{"dims": ["2"], "offsets": ["-3"], "values": [[1, 0], [2, 0]]}',
     '{"dims": [true], "offsets": [0], "values": [[1, 0]]}',
     '{"dims": [1.0], "offsets": [0], "values": [[1, 0]]}'],
    ids=["text", "empty", "truncated", "no-axes", "scalar-values", "float-dims-bool-offsets",
         "string-dims-offsets", "bool-dims", "integral-float-dims"],
)
def test_load_rejects_non_sequence_text_naming_the_file(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ValueError, match="bad.json"):
        load_sequence(str(p))


@pytest.mark.parametrize("value", [2.5, 1e308, np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_save_never_writes_a_file_load_refuses(tmp_path, value):
    path = str(tmp_path / "a.json")
    a = Coeff1D(0, [1.0, value])
    if np.isfinite(a.values).all():
        save_sequence(a, path)
        np.testing.assert_array_equal(load_sequence(path).values, a.values)
    else:
        with pytest.raises(ValueError, match="finite") as info:
            save_sequence(a, path)
        assert path in str(info.value)
        assert not any(tmp_path.iterdir())  # no temp file left behind either


def test_load_accepts_integer_values(tmp_path):
    p = tmp_path / "ints.json"
    p.write_text('{"dims": [2, 1], "offsets": [3, 0], "values": [[1, 0], [0, -2]]}')
    b = load_sequence(str(p))
    assert b.offsets == (3, 0)
    np.testing.assert_array_equal(b.values, [[1.0], [-2.0j]])


def test_parity_vector_validation():
    with pytest.raises(ValueError):
        ParityVector((0, 2))
    with pytest.raises(ValueError):
        ParityVector.from_string("1a")


def test_weight_exponent_validation():
    with pytest.raises(ValueError):
        WeightExponent((-1,))
    assert WeightExponent.zero(3).is_zero


def test_gauss_legendre_grid_matches_a_fresh_leggauss_bit_for_bit():
    x, w = leggauss(GL_NODES)
    for lo, hi, panels in [(0.0, np.pi, 1), (0.0, np.pi, 772), (-np.pi, np.pi, 93)]:
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        t, wt = gauss_legendre_grid(lo, hi, panels)
        assert t.tobytes() == (mid[:, None] + half[:, None] * x).ravel().tobytes()
        assert wt.tobytes() == (half[:, None] * w).ravel().tobytes()


@pytest.mark.parametrize("rows", [1, 2, 128, 2048])
@pytest.mark.parametrize("k0", [-200, 1, 10**4, 10**6])
def test_phase_rows_match_direct_exponentials(k0, rows):
    # rotation drift grows with the row count, and the direct products
    # k t themselves round at the scale of |k|
    t, _ = gauss_legendre_grid(0.0, np.pi, 7)  # 112 nodes
    for q in (0, 3):
        k = np.arange(k0, k0 + rows, dtype=float)
        want = np.exp(1j * (k[:, None] * t + q * np.pi / 2.0))
        got = _phase_rows(k0, rows, t, q)
        assert got.shape == (rows, t.size)
        assert np.max(np.abs(got - want)) <= 1e-15 * (abs(k0) + rows)
        # a buffer wider than the nodes, as for a short last chunk: the
        # table fills its leading block, bit for bit the fresh one
        buf = np.full((rows + 1, t.size + 5), np.nan + 0j)
        into = _phase_rows(k0, rows, t, q, buf)
        assert np.shares_memory(into, buf) and into.tobytes() == got.tobytes()


def test_phase_rows_with_no_rows():
    assert _phase_rows(5, 0, np.linspace(0.0, 1.0, 9)).shape == (0, 9)


@pytest.mark.parametrize(
    "nodes, rows, elems", [(1000, 1, 64), (1000, 300, 2**14), (7, 10**6, 2**14), (0, 4, 64), (50, 0, 64)]
)
def test_node_chunks_cover_every_node_once(nodes, rows, elems):
    chunks = [np.arange(nodes)[c] for c in _node_chunks(nodes, rows, elems)]
    assert all(0 < len(c) * max(rows, 1) <= max(elems, rows) for c in chunks)
    np.testing.assert_array_equal(np.concatenate(chunks or [[]]), np.arange(nodes))
