"""The four workloads: fixed operation lists built from a seed.

Each operation has a timed ``run`` and an untimed check: ``observe``
turns its result into an array and ``reference`` gives the array it
must match, computed by the benchmark's own formulas (``oracle.py``) or
by an independent oracle of the program.  ``gate`` bounds
``oracle.deviation(observed, reference)``.

In-process operations call the library through module attributes
(``hilbert.dht_full``, ...), so the span wrappers see them.  The
``cli-large`` operations run the CLI in a child process each.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FORMULA_GATE = 1e-9  # fast path against the benchmark's direct sums
ORACLE_GATE_1D = 1e-8  # acceptance criterion 1, 1-D
ORACLE_GATE_ND = 1e-7  # acceptance criterion 1, 2-D (and criterion 9)
NAIVE_GATE = 1e-10  # acceptance criterion 2
SU2_GATE = 1e-10  # acceptance criterion 5
SAMPLES = 16  # sampled output indices per large transform


@dataclass
class Op:
    name: str
    run: Callable  # run(recorder or None) -> result; the timed call
    observe: Callable  # result -> array to check
    reference: Callable  # () -> expected array
    gate: float

    @functools.cached_property
    def expected(self):
        return self.reference()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    child_rss_mb: list[float] = field(default_factory=list)


def sample_indices(rng, lo: int, hi: int, count: int = SAMPLES) -> np.ndarray:
    """Both window ends plus distinct random indices in between, sorted."""
    inner = rng.choice(np.arange(lo + 1, hi), size=min(count - 2, hi - lo - 1), replace=False)
    return np.sort(np.concatenate([[lo, hi], inner]))


def at_points(values: np.ndarray, origin, points) -> np.ndarray:
    """Entries of a 2-D block whose first entry has index ``origin``."""
    return np.array([values[m1 - origin[0], m2 - origin[1]] for m1, m2 in points])


# ---------------------------------------------------------------------------
# cli-large


def _spawn_cli(argv, workdir: Path, rec, rss: list):
    """Run one CLI invocation to completion; raise if it exits nonzero.

    Untraced it is ``python3 -m reexpansion.cli``; traced it is
    ``traced_cli.py``, whose spans are grafted under the open span.
    The child's own peak RSS comes from ``os.wait4``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_path = workdir / "spans.json"
    if rec is None:
        cmd = [sys.executable, "-m", "reexpansion.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
               str(time.monotonic_ns()), *argv]
    with open(workdir / "cli.stderr", "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss.append(usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = (workdir / "cli.stderr").read_text()[-500:]
        raise RuntimeError(f"reexpansion {argv[0]} exited {proc.returncode}: {tail}")
    if rec is not None:
        rec.graft(json.loads(spans_path.read_text()))


def cli_large(seed: int, workdir: Path, small: bool = False) -> Workload:
    """Sequential CLI invocations at the advertised scale."""
    rng = np.random.default_rng([seed, 1])
    n20, n18, side = (16, 16, 4) if small else (1 << 20, 1 << 18, 256)
    wl = Workload("cli-large", [])
    inputs = {
        "h20": (1, rng.standard_normal(n20)),
        "r18": (1, rng.standard_normal(n18)),
        "r2d": ((1, 1), rng.standard_normal((side, side))),
    }
    for key, (off, vals) in inputs.items():
        oracle.write_sequence(workdir / f"{key}.json", np.atleast_1d(off), vals)

    def cli_op(name, argv, out, observe, reference):
        def run(rec):
            _spawn_cli([*argv, "--output", str(workdir / out)], workdir, rec, wl.child_rss_mb)
            return workdir / out

        return Op(name, run, observe, reference, FORMULA_GATE)

    def window_values(path, offsets, shape):
        got_off, vals = oracle.read_sequence(path)
        if got_off != tuple(offsets) or vals.shape != tuple(shape):
            raise ValueError(f"output window {got_off} {vals.shape}, expected {offsets} {shape}")
        return vals

    ns = sample_indices(rng, 1, n20)
    wl.ops.append(cli_op(
        "hilbert_even_halved_2^20",
        ["hilbert", "--input", str(workdir / "h20.json"), "--kind", "even_halved",
         "--range", f"1:{n20}"],
        "h20.out.json",
        lambda p: window_values(p, (1,), (n20,))[ns - 1],
        lambda: oracle.transform_at("even_halved", *inputs["h20"], ns),
    ))
    if small:
        return wl
    ms = sample_indices(rng, 1, n18)
    wl.ops.append(cli_op(
        "reexpand_cos_2^18",
        ["reexpand", "--input", str(workdir / "r18.json"), "--parity", "1", "--box", f"1:{n18}"],
        "r18.out.json",
        lambda p: window_values(p, (1,), (n18,))[ms - 1],
        lambda: oracle.TWO_OVER_PI * oracle.transform_at("even_halved", *inputs["r18"], ms),
    ))
    offs, c = inputs["r2d"]
    pts = list(zip(sample_indices(rng, 1, 2 * side), sample_indices(rng, 0, 2 * side)))
    wl.ops.append(cli_op(
        "reexpand_10_256^2",
        ["reexpand", "--input", str(workdir / "r2d.json"), "--parity", "10",
         "--box", f"1:{2 * side},0:{2 * side}"],
        "r2d.out.json",
        lambda p: at_points(window_values(p, (1, 0), (2 * side, 2 * side + 1)), (1, 0), pts),
        lambda: oracle.TWO_OVER_PI ** 2 * np.array(
            [oracle.tensor_at(oracle.mixed_kinds((1, 0)), offs, c, pt) for pt in pts]),
    ))
    return wl


# ---------------------------------------------------------------------------
# kernels


def kernels(seed: int, workdir: Path, small: bool = False) -> Workload:
    """In-process library calls without file I/O."""
    from reexpansion import hilbert, reexpand
    from reexpansion.sequences import Coeff1D, CoeffND, ParityVector, WeightExponent

    rng = np.random.default_rng([seed, 2])
    sizes = (64, 128) if small else (1 << 16, 1 << 18)
    wl = Workload("kernels", [])

    def dht_op(name, kind, a: Coeff1D, lo, hi):
        ns = sample_indices(rng, lo, hi)
        return Op(
            name,
            lambda rec: getattr(hilbert, f"dht_{kind}")(a, (lo, hi)),
            lambda out: out.values[ns - lo],
            lambda: oracle.transform_at(kind, a.offset, a.values, ns),
            FORMULA_GATE,
        )

    for n in sizes:
        a = Coeff1D(1, rng.standard_normal(n))
        for kind in hilbert.KINDS:
            lo = -n if kind == "full" else hilbert._KIND_FLOOR[kind]
            wl.ops.append(dht_op(f"{kind}_{n}", kind, a, lo, n))

    n = sizes[-1]
    z = Coeff1D(1, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    wl.ops.append(dht_op("complex", "full", z, -n, n))
    far = Coeff1D(10**6, rng.standard_normal(16))
    wl.ops.append(dht_op("sparse_far", "even_halved", far, 1, sizes[0]))

    side = 8 if small else 256
    grid = CoeffND((1, 1), rng.standard_normal((side, side)))
    box = ((1, 2 * side), (0, 2 * side))
    spec = reexpand.ReexpandSpec(ParityVector((1, 0)), WeightExponent.zero(2), box)
    pts = list(zip(sample_indices(rng, *box[0]), sample_indices(rng, *box[1])))
    wl.ops.append(Op(
        "reexpand_nd_2d",
        lambda rec: reexpand.reexpand_nd(grid, spec),
        lambda out: at_points(out.values, out.offsets, pts),
        lambda: oracle.TWO_OVER_PI ** 2 * np.array(
            [oracle.tensor_at(oracle.mixed_kinds((1, 0)), grid.offsets, grid.values, p) for p in pts]),
        FORMULA_GATE,
    ))
    chi, zeta = ParityVector((1, 0)), ParityVector((0, 1))
    wl.ops.append(Op(
        "tensor_2d",
        lambda rec: hilbert.dht_tensor(grid, chi, zeta, box),
        lambda out: at_points(out.values, out.offsets, pts),
        lambda: np.array([oracle.tensor_at(("even", "odd"), grid.offsets, grid.values, p) for p in pts]),
        FORMULA_GATE,
    ))

    windows = [1 << e for e in (range(4, 8) if small else range(10, 17))]
    s = Coeff1D(1, rng.standard_normal(8 if small else 256))

    def summability_norms():
        mags = np.zeros(windows[-1])
        for lo in range(1, windows[-1] + 1, 4096):
            hi = min(lo + 4095, windows[-1])
            mat = oracle.transform_matrix("even_halved", s.offset, len(s), lo, hi)
            mags[lo - 1 : hi] = np.abs(mat @ s.values)
        return np.array([mags[:w].sum() for w in windows])

    wl.ops.append(Op(
        "summability",
        lambda rec: reexpand.summability_report(s, "even_halved", windows),
        lambda out: np.array(out.norms),
        summability_norms,
        FORMULA_GATE,
    ))
    return wl


# ---------------------------------------------------------------------------
# verify


def verify(seed: int, workdir: Path, small: bool = False) -> Workload:
    """Time to a verified answer: oracles, boundary probes, naive mat-vecs."""
    from reexpansion import hilbert, reexpand
    from reexpansion.sequences import Coeff1D, CoeffND, ParityVector, WeightExponent

    rng = np.random.default_rng([seed, 3])
    wl = Workload("verify", [])
    support, window = (8, 16) if small else (64, 128)

    for bit, lo in ((1, 1), (0, 0)):
        a = Coeff1D(1, rng.standard_normal(support))
        eta, q0 = ParityVector((bit,)), WeightExponent.zero(1)
        fast = reexpand.cos_to_sin if bit == 1 else reexpand.sin_to_cos
        wl.ops.append(Op(
            f"oracle_1d_{'cos' if bit else 'sin'}",
            lambda rec, a=a, eta=eta, lo=lo: reexpand.quadrature_oracle_box(a, eta, q0, [(lo, window)]),
            lambda out: out.values,
            lambda a=a, bit=bit, lo=lo, fast=fast: confirmed(
                fast(a, (lo, window)).values,
                oracle.reexpand_box((bit,), (1,), a.values, [(lo, window)])),
            ORACLE_GATE_1D,
        ))

    side = 4 if small else 8
    grid = CoeffND((1, 1), rng.standard_normal((side, side)))
    for bits in ((1, 0), (0, 1), (1, 1), (0, 0)):
        eta = ParityVector(bits)
        box = tuple((1 if b else 0, 4 * side) for b in bits)
        spec = reexpand.ReexpandSpec(eta, WeightExponent.zero(2), box)
        wl.ops.append(Op(
            f"oracle_2d_{bits[0]}{bits[1]}",
            lambda rec, eta=eta, box=box: reexpand.quadrature_oracle_box(
                grid, eta, WeightExponent.zero(2), list(box)),
            lambda out: out.values,
            lambda bits=bits, box=box, spec=spec: confirmed(
                reexpand.reexpand_nd(grid, spec).values,
                oracle.reexpand_box(bits, grid.offsets, grid.values, box)),
            ORACLE_GATE_ND,
        ))

    for name, bits, q, shape, box in (
        ("weighted_3d", (1, 0, 1), (2, 2, 2), (side,) * 3, ((1, 2 * side), (0, 2 * side), (1, 2 * side))),
        ("weighted_2d", (1, 0), (1, 0), (side,) * 2, ((0, 2 * side), (0, 2 * side))),
    ):
        if small:  # same parity bookkeeping, no probes
            q = tuple(qj % 2 for qj in q)
        block = CoeffND((1,) * len(shape), rng.standard_normal(shape))
        spec = reexpand.ReexpandSpec(ParityVector(bits), WeightExponent(q), box)
        wl.ops.append(Op(
            name,
            lambda rec, block=block, spec=spec: reexpand.reexpand_weighted(block, spec),
            lambda out: out.raw.values,
            lambda block=block, bits=bits, q=q, box=box: oracle.weighted_raw_box(
                bits, q, block.offsets, block.values, box),
            ORACLE_GATE_ND,
        ))

    n = 64 if small else 2048
    a = Coeff1D(1, rng.standard_normal(n))
    for kind in hilbert.KINDS:
        lo = -n if kind == "full" else hilbert._KIND_FLOOR[kind]
        ns = sample_indices(rng, lo, n)
        fn = getattr(hilbert, f"dht_{kind}")
        wl.ops.append(Op(
            f"naive_{kind}",
            lambda rec, kind=kind, lo=lo: getattr(hilbert, f"dht_{kind}")(a, (lo, n), "naive"),
            lambda out: out.values,
            lambda fn=fn, kind=kind, lo=lo, ns=ns: confirmed(
                fn(a, (lo, n), "fast").values,
                oracle.transform_at(kind, a.offset, a.values, ns), ns - lo),
            NAIVE_GATE,
        ))
    return wl


def confirmed(fast: np.ndarray, formula: np.ndarray, at=...) -> np.ndarray:
    """The program's fast-path values, once ``fast[at]`` matches the benchmark formula."""
    dev = oracle.deviation(fast[at], formula)
    if not dev <= FORMULA_GATE:
        raise ValueError(f"fast path misses the direct formula by {dev:.3e}")
    return fast


# ---------------------------------------------------------------------------
# su2


def su2(seed: int, workdir: Path, small: bool = False) -> Workload:
    """SU(2) sums on an even sequence with support -200..200, lmax = 100."""
    from reexpansion import weyl
    from reexpansion.sequences import Coeff1D

    rng = np.random.default_rng([seed, 4])
    half, two_lmax, two_l_coeff = (10, 8, 4) if small else (200, 200, 40)
    vals = rng.standard_normal(half)
    entries = {k: float(vals[k - 1]) for k in range(1, half + 1)}
    entries.update({-k: v for k, v in entries.items()})
    entries[0] = float(rng.standard_normal())
    a = Coeff1D.from_dict(entries)
    denom = weyl.weyl_denom_sq_coeffs(weyl.RootSystem.su2(), "nonnegative")
    lmax = Fraction(two_lmax, 2)
    probe_l = int(rng.integers(0, two_l_coeff + 1))
    wl = Workload("su2", [])

    for mode in ("character", "paper"):
        wl.ops.append(Op(
            f"q1_{mode}",
            lambda rec, mode=mode: weyl.condition_q1_sum(a, lmax, denom, mode),
            np.array,
            lambda mode=mode: oracle.su2_q1(entries, two_lmax, mode),
            SU2_GATE,
        ))
    wl.ops.append(Op(
        "q2",
        lambda rec: weyl.q2_diagnostic(a, lmax, denom, "paper"),
        lambda out: np.concatenate([out.hilbert_side, out.plain_side]),
        lambda: np.concatenate([oracle.su2_q2_hilbert_side(entries, two_lmax),
                                oracle.su2_q1(entries, two_lmax, "paper")]),
        FORMULA_GATE,
    ))

    def table_observed(table):
        diag = np.concatenate([table.entries[t][1] for t in range(two_lmax + 1)])
        traces = [np.sum(table.entries[t][1]) for t in range(two_l_coeff + 1)]
        return np.concatenate([diag, traces])

    def table_expected():
        diag = [oracle.su2_inner(entries, mu) for t in range(two_lmax + 1) for mu in range(-t, t + 1, 2)]
        traces = [(t + 1) * oracle.su2_character_coeff(entries, t) for t in range(two_l_coeff + 1)]
        return np.concatenate([diag, traces])

    wl.ops.append(Op(
        "table",
        lambda rec: weyl.ext_fourier_table(a, lmax, denom, "paper"),
        table_observed,
        table_expected,
        SU2_GATE,
    ))

    def character_expected():
        closed = np.array([oracle.su2_character_coeff(entries, t) for t in range(two_l_coeff + 1)])
        quad = weyl.character_coeff_quadrature(a, Fraction(probe_l, 2))
        if not abs(quad - closed[probe_l]) <= SU2_GATE:
            raise ValueError(f"closed form misses quadrature at 2l={probe_l}")
        return closed

    wl.ops.append(Op(
        "character_coeff",
        lambda rec: [weyl.character_coeff(a, Fraction(t, 2)) for t in range(two_l_coeff + 1)],
        np.array,
        character_expected,
        SU2_GATE,
    ))
    wl.ops.append(Op(
        "sufficiency",
        lambda rec: weyl.su2_sufficiency(a),
        np.atleast_1d,
        lambda: np.atleast_1d(oracle.su2_sufficiency(entries)),
        FORMULA_GATE,
    ))
    return wl


BUILDERS = {"cli-large": cli_large, "kernels": kernels, "verify": verify, "su2": su2}
