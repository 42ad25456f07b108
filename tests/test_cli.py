"""End-to-end tests for the command-line front end."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reexpansion import (
    Coeff1D,
    CoeffND,
    load_sequence,
    save_sequence,
    summability_report,
)
from reexpansion import cli, weyl
from reexpansion.cli import CliInvocation, UsageError, emit_report, main, parse_args, run


@pytest.fixture
def impulse_file(tmp_path):
    def make(k, name="a.json"):
        path = tmp_path / name
        save_sequence(Coeff1D.impulse(k), str(path))
        return str(path)

    return make


def test_parse_args_hilbert(impulse_file):
    inv = parse_args(
        ["hilbert", "--kind", "even", "--input", "a.json", "--range", "1:64",
         "--output", "o.json"]
    )
    assert inv.subcommand == "hilbert"
    assert inv.options["kind"] == "even"
    assert inv.options["range"] == "1:64"


def test_parse_args_su2():
    inv = parse_args(["su2", "--op", "q1", "--input", "a.json", "--lmax", "10",
                      "--mode", "character", "--output", "q.csv"])
    assert inv.subcommand == "su2"
    assert inv.options["mode"] == "character"


def test_unknown_flag_is_error(capsys):
    assert main(["hilbert", "--kind", "even", "--input", "a", "--range", "1:4",
                 "--output", "o", "--frobnicate"]) == 2


def test_missing_subcommand_is_error():
    assert main([]) == 2


def test_hilbert_even_impulse(tmp_path, impulse_file, capsys):
    out = tmp_path / "out.json"
    code = main(["hilbert", "--input", impulse_file(1), "--kind", "even",
                 "--range", "1:3", "--output", str(out)])
    assert code == 0
    result = load_sequence(str(out))
    np.testing.assert_allclose(result.values, [0.5, 4 / 3, 0.75], atol=1e-14)
    assert "hilbert" in capsys.readouterr().out


def test_hilbert_rejects_nd_input(tmp_path, capsys):
    path = tmp_path / "a2.json"
    save_sequence(CoeffND.impulse((1, 1)), str(path))
    code = main(["hilbert", "--input", str(path), "--kind", "even",
                 "--range", "1:3", "--output", str(tmp_path / "o.json")])
    assert code == 2


def test_missing_input_is_usage_error(tmp_path):
    code = main(["hilbert", "--input", str(tmp_path / "none.json"), "--kind",
                 "even", "--range", "1:3", "--output", str(tmp_path / "o.json")])
    assert code == 2


@pytest.mark.parametrize(
    "values",
    ["[[NaN, 0]]", "[[Infinity, 0]]", "[[null, 0]]", '[["a", 0]]', "[[1]]"],
    ids=["nan", "inf", "null", "non-numeric", "short"],
)
def test_bad_input_values_are_usage_errors(tmp_path, capsys, values):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [1], "offsets": [1], "values": %s}\n' % values)
    code = main(["hilbert", "--input", str(path), "--kind", "even",
                 "--range", "1:3", "--output", str(tmp_path / "o.json")])
    assert code == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "text",
    ["not json", '{"dims": [1]', '{"dims": [2.7], "offsets": [true], "values": [[1, 0], [2, 0]]}'],
    ids=["text", "truncated", "non-integer-dims"],
)
def test_non_json_input_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["su2", "--op", "sufficiency", "--input", str(path)])
    assert code == 2
    assert str(path) in capsys.readouterr().err


def test_directory_input_is_usage_error(tmp_path, capsys):
    code = main(["su2", "--op", "sufficiency", "--input", str(tmp_path)])
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_unallocatable_range_is_computation_error(tmp_path, impulse_file, capsys):
    # 2**52 float64 outputs is 32 PiB: refused before any memory is touched
    code = main(["hilbert", "--input", impulse_file(1), "--kind", "even",
                 "--range", "1:4503599627370496", "--output", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_su2_report_requires_output(impulse_file):
    assert main(["su2", "--op", "table", "--input", impulse_file(0), "--lmax", "2"]) == 2


def test_reexpand_dimension_mismatch(tmp_path, impulse_file):
    # 1-D input with a 2-axis parity string is a usage error
    code = main(["reexpand", "--input", impulse_file(1), "--parity", "10",
                 "--weight", "1,0", "--box", "1:4,0:4",
                 "--output", str(tmp_path / "o.json")])
    assert code == 2


def test_reexpand_warns_on_a_face_of_an_axis_with_weight_zero(tmp_path, capsys):
    # f = cos t1 sin 3 t2 is nonzero on t1 = 0; q = (1, 0) still asks it to vanish there
    path = tmp_path / "a.json"
    save_sequence(CoeffND((1, 3), [[1.0]]), str(path))
    assert main(["reexpand", "--input", str(path), "--parity", "10", "--weight", "1,0",
                 "--box", "0:4,0:4", "--output", str(tmp_path / "o.json")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: boundary precondition failed for 2 face/order checks")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "parity, weight, axis",  # the target parity eta_j xor (q_j mod 2) sets the floor
    [("1", None, 0), ("0", "1", 0), ("01", "0,2", 1)],
)
def test_reexpand_box_below_parity_floor_is_usage_error(tmp_path, capsys, parity, weight, axis):
    path = tmp_path / "a.json"
    save_sequence(CoeffND.impulse((1,) * len(parity)), str(path))
    args = ["reexpand", "--input", str(path), "--parity", parity,
            "--box", ",".join(["0:4"] * len(parity)), "--output", str(tmp_path / "o.json")]
    assert main(args + (["--weight", weight] if weight else [])) == 2
    assert capsys.readouterr().err == (
        f"usage error: axis {axis}: output indices must be >= 1 for this parity\n"
    )
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("index, argv, message", [
    ((1, 1), ["reexpand", "--parity", "10", "--box", "3:1,0:4"], "empty box axis [3, 1]"),
    ((-2,), ["hilbert", "--kind", "even", "--range", "1:4"], "support must lie in k >= 0"),
    ((-2,), ["reexpand", "--parity", "1", "--box", "1:4"], "support must lie in k >= 0"),
    ((-2,), ["reexpand", "--parity", "1", "--weight", "2", "--box", "1:4"],
     "requires support in k >= 0"),
], ids=["reexpand-empty-box", "hilbert-negative", "reexpand-negative", "weighted-negative"])
def test_library_value_errors_are_usage_errors(tmp_path, capsys, index, argv, message):
    path = tmp_path / "a.json"
    save_sequence(CoeffND.impulse(index), str(path))
    out = tmp_path / "o.json"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_reexpand_1d_cosine(tmp_path, impulse_file):
    out = tmp_path / "b.json"
    code = main(["reexpand", "--input", impulse_file(1), "--parity", "1",
                 "--box", "1:4", "--output", str(out)])
    assert code == 0
    b = load_sequence(str(out))
    np.testing.assert_allclose(b[2], 8 / (3 * np.pi), atol=1e-14)


def test_reexpand_weighted_prints_bookkeeping(tmp_path, capsys):
    path = tmp_path / "a.json"
    save_sequence(Coeff1D.from_dict({1: 1, 3: -1}), str(path))
    out = tmp_path / "b.json"
    code = main(["reexpand", "--input", str(path), "--parity", "1",
                 "--weight", "1", "--box", "0:8", "--output", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "sign=-1" in captured.out and "eta_eff=0" in captured.out


def test_sufficiency_fixture(tmp_path, capsys):
    path = tmp_path / "a.json"
    save_sequence(Coeff1D.from_dict({1: 1, 3: -1}), str(path))
    out = tmp_path / "rep.csv"
    code = main(["sufficiency", "--input", str(path), "--kind", "even_halved",
                 "--windows", "64,128,256,512", "--output", str(out)])
    assert code == 0
    assert "verdict=converging" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window,norm,increment"
    assert len(lines) == 5
    norms = [float(l.split(",")[1]) for l in lines[1:]]
    assert norms == sorted(norms)


def test_sufficiency_weight_overflow_is_a_usage_error(tmp_path, capsys):
    # 1000^400 overflows: the weighted input is refused before any transform
    path = tmp_path / "a.json"
    save_sequence(Coeff1D.from_dict({1000: 1}), str(path))
    out = tmp_path / "rep.csv"
    code = main(["sufficiency", "--input", str(path), "--kind", "even_halved",
                 "--windows", "8,16", "--weight", "400", "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --weight 400: k^q a_k overflows past the largest double\n"
    assert captured.out == ""
    assert not out.exists()


def test_reexpand_weight_overflow_is_the_same_usage_error(tmp_path, capsys):
    path = tmp_path / "a.json"
    save_sequence(Coeff1D.from_dict({1000: 1}), str(path))
    out = tmp_path / "b.json"
    code = main(["reexpand", "--input", str(path), "--parity", "1", "--weight", "400",
                 "--box", "1:4", "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --weight 400: k^q a_k overflows past the largest double\n"
    assert captured.out == ""
    assert not out.exists()


def test_su2_sufficiency_prints_value(impulse_file, capsys):
    code = main(["su2", "--op", "sufficiency", "--input", impulse_file(3)])
    assert code == 0
    out = capsys.readouterr().out
    printed = float(out.splitlines()[0])
    np.testing.assert_allclose(printed, 3 * np.log(3), atol=1e-12)  # 3.29584...


@pytest.mark.parametrize("argv, message", [
    (["--op", "q2", "--lmax", "1", "--output", "q2.csv"],
     "q2_diagnostic expects an even sequence, got neither"),
    (["--op", "sufficiency"], "ignored l1 mass 2 outside the odd positive integers"),
], ids=["q2-not-even", "sufficiency-ignored-mass"])
def test_library_warnings_are_warning_lines(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    save_sequence(Coeff1D(1, [1.0, 2.0, 0.5]), "a.json")
    assert main(["su2", "--input", "a.json"] + argv) == 0
    assert capsys.readouterr().err == f"warning: {message}\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, output", [
    (["hilbert", "--kind", "full", "--range", "0:4"], "o.json"),
    (["sufficiency", "--kind", "even", "--windows", "4,8"], "o.csv"),
    (["su2", "--op", "sufficiency"], None),
], ids=["hilbert", "sufficiency", "su2-sufficiency"])
def test_closed_stdout_is_one_error_line(tmp_path, argv, output, buffered):
    # stdout is a pipe whose read end is already closed, so every write
    # to it fails; a buffered stdout would also fail its flush at exit
    path = tmp_path / "a.json"
    save_sequence(Coeff1D.from_dict({1: 1.0, 3: 0.5}), str(path))  # odd: su2 warns of nothing
    argv = argv + ["--input", str(path)] + (["--output", str(tmp_path / output)] if output else [])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "reexpansion.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"
    if output:
        assert (tmp_path / output).is_file()


def test_su2_q1_csv(tmp_path, impulse_file):
    out = tmp_path / "q1.csv"
    code = main(["su2", "--op", "q1", "--input", impulse_file(0), "--lmax", "2",
                 "--mode", "character", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "two_l,partial_sum"
    assert len(lines) == 6
    assert all(float(l.split(",")[1]) == 1.0 for l in lines[1:])


def test_su2_table_csv(tmp_path, impulse_file):
    out = tmp_path / "t.csv"
    code = main(["su2", "--op", "table", "--input", impulse_file(0), "--lmax", "2",
                 "--mode", "character", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "two_l,dim,weight,value_re,value_im,mode,convention"
    nonzero = [l for l in lines[1:] if float(l.split(",")[3]) != 0.0]
    assert len(nonzero) == 1 and nonzero[0].startswith("0,1,0,1")


def test_su2_q2_csv(tmp_path):
    import warnings

    a_path = tmp_path / "even.json"
    save_sequence(Coeff1D.from_dict({-1: 1.0, 1: 1.0}), str(a_path))
    out = tmp_path / "q2.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["su2", "--op", "q2", "--input", str(a_path), "--lmax", "3",
                     "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "two_l,hilbert_side,plain_side,ratio"
    assert len(lines) == 8


def test_su2_character_requires_l(impulse_file):
    assert main(["su2", "--op", "character", "--input", impulse_file(0)]) == 2


def test_su2_bad_lmax(impulse_file):
    code = main(["su2", "--op", "q1", "--input", impulse_file(0), "--lmax", "0.3",
                 "--output", "x.csv"])
    assert code == 2


def test_bench_is_an_unknown_subcommand(tmp_path):
    # timings come from perfbench; the CLI has no timing subcommand
    out = tmp_path / "b.csv"
    assert main(["bench", "--kind", "full", "--sizes", "64", "--output", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_emit_report_seventeen_digits(tmp_path):
    rep = summability_report(Coeff1D.impulse(1), "even_halved", (16, 32, 64))
    out = tmp_path / "r.csv"
    emit_report(rep, str(out))
    field = out.read_text().splitlines()[1].split(",")[1]
    assert len(field.replace(".", "").replace("-", "").lstrip("0")) >= 16


def _writer_inputs():
    rng = np.random.default_rng(41)
    return {
        "real": Coeff1D(-13, rng.standard_normal(30)),
        "complex": Coeff1D(-60, rng.standard_normal(121) + 1j * rng.standard_normal(121)),
        "empty": Coeff1D(4, np.zeros(0)),
    }


def _per_row_csv(data) -> str:
    """The CSV as the per-row writer put it: one f-string per row, per report kind."""
    if isinstance(data, weyl.CentralCoeffTable):
        lines = ["two_l,dim,weight,value_re,value_im,mode,convention"]
        for two_l, (dim, vals) in data.entries.items():
            for mu, v in zip(range(-two_l, two_l + 1, 2), vals):
                re, im, mode, conv = float(v.real), float(v.imag), data.mode, data.convention
                lines.append(f"{two_l},{dim},{mu},{re:.17g},{im:.17g},{mode},{conv}")
    elif isinstance(data, weyl.Q2Diagnostic):
        lines = ["two_l,hilbert_side,plain_side,ratio"]
        for tl, h, pl, rat in zip(data.two_l, data.hilbert_side, data.plain_side, data.ratio):
            lines.append(f"{tl},{h:.17g},{pl:.17g},{f'{rat:.17g}' if pl > 0 else 'nan'}")
    elif isinstance(data, list):
        lines = ["two_l,partial_sum"] + [f"{two_l},{v:.17g}" for two_l, v in enumerate(data)]
    else:
        lines = ["window,norm,increment"]
        for w, n, i in zip(data.windows, data.norms, data.increments):
            lines.append(f"{w},{n:.17g},{i:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["real", "complex", "empty"])
@pytest.mark.parametrize("lmax", [0, Fraction(1, 2), 7, Fraction(41, 2)], ids=str)
@pytest.mark.parametrize("convention", weyl.CONVENTIONS)
@pytest.mark.parametrize("mode", weyl.MODES)
def test_emit_report_table_matches_the_per_row_writer(tmp_path, mode, convention, lmax, name):
    denom = weyl.weyl_denom_sq_coeffs(weyl.RootSystem.su2(), convention)
    table = weyl.ext_fourier_table(_writer_inputs()[name], lmax, denom, mode)
    emit_report(table, str(tmp_path / "t.csv"))
    assert (tmp_path / "t.csv").read_bytes() == _per_row_csv(table).encode()


def test_emit_report_sums_match_the_per_row_writer(tmp_path):
    denom = weyl.weyl_denom_sq_coeffs(weyl.RootSystem.su2())
    v = np.random.default_rng(43).standard_normal(31)
    even = Coeff1D(-15, v + v[::-1])
    reports = [
        weyl.condition_q1_sum(even, Fraction(41, 2), denom, "paper"),
        weyl.condition_q1_sum(even, 7, denom, "character"),
        weyl.q2_diagnostic(even, Fraction(41, 2), denom),
        weyl.q2_diagnostic(Coeff1D(0, [0.0]), 3, denom),  # a zero plain side: ratio nan
        summability_report(Coeff1D.impulse(1), "even_halved", (16, 32, 64)),
        summability_report(_writer_inputs()["complex"], "full", (64, 128, 1024)),
    ]
    assert reports[3].plain_side == (0.0,) * 7
    for k, data in enumerate(reports):
        out = tmp_path / f"r{k}.csv"
        emit_report(data, str(out))
        assert out.read_bytes() == _per_row_csv(data).encode(), k


@pytest.mark.parametrize("mode", weyl.MODES)
def test_emit_report_table_memory_does_not_grow_with_the_rows(tmp_path, mode):
    # the lmax 100 table has 20,301 rows (about 1.2 MB of CSV); the writer holds
    # the 401 (paper) or 201 (character) distinct values and one level at a time
    import tracemalloc

    denom = weyl.weyl_denom_sq_coeffs(weyl.RootSystem.su2())
    table = weyl.ext_fourier_table(_writer_inputs()["complex"], 100, denom, mode)
    emit_report(weyl.ext_fourier_table(Coeff1D.impulse(0), 1, denom, mode), str(tmp_path / "w.csv"))
    tracemalloc.start()
    try:
        emit_report(table, str(tmp_path / "t.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 101 * 201


@pytest.mark.parametrize("argv", [
    ["reexpand", "--parity", "10", "--box", "1:9,0:9"],  # the sine axis reaches index 0
    ["hilbert", "--kind", "odd_halved", "--range", "0:12"],
], ids=["reexpand-2d", "hilbert"])
def test_naive_algorithm_agrees_with_fast(tmp_path, argv):
    rng = np.random.default_rng(67)
    path = tmp_path / "a.json"
    a = (CoeffND((1, 0), rng.standard_normal((3, 4))) if argv[0] == "reexpand"
         else Coeff1D(1, rng.standard_normal(6) + 1j * rng.standard_normal(6)))
    save_sequence(a, str(path))
    outs = {}
    for alg in ("naive", "fast"):
        outs[alg] = tmp_path / f"{alg}.json"
        assert main(argv + ["--input", str(path), "--algorithm", alg,
                            "--output", str(outs[alg])]) == 0
    naive, fast = (load_sequence(str(outs[alg])) for alg in ("naive", "fast"))
    assert naive.offsets == fast.offsets
    scale = np.max(np.abs(fast.values))
    assert np.max(np.abs(naive.values - fast.values)) <= 1e-12 * scale


def test_determinism_byte_identical(tmp_path, impulse_file):
    argv = lambda o: ["hilbert", "--input", impulse_file(2), "--kind", "odd",
                      "--range", "0:32", "--output", o]
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(argv(str(out1))) == 0
    assert main(argv(str(out2))) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_negative_window_both_spellings(tmp_path):
    path = str(tmp_path / "a.json")
    save_sequence(Coeff1D(-2, [1.0, 2.0, 3.0, 4.0]), path)
    outs = []
    for window in (["--range", "-4:4"], ["--range=-4:4"]):
        outs.append(tmp_path / f"o{len(outs)}.json")
        argv = ["hilbert", "--input", path, "--kind", "full", "--output", str(outs[-1])]
        assert main(argv + window) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    box = ["reexpand", "--input", path, "--parity", "1", "--output", "o.json"]
    assert parse_args(box + ["--box", "-4:4"]) == parse_args(box + ["--box=-4:4"])


def test_computation_error_exit_code(tmp_path, impulse_file):
    # unwritable report destination surfaces as a computation error
    target = str(tmp_path / "missing-dir" / "x.csv")
    code = main(["su2", "--op", "q1", "--input", impulse_file(0), "--lmax", "1",
                 "--output", target])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["hilbert", "--kind", "even", "--range", "1:3"],
    ["reexpand", "--parity", "1", "--box", "1:4"],
    ["su2", "--op", "q1", "--lmax", "1"],
], ids=["hilbert", "reexpand", "su2-report"])
def test_unwritable_output_is_one_error_line(tmp_path, impulse_file, capsys, argv):
    target = str(tmp_path / "missing-dir" / "o.json")
    code = main(argv + ["--input", impulse_file(1), "--output", target])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("exc, code, prefix", [
    (UsageError, 2, "usage error: "),
    (ValueError, 2, "usage error: "),
    (RuntimeError, 1, "error: "),
    (MemoryError, 1, "error: out of memory: "),
], ids=["usage", "value", "runtime", "memory"])
def test_run_maps_exceptions_to_exit_codes(monkeypatch, capsys, exc, code, prefix):
    def runner(opt):
        raise exc("boom")

    monkeypatch.setitem(cli._RUNNERS, "boom", runner)
    assert run(CliInvocation("boom", {})) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}boom\n" and captured.out == ""


def test_non_finite_result_is_computation_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_sequence(Coeff1D(0, [1.7e308, 1.7e308]), str(path))
    out = tmp_path / "o.json"
    with np.errstate(all="ignore"):  # the overflow itself is the fixture
        code = main(["hilbert", "--input", str(path), "--kind", "full",
                     "--range", "2:2", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {out}: values must be finite, found NaN or infinity\n" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


_BIG = 1.7e308  # a finite input whose sums overflow


@pytest.mark.parametrize("entries, argv, output", [
    ({1: _BIG, 2: _BIG}, ["sufficiency", "--kind", "even", "--windows", "4,8,16"], "o.csv"),
    ({1: _BIG, 2: _BIG}, ["su2", "--op", "q1", "--lmax", "2"], "o.csv"),
    ({-1: _BIG, 1: _BIG}, ["su2", "--op", "q2", "--lmax", "2"], "o.csv"),
    ({-1: _BIG, 1: _BIG}, ["su2", "--op", "table", "--lmax", "2"], "o.csv"),
    ({3: _BIG}, ["su2", "--op", "sufficiency"], None),
    ({-2: -_BIG, 2: -_BIG}, ["su2", "--op", "character", "--l", "0"], None),
    ({1: _BIG, 2: _BIG}, ["hilbert", "--kind", "full", "--range", "2:2"], "o.json"),
    ({1: _BIG, 2: _BIG}, ["reexpand", "--parity", "1", "--box", "1:4"], "o.json"),
], ids=["sufficiency", "su2-q1", "su2-q2", "su2-table", "su2-sufficiency", "su2-character",
        "hilbert", "reexpand"])
def test_non_finite_output_is_one_error_line(tmp_path, capsys, entries, argv, output):
    # even inputs for q2 and the table, odd positive ones for su2
    # sufficiency: the library's own input warnings stay out of the way
    path = tmp_path / "big.json"
    save_sequence(Coeff1D.from_dict(entries), str(path))
    argv = argv + ["--input", str(path)]
    if output:
        argv += ["--output", str(tmp_path / output)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 1
    assert [str(w.message) for w in caught] == []
    named = tmp_path / output if output else "standard output"
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}: values must be finite, found NaN or infinity\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_q2_ratio_keeps_nan_for_a_zero_plain_side(tmp_path):
    path = tmp_path / "zero.json"
    save_sequence(Coeff1D(0, [0.0]), str(path))
    out = tmp_path / "q2.csv"
    assert main(["su2", "--op", "q2", "--input", str(path), "--lmax", "1",
                 "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0,0,0,nan", "1,0,0,nan", "2,0,0,nan"]


def test_sequence_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(77)
    a = Coeff1D(-5, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    p1 = tmp_path / "x.json"
    save_sequence(a, str(p1))
    b = load_sequence(str(p1))
    p2 = tmp_path / "y.json"
    save_sequence(b, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(a.values, b.values)
