"""Benchmark of the reexpansion library and CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are listed in ``BENCHMARK.json``; ``all`` runs each
in turn and ends with one object whose metric names carry the workload
(``kernels/wall_s``).  The load is one
client in a closed loop: each operation starts after the previous one
has finished and been checked.

Set-up is timed in ``SETUP_RUNS`` fresh worker processes (the measuring
one included) and reported as their median.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass, and the
lines above it compare the layer split with the ROADMAP baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (workload, row, operation, span name or "total", seconds) from the
# ROADMAP baseline table: best of 3 on a 2-core machine, ~10% repeat spread
BASELINE = [
    ("cli-large", "CLI hilbert even_halved 2^20, end to end", "hilbert_even_halved_2^20", "total", 12.8),
    ("cli-large", "  of which load_sequence", "hilbert_even_halved_2^20", "sequences.load", 1.9),
    ("cli-large", "  of which transform", "hilbert_even_halved_2^20", "hilbert.even_halved", 2.0),
    ("cli-large", "  of which save_sequence", "hilbert_even_halved_2^20", "sequences.save", 6.8),
    ("kernels", "reexpand_nd 2-D 256^2 -> 512^2", "reexpand_nd_2d", "total", 0.078),
    ("verify", "reexpand_weighted 3-D q=(2,2,2)", "weighted_3d", "total", 0.874),
    ("verify", "quadrature_oracle_box 1-D 64 -> 128", "oracle_1d_cos", "total", 0.141),
    ("su2", "condition_q1_sum character, lmax 100", "q1_character", "total", 4.27),
    ("su2", "condition_q1_sum paper, lmax 100", "q1_paper", "total", 0.073),
]
BASELINE_SPREAD = 0.10


def spawn_worker(args, workload: str, workdir: Path, deadline: float, setup_only: bool):
    """Run worker.py to completion; returns (result dict, rusage)."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(args.seed), str(args.seconds),
           str(args.trace), str(workdir), str(result_path), str(time.monotonic_ns())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise RuntimeError("worker overran the deadline and was killed")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(result_path.read_text()), usage


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, workload: str) -> dict | None:
    """Set up and run one workload; prints its metrics, returns its result object."""
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        setups = [spawn_worker(args, workload, base / f"setup{i}", deadline, True)[0]["setup_s"]
                  for i in range(SETUP_RUNS - 1)]
        res, usage = spawn_worker(args, workload, base / "run", deadline, False)
    except RuntimeError as exc:
        print(f"{workload}: benchmark failed: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(res["setup_s"])

    attempted, failed = res["attempted"], res["failed"]
    negative_ok = not res["negative_missed"]
    print(f"{workload}: {attempted} operations, {failed} failed (fail_frac {failed / attempted:g}), "
          f"worst check deviation {res['max_dev']:.3e}")
    if not negative_ok:
        print(f"perturbed outputs not flagged: {res['negative_missed']}", file=sys.stderr)

    if args.trace:
        layers = dict(res["layers"])
        untraced = median(res["walls"])
        layers["bench.trace_overhead_frac"] = median(res["traced_walls"]) / untraced - 1.0
        layers["bench.max_rel_dev"] = res["max_dev"]
        layers["bench.fail_frac"] = failed / attempted
        metrics = {m["name"]: metric(float(layers[m["name"]]), m["unit"]) for m in SPEC["per_layer"]}
        print(f"traced passes {len(res['traced_walls'])}, untraced passes {len(res['walls'])}")
        print(f"{'ROADMAP baseline row':44} {'baseline_s':>10} {'traced_s':>10} {'ratio':>6}  within ±{BASELINE_SPREAD:.0%}")
        for wl, row, op, name, base_s in BASELINE:
            if wl == workload:
                got = res["split"].get(f"{op}|{name}", 0.0)
                mark = "yes" if abs(got / base_s - 1.0) <= BASELINE_SPREAD else "no"
                print(f"{row:44} {base_s:10.3f} {got:10.3f} {got / base_s:6.2f}  {mark}")
    else:
        rss = res["child_rss_mb"] if res["child_rss_mb"] is not None else usage.ru_maxrss / 1024.0
        metrics = {
            "wall_s": metric(median(res["walls"]), "s"),
            "op_p50_s": metric(median(res["op_times"]), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(median(setups), "s"),
        }
        print(f"passes {len(res['walls'])} (min {min(res['walls']):.4g} s, max {max(res['walls']):.4g} s), "
              f"op samples {len(res['op_times'])}, set-up samples {len(setups)}")
    for name, m in metrics.items():
        print(f"  {workload} {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0 and negative_ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads, "all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "reexpansion" / "__init__.py").is_file():
        print(f"no reexpansion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed)))
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(args, name)
        if results[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
