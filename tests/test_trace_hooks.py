"""The traced benchmark harness wraps library functions by name."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_spans_install_finds_every_name_it_wraps():
    # spans.install looks up each layer entry point it times (dht_<kind>,
    # transform, cli.load_sequence, ...) with no default, so a renamed or
    # deleted name breaks only `perfbench/run.py --trace 1`.  This is why
    # hilbert.transform stays although nothing in src/ calls it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
