"""Run the reexpansion CLI with layer spans recorded.

    python3 traced_cli.py SPANS_JSON SPAWN_NS ARG...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this process, so the ``cli.import`` span covers interpreter start and
``import reexpansion.cli``.  ``cli.main`` wraps ``reexpansion.cli.main``
and the layer wrappers of ``spans.install`` record its children.  The
spans are written to SPANS_JSON and the CLI's exit status is returned.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reexpansion.cli  # noqa: E402  (timed as cli.import)

IMPORTED_NS = time.monotonic_ns()

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, spawn_ns, cli_argv = argv[0], int(argv[1]), argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.spans.append({"name": "cli.import", "start": spawn_ns, "end": IMPORTED_NS, "parent": -1})
    rec.active = True
    rec.open("cli.main")
    try:
        status = reexpansion.cli.main(cli_argv)
    finally:
        rec.close()
        Path(out_path).write_text(json.dumps(rec.spans))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
