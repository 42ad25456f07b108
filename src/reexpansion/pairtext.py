"""Sequence-file ``[re, im]`` pairs as text, in the standard library alone.

A large file's second half is done by a child running this file under
``python -I -S`` (no numpy, so it starts in tens of milliseconds).
``save`` turns the native doubles on stdin into ", "-led pairs on stdout;
``load`` turns pairs into doubles, or exits nonzero on a non-float token.
"""

import json
import sys
from array import array

CHUNK = 1 << 16  # value pairs per formatted chunk


def write_pairs(write, floats, sep: str = "") -> None:
    """``write`` the floats re, im, re, im, ... (an array or a memoryview)
    as "[re, im]" pairs joined by ", ", after ``sep``, a chunk at a time."""
    for i in range(0, len(floats), 2 * CHUNK):
        flat = floats[i : i + 2 * CHUNK].tolist()  # %r formats as json.dumps does
        write(sep + ", ".join(["[%r, %r]"] * (len(flat) // 2)) % tuple(flat))
        sep = ", "


def parse_floats(pairs: str) -> list:
    """The numbers of the text ``pairs`` as floats; ValueError unless JSON
    reads each as a float (an integer token is refused too)."""
    return json.loads("[%s]" % pairs.translate({ord("["): None, ord("]"): None}), parse_int=_refuse)


def _refuse(token: str):
    raise ValueError("an integer token")


if __name__ == "__main__":
    if sys.argv[1] == "save":  # a chunk of doubles at a time, each chunk's text after ", "
        for raw in iter(lambda: sys.stdin.buffer.read(16 * CHUNK), b""):
            write_pairs(lambda text: sys.stdout.buffer.write(text.encode()), array("d", raw), ", ")
    else:
        sys.stdout.buffer.write(array("d", parse_floats(sys.stdin.buffer.read().decode())).tobytes())
