"""The benchmark must not change how the program's memory is allocated.

glibc serves blocks above its mmap threshold (128 KiB by default) with
fresh anonymous maps, whose pages fault in on first touch.  Freeing such
a block raises the threshold for the whole process, after which blocks
of that size come from the heap and stop faulting.  Importing the
benchmark's modules must leave the threshold alone, or ``train`` would
measure fits that skip the page faults a fresh ``repro train`` takes.
"""

import ctypes
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent

CHECK = f"""
import ctypes, sys
sys.path.insert(0, {str(BENCH)!r})

class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL("libc.so.6")
libc.mallinfo2.restype = Info
import numpy as np
import common, layers, loadgen, spans  # noqa: F401
common.HostSpeed().start()
common.calibration_ms()
before = libc.mallinfo2().hblks
block = np.empty(1 << 17)  # 1 MiB
print(libc.mallinfo2().hblks - before)
"""


def _has_mallinfo2() -> bool:
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallinfo2")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc >= 2.33")
def test_importing_and_probing_keeps_the_mmap_threshold():
    out = subprocess.run([sys.executable, "-c", CHECK], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    # A 1 MiB block still gets a map of its own.
    assert out.strip() == "1"
