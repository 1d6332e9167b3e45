"""A broken program makes a run exit nonzero without metrics, not hang."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

BROKEN_FIT = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import common
common.import_program()
from repro.core import Actor

def fit(self, corpus):
    raise RuntimeError("broken fit")

Actor.fit = fit
import run
sys.exit(run.main(sys.argv[1:]))
"""


def test_train_exits_nonzero_when_every_fit_fails():
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_FIT, "--workload", "train", "--seed",
         "1", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1
    assert "broken fit" in proc.stderr
