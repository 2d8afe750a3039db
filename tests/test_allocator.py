"""Importing ikno fixes glibc's malloc thresholds unless the user set them.

Each round below allocates and frees eight 2 MiB arrays, the size of an
M x n array at L = 32 and 256 points. With glibc's dynamic thresholds every round maps
them afresh and pays one minor fault per 4 KiB page (about 4k a round);
with the thresholds ikno sets, the freed memory is reused and the rounds
after the first fault almost never.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ROUNDS = """
import resource
import numpy as np
import ikno

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

per_round = []
for _ in range(6):
    before = faults()
    arrays = [np.ones((1024, 256)) for _ in range(8)]
    del arrays
    per_round.append(faults() - before)
print(max(per_round[1:]))
"""

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="malloc thresholds are set on glibc only"
)


def _faults_per_round(**env) -> int:
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    full_env.update(env)
    out = subprocess.run([sys.executable, "-c", ROUNDS], env=full_env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(out.stdout.strip().splitlines()[-1])


def test_import_keeps_freed_arrays_mapped():
    assert _faults_per_round() < 100


def test_user_glibc_setting_wins():
    # glibc reads this at start-up and then keeps its dynamic mmap threshold
    # off: a 1 MB trim threshold hands every freed array back to the OS
    assert _faults_per_round(MALLOC_TRIM_THRESHOLD_="1000000") > 2000
