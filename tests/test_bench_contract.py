"""The benchmark's tracer self-test, run against this source tree.

`bench/worker.py --self-test` patches the package from outside and calls
through the names its modules import from one another; a rename or a
changed import in `src/` that the benchmark relies on shows up here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")


@pytest.mark.skipif(not os.path.exists(WORKER), reason="no bench/ in this checkout")
def test_bench_worker_self_test_passes():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, WORKER, "--self-test"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"errors": []}
