"""The benchmark's traced run still finds every dqml name it hooks.

``perfbench/run.py --trace 1`` wraps each module attribute listed in
``perfbench/tracing.py``'s ``TRACED``, including ones that nothing in
``src/`` calls, such as ``pipeline.extract_features``. Removing such a name
breaks the benchmark; this test makes that a test failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_classify_bulk_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-bulk",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
