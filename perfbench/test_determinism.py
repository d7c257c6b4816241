"""The counts the benchmark reports as exact must repeat exactly: between
two runs, under two PYTHONHASHSEED values.

    python3 -m pytest perfbench/test_determinism.py

Each workload costs two untraced and two traced runs of one pass, a few
minutes in all; the tier-1 suite does not collect this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

HASH_SEEDS = ("0", "12345")
EXACT = {
    0: ("max_coord_bits",),
    1: ("steps", "steps.edits", "tutte_solver.solve_rows.calls",
        "tutte_solver.solve_rows.rows"),
}


def _metrics(workload, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, env=env, capture_output=True, text=True,
        timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("trace", sorted(EXACT))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload, trace):
    first, second = (_metrics(workload, trace, h) for h in HASH_SEEDS)
    for name in EXACT[trace]:
        assert first[name] == second[name], (name, first[name], second[name])
