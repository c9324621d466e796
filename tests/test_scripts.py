"""The experiment scripts run end to end on tiny arguments."""

import os
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPTS = {
    "reproduce_cost_table.py": [],
    "synthetic_recovery.py": ["--length", "64", "--replicates", "4", "--d", "0.3"],
    "train_lag_recall.py": [
        "--vocab", "8", "--seq-len", "8", "--max-hidden", "8", "--emb-dim", "4",
        "--steps", "2", "--batch-size", "2",
    ],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *SCRIPTS[script]],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
