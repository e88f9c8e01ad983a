"""``tools/call_count.py``, the calls per expert and per pooled batch, on a tiny config."""

import os
import subprocess
import sys
from pathlib import Path

from test_cli import CONFIG

ROOT = Path(__file__).resolve().parents[1]


def test_two_runs_print_the_same_count(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = [
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "call_count.py"), str(path)],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        for _ in range(2)
    ]
    # CONFIG: 180 train rows in batches of 32 over 3 epochs
    lines = outputs[0].splitlines()
    assert len(lines) == 2
    for line, kind in zip(lines, ("expert", "pooled")):
        assert "calls over 18 batches" in line
        assert line.endswith(f"calls per {kind} batch")
    assert outputs[0] == outputs[1]
