"""Every script under ``examples/`` runs to completion.

The examples are the README's entry points and nothing else executes
them: a changed return type (an exporter payload that used to be a
dict) breaks one without failing a single unit test.  Each runs as its
own process, the way a reader would start it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_collected():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script):
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
