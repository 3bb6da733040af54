import sys; sys.path.insert(0, "tests")
import os
import subprocess
from pathlib import Path

import pytest

import derived_kernel


@pytest.fixture
def run_optimized():
    """Run a Python snippet under `python -O` against this checkout's
    package, so `assert` statements are skipped; returns its output."""
    src = str(Path(derived_kernel.__file__).resolve().parents[1])

    def run(code, *argv):
        out = subprocess.run(
            [sys.executable, "-O", "-c", code] + [str(a) for a in argv],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()
    return run
