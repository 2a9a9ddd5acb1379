"""Import cost: scipy loads only when a function that needs it runs."""

import os
import subprocess
import sys
from pathlib import Path

import densitycode


def test_import_leaves_scipy_unloaded():
    probe = (
        "import sys, densitycode, densitycode.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(densitycode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-c", probe]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
