"""The package runs on numpy alone: no command imports scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import densitycode

# a finder that fails every scipy import, installed before the package loads
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
"""
SCIPY_LOADED = "[m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy']"


def run_blocked(body, cwd):
    src = str(Path(densitycode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-c", BLOCK_SCIPY + body]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


def test_import_leaves_scipy_unloaded(tmp_path):
    probe = f"import densitycode, densitycode.cli\nprint({SCIPY_LOADED})\n"
    out = run_blocked(probe, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    commands = [
        ["gen-corpus", "--out", "corpus", "--pairs", "2", "--size", "64"],
        ["sweep", "--corpus", "corpus", "--out", "sweep.csv", "--alpha-max", "0.1"],
        ["bench", "--heights", "16,32", "--widths", "16,32", "--lengths", "16,32,64"]
        + ["--reps", "5", "--out", "timing.csv"],
        ["bench", "fit", "--in", "timing.csv"],
    ]
    body = (
        "import json\n"
        "from densitycode.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        f"print(json.dumps([codes, {SCIPY_LOADED}]))\n"
    )
    out = run_blocked(body, tmp_path)
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0], out.stderr
    assert loaded == []


def test_cli_import_leaves_fractions_and_decimal_unloaded(tmp_path):
    # both cost milliseconds on every cold command
    probe = (
        "import sys\nimport densitycode.cli\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    out = run_blocked(probe, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
