"""The package runs on numpy alone, and each command loads only what it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import densitycode
import densitycode.encoder
from densitycode.cli import main

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
PACKAGE_LOADED = "[m for m in sorted(sys.modules) if m.split('.')[0] == 'densitycode']"


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


@pytest.fixture(scope="module")
def codes_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("codes")
    gen = ["gen-corpus", "--out", str(work / "corpus"), "--pairs", "2", "--size", "64"]
    assert main(gen) == 0
    image = str(work / "corpus" / "pair0_A.pgm")
    encode = ["encode", "--image", image, "--polarity", "light-on-dark"]
    assert main([*encode, "--points", "256", "--out", str(work / "a.csv")]) == 0
    # a timing table of 12 cells, t = HW + m, for `bench fit`
    cells = [(h, w, m) for h in (16, 32) for w in (16, 32, 64) for m in (16, 64)]
    rows = [f"{h},{w},{m},5,{h * w + m}" for h, w, m in cells]
    (work / "timing.csv").write_text("\n".join(["H,W,m,reps,median_ms", *rows]) + "\n")
    return work


# what each cold command may load; scipy is blocked throughout
COMMAND_MODULES = [
    (
        ["encode", "--image", "corpus/pair0_B.pgm", "--polarity", "light-on-dark"]
        + ["--out", "b.csv"],
        ["cli", "encoder", "image_io", "quasirandom"],
    ),
    (
        ["compare", "a.csv", "a.csv", "--degree", "3", "--residuals", "r.csv"],
        ["cli", "encoder", "matcher"],
    ),
    (
        ["sweep", "--corpus", "corpus", "--out", "s.csv", "--alpha-max", "0.1"],
        ["cli", "corpus", "encoder", "image_io", "matcher", "quasirandom"],
    ),
    (
        ["gen-corpus", "--out", "corpus2", "--pairs", "2", "--size", "64"],
        ["cli", "corpus", "encoder", "image_io"],
    ),
    (["bench", "fit", "--in", "timing.csv"], ["bench", "cli", "encoder"]),
]


@pytest.mark.parametrize(
    "argv, modules", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(codes_dir, argv, modules):
    body = (
        "import json\n"
        "from densitycode.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, {PACKAGE_LOADED}]))\n"
    )
    out = run_blocked(body, codes_dir)
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0, out.stderr
    assert loaded == ["densitycode", *(f"densitycode.{name}" for name in modules)]


def test_package_import_loads_no_submodule_and_no_numpy(tmp_path):
    probe = (
        "import sys\nimport densitycode\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('densitycode', 'numpy')))\n"
    )
    out = run_blocked(probe, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['densitycode']"


def test_every_export_resolves_and_is_listed():
    for name in densitycode.__all__:
        value = getattr(densitycode, name)
        module = sys.modules[value.__module__]
        assert getattr(module, name) is value
    namespace = {}
    exec("from densitycode import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(densitycode.__all__)
    assert set(densitycode.__all__) <= set(dir(densitycode))
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        densitycode.not_exported


def test_exports_follow_a_patched_submodule(monkeypatch):
    # the benchmark tracer patches submodule attributes and later restores
    # them; the package must hand out whichever is current, never a copy
    original = densitycode.encoder.encode

    def patched(*args):
        raise AssertionError("not called")

    with monkeypatch.context() as patch:
        patch.setattr(densitycode.encoder, "encode", patched)
        assert densitycode.encode is patched
    assert densitycode.encode is original
