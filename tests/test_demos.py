"""Every demo runs to completion from a temporary working directory and leaves
the checkout as it found it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def checkout_files() -> dict:
    """Size and modification time of every file in the checkout but .git."""
    state = {}
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in files:
            info = os.stat(os.path.join(base, name))
            state[os.path.join(base, name)] = (info.st_size, info.st_mtime_ns)
    return state


def test_every_demo_is_collected():
    assert len(DEMOS) == 5, [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_and_leaves_the_checkout_unchanged(demo, tmp_path):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    before = checkout_files()
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), "the demo printed nothing"
    assert checkout_files() == before
