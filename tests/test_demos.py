"""Every script under demos/ runs to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import setmatch

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # PYTHONPATH names the directory of the setmatch package under test
    package_root = os.path.dirname(os.path.dirname(os.path.realpath(setmatch.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, cwd=tmp_path, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
