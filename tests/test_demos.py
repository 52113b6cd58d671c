"""Every script under demos/ and the README's library example run to
completion against this package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import setmatch

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


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


def test_readme_library_example_prints_its_matches(capsys):
    # the block after "Library in one minute" prints what its last comment says
    block = re.search(r"## Library in one minute\n\n```python\n(.*?)```",
                      (REPO / "README.md").read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[(0, ()), (1, (1,))]\n"
