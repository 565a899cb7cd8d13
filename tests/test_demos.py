"""Smoke test: every demo script runs to completion against the package.

Each demo is copied into a temporary tree (with the fixtures linked beside
it) so the files it writes under ``demos/output/`` stay out of the
repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    (tmp_path / "demos").mkdir()
    copy = tmp_path / "demos" / demo.name
    shutil.copyfile(demo, copy)
    (tmp_path / "fixtures").symlink_to(REPO / "fixtures", target_is_directory=True)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
