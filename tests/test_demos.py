"""Smoke test: every demo script and README example runs against the package.

Each demo is copied into a temporary tree (with the fixtures linked beside
it) so the files it writes under ``demos/output/`` stay out of the
repository.  The README's Python examples write nothing and run in place,
and print the values that their comments give.
``coocnet.__all__`` names exactly the package's public objects.
"""

import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import coocnet

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


README = REPO / "README.md"
# the body of every ```python block of the README
EXAMPLES = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
)


# the value that a README example's ``print(...)  # value`` line prints
PRINTED = re.compile(r"^print\(.*\)  # (.*)$", re.M)


def test_readme_examples_found():
    assert len(EXAMPLES) >= 2
    assert all(PRINTED.search(example) for example in EXAMPLES)


@pytest.mark.parametrize(
    "example", EXAMPLES, ids=[f"block-{n}" for n in range(1, len(EXAMPLES) + 1)]
)
def test_readme_example_runs(example, monkeypatch, capsys):
    # from the repository root, as the README's relative paths assume; a
    # file left open warns, and the suite turns warnings into errors
    monkeypatch.chdir(REPO)
    exec(compile(example, str(README), "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out
    assert printed
    # each commented value is a line of the output, in the README's order
    lines = iter(printed.splitlines())
    for value in PRINTED.findall(example):
        assert value in lines, value


def test_all_lists_every_public_name_once_in_order():
    names = coocnet.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(coocnet, name), name
    public = {
        name
        for name, value in vars(coocnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
