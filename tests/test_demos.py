"""Smoke test: every demo script runs to completion against ``src``,
and README's Python example and CLI transcripts give what it shows."""

import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from socialgraph.cli import run_command
from socialgraph.fixtures import cf_fixture
from socialgraph.io import save_graph

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_python_example_runs_as_commented():
    """The example runs, and each line commented ``# True`` is true."""
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace: dict = {}
    exec(code, namespace)
    checked = [line.split("#")[0] for line in code.splitlines() if "# True" in line]
    assert checked and all(eval(expr, namespace) is True for expr in checked)


def readme_transcripts() -> list:
    """(argv, output) of each ``$ socialgraph …`` call in README, its
    command's continuation lines joined."""
    calls = []
    for block in re.findall(r"```\n(\$ socialgraph .*?)```", README, re.S):
        for command, output in re.findall(r"^\$ (.*?(?<!\\)\n)(.*?)(?=^\$ |\Z)", block, re.S | re.M):
            calls.append((shlex.split(command.replace("\\\n", " "))[1:], output))
    return calls


def test_readme_transcripts_give_their_output(tmp_path, monkeypatch):
    """Each call, run on the bundled CF fixture's files, prints what README
    shows, tabs expanded as a terminal shows them."""
    calls = readme_transcripts()
    assert sorted(argv[0] for argv, _ in calls) == ["estimate-index", "recommend"]
    save_graph(cf_fixture(), str(tmp_path / "cf.nodes.jsonl"), str(tmp_path / "cf.links.jsonl"))
    monkeypatch.chdir(tmp_path)
    for argv, output in calls:
        out, err = io.StringIO(), io.StringIO()
        assert run_command(argv, out=out, err=err) == 0, err.getvalue()
        assert out.getvalue().expandtabs() == output
