"""Smoke test: every script under demos/, and the README's library quickstart and CLI walkthrough, run to completion."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(*args: str | bytes, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_demos_found():
    assert [script.name for script in DEMOS] == [
        "01_build_and_query.py",
        "02_semantic_threshold.py",
        "03_bm25_baseline.py",
        "04_noise_scaling.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=[script.name for script in DEMOS])
def test_demo_exits_zero(script):
    proc = run_demo(str(script))
    assert proc.returncode == 0, proc.stderr
    if script.name == "01_build_and_query.py":
        for rank_pos, doc_id in enumerate(["565", "246", "535"], start=1):
            assert f"  {rank_pos}. doc {doc_id} " in proc.stdout


def readme_blocks(heading: str, language: str) -> list[str]:
    """The ``language`` code blocks of README.md's ``## heading`` section, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, f"README.md has no '## {heading}' section"
    blocks = re.findall(rf"^```{language}\n(.*?)^```", section.group(1), re.M | re.S)
    assert blocks, f"the {heading} section holds no {language} block"
    return blocks


def test_readme_quickstart_prints_its_ranking():
    # The blocks run in order in one process, as a reader would paste them.
    proc = run_demo("-c", "\n".join(readme_blocks("Quickstart (library)", "python")))
    assert proc.returncode == 0, proc.stderr
    assert "['565', '246', '535']" in proc.stdout.splitlines()


def test_readme_cli_walkthrough_runs_as_written(tmp_path):
    """The README's CLI block, each command run in order from a scratch directory that links the repo's data/."""
    (tmp_path / "data").symlink_to(ROOT / "data")
    index, runs = str(tmp_path / "hurricane.hcix"), []
    for line in "\n".join(readme_blocks("CLI", "bash")).replace("\\\n", " ").splitlines():
        argv = [arg.replace("/tmp/hurricane.hcix", index) for arg in shlex.split(line, comments=True)]
        if argv:
            proc = run_demo("-m", "hyperrag.cli", *argv[1:], cwd=tmp_path)
            assert argv[0] == "hyperrag" and proc.returncode == 0, (line, proc.stderr)
            runs.append((argv[1], proc.stdout))
    assert [command for command, _ in runs] == ["build", "query", "inspect", "inspect", "eval", "bench"]
    assert re.search(r"^1\. 565 ", runs[1][1], re.M)
    assert (runs[2][1], runs[3][1]) == ("565\t5\n", "565\n")
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["rows"]
    bench = (tmp_path / "bench.csv").read_bytes()
    assert bench.count(b"\n") == 11 and b"\r" not in bench
    # Command-line bytes that are not UTF-8 are a data error, never an internal one.
    proc = run_demo("-m", "hyperrag.cli", "query", "--index", index, "--query", b"\xff rain", cwd=tmp_path)
    assert proc.returncode == 2 and "holds bytes that are not UTF-8" in proc.stderr, proc.stderr
