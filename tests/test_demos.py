"""Smoke test: every script under demos/, and the README's library quickstart, runs to completion."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
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


def test_readme_quickstart_prints_its_ranking():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Quickstart \(library\)\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, "README.md has no '## Quickstart (library)' section"
    blocks = re.findall(r"^```python\n(.*?)^```", section.group(1), re.M | re.S)
    assert blocks, "the quickstart holds no python block"
    # The blocks run in order in one process, as a reader would paste them.
    proc = run_demo("-c", "\n".join(blocks))
    assert proc.returncode == 0, proc.stderr
    assert "['565', '246', '535']" in proc.stdout.splitlines()
