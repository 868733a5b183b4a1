"""Smoke test: every script under demos/ runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
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
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    if script.name == "01_build_and_query.py":
        for rank_pos, doc_id in enumerate(["565", "246", "535"], start=1):
            assert f"  {rank_pos}. doc {doc_id} " in proc.stdout
