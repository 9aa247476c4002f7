"""Smoke test of ``tools/ab.py``: its quick run times every small case of
``tools/layer_times.py`` on two trees and compares the command cases' stdout."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_layer_times import LAYERS

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"

COMMANDS = {"cli", "sweep"}  # the layers whose cases run cli.main
IN_GIT = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode == 0


@pytest.mark.skipif(not IN_GIT, reason="needs a git checkout")
def test_ab_quick():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", "HEAD", "--quick"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert (doc["warmup"], doc["pairs"]) == (1, 5)
    assert sorted(doc["cases"]) == sorted(f"{layer}/small" for layer in LAYERS)
    for name, case in doc["cases"].items():
        assert 0.0 < case["parent_s"] and 0.0 < case["change_s"], name
        assert 0.0 < case["ratio_q1"] <= case["ratio"] <= case["ratio_q3"], name
        assert 0 <= case["wins"] <= case["pairs"] == 5, name
        assert isinstance(case["gain"], bool), name
        command = name.split("/")[0] in COMMANDS
        assert (case.get("stdout") in ("same", "differs")) == command, name
    assert doc["stdout_differs"] == [
        name for name, case in doc["cases"].items() if case.get("stdout") == "differs"
    ]
