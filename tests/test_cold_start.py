"""Smoke test of ``tools/cold_start.py``: its quick run times every command
once in both bytecode modes and lists the modules each loaded."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cold_start.py"

COMMANDS = ["interpreter", "bounds", "sweep", "pmf", "verify", "stein-solve"]


def test_cold_start_quick():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--quick"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["n"] == 1
    assert list(doc["commands"]) == COMMANDS
    (tree,) = doc["trees"].values()
    assert set(tree) == {"pycache_in_tree", "modules", "off", "cached"}
    assert list(tree["modules"]) == COMMANDS[1:]
    for command, modules in tree["modules"].items():
        assert "cpstein.cli" in modules, command
        assert set(modules) <= {f"cpstein.{m}" for m in (
            "cli", "core", "bounds", "oracle", "models", "exact")} | {"numpy"}, command
    for mode in ("off", "cached"):
        assert list(tree[mode]) == COMMANDS
        for case in tree[mode].values():
            assert 0.0 < case["q1_s"] <= case["median_s"] <= case["q3_s"]
