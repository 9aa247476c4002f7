"""Smoke test of ``tools/layer_times.py``: its quick run times every layer
and reports the memory of its untimed call."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_times.py"

LAYERS = {
    "theta",
    "evaluate_all",
    "cli",
    "delta_k",
    "cp_pmf",
    "empirical_factors",
    "solve_stein",
    "runs_exact_pmf",
    "reliability_exact_pmf",
    "reliability_mc_pmf",
    "mixed_exact_pmf",
    "sums_exact_pmf",
    "distance",
    "verify",
    "sweep",
    "rate_columns",
    "catalogue",
    "sweep_table",
    "sweep_print",
}


def test_layer_times_quick():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--quick"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert set(doc["layers"]) == LAYERS
    for layer, sizes in doc["layers"].items():
        assert list(sizes) == ["small"], layer
        case = sizes["small"]
        assert case["n"] == doc["repeat"] == 3
        assert 0.0 < case["min_s"] <= case["median_s"], layer
        assert 0.0 < case["peak_mb"] < 64.0, layer
        assert case["params"], layer
