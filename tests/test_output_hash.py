"""``tools/output_hash.py``: its hash over a few commands, without the full set."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_hash.py"
spec = importlib.util.spec_from_file_location("output_hash", TOOL)
output_hash = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_hash)

COMMANDS = [
    ["bounds", "--rates", "1.0,0.2"],
    ["pmf", "--rates", "2", "--law", "exact"],  # a usage error: exit 2, stderr
    ["bounds", "--rate", "5"],  # argparse exits
]


def test_hash_is_deterministic_and_sees_each_argv():
    first = output_hash.output_hash(COMMANDS)
    assert len(first) == 64
    assert output_hash.output_hash(COMMANDS) == first
    changed = [COMMANDS[0][:2] + ["1.0,0.3"], *COMMANDS[1:]]
    assert output_hash.output_hash(changed) != first
    assert output_hash.output_hash(COMMANDS[:2]) != first
