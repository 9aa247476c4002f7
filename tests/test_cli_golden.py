"""Golden regression for the command line: a fixed command set against stored output.

Each command runs in-process through ``cpstein.cli.main``.  Exit codes and
stderr must match exactly; stdout is parsed (JSON, or CSV for
``--format csv``, whose dict and list cells are JSON) and compared
with strings, ints and bools exact and floats at rtol 1e-12, so a refactor
that keeps the numbers passes and one that changes them fails.

The command set covers every subcommand, every model and both mixing laws,
``--exact``, seeded Monte Carlo, CSV output and the usage and budget errors.
It also pins inputs beyond the reach of a one-sided Stein recursion or of a
pmf recursion started from e^{-lambda}: ``verify --rates 50``, a
``stein-solve`` at total rate 121.92 and ``pmf --rates 800``.

To regenerate ``data/cli_golden.json`` after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root.
It rewrites only the fields that fail the comparison above (the exit code,
stderr, or single leaves of stdout), and writes new entries whole, so the
diff shows the intended change and nothing else.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import shlex
import sys
from pathlib import Path

import pytest

from cpstein.cli import _csv_cell, dumps, main
from cpstein.oracle import poisson_stein_forward

DATA = Path(__file__).parent / "data" / "cli_golden.json"
RTOL = 1e-12

SUMS = "0.7,0.1,0.1,0.1;0.6,0.1,0.3"

COMMANDS = [
    # bounds
    "bounds --rates 1.0,0.2",
    "bounds --rates 8 --format csv",
    "bounds --rates 0.5,0.25,0.1",
    "bounds --rates 151.36,71.0009,54.0361",
    "bounds --model runs --n 50 --p 0.2",
    "bounds --model runs --n 50 --p 0.45",
    "bounds --model runs --n 100 --p 0.1 --format csv",
    "bounds --model reliability --n 10 --k 2 --q 0.3",
    "bounds --model mixed --two-point 2.5,3.5,0.5",
    "bounds --model mixed --gamma 17.3,0.41",
    f"bounds --model sums --components {SUMS}",
    # verify
    "verify --rates 8",
    "verify --rates 1.0,0.2",
    "verify --model runs --n 30 --p 0.15",
    "verify --model runs --n 30 --p 0.15 --format csv",
    "verify --rates 50",
    "verify --model reliability --n 4 --k 2 --q 0.3 --exact",
    "verify --model reliability --n 6 --k 2 --q 0.3 --samples 20000 --seed 7",
    "verify --model mixed --two-point 2.5,3.5,0.5",
    "verify --model mixed --gamma 17.3,0.41",
    f"verify --model sums --components {SUMS}",
    # sweep
    "sweep --model runs --n 50 --p-range 0.05:0.45:5",
    "sweep --model runs --n 50 --p-range 0.05:0.25:3 --format csv",
    "sweep --model reliability --n 10 --k 2 --q-range 0.2:0.5:4",
    "sweep --model reliability --n 30 --k 2 --q-range 0.1:0.9:8",
    # stein-solve
    "stein-solve --rates 8 --y 3 --x-max 60",
    "stein-solve --rates 1.0,0.2 --y 2",
    "stein-solve --model runs --n 30 --p 0.15 --y 1 --format csv",
    "stein-solve --rates 121.92 --y 113",
    # pmf
    "pmf --model runs --n 3 --p 0.5",
    "pmf --model runs --n 20 --p 0.3 --law approx",
    "pmf --model runs --n 12 --p 0.4 --format csv",
    "pmf --rates 0.5,0.25",
    "pmf --rates 2,1 --format csv",
    "pmf --rates 800",
    "pmf --model reliability --n 4 --k 2 --q 0.3 --exact",
    "pmf --model reliability --n 5 --k 2 --q 0.3 --samples 20000 --seed 1",
    "pmf --model mixed --two-point 2.5,3.5,0.5",
    "pmf --model mixed --gamma 17.3,0.41",
    f"pmf --model sums --components {SUMS}",
    # usage errors (exit 2) and budget errors (exit 3)
    "bounds",
    "bounds --rates 1.0,abc",
    "pmf --rates 0",
    "bounds --model runs --n 50",
    "bounds --model runs --n 2 --p 0.1",
    "bounds --model reliability --n 10 --q 0.3",
    "bounds --model reliability --n 3 --k 2 --q 0.3",
    "bounds --model mixed",
    "bounds --model mixed --two-point 1,2",
    "bounds --model mixed --gamma 1,2,3",
    "bounds --model mixed --gamma 2,1.5",
    "bounds --model sums",
    "verify --model mixed --gamma 2,1.5",
    "pmf --model mixed --two-point 1,5,0.5 --law approx",
    "sweep --model runs --n 50",
    "sweep --model reliability --n 10 --q-range 0.1:0.2:2",
    "sweep --model runs --n 50 --p-range 0.1:0.2",
    "sweep --model runs --n 50 --k 2 --p-range 0.1:0.2:2",
    "stein-solve --rates 8",
    "bounds --rates 1 --format csv --model runs --n 3",
    "stein-solve --rates 8 --y 3 --format json --x-max 0",
    "verify --model reliability --n 6 --k 2 --q 0.3 --exact",
    "verify --model reliability --n 12 --k 2 --q 0.3 --exact",
    "pmf --model runs --n 5000 --p 0.1",
    # past cp_pmf's truncation cap, past the oracle's cell budget, and
    # rates whose bound formulas overflow: exit 3, 3, 3 and 0
    "pmf --rates 1e308",
    "verify --rates 1e300",
    "verify --rates 1e5",
    "bounds --rates 1e308",
]


def run(command: str) -> dict:
    """Run one command line in-process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    if text[:1] in ("{", "["):
        return json.loads(text)
    return text


def _parse(command: str, stdout: str):
    if not stdout:
        return None
    if "--format csv" in command:
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(stdout))]
    return json.loads(stdout)


def _unparse(command: str, value) -> str:
    """Inverse of ``_parse``: stdout as the command line prints ``value``."""
    if value is None:
        return ""
    if "--format csv" not in command:
        return dumps(value) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [_csv_cell(c) for c in row] for row in value
    )
    return buf.getvalue()


def _assert_same(got, want, where: str) -> None:
    if isinstance(want, float) or (isinstance(got, float) and isinstance(want, int)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        close = math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
        assert close, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def _check(command: str, got: dict, want: dict) -> None:
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    got_out, want_out = _parse(command, got["stdout"]), _parse(command, want["stdout"])
    _assert_same(got_out, want_out, "stdout")


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_matches_golden(command, golden):
    _check(command, run(command), golden[command])


def test_cli_matches_golden_without_scipy(golden, monkeypatch):
    # numpy is the only runtime dependency: with scipy unimportable every
    # command prints its stored output, and the one function that needs it,
    # the test reference poisson_stein_forward, names the extra to install
    monkeypatch.setitem(sys.modules, "scipy", None)
    for command in COMMANDS:
        _check(command, run(command), golden[command])
    with pytest.raises(ImportError, match=r"pip install 'cpstein\[test\]'"):
        poisson_stein_forward(2.0, 3, 10)


def test_golden_covers_exactly_the_command_set(golden):
    assert sorted(golden) == sorted(COMMANDS)


def test_golden_stdout_is_what_its_parse_prints(golden):
    # so that regeneration can rewrite single leaves of a stored stdout
    for command, entry in golden.items():
        assert _unparse(command, _parse(command, entry["stdout"])) == entry["stdout"], command


def test_csv_cells_are_scalars_or_json():
    # a list or dict cell is one line of JSON, which any JSON reader parses
    for command in COMMANDS:
        if "--format csv" in command:
            for row in csv.reader(io.StringIO(run(command)["stdout"])):
                for cell in row:
                    if cell[:1] in ("{", "["):
                        assert isinstance(json.loads(cell), (dict, list)), (command, cell)


@pytest.mark.parametrize(
    "command", ["verify --rates 8", "verify --model runs --n 30 --p 0.15 --format csv"]
)
def test_regeneration_rewrites_only_failing_fields(command, golden):
    want = golden[command]
    doc = _parse(command, want["stdout"])
    moved, kept = copy.deepcopy(doc), copy.deepcopy(doc)
    leaves = (lambda d: d["empirical"]) if isinstance(doc, dict) else (lambda d: d[1][1])
    leaves(moved)["m0_hat"] *= 1.0 + 1e-9  # fails RTOL: this run's value is stored
    leaves(moved)["m1_hat"] *= 1.0 + 1e-14  # within RTOL: the stored digits stay
    leaves(kept)["m0_hat"] = leaves(moved)["m0_hat"]
    got = {"code": want["code"], "stdout": _unparse(command, moved), "stderr": "moved\n"}
    entry = _rewrite(command, got, want)
    assert entry == {"code": want["code"], "stdout": _unparse(command, kept), "stderr": "moved\n"}
    assert entry["stdout"] != want["stdout"]


def _merge(got, want):
    """``got``, with every part that passes ``_assert_same`` against ``want``
    taken from ``want``: a changed leaf moves, its neighbours keep their
    stored digits."""
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        return {key: _merge(got[key], want[key]) for key in want}
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [_merge(g, w) for g, w in zip(got, want)]
    try:
        _assert_same(got, want, "")
    except AssertionError:
        return got
    return want


def _rewrite(command: str, got: dict, want: dict) -> dict:
    """The entry to store for a run ``got`` that fails ``_check`` against the
    stored ``want``.  Code and stderr compare exactly, so they are this
    run's.  Stdout is merged leaf by leaf (``_merge``) when the stored text
    is what the command line prints for its own parse, and taken whole
    otherwise."""
    out = want["stdout"]
    try:
        got_out, want_out = _parse(command, got["stdout"]), _parse(command, want["stdout"])
        _assert_same(got_out, want_out, "stdout")
    except ValueError:  # a stdout that does not parse
        out = got["stdout"]
    except AssertionError:
        out = got["stdout"]
        if _unparse(command, want_out) == want["stdout"]:
            out = _unparse(command, _merge(got_out, want_out))
    return {"code": got["code"], "stdout": out, "stderr": got["stderr"]}


def regenerate() -> list[str]:
    """Rewrite the golden file; return the commands whose entry changed.

    A stored entry that still passes ``_check`` is kept byte for byte, so
    output that moves only within RTOL (last digits on another host or
    numpy build) leaves no diff; in an entry that fails it only the failing
    fields are rewritten (``_rewrite``), and new commands are written from
    this run.  Entries of commands no longer in COMMANDS are dropped.
    """
    if not __debug__:
        raise SystemExit("_check compares by assert: run without -O")
    stored = json.loads(DATA.read_text()) if DATA.exists() else {}
    table, changed = {}, []
    for command in COMMANDS:
        got = run(command)
        if command not in stored:
            table[command] = got
            changed.append(command)
            continue
        try:
            _check(command, got, stored[command])
            table[command] = stored[command]
        except (AssertionError, ValueError):
            table[command] = _rewrite(command, got, stored[command])
            changed.append(command)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1) + "\n")
    return changed


if __name__ == "__main__":
    changed = regenerate()
    for command in changed:
        print(f"rewrote: {command}", file=sys.stderr)
    print(f"{len(changed)} of {len(COMMANDS)} entries rewritten in {DATA}", file=sys.stderr)
