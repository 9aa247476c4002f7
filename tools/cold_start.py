"""Cold wall time of cpstein commands as a user runs them, import included.

    python tools/cold_start.py [--quick] [--src DIR ...]

Run from the root of a source checkout.  Each command below runs as
``python -m cpstein <argv>`` in a fresh interpreter, with stdout to
``os.devnull``, N = 21 times, interleaved across commands, bytecode
modes and source trees, each round in the reverse tree order of the one
before.  ``interpreter`` is ``python -c pass``, the floor under every
command.  The two bytecode modes:

* ``off``: ``PYTHONDONTWRITEBYTECODE=1``, so each start compiles the
  package's sources, unless the tree holds bytecode of its own
  (``pycache_in_tree``); the standard library reads its installed bytecode;
* ``cached``: bytecode written to and read from a temporary
  ``PYTHONPYCACHEPREFIX`` directory, filled by one untimed run of each
  command first, so that the tree stays clean.

The JSON on stdout gives, per tree (``--src``, default ``src``; give it
twice to compare two checkouts), mode and command, the median and the
quartiles in seconds, and per command the ``cpstein.*`` modules and numpy
that it loaded, read from ``sys.modules`` in one more run through the same
``-m`` path.  ``--quick`` runs each command once (N = 1), as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# runs of each command
N = 21

COMMANDS = {
    "interpreter": None,
    "bounds": ["bounds", "--rates", "1"],
    "sweep": ["sweep", "--model", "runs", "--n", "50", "--p-range", "0.05:0.3:5"],
    "pmf": ["pmf", "--rates", "12.5"],
    "verify": ["verify", "--rates", "5.3"],
    "stein-solve": ["stein-solve", "--rates", "1.0,0.2", "--y", "2"],
}

# runs ``python -m cpstein argv`` as -m does, then lists what it loaded
_LOADED = """\
import contextlib, io, json, runpy, sys
sys.argv = ["cpstein", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("cpstein", run_name="__main__", alter_sys=True)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("cpstein.") or m == "numpy")))
"""


def _env(src: str, mode: str, prefix: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    if mode == "off":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def _argv(name: str) -> list[str]:
    argv = COMMANDS[name]
    return [sys.executable, *(["-c", "pass"] if argv is None else ["-m", "cpstein", *argv])]


def _run(argv: list[str], env: dict[str, str], cwd: str) -> float:
    """Seconds from starting ``argv`` until it exited; it must exit 0."""
    t0 = perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def _summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="one run of each command")
    parser.add_argument("--src", action="append", type=Path,
                        help="directory holding the cpstein package (default: src)")
    args = parser.parse_args(argv)
    n = 1 if args.quick else N
    trees = [str(t.resolve()) for t in args.src or [ROOT / "src"]]
    modes = ("off", "cached")
    commands = [c for c in COMMANDS if COMMANDS[c] is not None]
    times = {(t, m, c): [] for t in trees for m in modes for c in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "pycache")
        envs = {(t, m): _env(t, m, prefix) for t in trees for m in modes}
        for t in trees:
            for c in COMMANDS:
                _run(_argv(c), envs[t, "cached"], tmp)
        for i in range(n):
            for t in trees if i % 2 == 0 else trees[::-1]:
                for m in modes:
                    for c in COMMANDS:
                        times[t, m, c].append(_run(_argv(c), envs[t, m], tmp))
        loaded = {
            (t, c): json.loads(subprocess.run(
                [sys.executable, "-c", _LOADED, *COMMANDS[c]], env=envs[t, "off"], cwd=tmp,
                capture_output=True, text=True, check=True).stdout)
            for t in trees for c in commands
        }
    doc = {
        "n": n,
        "python": platform.python_version(),
        "commands": {c: "python -c pass" if a is None else "cpstein " + " ".join(a)
                     for c, a in COMMANDS.items()},
        "trees": {
            t: {
                "pycache_in_tree": Path(t, "cpstein", "__pycache__").is_dir(),
                "modules": {c: loaded[t, c] for c in commands},
                **{m: {c: _summary(times[t, m, c]) for c in COMMANDS} for m in modes},
            }
            for t in trees
        },
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
