"""Time two source trees of cpstein against each other in one process.

    python tools/ab.py --parent REV [--case NAME ...] [--workload NAME [--seed S]]
                       [--pairs N] [--load-order {parent,change}] [--quick]

Run from the root of a git checkout.  REV's ``src/cpstein`` is extracted
with ``git archive`` into a temporary directory as the package
``cpstein_parent`` and loaded beside this tree's ``src/cpstein``: every
import inside the package is relative, so the two load side by side.

The cases are ``tools/layer_times.py``'s, named ``LAYER/SIZE``;
``--case LAYER`` takes every size of a layer, and the default is every case
(``--quick``: every small one).  Each case's call is built once per tree.
``--workload`` adds one case per job class of that workload's job list at
``--seed`` (default 7), as ``tools/output_hash.py`` reads it, named
``WORKLOAD:CLASS``: a call is one pass over the class's jobs through
``cli.main``, stdout and stderr to ``os.devnull``.  With ``--workload``
and no ``--case`` only the job classes run.

Each case runs WARMUP calls on each tree, then N pairs (``--pairs``), the
order swapped each pair.  The JSON on stdout gives per case each side's
median in seconds, the median of the pair ratio change / parent with its
quartiles, the pairs the change won, and ``gain``, the gain rule: the
change won at least 9 pairs in 10 and the median gain 1 - ratio exceeds the
ratio's interquartile range.  On every case that runs ``cli.main`` (a
layer_times ``argv`` case or a job class) the two trees' stdout is compared
byte for byte, from one more untimed run of each command: ``stdout`` is
"same" or "differs", a class also gives ``jobs_differ`` of its ``jobs``, and
``stdout_differs`` names the cases that differ.  With ``--workload``,
``workload_total`` sums each side's class medians, all of the run's job
time.  ``--quick`` runs the small cases with one warm-up call and 5 pairs,
in a few seconds, as a smoke test.

Limits.  One process sees no import, interpreter start or fresh heap;
``tools/cold_start.py`` with ``--src`` twice times those.  The two trees
share numpy, the interpreter and its caches.  Their module objects sit at
different addresses, so an effect of memory layout can still differ between
them: alternating call by call cancels drift in time, not such a
difference.  A ratio near 1.00 needs a second run with the trees' load
order swapped (``--load-order change``; the default builds the parent's
calls, and so loads its modules, first).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

import layer_times
import output_hash

ROOT = Path(__file__).resolve().parent.parent
WARMUP = 5
PAIRS = 40


def _load_parent(rev: str, tmp: str):
    """REV's ``src/cpstein``, extracted under ``tmp`` and imported as ``cpstein_parent``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/cpstein"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp, filter="data")
    os.rename(os.path.join(tmp, "src", "cpstein"), os.path.join(tmp, "cpstein_parent"))
    sys.path.insert(0, tmp)
    return importlib.import_module("cpstein_parent")


def _stdout(pkg, argvs) -> list[str]:
    """What ``cli.main`` of ``pkg`` prints on each command line."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
        out.append(buf.getvalue())
    return out


def _jobs_pass(pkg, argvs, sink):
    """One pass over the command lines ``argvs`` through ``cli.main`` of ``pkg``."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")

    def run():
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                cli.main(list(argv))

    return run


def _pairs(calls, warmup: int, pairs: int) -> list[tuple[float, float]]:
    """(parent, change) seconds of each pair, after ``warmup`` calls of each;
    the change goes first in odd pairs."""
    for _ in range(warmup):
        for call in calls:
            call()
    out = []
    for i in range(pairs):
        t = [0.0, 0.0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = perf_counter()
            calls[side]()
            t[side] = perf_counter() - t0
        out.append((t[0], t[1]))
    return out


def _summary(times: list[tuple[float, float]]) -> dict:
    ratios = [c / p for p, c in times]
    q1, ratio, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(c < p for p, c in times)
    return {
        "parent_s": statistics.median(p for p, _ in times),
        "change_s": statistics.median(c for _, c in times),
        "ratio": ratio,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "wins": wins,
        "pairs": len(times),
        "gain": wins >= 0.9 * len(times) and 1.0 - ratio > q3 - q1,
    }


def _selected(names: list[str] | None, quick: bool) -> list[tuple[str, str]]:
    """(layer, size) of the cases asked for, in layer_times' order."""
    cases = [(layer, size) for layer, sizes in layer_times.CASES.items() for size in sizes
             if not quick or size == "small"]
    if names is None:
        return cases
    unknown = set(names) - {n for layer, size in cases for n in (layer, f"{layer}/{size}")}
    if unknown:
        raise SystemExit(f"unknown case: {', '.join(sorted(unknown))}")
    return [(layer, size) for layer, size in cases
            if layer in names or f"{layer}/{size}" in names]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the other tree")
    parser.add_argument("--case", action="append", help="LAYER or LAYER/SIZE of layer_times")
    parser.add_argument("--workload", action="append", default=[],
                        help="also time each job class of this workload")
    parser.add_argument("--seed", type=int, default=output_hash.SEED,
                        help="seed of the workloads' job lists")
    parser.add_argument("--pairs", type=int, help=f"pairs per case (default {PAIRS})")
    parser.add_argument("--load-order", choices=("parent", "change"), default="parent",
                        help="whose calls are built, and modules loaded, first")
    parser.add_argument("--quick", action="store_true", help="small cases, 1 warm-up, 5 pairs")
    args = parser.parse_args(argv)
    warmup, pairs = (1, 5) if args.quick else (WARMUP, PAIRS)
    pairs = args.pairs or pairs
    if pairs < 2:
        parser.error("--pairs must be at least 2")
    cases = [] if args.workload and args.case is None else _selected(args.case, args.quick)
    change = layer_times.cpstein
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    out: dict = {"parent": commit, "warmup": warmup, "pairs": pairs,
                 "python": platform.python_version(), "cases": {}}
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        parent = _load_parent(args.parent, tmp)
        trees = (parent, change) if args.load_order == "parent" else (change, parent)
        for layer, size in cases:
            given = layer_times.CASES[layer][size]
            built = {pkg: layer_times._call(layer, given, pkg) for pkg in trees}
            case = _summary(_pairs([built[parent], built[change]], warmup, pairs))
            if "argv" in given:
                same = _stdout(parent, [given["argv"]]) == _stdout(change, [given["argv"]])
                case["stdout"] = "same" if same else "differs"
            out["cases"][f"{layer}/{size}"] = case
        for workload in args.workload:
            classes: dict[str, list] = {}
            for job in output_hash.workload_jobs(workload, args.seed):
                classes.setdefault(job.cls, []).append(job.argv)
            for cls, argvs in classes.items():
                built = {pkg: _jobs_pass(pkg, argvs, sink) for pkg in trees}
                case = _summary(_pairs([built[parent], built[change]], warmup, pairs))
                differ = sum(a != b for a, b in zip(_stdout(parent, argvs), _stdout(change, argvs)))
                case.update(jobs=len(argvs), jobs_differ=differ,
                            stdout="differs" if differ else "same")
                out["cases"][f"{workload}:{cls}"] = case
            parts = [c for name, c in out["cases"].items() if name.startswith(f"{workload}:")]
            total = [sum(c[side] for c in parts) for side in ("parent_s", "change_s")]
            out.setdefault("workload_total", {})[workload] = {
                "parent_s": total[0], "change_s": total[1], "ratio": total[1] / total[0]}
    out["stdout_differs"] = [name for name, c in out["cases"].items()
                             if c.get("stdout") == "differs"]
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
