"""One sha256 over everything the command line prints for a fixed command set.

    python tools/output_hash.py

Run from the root of a source checkout; the tool takes no options.  The
command set is the golden commands of ``tests/data/cli_golden.json``, in file
order, then for each workload of ``cpbench/workloads.py`` the job list of a
20-second run at seed 7.  Each command runs in-process through
``cpstein.cli.main``, and the hash covers, for each in order, its argv, its
exit code (or the exception that escaped ``main``), its stdout and its
stderr.  The tool prints the number of commands and the hash, and writes no
file.

A change meant to leave every output as it is passes when this prints the
same line before and after it.  The full set, about 3700 commands, takes
about 12 s on a 2-vCPU host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
WORKLOADS = ("rates-heavy", "models-exact", "bounds-grid")
SEED = 7
SECONDS = 20


def workload_jobs(workload: str, seed: int) -> list:
    """The job list of a ``SECONDS``-second run of ``workload`` at ``seed``."""
    sys.dont_write_bytecode = True  # import the workloads without a __pycache__
    sys.path.insert(0, str(ROOT / "cpbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "cpbench"))
    return workloads.make_jobs(workload, seed, workloads.rounds_for(workload, SECONDS))


def commands() -> list[list[str]]:
    """The golden commands, then the seed-7 job lists of every workload."""
    argvs = [shlex.split(c) for c in json.loads(GOLDEN.read_text())]
    for w in WORKLOADS:
        argvs.extend(list(job.argv) for job in workload_jobs(w, SEED))
    return argvs


def output_hash(argvs: list[list[str]]) -> str:
    """sha256 of (argv, exit code, stdout, stderr) of each command, in order."""
    from cpstein import cli

    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
        record = [list(argv), code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    argvs = commands()
    print(f"{len(argvs)} commands sha256 {output_hash(argvs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
