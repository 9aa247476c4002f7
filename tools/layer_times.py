"""Wall time of each numerical layer of cpstein at small, medium and large parameters.

    python tools/layer_times.py [--quick]

Run from the root of a source checkout.  Each case calls one public function
on fixed parameters: one untimed call first (it loads numpy and fills
caches), then N timed calls.  The JSON on stdout gives, per layer and
size, the parameters, the median and the minimum of the timed calls in
seconds, N, and ``peak_mb``, the peak of memory that tracemalloc saw
allocated during the untimed call, in MiB (numpy reports its buffers to
tracemalloc; the timed calls run untraced); ``total_s`` is the wall time
of the whole run, import included.  ``--quick`` times the small case of
every layer with N = 3, in well under two seconds, as a smoke test; the
default times every case with N = 15.

The layers are those the benchmark's tracer names: ``theta`` and ``delta_k``
(the closed forms and the order-3 Bernstein enclosure), ``evaluate_all``
(the catalogue of one law), ``cli``, a whole one-law ``cpstein bounds
--rates`` through ``cli.main`` on the same rates with stdout written to
``os.devnull``, so that its excess over ``evaluate_all`` is the parse and
the print, ``cp_pmf``,
``empirical_factors`` and ``solve_stein`` (the Stein oracle at total rates
whose mean theta_0 is small, medium and large), each exact law, and
``distance``; ``verify`` is the whole check of a model, ``oracle.verify``:
the approximant's table, the oracle's sweep, the catalogue, the exact law
and the distance, on a gamma mixture, a runs law at n = 800 and a
reliability Monte Carlo law at n = 8 with 10 000 samples, in that order of
cost; ``sweep`` is a whole ``cpstein sweep`` command, reliability
sweeps of 16, 256 and 4096 rows through ``cli.main`` with stdout written
to ``os.devnull``, so that ``peak_mb`` is the command's own memory.
The parts of those sweeps are timed on the same q values: ``rate_columns``,
the model's rates; ``catalogue``, ``bounds.evaluate_columns`` on them (the
law checks, theta, and each of the five catalogue rows as one call of its
function over the columns of every law); ``sweep_table``, the whole table
of rows, ``cli._sweep_table``, of which the rates and the catalogue are
part and the rest is the best m1, the d_K bound and the columns; and
``sweep_print``, that table printed by ``cli._dumps_table`` to
``os.devnull``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cpstein import (  # noqa: E402
    CompoundPoissonParams,
    cp_pmf,
    delta_k_grid,
    distance,
    empirical_factors,
    evaluate_all,
    model_from_json,
    solve_stein,
    theta,
    verify,
)
from cpstein import bounds, cli  # noqa: E402
from cpstein.oracle import default_x_max  # noqa: E402

SUMS = [[0.7, 0.1, 0.1, 0.1], [0.6, 0.1, 0.3]]
RATES = {  # theta_0 = 1.4, 150 and 980
    "small": {"rates": [1.0, 0.2]},
    "medium": {"rates": [110.0, 20.0]},
    "large": {"rates": [800.0, 60.0, 20.0]},
}
RUNS = {
    "small": {"model": "runs", "n": 30, "p": 0.15},
    "medium": {"model": "runs", "n": 300, "p": 0.2},
    "large": {"model": "runs", "n": 2000, "p": 0.2},
}
SWEEP_RANGES = {"small": "0.05:0.8:16", "medium": "0.05:0.8:256", "large": "0.05:0.8:4096"}
# layer -> size -> parameters, as JSON
CASES = {
    "theta": RATES,
    "evaluate_all": RATES,
    "cli": {
        size: {"argv": ["bounds", "--rates", ",".join(map(str, given["rates"]))]}
        for size, given in RATES.items()
    },
    # order-3 enclosure: theta_2 >= 2 theta_1 leaves no closed form
    "delta_k": {
        "small": {"rates": [1.0, 0.0, 0.3], "k": 3},
        "medium": {"rates": [20.0, 2.0, 3.0], "k": 3},
        "large": {"rates": [300.0, 20.0, 40.0], "k": 3},
    },
    "cp_pmf": RATES,
    "empirical_factors": RATES,
    "solve_stein": RATES,  # y = floor(theta_0), default x_max
    "runs_exact_pmf": RUNS,
    "reliability_exact_pmf": {
        "small": {"model": "reliability", "n": 4, "k": 2, "q": 0.3},
        "medium": {"model": "reliability", "n": 7, "k": 2, "q": 0.3},
        "large": {"model": "reliability", "n": 9, "k": 2, "q": 0.3},
    },
    "reliability_mc_pmf": {
        "small": {"model": "reliability", "n": 6, "k": 2, "q": 0.3, "samples": 10_000},
        "medium": {"model": "reliability", "n": 10, "k": 2, "q": 0.3, "samples": 100_000},
        "large": {"model": "reliability", "n": 20, "k": 3, "q": 0.5, "samples": 100_000},
    },
    "mixed_exact_pmf": {
        "small": {"model": "mixed", "two_point": [2.5, 3.5, 0.5]},
        "medium": {"model": "mixed", "gamma": [17.3, 0.41]},
        "large": {"model": "mixed", "gamma": [60.0, 5.0]},
    },
    "sums_exact_pmf": {
        "small": {"model": "sums", "components": SUMS},
        "medium": {"model": "sums", "components": SUMS * 20},
        "large": {"model": "sums", "components": SUMS * 200},
    },
    "distance": RUNS,  # the runs law against its approximant
    "verify": {
        "small": {"model": "mixed", "gamma": [17.3, 0.41]},
        "medium": {"model": "runs", "n": 800, "p": 0.2},
        "large": {"model": "reliability", "n": 8, "k": 2, "q": 0.3, "samples": 10_000},
    },
    "sweep": {
        size: {"argv": ["sweep", "--model", "reliability", "--n", "10", "--k", "2",
                        "--q-range", q_range]}
        for size, q_range in SWEEP_RANGES.items()
    },
    **{
        layer: {
            size: {"model": "reliability", "n": 10, "k": 2, "q_range": q_range}
            for size, q_range in SWEEP_RANGES.items()
        }
        for layer in ("rate_columns", "catalogue", "sweep_table", "sweep_print")
    },
}


def _call(layer: str, given: dict):
    """A zero-argument call of ``layer`` on the parameters ``given``."""
    if "argv" in given:
        # one sink for every call, open until the run ends: opening one takes
        # 15-30 us, a tenth of a one-law command
        sink = open(os.devnull, "w")

        def command():
            with contextlib.redirect_stdout(sink):
                cli.main(given["argv"])

        return command
    if "q_range" in given:
        qs = cli._parse_range(given["q_range"], "--q-range")
        base = {k: v for k, v in given.items() if k != "q_range"}
        model = model_from_json(base | {"q": qs[0]})
        if layer == "rate_columns":
            return lambda: model.rate_columns(qs)
        if layer == "catalogue":
            rates = model.rate_columns(qs)
            return lambda: bounds.evaluate_columns(rates)
        if layer == "sweep_table":
            return lambda: cli._sweep_table(base, "q", qs)
        table = cli._sweep_table(base, "q", qs)
        sink = open(os.devnull, "w")
        return lambda: sink.writelines(cli._dumps_table(table, 1))
    if "rates" in given:
        params = CompoundPoissonParams(given["rates"])
        th = theta(params, 3)
        if layer == "theta":
            return lambda: theta(params, 3)
        if layer == "evaluate_all":
            return lambda: evaluate_all(params)
        if layer == "delta_k":
            return lambda: delta_k_grid(th, given["k"])
        if layer == "cp_pmf":
            return lambda: cp_pmf(params)
        if layer == "empirical_factors":
            return lambda: empirical_factors(params)
        y = int(th[0])
        x_max = default_x_max(params, y)
        return lambda: solve_stein(params, y, x_max)
    obj = {k: v for k, v in given.items() if k != "samples"}
    model = model_from_json(obj)
    if layer == "distance":
        a, b = model.exact_law(), cp_pmf(model.cp_params())
        return lambda: distance(a, b)
    law = {"exact": "samples" not in given, "samples": given.get("samples"), "seed": 1}
    law = {k: law[k] for k in model.law_keys}
    if layer == "verify":
        params = model.cp_params()
        return lambda: verify(params, model, **law)
    return lambda: model.exact_law(**law)


def _time(call, repeat: int) -> dict:
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "n": repeat,
        "peak_mb": peak / 2**20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small cases only, N = 3")
    args = parser.parse_args(argv)
    repeat = 3 if args.quick else 15
    sizes = ("small",) if args.quick else ("small", "medium", "large")
    out: dict = {"repeat": repeat, "layers": {}}
    for layer, cases in CASES.items():
        out["layers"][layer] = {
            size: {"params": given, **_time(_call(layer, given), repeat)}
            for size, given in cases.items()
            if size in sizes
        }
    out["total_s"] = perf_counter() - T_START
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
