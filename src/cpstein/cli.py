"""Batch command-line surface.

Subcommands:

* ``bounds``      - evaluate every Stein-factor bound for a parameter set
* ``verify``      - check bounds against the Stein-equation oracle and the
                    exact law of the model statistic
* ``sweep``       - evaluate bounds across a parameter grid
* ``stein-solve`` - dump one Stein-equation solution
* ``pmf``         - dump a distribution table

Output is JSON (default) or CSV, written atomically, with floats printed to
17 significant digits so regression files are exact.  Exit codes: 0 ok,
1 verification inequality violated, 2 usage error, 3 resource budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

from .bounds import best_of, evaluate_all
from .core import (
    CompoundPoissonParams,
    DistributionTable,
    TruncationCapError,
    cp_pmf,
    theta,
)
from .exact import (
    BudgetExceededError,
    distance,
    mixed_exact_pmf,
    reliability_exact_pmf,
    reliability_mc_pmf,
    runs_exact_pmf,
    sums_exact_pmf,
)
from .models import (
    GammaMixing,
    IndependentSumModel,
    MixedPoissonModel,
    ReliabilityModel,
    RunsModel,
    TwoPointMixing,
    cp_params_for,
    mixed_dk_bound,
    regime_classify,
    reliability_dk_bound,
    runs_dk_bound,
)
from .oracle import ConvergenceError, empirical_factors, solve_stein, verify_bound

DEFAULT_SEED = 12345
DEFAULT_MC_SAMPLES = 1_000_000

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """Malformed command-line input."""


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Minimal deterministic JSON emitter with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "inf" if math.isinf(v) else format(v, ".17g")
    return str(v)


def to_csv(rows: list[dict]) -> str:
    """Flatten homogeneous records to CSV with a stable column order."""
    if not rows:
        return ""
    header = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in header])
    return buf.getvalue()


def _emit(args, payload, csv_rows: list[dict] | None = None) -> str:
    if args.format == "csv":
        if csv_rows is None:
            raise UsageError("csv output is not defined for this subcommand")
        return to_csv(csv_rows)
    return dumps(payload) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# input construction

def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"malformed {what}: {text!r}") from exc


def _add_input_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rates", help="comma-separated cluster rates lambda_1..lambda_J")
    sp.add_argument(
        "--model", choices=["runs", "reliability", "mixed", "sums"], help="model tag"
    )
    sp.add_argument("--n", type=int, help="runs circle length / reliability grid side")
    sp.add_argument("--p", type=float, help="runs success probability")
    sp.add_argument("--k", type=int, help="reliability subgrid side")
    sp.add_argument("--q", type=float, help="reliability failure probability")
    sp.add_argument("--two-point", dest="two_point", help="mixed Poisson mixing a,b,w")
    sp.add_argument("--gamma", help="mixed Poisson gamma mixing shape,scale")
    sp.add_argument(
        "--components", help="sum components as semicolon-separated pmfs p0,p1,..."
    )


def _build_model(args):
    if args.model is None:
        return None
    if args.model == "runs":
        if args.n is None or args.p is None:
            raise UsageError("runs model requires --n and --p")
        return RunsModel(n=args.n, p=args.p)
    if args.model == "reliability":
        if args.n is None or args.k is None or args.q is None:
            raise UsageError("reliability model requires --n, --k and --q")
        return ReliabilityModel(n=args.n, k=args.k, q=args.q)
    if args.model == "mixed":
        if args.two_point is not None:
            vals = _parse_floats(args.two_point, "--two-point")
            if len(vals) != 3:
                raise UsageError("--two-point expects a,b,w")
            return MixedPoissonModel(TwoPointMixing(*vals))
        if args.gamma is not None:
            vals = _parse_floats(args.gamma, "--gamma")
            if len(vals) != 2:
                raise UsageError("--gamma expects shape,scale")
            return MixedPoissonModel(GammaMixing(*vals))
        raise UsageError("mixed model requires --two-point or --gamma")
    if args.model == "sums":
        if not args.components:
            raise UsageError("sums model requires --components")
        comps = [
            _parse_floats(part, "--components")
            for part in args.components.split(";")
            if part.strip() != ""
        ]
        return IndependentSumModel(comps)
    raise UsageError(f"unknown model {args.model!r}")


def _build_params(args) -> tuple[CompoundPoissonParams, object | None]:
    model = _build_model(args)
    if model is not None:
        return cp_params_for(model), model
    if args.rates is None:
        raise UsageError("provide --rates or --model")
    return CompoundPoissonParams(_parse_floats(args.rates, "--rates")), None


def _model_exact_pmf(model, args) -> DistributionTable:
    if isinstance(model, RunsModel):
        return runs_exact_pmf(model)
    if isinstance(model, ReliabilityModel):
        if getattr(args, "exact", False):
            return reliability_exact_pmf(model)
        return reliability_mc_pmf(model, samples=args.samples, seed=args.seed)
    if isinstance(model, MixedPoissonModel):
        return mixed_exact_pmf(model)
    if isinstance(model, IndependentSumModel):
        return sums_exact_pmf(model)
    raise UsageError("model has no exact law")


def _model_dk_bound(model, m1: float) -> float | None:
    if isinstance(model, RunsModel):
        return runs_dk_bound(model, m1)
    if isinstance(model, ReliabilityModel):
        return reliability_dk_bound(model, m1)
    if isinstance(model, MixedPoissonModel):
        return mixed_dk_bound(model, m1)
    return None


# ---------------------------------------------------------------------------
# subcommands

def cmd_bounds(args) -> tuple[int, str]:
    params, model = _build_params(args)
    th = theta(params, 3)
    bounds = evaluate_all(params, th=th)
    rows = [b.to_json() for b in bounds]
    best = best_of(bounds).to_json()
    payload = {
        "rates": list(params.rates),
        "theta": [th[i] for i in range(4)],
        "regime": regime_classify(th),
        "bounds": rows,
        "best": best,
    }
    if model is not None:
        payload["input"] = model.to_json()
    csv_rows = rows + [dict(best, method="BEST")]
    return EXIT_OK, _emit(args, payload, csv_rows)


def cmd_verify(args) -> tuple[int, str]:
    params, model = _build_params(args)
    emp = empirical_factors(params)
    checks = []
    all_ok = True
    bounds = evaluate_all(params)
    for b in bounds:
        if not b.applicable:
            continue
        rep = verify_bound(params, b, emp=emp)
        checks.append(rep.to_json())
        all_ok = all_ok and rep.passed
    payload = {
        "rates": list(params.rates),
        "empirical": {
            "m0_hat": emp.m0_hat,
            "m1_hat": emp.m1_hat,
            "y_max": emp.y_max,
            "x_max": emp.x_max,
        },
        "checks": checks,
    }
    if model is not None:
        payload["input"] = model.to_json()
        exact_table = _model_exact_pmf(model, args)
        approx_table = cp_pmf(params)
        rep = distance(exact_table, approx_table)
        payload["distance"] = rep.to_json()
        bb = best_of(bounds)
        dk_bound = _model_dk_bound(model, bb.m1)
        if dk_bound is not None:
            upper = rep.d_k + rep.certified_slack - 4.0 * rep.mc_stderr
            dk_ok = upper <= dk_bound
            payload["dk_bound"] = dk_bound
            payload["dk_bound_method"] = bb.method
            payload["vacuous"] = dk_bound > 1.0
            payload["dk_pass"] = dk_ok
            all_ok = all_ok and dk_ok
    payload["pass"] = all_ok
    return (EXIT_OK if all_ok else EXIT_VIOLATION), _emit(args, payload, [payload])


def _parse_range(text: str, what: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{what} expects start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"malformed {what}: {text!r}") from exc
    if count < 1:
        raise UsageError(f"{what} count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def cmd_sweep(args) -> tuple[int, str]:
    rows = []
    if args.model == "runs":
        if args.n is None or args.p_range is None:
            raise UsageError("runs sweep requires --n and --p-range")
        for p in _parse_range(args.p_range, "--p-range"):
            rows.append(_sweep_row(RunsModel(n=args.n, p=p), {"n": args.n, "p": p}))
    elif args.model == "reliability":
        if args.n is None or args.k is None or args.q_range is None:
            raise UsageError("reliability sweep requires --n, --k and --q-range")
        for q in _parse_range(args.q_range, "--q-range"):
            rows.append(
                _sweep_row(
                    ReliabilityModel(n=args.n, k=args.k, q=q),
                    {"n": args.n, "k": args.k, "q": q},
                )
            )
    else:
        raise UsageError("sweep supports --model runs or reliability")
    payload = {"model": args.model, "rows": rows}
    return EXIT_OK, _emit(args, payload, rows)


def _sweep_row(model, param_cols: dict) -> dict:
    row = {"model": model.to_json()["model"], **param_cols}
    params = cp_params_for(model)
    th = theta(params, 3)
    for i in range(4):
        row[f"theta{i}"] = th[i]
    bounds = evaluate_all(params, th=th)
    for b in bounds:
        key = b.method.split("(")[0].lower()
        row[f"{key}_applicable"] = b.applicable
        row[f"{key}_m1"] = b.m1
    bb = best_of(bounds)
    row["best_method"] = bb.method
    row["best_m1"] = bb.m1
    dk = _model_dk_bound(model, bb.m1)
    row["dk_bound"] = dk
    row["vacuous"] = None if dk is None else dk > 1.0
    return row


def cmd_stein_solve(args) -> tuple[int, str]:
    params, _ = _build_params(args)
    if args.y is None:
        raise UsageError("stein-solve requires --y")
    if args.x_max is not None:
        x_max = args.x_max
    else:
        th = theta(params, 1)
        J = params.max_cluster_size
        x_max = int(
            math.ceil(
                max(
                    4.0 * (th[0] + 10.0 * math.sqrt(th[0] + th[1])),
                    args.y + 20.0 * J,
                )
            )
        )
    sol = solve_stein(params, args.y, x_max)
    payload = {
        "rates": list(params.rates),
        "y": sol.y,
        "x_max": sol.x_max,
        "eh_u": sol.eh_u,
        "residual0": sol.residual0,
        "f": [float(v) for v in sol.f],
    }
    csv_rows = [
        {"x": x, "f": float(v)} for x, v in enumerate(sol.f)
    ]
    return EXIT_OK, _emit(args, payload, csv_rows)


def cmd_pmf(args) -> tuple[int, str]:
    params, model = _build_params(args)
    if model is not None and args.law == "exact":
        table = _model_exact_pmf(model, args)
    else:
        table = cp_pmf(params)
    payload = table.to_json()
    if table.stderr is not None:
        payload["stderr"] = [float(s) for s in table.stderr]
    csv_rows = [
        {"x": x, "probability": float(v)} for x, v in enumerate(table.pmf)
    ]
    return EXIT_OK, _emit(args, payload, csv_rows)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpstein",
        description="Compound Poisson Stein-factor bounds and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        _add_input_args(sp)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--output", help="write to file (atomic) instead of stdout")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)

    sp = sub.add_parser("bounds", help="evaluate all Stein-factor bounds")
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="verify bounds against oracles")
    common(sp)
    sp.add_argument(
        "--exact",
        action="store_true",
        help="use exhaustive enumeration for the reliability law",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="evaluate bounds over a parameter grid")
    common(sp)
    sp.add_argument("--p-range", dest="p_range", help="runs sweep start:stop:count")
    sp.add_argument("--q-range", dest="q_range", help="reliability sweep start:stop:count")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("stein-solve", help="dump one Stein-equation solution")
    common(sp)
    sp.add_argument("--y", type=int, help="test-function threshold")
    sp.add_argument("--x-max", dest="x_max", type=int, help="truncation point")
    sp.set_defaults(func=cmd_stein_solve)

    sp = sub.add_parser("pmf", help="dump a distribution table")
    common(sp)
    sp.add_argument(
        "--law",
        choices=["exact", "approx"],
        default="exact",
        help="exact model law (default) or compound Poisson approximant",
    )
    sp.add_argument(
        "--exact",
        action="store_true",
        help="use exhaustive enumeration for the reliability law",
    )
    sp.set_defaults(func=cmd_pmf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, TruncationCapError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
