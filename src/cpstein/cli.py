"""Batch command-line surface.

Subcommands:

* ``bounds``      - evaluate every Stein-factor bound for a parameter set
* ``verify``      - check bounds against the Stein-equation oracle and the
                    exact law of the model statistic
* ``sweep``       - evaluate bounds across a parameter grid
* ``stein-solve`` - dump one Stein-equation solution
* ``pmf``         - dump a distribution table

A command is parsed by its own parser, with the full parser as fallback.
Output is JSON (default) or CSV, with floats printed to 17 significant
digits so regression files are exact.  It is written as it is formed, to
stdout or, atomically, to ``--output``.  Exit codes: 0 ok, 1 verification
inequality violated, 2 usage error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import fields
from itertools import chain, repeat
from operator import itemgetter

from .bounds import (_evaluate_columns, _first_least, best_of, encode_float, evaluate_all,
                     regime_classify)
from .core import CompoundPoissonParams, TruncationCapError, cp_pmf, theta
from .exact import BudgetExceededError
from .models import MIXINGS, MODELS, model_from_json
from .oracle import ConvergenceError, default_x_max, solve_stein, verify

# rows of one sweep, about 0.022 ms and 0.7 KB of JSON each: a 100 000-row
# reliability sweep takes 2.0-2.6 s and 118 MB of peak memory (the process's
# ru_maxrss), and prints 70 MB of JSON or 25 MB of CSV (2-vCPU host)
SWEEP_ROW_BUDGET = 100_000

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """Malformed command-line input."""


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else f'"{encode_float(x)}"'


def _fmt_str(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# scalar formatters by exact type: ``dumps`` refuses subclasses, such as
# numpy's float64, which no payload carries
_SCALARS = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: str,
    float: _fmt_float,
    str: _fmt_str,
}

# '%.17g' % x prints _fmt_float(x) for finite x; _fmt_float quotes the others
_NON_FINITE = {s: f'"{s}"' for s in ("inf", "-inf", "nan")}


class _Table:
    """Records in columns: row r maps ``keys[r]`` to the r-th entry of each
    column.  Rows of one shape share a key tuple; a column holds one type."""

    def __init__(self, keys: list[tuple[str, ...]], columns: list[list]):
        self.keys, self.columns = keys, columns


def _cells(col: list, fmt) -> Iterator[str]:
    """A column's cells as text, each formed as it is read: floats by %.17g,
    which prints inf, -inf and nan bare, others by ``fmt``, once per value."""
    if type(col[0]) is float:
        return map("%.17g".__mod__, col)
    known = {v: fmt(v) for v in set(col)}
    return map(known.__getitem__, col)


def _json_cells(col: list) -> list[str]:
    """A column's cells as ``dumps`` prints them: ``_cells``, inf, -inf and nan quoted."""
    texts = [*_cells(col, dumps)]
    return [*map(_NON_FINITE.get, texts, texts)] if type(col[0]) is float else texts


def _dumps_table(table: _Table, indent: int) -> Iterator[str]:
    """``dumps`` of the table's rows, as dicts, in pieces, one per row, through
    one %-template per row shape: a column of finite floats is printed by the
    template's %.17g, any other by ``_json_cells``.  Templates and text
    columns are prepared by the call, and each row is formatted as it is read."""
    pad, inner, field = "  " * indent, "  " * (indent + 1), "  " * (indent + 2)
    finite = [type(col[0]) is float and math.isfinite(sum(col)) for col in table.columns]
    marks = ["%.17g" if f else "%s" for f in finite]
    columns = [col if f else _json_cells(col) for col, f in zip(table.columns, finite)]
    # each template starts with the comma that ends the row before
    templates = {
        keys: f",\n{inner}{{\n" + ",\n".join(
            f'{field}"{k.replace("%", "%%")}": {mark}' for k, mark in zip(keys, marks)
        ) + f"\n{inner}}}"
        for keys in set(table.keys)
    }
    rows = map(str.__mod__, map(templates.__getitem__, table.keys), zip(*columns))
    return chain(["[" + next(rows)[1:]], rows, [f"\n{pad}]"])


def dumps(obj, indent: int = 0) -> str:
    """Minimal deterministic JSON emitter with 17-significant-digit floats: a
    scalar's formatter's text, or a container's pieces joined once."""
    fmt = _SCALARS.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    out: list[str] = []
    _emit(obj, 0, out, ["\n" + "  " * indent])
    return "".join(out)


def _emit(obj, depth: int, out: list[str], nl: list[str]) -> None:
    """Append ``dumps`` of the container ``obj`` to ``out`` in pieces; ``nl[d]``
    is a newline and the indent of depth d, formed the first time it is needed."""
    if len(nl) == depth + 1:
        nl.append(nl[depth] + "  ")
    inner, get = nl[depth + 1], _SCALARS.get
    if isinstance(obj, dict):
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            if (fmt := get(type(v))) is not None:
                out.append(f'{sep}"{k}": {fmt(v)}')
            else:
                out.append(f'{sep}"{k}": ')
                _emit(v, depth + 1, out, nl)
            sep = comma
        out.append(nl[depth] + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        sep, comma = "[" + inner, "," + inner
        # a finite sum means no inf or nan, which _fmt_float prints as strings
        if {*map(type, obj)} == {float} and math.isfinite(sum(obj)):
            out.append(sep + comma.join(["%.17g"] * len(obj)) % tuple(obj) + nl[depth] + "]")
            return
        for v in obj:
            if (fmt := get(type(v))) is not None:
                out.append(sep + fmt(v))
            else:
                out.append(sep)
                _emit(v, depth + 1, out, nl)
            sep = comma
        out.append(nl[depth] + "]" if obj else "[]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(fh, payload: dict) -> None:
    """Write ``dumps(payload)`` and a newline to ``fh``, a table among the
    payload's values row by row (``_dumps_table``), prepared before the
    first byte is written."""
    tables = {k: _dumps_table(v, 1) for k, v in payload.items() if isinstance(v, _Table)}
    if not tables:
        fh.writelines([dumps(payload), "\n"])
        return
    for sep, (k, v) in zip(chain("{", repeat(",")), payload.items()):
        fh.write(f'{sep}\n  "{k}": ')
        fh.writelines(tables.get(k) or [dumps(v, 1)])
    fh.write("\n}\n")


def _dumps_line(obj) -> str:
    """``dumps`` on one line: the same scalars, with ", " and ": " between
    the items of a list or dict."""
    fmt = _SCALARS.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_fmt_str(k)}: {_dumps_line(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_dumps_line, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    """A CSV cell: a string as it is, empty for None, any other value as
    ``_dumps_line`` prints it, inf, -inf and nan without their quotes."""
    if type(v) is str:
        return v
    return "" if v is None else _dumps_line(v).strip('"')


def _csv_dicts(rows: list[dict]) -> Iterator[list]:
    """The CSV records of dicts of one key tuple: the keys, then the values."""
    return chain([list(rows[0])], ([*map(_csv_cell, row.values())] for row in rows))


def _csv_table(table: _Table) -> Iterator[list]:
    """The CSV records of a table: the header, the first-seen union of its
    key tuples, then each row, its cell empty where it lacks a key.  The
    table has more than one column, as every sweep has."""
    shapes = dict.fromkeys(table.keys)
    header = list(dict.fromkeys(chain.from_iterable(shapes)))
    # a shape's cells in header order; the entry past the last column is empty
    picks = {s: itemgetter(*[s.index(k) if k in s else len(s) for k in header]) for s in shapes}
    rows = zip(*[_cells(col, _csv_cell) for col in table.columns], repeat(""))
    yield header
    for keys, row in zip(table.keys, rows):
        yield picks[keys](row)


@contextlib.contextmanager
def _atomic(path: str):
    """A temporary file, renamed to path once written; a path that cannot be
    written is a usage error, and no temporary is left."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# input construction

def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"malformed {what}: {text!r}") from exc


# model-input flags by JSON field: argparse type and help
_INPUTS = {
    "rates": (str, "comma-separated cluster rates lambda_1..lambda_J"),
    "n": (int, "runs circle length / reliability grid side"),
    "p": (float, "runs success probability"),
    "k": (int, "reliability subgrid side"),
    "q": (float, "reliability failure probability"),
    "two_point": (str, "mixed Poisson mixing a,b,w"),
    "gamma": (str, "mixed Poisson gamma mixing shape,scale"),
    "components": (str, "sum components as semicolon-separated pmfs p0,p1,..."),
}
# the models sweep takes, each with the field of its range flag: sweep steps
# the model's last key over start:stop:count
_SWEPT = {tag: MODELS[tag].keys[-1] + "_range" for tag in ("runs", "reliability")}
# the flags _refuse_unread checks: model input, sweep ranges, and the law
# flags of verify and pmf, of which a model reads its class's ``law_keys``
_CHECKED = {*_INPUTS, *_SWEPT.values(), "law", "exact", "samples", "seed"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# list-valued model flags and the values their usage message names
_LIST_FLAGS = {mix.tag: ",".join(f.name for f in fields(mix)) for mix in MIXINGS}


def _json_value(key: str, value):
    if key == "components":
        parts = [part for part in value.split(";") if part.strip()]
        return [_parse_floats(part, "--components") for part in parts]
    if key not in _LIST_FLAGS:
        return value
    vals = _parse_floats(value, _flag(key))
    if len(vals) != _LIST_FLAGS[key].count(",") + 1:
        raise UsageError(f"{_flag(key)} expects {_LIST_FLAGS[key]}")
    return vals


def _model_json(args, keys, what: str, law=()) -> dict:
    """The JSON form of --model from the flags named by ``keys``: each flag
    carries the JSON field of its name; a tuple entry lists alternatives, of
    which exactly one is given.  ``law`` names the law flags read besides."""
    alts = [k if isinstance(k, tuple) else (k,) for k in keys]
    given = [next((k for k in a if getattr(args, k) is not None), None) for a in alts]
    if None in given:
        need = [" or ".join(map(_flag, a)) for a in alts]
        need = need[0] if len(need) == 1 else ", ".join(need[:-1]) + " and " + need[-1]
        raise UsageError(f"{args.model} {what} requires {need}")
    _refuse_unread(args, (*given, *law), f"{args.model} {what}", alts)
    return {"model": args.model, **{k: _json_value(k, getattr(args, k)) for k in given}}


def _refuse_unread(args, read, what: str, alts=()) -> None:
    """Refuse input the command would drop: a flag of ``_CHECKED`` given but
    not in ``read``.  One of ``alts``' alternatives there is a second one given."""
    for key, value in vars(args).items():
        if value is None or key in read or key not in _CHECKED:
            continue
        alt = next((a for a in alts if key in a), None)
        if alt is not None:
            raise UsageError(f"{what} takes only one of {' and '.join(map(_flag, alt))}")
        raise UsageError(f"{what} does not take {_flag(key)}")


def _build_model(args):
    """The model --model names, or None.  Of the law flags, a model reads
    --law and its class's ``law_keys``; a command that registers none has none.
    --exact asks for a law that draws no samples, so it takes no --samples or
    --seed."""
    if args.model is None:
        return None
    cls = MODELS[args.model]
    obj = _model_json(args, cls.keys, "model", ("law", *cls.law_keys))
    if getattr(args, "exact", None):
        _refuse_unread(args, (*obj, "law", "exact"), "--exact")
    return model_from_json(obj)


def _law(args, model) -> dict:
    """The arguments of the model's exact law, from the law flags given on the
    command line; none without a model."""
    keys = () if model is None else model.law_keys
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _build_params(args, model) -> CompoundPoissonParams:
    if model is not None:
        return model.cp_params()
    if args.rates is None:
        raise UsageError("provide --rates or --model")
    _refuse_unread(args, ("rates",), "--rates input")
    return CompoundPoissonParams(_parse_floats(args.rates, "--rates"))


# ---------------------------------------------------------------------------
# subcommands

def cmd_bounds(args) -> tuple[int, dict, Iterator[list]]:
    model = _build_model(args)
    params = _build_params(args, model)
    th = theta(params, 3)
    bounds = evaluate_all(params, th=th)
    rows = [b.to_json() for b in bounds]
    best = best_of(bounds).to_json()
    payload = {
        "rates": list(params.rates),
        "theta": [th[i] for i in range(4)],
        "regime": regime_classify(bounds),
        "bounds": rows,
        "best": best,
    }
    if model is not None:
        payload["input"] = model.to_json()
    return EXIT_OK, payload, _csv_dicts(rows + [dict(best, method="BEST")])


def cmd_verify(args) -> tuple[int, dict, Iterator[list]]:
    model = _build_model(args)
    report = verify(_build_params(args, model), model, **_law(args, model))
    code = EXIT_OK if report["pass"] else EXIT_VIOLATION
    return code, report, _csv_dicts([report])


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
    if count > SWEEP_ROW_BUDGET:
        raise BudgetExceededError(f"{what} count {count} exceeds budget {SWEEP_ROW_BUDGET} rows")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def cmd_sweep(args) -> tuple[int, dict, Iterator[list]]:
    keys, swept = MODELS[args.model].keys, _SWEPT[args.model]
    base = _model_json(args, keys[:-1] + (swept,), "sweep")
    values = _parse_range(base.pop(swept), _flag(swept))
    table = _sweep_table(base, keys[-1], values)
    return EXIT_OK, {"model": args.model, "rows": table}, _csv_table(table)


_THETA_COLUMNS = tuple(f"theta{i}" for i in range(4))


def _bound_columns(method: str) -> tuple[str, str]:
    """The sweep columns of a bound: "THM2(3)" gives thm2_applicable, thm2_m1."""
    key = method.split("(")[0].lower()
    return f"{key}_applicable", f"{key}_m1"


def _sweep_table(base: dict, key: str, values: list[float]) -> _Table:
    """The sweep's rows: the model of ``base`` at each value of its last key
    ``key``, theta to order 3, each catalogue row's applicability and m1, the
    best m1 and the d_K bound on it, "inf" where the best m1 is infinite.

    Should a row fail, the rows are built again one at a time, so that the
    error is the first failing row's, as a sweep row by row would raise it.
    The columns are built with the cyclic garbage collector paused.
    """
    with _collector_paused():
        try:
            return _sweep_columns(base, key, values)
        except (ValueError, ArithmeticError):
            for v in values:
                _sweep_columns(base, key, [v])
            raise


@contextlib.contextmanager
def _collector_paused():
    """The cyclic garbage collector off within the block, and as it was after
    it, also when the block raises.  A sweep's columns hold floats, strings
    and tuples, no cycles, yet their allocations set off a collection every
    few hundred objects, which took a fifth to a quarter of the build of a
    100 000-row sweep."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _sweep_columns(base: dict, key: str, values: list[float]) -> _Table:
    # the model at the first value, whose column methods take every value
    model = model_from_json({**base, key: values[0]})
    thetas, catalogue = _evaluate_columns(model.rate_columns(values))
    # each law's best_of m1 row, from the m1 of its rows
    picks = _first_least(zip(*[row.m1 for row in catalogue]))
    best_m1s = [catalogue[p].m1[i] for i, p in enumerate(picks)]
    dks = model.dk_columns(values, best_m1s)

    columns = [[v] * len(values) for v in base.values()] + [values] + thetas
    for row in catalogue:
        columns += [row.applicable, row.m1]
    best_methods = [catalogue[p].method[i] for i, p in enumerate(picks)]
    columns += [best_methods, best_m1s, dks, [dk > 1.0 for dk in dks]]
    # a row's keys follow the methods of its catalogue, of which only the
    # order-3 row's varies (COR3 or THM2(3)): one key tuple for each, from a
    # law that has it
    order3 = catalogue[3].method
    shapes = {
        m: (*base, key, *_THETA_COLUMNS,
            *chain.from_iterable(_bound_columns(row.method[i]) for row in catalogue),
            "best_method", "best_m1", "dk_bound", "vacuous")
        for m, i in dict(zip(order3, range(len(values)))).items()
    }
    return _Table(list(map(shapes.__getitem__, order3)), columns)


def cmd_stein_solve(args) -> tuple[int, dict, Iterator[list]]:
    params = _build_params(args, _build_model(args))
    if args.y is None:
        raise UsageError("stein-solve requires --y")
    x_max = default_x_max(params, args.y) if args.x_max is None else args.x_max
    sol = solve_stein(params, args.y, x_max)
    payload = {
        "rates": list(params.rates),
        "y": sol.y,
        "x_max": sol.x_max,
        "eh_u": sol.eh_u,
        "residual0": sol.residual0,
        "f": sol.f.tolist(),
    }
    return EXIT_OK, payload, chain([["x", "f"]], enumerate(map(_csv_cell, payload["f"])))


def cmd_pmf(args) -> tuple[int, dict, Iterator[list]]:
    if args.law == "approx":
        _refuse_unread(args, (*_INPUTS, "law"), "--law approx")
    model = _build_model(args)
    if model is not None and args.law != "approx":
        table = model.exact_law(**_law(args, model))
    else:
        table = cp_pmf(_build_params(args, model))
    payload = table.to_json()
    if table.stderr is not None:
        payload["stderr"] = [float(s) for s in table.stderr]
    pmf = map(_csv_cell, payload["pmf"])
    return EXIT_OK, payload, chain([["x", "probability"]], enumerate(pmf))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpstein",
        description="Compound Poisson Stein-factor bounds and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, inputs=_INPUTS, models=MODELS, required=False):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument("--model", choices=list(models), required=required, help="model tag")
        for key in inputs:
            kind, text = _INPUTS[key]
            sp.add_argument(_flag(key), type=kind, help=text)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--output", help="write to file (atomic) instead of stdout")
        sp.set_defaults(func=func)
        return sp

    def exact_law(sp):  # for the commands that compute a model's exact law
        sp.add_argument("--seed", type=int, help="reliability Monte Carlo seed")
        sp.add_argument("--samples", type=int, help="reliability Monte Carlo sample count")
        sp.add_argument(
            "--exact",
            action="store_true",
            default=None,
            help="use the exact transfer-matrix reliability law (n <= 11 at "
            "k = 2, n <= 8 at k = 3) instead of Monte Carlo",
        )

    command("bounds", cmd_bounds, "evaluate all Stein-factor bounds")

    exact_law(command("verify", cmd_verify, "verify bounds against oracles"))

    # the fixed keys of the swept models, then a range flag per model
    fixed = dict.fromkeys(k for tag in _SWEPT for k in MODELS[tag].keys[:-1])
    sp = command("sweep", cmd_sweep, "evaluate bounds over a parameter grid", fixed,
                 _SWEPT, required=True)
    for tag, key in _SWEPT.items():
        sp.add_argument(_flag(key), help=f"{tag} sweep start:stop:count")

    sp = command("stein-solve", cmd_stein_solve, "dump one Stein-equation solution")
    sp.add_argument("--y", type=int, help="test-function threshold")
    sp.add_argument("--x-max", dest="x_max", type=int, help="truncation point")

    sp = command("pmf", cmd_pmf, "dump a distribution table")
    sp.add_argument(
        "--law",
        choices=["exact", "approx"],
        help="exact model law (default) or compound Poisson approximant",
    )
    exact_law(sp)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main`` and reused by every
    later one: parsing leaves it unchanged, and building it takes about 2 ms."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed by its command's parser, which the full parser would hand
    it to, into a namespace without ``command``; by the full parser where argv
    names no command first or the command's parser leaves words unread."""
    parser = _parser()
    if argv:
        sub = parser._subparsers._group_actions[0].choices.get(argv[0])
        if sub is not None:
            args, extra = sub.parse_known_args(argv[1:])
            if not extra:
                return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code, payload, records = args.func(args)
        out = contextlib.nullcontext(sys.stdout) if args.output is None else _atomic(args.output)
        with out as fh:
            if args.format == "csv":
                csv.writer(fh, lineterminator="\n").writerows(records)
            else:
                _write_json(fh, payload)
    except (BudgetExceededError, TruncationCapError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code
