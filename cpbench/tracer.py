"""Spans around cpstein's public functions, installed from outside the package.

The tracer wraps every function a layer module lists in ``__all__`` (for
``cli``, only ``main``) and every namespace in the package that binds it, so
internal calls such as ``verify_bound -> empirical_factors`` are seen too.
Wrappers are in place only while a traced job runs; spans are kept in memory
as lists and written once, at the end of the run, with each job as the root
span of its calls.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

__all__ = ["LAYERS", "Tracer"]

LAYERS = ("cli", "core", "bounds", "oracle", "models", "exact")
METHODS = (("models", "GammaMixing", "abs3"),)
FIELDS = ("name", "layer", "parent", "start", "end", "error", "info")
_NAME, _LAYER, _PARENT, _START, _END, _ERROR, _INFO = range(len(FIELDS))


class Tracer:
    """Collects one span per call of a wrapped function during traced jobs.

    ``info`` holds the ``x_max`` of the returned object for function spans
    (the final truncation of an oracle solve or a table), and the command
    line for job spans.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = self._find_patches()

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "cpstein" or name.startswith("cpstein.")
        }
        patches = []
        for layer in LAYERS:
            mod = package[f"cpstein.{layer}"]
            for name in ("main",) if layer == "cli" else mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for ns in package.values():
                    patches.extend(
                        (ns, attr, fn, wrapper) for attr, value in vars(ns).items() if value is fn
                    )
        for layer, cls_name, meth in METHODS:
            cls = getattr(package[f"cpstein.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            patches.append((cls, meth, fn, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn)))
        return patches

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, stack[-1], 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = perf_counter()
                stack.pop()
            span[_INFO] = getattr(result, "x_max", None)
            return result

        return wrapper

    @contextlib.contextmanager
    def job(self, argv: tuple[str, ...]):
        """Trace one job: wrappers installed and a root span open for its duration."""
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        span = ["job", "job", None, 0.0, 0.0, None, list(argv)]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = perf_counter()
        try:
            yield
        finally:
            span[_END] = perf_counter()
            self._stack.pop()
            for ns, attr, fn, _ in self._patches:
                setattr(ns, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Per-function calls, busy time and median time, per-layer self time
        and share of job time, and the oracle's truncation and error counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                child[span[_PARENT]] += span[_END] - span[_START]
        job_s = 0.0
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            dur = span[_END] - span[_START]
            if span[_LAYER] == "job":
                job_s += dur
                continue
            self_s[span[_LAYER]] += dur - child[i]
            durations[span[_NAME]].append(dur)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / job_s if job_s > 0.0 else 0.0
        for name, ds in durations.items():
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.busy_s"] = sum(ds)
            out[f"{name}.p50_s"] = statistics.median(ds)
        solves = [s for s in self.spans if s[_NAME] == "oracle.empirical_factors"]
        x_max = [s[_INFO] for s in solves if s[_INFO] is not None]
        out["oracle.x_max_p50"] = statistics.median(x_max) if x_max else 0
        out["oracle.errors"] = sum(
            1
            for s in self.spans
            if s[_NAME] in ("oracle.empirical_factors", "oracle.solve_stein") and s[_ERROR]
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span, gzip-compressed, as {"fields": [...], "spans": [[...], ...]}."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
