"""Compound Poisson Stein-factor bounds with numerical verification.

The package has four layers:

* :mod:`cpstein.core` - compound Poisson parameters, factorial-moment
  functionals, probability tables.
* :mod:`cpstein.bounds` - closed-form Stein-factor ("magic factor") bounds
  and the trigonometric functionals behind them.
* :mod:`cpstein.oracle` - direct numerical solution of the Stein equation,
  giving empirical factors that every claimed bound must dominate.
* :mod:`cpstein.models` / :mod:`cpstein.exact` - application models (runs on
  a circle, square lattice reliability, mixed Poisson, independent sums)
  with exact small-instance laws and certified distance computations.

Each module's ``__all__`` is its public surface and the only list of it:
the package exports the ``__all__`` of ``bounds``, ``core``, ``exact``,
``models`` and ``oracle``, and its own ``__all__`` is theirs concatenated.
Importing it loads none of them: the first lookup of a name it does not
bind (``cpstein.theta``, ``from cpstein import *``, ``dir``) loads all five
(PEP 562).  ``cpstein.cli`` loads ``core`` and ``models``, and the others
as a command runs them.

numpy is the only runtime dependency, and no layer loads it at import:
each function that needs it imports it when called, because loading numpy
costs more than half of a cold closed-form command.  The closed-form
bounds (``theta``, ``evaluate_all`` and the model approximants, which the
``bounds`` and ``sweep`` commands run) are plain ``math`` and never load
numpy, except for the sums model and an order-3 criterion that needs the
Bernstein enclosure.  Each catalogue row's formula lives once in
``bounds``, as a function of columns: ``evaluate_all`` calls it on columns
one entry long for one law, and ``sweep`` once over the columns of all its
laws.  The oracle, ``cp_pmf``, the exact laws and the gamma third moment
(``GammaMixing.abs3``) load numpy on first use.  No command loads scipy:
only ``poisson_stein_forward``, an independent reference for the tests,
loads ``scipy.special``, which the ``test`` extra installs.
"""

from __future__ import annotations

__version__ = "0.1.0"


def __getattr__(name: str):
    """On the first lookup of a name the package does not bind, import the
    five layers and bind their ``__all__``, as star-imports would, and ``__all__``."""
    names = globals()
    if "__all__" not in names:
        mods = [__import__(f"{__name__}.{layer}", fromlist=["*"])
                for layer in ("bounds", "core", "exact", "models", "oracle")]
        names.update((k, getattr(mod, k)) for mod in mods for k in mod.__all__)
        names["__all__"] = [k for mod in mods for k in mod.__all__]
    if name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
