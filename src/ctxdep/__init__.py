"""Matrix-invariant tests for context-dependent quantum gates.

The package has four layers: :mod:`ctxdep.ptm` (operator bases, transfer
matrices, generators, determinant and trace-power summaries),
:mod:`ctxdep.noise` (a two-qubit model where a hidden persistent spectator
makes single-qubit gates history-dependent), :mod:`ctxdep.experiment`
(sequence families and exact or finite-shot probability tables), and
:mod:`ctxdep.analysis` (the permutation, cyclic, and repetition tests plus
unitarity and divisibility measures).  :mod:`ctxdep.gates` holds the gate
instructions they share.  :mod:`ctxdep.cli` drives preset scenarios from flat
config files, which :mod:`ctxdep.config` parses and validates.

The package exports the names in the ``__all__`` of gates, ptm, noise,
experiment and analysis, and resolves them on first access (PEP 562) by
looking through those layers in that order: ``import ctxdep`` and the config
and CLI modules load no numpy, and a name loads only its own layer and the
ones before it, so the gate names load no numpy either.  ``__all__``, and
with it ``dir`` and ``from ctxdep import *``, loads every layer.

The package logs through :func:`_log`, which loads ``logging`` only for a
record that could reach a handler.
"""

import importlib
import sys

__version__ = "0.1.0"

_SUBMODULES = ("gates", "ptm", "noise", "experiment", "analysis", "config", "cli")
_LAYERS = _SUBMODULES[:5]  # each imports only the layers before it


def __getattr__(name: str):
    if name in _SUBMODULES:  # `ctxdep.noise` after a bare `import ctxdep`
        return _module(name)
    if name == "__all__":
        value = sorted({n for layer in _LAYERS for n in _module(layer).__all__})
    else:
        # a private name such as a `__wrapped__` probe imports nothing
        home = None if name.startswith("_") else next(
            (m for m in map(_module, _LAYERS) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def _module(name: str):
    return importlib.import_module(f".{name}", __name__)


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))


_DEBUG, _INFO, _WARNING = 10, 20, 30  # logging's level numbers
# a logging.basicConfig call not made yet: process-wide, as is what it configures
_basic_config: dict | None = None


def _configure_log(**kwargs) -> None:
    """``logging.basicConfig(**kwargs)``: at once if ``logging`` is loaded, else
    before the first record that loads it."""
    global _basic_config
    _basic_config = kwargs
    if "logging" in sys.modules:
        _logging()


def _logging():
    """The ``logging`` module, with a pending :func:`_configure_log` applied."""
    global _basic_config
    import logging

    config = _basic_config  # read once: another thread may apply it meanwhile
    if config is not None:
        logging.basicConfig(**config)  # which does nothing once the root has a handler
        _basic_config = None
    return logging


def _log(name: str, level: int, msg: str, *args) -> None:
    """``logging.getLogger(name).log(level, msg, *args)``, which loads ``logging``
    only for a record that could reach a handler.

    A record below WARNING is dropped while ``logging`` is not loaded: then
    nothing has set a handler or a level that would pass it.
    """
    if level >= _WARNING or "logging" in sys.modules:
        _logging().getLogger(name).log(level, msg, *args)
