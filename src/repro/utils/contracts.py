"""Lightweight runtime contracts — the enforcement twin of ``repro-lint``.

The linter (:mod:`repro.devtools.lint`) makes *static* claims about the
code: graphs are validated after mutation, metrics are never compared with
``==``, RNG streams are always injected.  This module provides the matching
*runtime* enforcement so a violation that slips past the linter (e.g. a
mutation through an untracked alias) still fails fast in development.

Two decorators are provided:

- :func:`ensures` — postcondition over the return value.
- :func:`graph_invariant` — for :class:`~repro.core.hostswitch.HostSwitchGraph`
  mutation methods: re-validates the whole graph after the mutation at the
  ``full`` level.

The port budget of a single edit is the mutators' own guard; a whole graph
is checked by :meth:`HostSwitchGraph.validate`.  Checking is controlled by
the ``REPRO_CONTRACTS`` environment variable:

- ``REPRO_CONTRACTS=0`` (also ``false``/``off``/``no``) — disabled.
- ``REPRO_CONTRACTS=1`` (default, unset) — postconditions are checked;
  ``graph_invariant`` leaves single edits to the mutators' guards.
- ``REPRO_CONTRACTS=full`` (also ``2``/``all``) — ``graph_invariant`` also
  runs the full O(m + E + n) :meth:`HostSwitchGraph.validate` after every
  mutation, which catches private state corrupted between two edits.
  Intended for tests and debugging, not for annealing runs.

The variable is read on the first check and cached.  Tests (and
long-running jobs) can override the level with :func:`set_contracts`
without touching ``os.environ``; ``set_contracts(None)`` drops the
override and re-reads the variable.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from typing import Any, TypeVar

__all__ = [
    "ContractViolation",
    "contracts_level",
    "contracts_enabled",
    "set_contracts",
    "ensures",
    "graph_invariant",
]

_ENV_VAR = "REPRO_CONTRACTS"
_OFF_VALUES = frozenset({"0", "false", "off", "no"})
_FULL_VALUES = frozenset({"full", "2", "all"})

# The level in force: set by set_contracts, else parsed from the
# environment on first use (None until then).
_level: str | None = None

F = TypeVar("F", bound=Callable[..., Any])


class ContractViolation(AssertionError):
    """A runtime contract (pre/post-condition or graph invariant) failed."""


def contracts_level() -> str:
    """Current checking level: ``"off"``, ``"on"``, or ``"full"``.

    The environment variable is read once and cached; :func:`set_contracts`
    replaces the cached level (``None`` makes the next call re-read it).
    """
    global _level
    if _level is None:
        raw = os.environ.get(_ENV_VAR, "1").strip().lower()
        if raw in _OFF_VALUES:
            _level = "off"
        elif raw in _FULL_VALUES:
            _level = "full"
        else:
            _level = "on"
    return _level


def contracts_enabled() -> bool:
    """Whether any contract checking is active."""
    return contracts_level() != "off"


def set_contracts(level: str | bool | None) -> None:
    """Override the contract level in-process (``None`` re-reads the env).

    Accepts the level strings (``"off"``/``"on"``/``"full"``) or a bool
    (``True`` -> ``"on"``, ``False`` -> ``"off"``).  Code that changes
    ``REPRO_CONTRACTS`` at run time calls ``set_contracts(None)`` after it.
    """
    global _level
    if level is None or isinstance(level, str):
        if isinstance(level, str) and level not in ("off", "on", "full"):
            raise ValueError(f"level must be 'off', 'on', or 'full', got {level!r}")
        _level = level
    else:
        _level = "on" if level else "off"


def ensures(predicate: Callable[[Any], bool], message: str = "") -> Callable[[F], F]:
    """Postcondition decorator: ``predicate(result)`` must hold."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if contracts_enabled() and not predicate(result):
                raise ContractViolation(
                    f"postcondition failed for {fn.__qualname__}"
                    + (f": {message}" if message else "")
                )
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def graph_invariant(fn: F) -> F:
    """Invariant decorator for ``HostSwitchGraph`` mutation methods.

    After the wrapped method returns, runs the full :meth:`validate` when
    the contract level is ``"full"`` and does nothing at the other levels
    (the mutator's own guard has checked the edit).  Failures raise
    :class:`ContractViolation` chained to the underlying error.  Each call
    reads the cached level, so :func:`set_contracts` takes effect at the
    next edit; :func:`contracts_level` runs only while nothing is cached.
    """

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = fn(self, *args, **kwargs)
        if (_level or contracts_level()) == "full":
            try:
                self.validate()
            except ValueError as exc:
                raise ContractViolation(
                    f"graph invariant broken after {fn.__name__}: {exc}"
                ) from exc
        return result

    return wrapper  # type: ignore[return-value]
