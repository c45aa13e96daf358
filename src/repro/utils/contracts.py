"""Lightweight runtime contracts — the enforcement twin of ``repro-lint``.

The linter (:mod:`repro.devtools.lint`) makes *static* claims about the
code: graphs are validated after mutation, metrics are never compared with
``==``, RNG streams are always injected.  This module provides the matching
*runtime* enforcement so a violation that slips past the linter (e.g. a
mutation through an untracked alias) still fails fast in development.

Three decorators are provided:

- :func:`requires` — precondition over the call arguments.
- :func:`ensures` — postcondition over the return value.
- :func:`graph_invariant` — for :class:`~repro.core.hostswitch.HostSwitchGraph`
  mutation methods: re-checks structural invariants after the mutation.

Checking is controlled by the ``REPRO_CONTRACTS`` environment variable:

- ``REPRO_CONTRACTS=0`` (also ``false``/``off``/``no``) — disabled; the
  wrappers reduce to a single flag check per call.
- ``REPRO_CONTRACTS=1`` (default, unset) — enabled; ``graph_invariant``
  checks the port budgets of the switches the mutation touched (O(1) per
  call).
- ``REPRO_CONTRACTS=full`` (also ``2``/``all``) — ``graph_invariant`` runs
  the full O(m + E + n) :meth:`HostSwitchGraph.validate` after every
  mutation.  Intended for tests and debugging, not for annealing runs.

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
    "requires",
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


def requires(predicate: Callable[..., bool], message: str = "") -> Callable[[F], F]:
    """Precondition decorator: ``predicate(*args, **kwargs)`` must hold.

    The predicate receives exactly the call's arguments.  Raises
    :class:`ContractViolation` when it returns falsy (and contracts are
    enabled).
    """

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if contracts_enabled() and not predicate(*args, **kwargs):
                raise ContractViolation(
                    f"precondition failed for {fn.__qualname__}"
                    + (f": {message}" if message else "")
                )
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


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


def _check_switches(graph: Any, switches: Any) -> None:
    """O(len(switches)) port-budget check for the touched switches."""
    radix = graph.radix
    for s in switches:
        if graph.hosts_on(s) < 0:
            raise ContractViolation(
                f"switch {s} has negative host count {graph.hosts_on(s)}"
            )
        used = graph.ports_used(s)
        if used > radix:
            raise ContractViolation(
                f"switch {s} uses {used} ports but the radix is {radix}"
            )


def graph_invariant(*, touched: Callable[..., Any]) -> Callable[[F], F]:
    """Invariant decorator for ``HostSwitchGraph`` mutation methods.

    After the wrapped method returns, re-checks the graph's structural
    invariants at the current contract level: nothing at ``"off"``, the
    port budgets of the touched switches at ``"on"``, the full
    :meth:`validate` at ``"full"``.  Failures raise
    :class:`ContractViolation` chained to the underlying error.

    ``touched`` is called as ``touched(self, result, *args, **kwargs)`` and
    returns the switch ids whose port budgets the mutation could have
    changed, which keeps the ``"on"`` check O(1) on hot mutation paths.
    The level is looked up on every call (:func:`contracts_level`).
    """

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = fn(self, *args, **kwargs)
            level = contracts_level()
            if level == "full":
                try:
                    self.validate()
                except ValueError as exc:
                    raise ContractViolation(
                        f"graph invariant broken after {fn.__name__}: {exc}"
                    ) from exc
            elif level == "on":
                _check_switches(self, touched(self, result, *args, **kwargs))
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
