"""Taint/provenance lattice for the flow engine.

The analysis state is an *environment*: a mapping from local variable
names to a finite set of provenance tags.  The lattice join is pointwise
set union, so any forward analysis over it reaches a fixed point (the
tag alphabet per function is finite and transfer functions only ever add
tags derived from the program text).

Tags used by the shipped rules:

``none``
    The value may be the literal ``None`` (assigned or compared in).
``pnone:<param>``
    The value may be ``None`` because it (transitively) came from
    parameter ``<param>`` whose declared default is ``None``.  Carrying
    the parameter name lets REP010 name the parameter whose default
    needs an integer seed, not just the use site.
"""

from __future__ import annotations

__all__ = [
    "TAG_NONE",
    "Env",
    "Tags",
    "EMPTY_TAGS",
    "join_envs",
    "none_tags",
    "param_none_tag",
    "strip_none",
]

Tags = frozenset[str]
Env = dict[str, Tags]

EMPTY_TAGS: Tags = frozenset()

#: The value may be the literal ``None``.
TAG_NONE = "none"

_PNONE_PREFIX = "pnone:"


def param_none_tag(param: str) -> str:
    """Tag for "may be None via parameter ``param``'s ``None`` default"."""
    return _PNONE_PREFIX + param


def none_tags(tags: Tags) -> Tags:
    """The subset of ``tags`` asserting the value may be ``None``."""
    return frozenset(
        t for t in tags if t == TAG_NONE or t.startswith(_PNONE_PREFIX)
    )


def strip_none(tags: Tags) -> Tags:
    """``tags`` with every may-be-None tag removed (after a None guard)."""
    return tags - none_tags(tags)


def join_envs(a: Env, b: Env) -> Env:
    """Pointwise union of two environments."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for name, tags in b.items():
        seen = out.get(name)
        out[name] = tags if seen is None else seen | tags
    return out
