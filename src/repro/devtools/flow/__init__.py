"""Dataflow-powered static analysis for the ORP reproduction.

This package grows :mod:`repro.devtools.lint` beyond per-statement AST
pattern matching:

- :mod:`repro.devtools.flow.cfg` — an intra-function control-flow-graph
  builder over :mod:`ast` (branches, loops, ``try/except/finally``,
  ``with``, early returns, ``break``/``continue``).
- :mod:`repro.devtools.flow.lattice` — the small taint/provenance lattice
  (per-variable tag sets joined by union) the engine iterates over.
- :mod:`repro.devtools.flow.engine` — a generic forward worklist solver
  with condition-aware edge refinement and convergence accounting.
- :mod:`repro.devtools.flow.summaries` — whole-program pass: project
  import graph plus per-function summaries (ambient-entropy behaviour)
  so rules reason across ``repro.*`` module boundaries.
- :mod:`repro.devtools.flow.rules` — the flow rules REP010..REP013 built
  on top of the engine and summaries.

The package is pure stdlib; every ``repro-lint`` run applies it after
the per-file rules.
"""

from repro.devtools.flow.cfg import CFG, CFGEdge, CFGNode, build_cfg
from repro.devtools.flow.engine import FlowResult, solve_forward
from repro.devtools.flow.rules import FlowStats, flow_lint
from repro.devtools.flow.summaries import ProjectIndex, build_index

__all__ = [
    "CFG",
    "CFGEdge",
    "CFGNode",
    "FlowResult",
    "FlowStats",
    "ProjectIndex",
    "build_cfg",
    "build_index",
    "flow_lint",
    "solve_forward",
]
