"""REP012 seeded fixture: a restore gap with no loop around it.

Restore safety is not about loops: this straight-line probe mutates,
calls out, and restores with no loop at all, yet ``measure(graph)`` can
raise and escape before ``add_edge`` runs.  REP012's CFG sees that; the
``try/finally``-protected twin below stays quiet.
"""


def probe(graph, edge, measure):
    a, b = edge
    graph.remove_edge(a, b)
    score = measure(graph)
    graph.add_edge(a, b)
    return score


def probe_protected(graph, edge, measure):
    a, b = edge
    graph.remove_edge(a, b)
    try:
        return measure(graph)
    finally:
        graph.add_edge(a, b)
