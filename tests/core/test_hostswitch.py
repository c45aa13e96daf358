"""Unit tests for the HostSwitchGraph data structure."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hostswitch import HostSwitchGraph
from repro.core.kernels import CSRAdjacency
from repro.core.serialization import graph_from_text, graph_to_text


class TestConstruction:
    def test_empty_graph_properties(self):
        g = HostSwitchGraph(num_switches=3, radix=4)
        assert g.num_switches == 3
        assert g.num_hosts == 0
        assert g.num_switch_edges == 0
        assert g.radix == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HostSwitchGraph(num_switches=0, radix=4)
        with pytest.raises(ValueError):
            HostSwitchGraph(num_switches=3, radix=0)

    def test_from_edges_builds_and_validates(self):
        g = HostSwitchGraph.from_edges(3, 4, [(0, 1), (1, 2)], [0, 1, 2, 2])
        assert g.num_hosts == 4
        assert g.hosts_on(2) == 2
        g.validate()

    def test_repr_mentions_sizes(self):
        g = HostSwitchGraph.from_edges(2, 4, [(0, 1)], [0, 1])
        text = repr(g)
        assert "n=2" in text and "m=2" in text and "r=4" in text


def _per_edge_build(m, r, edges, hosts):
    """Reference build: one mutator call per edge, then one per host."""
    g = HostSwitchGraph(m, r)
    for a, b in edges:
        g.add_switch_edge(a, b)
    for s in hosts:
        g.attach_host(s)
    g.validate()
    return g


@st.composite
def _legal_inputs(draw):
    """A random legal ``(m, r, edges, hosts)`` in random edge order.

    Up to 40 switches, so small-int set slots collide and a neighbour
    set's iteration order depends on its insertion history.
    """
    m = draw(st.integers(1, 40))
    r = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=80))
    used = [0] * m
    seen = set()
    edges = []
    for a, b in pairs:
        key = (min(a, b), max(a, b))
        if a != b and key not in seen and used[a] < r and used[b] < r:
            seen.add(key)
            used[a] += 1
            used[b] += 1
            edges.append((a, b))
    open_ports = [s for s in range(m) for _ in range(r - used[s])]
    hosts = draw(st.permutations(open_ports))
    return m, r, edges, hosts[: draw(st.integers(0, len(hosts)))]


def _over_budget(s, links, hosts, radix):
    """validate()'s port-budget message, as a regex."""
    return (
        rf"switch {s} exceeds its port budget: {links + hosts} ports used "
        rf"\({links} switch links \+ {hosts} hosts\) > radix {radix}"
    )


class TestBulkConstruction:
    @settings(max_examples=200, deadline=None)
    @given(_legal_inputs(), st.booleans())
    def test_equals_per_edge_build(self, inputs, as_arrays):
        m, r, edges, hosts = inputs
        ref = _per_edge_build(m, r, edges, hosts)
        if as_arrays:
            bulk = HostSwitchGraph.from_edges(
                m, r, np.array(edges, dtype=np.int32).reshape(-1, 2),
                np.array(hosts, dtype=np.int32),
            )
        else:
            bulk = HostSwitchGraph.from_edges(m, r, edges, hosts)
        assert bulk == ref
        assert graph_to_text(bulk) == graph_to_text(ref)
        assert list(bulk.switch_edges()) == list(ref.switch_edges())
        assert [list(nbrs) for nbrs in bulk._adj] == [list(nbrs) for nbrs in ref._adj]
        assert np.array_equal(bulk.host_attachments(), ref.host_attachments())
        assert bulk.num_switch_edges == ref.num_switch_edges
        assert all(type(b) is int for nbrs in bulk._adj for b in nbrs)
        assert all(type(s) is int for s in bulk._host_switch)
        assert all(type(k) is int for k in bulk._hosts_per_switch)

    @pytest.mark.parametrize(
        ("m", "r", "edges", "hosts", "match"),
        [
            (3, 4, [(0, 1), (1, 1)], [], r"self loop on switch 1"),
            (3, 4, [(0, 1), (1, 2), (0, 1)], [], r"switch edge \(0, 1\) already exists"),
            (3, 4, [(0, 1), (1, 2), (1, 0)], [], r"switch edge \(1, 0\) already exists"),
            (3, 4, [(0, 1), (0, 3)], [], r"switch edge \(0, 3\) names a switch outside"),
            (3, 4, [(0, 1), (-1, 2)], [], r"switch edge \(-1, 2\) names a switch outside"),
            (4, 2, [(0, 1), (0, 2), (0, 3)], [], _over_budget(0, 3, 0, 2)),
            (2, 2, [], [0, 1, 1, 1], _over_budget(1, 0, 3, 2)),
            (3, 2, [(0, 1), (1, 2)], [0, 1], _over_budget(1, 2, 1, 2)),
            (2, 4, [(0, 1)], [0, 2], r"host 1 attached to invalid switch 2"),
            (2, 4, [(0, 1)], [-1], r"host 0 attached to invalid switch -1"),
        ],
        ids=[
            "self-loop", "parallel", "parallel-reversed", "id-too-large", "id-negative",
            "edges-overflow", "hosts-overflow", "both-overflow", "host-switch-too-large",
            "host-switch-negative",
        ],
    )
    def test_rejects_illegal_input(self, m, r, edges, hosts, match):
        with pytest.raises(ValueError, match=match):
            HostSwitchGraph.from_edges(m, r, edges, hosts)

    def test_no_edges_no_hosts(self):
        g = HostSwitchGraph.from_edges(3, 4, [], [])
        assert g == HostSwitchGraph(3, 4)
        assert g.num_switch_edges == 0 and g.num_hosts == 0

    def test_non_integer_ids_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            HostSwitchGraph.from_edges(3, 4, [(0.0, 1.0)], [])


class TestSwitchEdges:
    def test_add_and_query(self):
        g = HostSwitchGraph(3, 4)
        g.add_switch_edge(0, 1)
        assert g.has_switch_edge(0, 1)
        assert g.has_switch_edge(1, 0)
        assert not g.has_switch_edge(0, 2)
        assert g.switch_degree(0) == 1
        assert g.num_switch_edges == 1

    def test_self_loop_rejected(self):
        g = HostSwitchGraph(3, 4)
        with pytest.raises(ValueError, match="self loop"):
            g.add_switch_edge(1, 1)

    def test_parallel_edge_rejected(self):
        g = HostSwitchGraph(3, 4)
        g.add_switch_edge(0, 1)
        with pytest.raises(ValueError, match="already exists"):
            g.add_switch_edge(1, 0)

    def test_radix_enforced_on_edges(self):
        g = HostSwitchGraph(5, 3)
        g.add_switch_edge(0, 1)
        g.add_switch_edge(0, 2)
        g.add_switch_edge(0, 3)
        with pytest.raises(ValueError, match="no free port"):
            g.add_switch_edge(0, 4)

    def test_remove_edge(self):
        g = HostSwitchGraph(3, 4)
        g.add_switch_edge(0, 1)
        g.remove_switch_edge(1, 0)
        assert not g.has_switch_edge(0, 1)
        assert g.num_switch_edges == 0

    def test_remove_missing_edge_raises(self):
        g = HostSwitchGraph(3, 4)
        with pytest.raises(ValueError, match="does not exist"):
            g.remove_switch_edge(0, 1)

    def test_switch_edges_iterates_each_once(self):
        g = HostSwitchGraph(4, 4)
        g.add_switch_edge(0, 1)
        g.add_switch_edge(2, 1)
        g.add_switch_edge(3, 0)
        edges = sorted(g.switch_edges())
        assert edges == [(0, 1), (0, 3), (1, 2)]


class TestHosts:
    def test_attach_assigns_sequential_ids(self):
        g = HostSwitchGraph(2, 4)
        assert g.attach_host(0) == 0
        assert g.attach_host(1) == 1
        assert g.attach_host(0) == 2
        assert g.hosts_on(0) == 2
        assert g.host_attachment(2) == 0

    def test_radix_enforced_on_hosts(self):
        g = HostSwitchGraph(2, 3)
        g.add_switch_edge(0, 1)
        g.attach_host(0)
        g.attach_host(0)
        with pytest.raises(ValueError, match="no free port"):
            g.attach_host(0)

    def test_move_host_updates_counts(self):
        g = HostSwitchGraph(2, 4)
        h = g.attach_host(0)
        old = g.move_host(h, 1)
        assert old == 0
        assert g.hosts_on(0) == 0
        assert g.hosts_on(1) == 1
        g.validate()

    def test_move_host_to_same_switch_is_noop(self):
        g = HostSwitchGraph(2, 4)
        h = g.attach_host(0)
        assert g.move_host(h, 0) == 0
        assert g.hosts_on(0) == 1

    def test_move_any_host_picks_highest_id(self):
        g = HostSwitchGraph(2, 5)
        g.attach_host(0)
        g.attach_host(0)
        moved = g.move_any_host(0, 1)
        assert moved == 1  # deterministic: highest id on the source switch
        assert g.hosts_on(0) == 1 and g.hosts_on(1) == 1

    def test_move_any_host_from_empty_raises(self):
        g = HostSwitchGraph(2, 4)
        with pytest.raises(ValueError, match="no host"):
            g.move_any_host(0, 1)

    def test_hosts_of_switch(self):
        g = HostSwitchGraph(2, 6)
        g.attach_host(0)
        g.attach_host(1)
        g.attach_host(0)
        assert g.hosts_of_switch(0) == [0, 2]

    def test_free_ports_accounting(self):
        g = HostSwitchGraph(2, 4)
        g.add_switch_edge(0, 1)
        g.attach_host(0)
        assert g.free_ports(0) == 2
        assert g.ports_used(0) == 2


class TestConnectivityAndValidation:
    def test_connected_detection(self):
        g = HostSwitchGraph(3, 4)
        g.add_switch_edge(0, 1)
        assert not g.is_switch_graph_connected()
        g.add_switch_edge(1, 2)
        assert g.is_switch_graph_connected()

    def test_single_switch_is_connected(self):
        assert HostSwitchGraph(1, 4).is_switch_graph_connected()

    def test_validate_passes_on_good_graph(self, fig1_graph):
        fig1_graph.validate()

    def test_validate_catches_desync(self):
        g = HostSwitchGraph(2, 4)
        g.attach_host(0)
        g._hosts_per_switch[0] = 0  # corrupt internals deliberately
        with pytest.raises(ValueError, match="desynchronised"):
            g.validate()


class TestCopyAndExport:
    def test_copy_is_independent(self, fig1_graph):
        dup = fig1_graph.copy()
        assert dup == fig1_graph
        dup.remove_switch_edge(0, 1)
        assert not dup == fig1_graph
        assert fig1_graph.has_switch_edge(0, 1)

    def test_equality_semantics(self):
        a = HostSwitchGraph.from_edges(2, 4, [(0, 1)], [0])
        b = HostSwitchGraph.from_edges(2, 4, [(0, 1)], [0])
        c = HostSwitchGraph.from_edges(2, 4, [(0, 1)], [1])
        assert a == b
        assert a != c

    def test_switch_csr_matches_adjacency(self, fig1_graph):
        indptr, indices = fig1_graph.switch_csr_arrays()
        assert len(indptr) == 4 + 1
        dense = np.zeros((4, 4), dtype=bool)
        for a in range(4):
            dense[a, indices[indptr[a]:indptr[a + 1]]] = True
        for a in range(4):
            for b in range(4):
                assert bool(dense[a, b]) == fig1_graph.has_switch_edge(a, b)

    @settings(max_examples=100, deadline=None)
    @given(_legal_inputs())
    @example((4, 3, [(0, 1), (1, 2)], [0]))  # switch 3 is isolated
    @example((46_341, 3, [(46_340, 0), (12_345, 46_340), (2, 1)], []))  # m * m >= 2**31
    def test_switch_csr_equals_csr_from_edges(self, inputs):
        m, r, edges, hosts = inputs
        g = _per_edge_build(m, r, edges, hosts)
        ref = CSRAdjacency.from_edges(m, g.switch_edges())
        indptr, indices = g.switch_csr_arrays()
        assert indptr.dtype == indices.dtype == np.int32
        assert np.array_equal(indptr, ref.indptr)
        assert np.array_equal(indices, ref.indices)

    def test_to_networkx_roundtrip_counts(self, fig1_graph):
        nxg = fig1_graph.to_networkx()
        hosts = [v for v, d in nxg.nodes(data=True) if d["kind"] == "host"]
        switches = [v for v, d in nxg.nodes(data=True) if d["kind"] == "switch"]
        assert len(hosts) == fig1_graph.num_hosts
        assert len(switches) == fig1_graph.num_switches
        assert nxg.number_of_edges() == fig1_graph.num_edges

    def test_host_counts_array(self, fig1_graph):
        counts = fig1_graph.host_counts()
        assert counts.tolist() == [4, 4, 4, 4]


def _fresh() -> HostSwitchGraph:
    """A legal 4-cycle at radix 5 with its host index built."""
    g = HostSwitchGraph.from_edges(4, 5, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 1, 2, 3, 3])
    g.move_any_host(3, 1)
    return g


def _overfill(g: HostSwitchGraph) -> None:
    """Three hosts past switch 1's budget, counter and index kept in step."""
    for h in range(g.num_hosts, g.num_hosts + 3):
        g._host_switch.append(1)
        g._hosts_per_switch[1] += 1
        g._hosts_by_switch[1].add(h)


class TestValidateDiagnostics:
    """One private-state corruption per validate() check, in check order.

    Each message names the lowest-id offending switch (or host) and, for a
    one-way arc, the orientation it is stored in.
    """

    @pytest.mark.parametrize(
        ("corrupt", "match"),
        [
            (lambda g: g._adj[2].add(2), r"^self loop at switch 2$"),
            (lambda g: g._adj[1].add(4), r"^edge \(1, 4\) leaves the switch range$"),
            (lambda g: g._adj[3].add(-1), r"^edge \(3, -1\) leaves the switch range$"),
            (lambda g: g._adj[3].add(1), r"^asymmetric adjacency at edge \(3, 1\)$"),
            (
                lambda g: g._adj[0].discard(1),
                r"^asymmetric adjacency at edge \(1, 0\)$",
            ),
            (
                lambda g: setattr(g, "_num_switch_edges", 5),
                r"^switch edge counter desynchronised from adjacency$",
            ),
            (
                lambda g: g._host_switch.__setitem__(2, 4),
                r"^host 2 attached to invalid switch 4$",
            ),
            (
                lambda g: g._hosts_per_switch.__setitem__(1, 0),
                r"^per-switch host counts desynchronised at switch 1: counter says 0, "
                r"attachment array has 2$",
            ),
            (
                lambda g: g._hosts_by_switch[2].add(0),
                r"^host index desynchronised at switch 2: index lists \[0, 2\], "
                r"attachment array has \[2\]$",
            ),
            (_overfill, "^" + _over_budget(1, 2, 5, 5) + "$"),
        ],
        ids=[
            "self-loop", "neighbour-too-large", "neighbour-negative", "one-way-arc",
            "one-way-arc-stored-high", "edge-counter", "host-switch", "host-count",
            "host-index", "port-budget",
        ],
    )
    def test_breach_message(self, corrupt, match):
        g = _fresh()
        g.validate()
        corrupt(g)
        with pytest.raises(ValueError, match=match):
            g.validate()

    def test_lowest_switch_named_first(self):
        g = _fresh()
        g._adj[3].add(3)
        g._adj[1].add(1)
        with pytest.raises(ValueError, match=r"^self loop at switch 1$"):
            g.validate()

    @settings(max_examples=300, deadline=None)
    @given(_legal_inputs(), st.booleans(), st.integers(0, 8), st.integers(0, 2**32))
    def test_agrees_with_loop_reference(self, inputs, index, kind, draw):
        g = HostSwitchGraph.from_edges(*inputs)
        if index:
            g._hosts_by_switch = g._index_hosts()
        _corrupt(g, kind, draw)
        assert _outcome(HostSwitchGraph.validate, g) == _outcome(_loop_validate, g)


def _corrupt(g: HostSwitchGraph, kind: int, draw: int) -> None:
    """Break one invariant of ``g`` (kind 0: none), chosen by ``draw``."""
    m, n = g.num_switches, g.num_hosts
    a = draw % m
    if kind == 1:
        g._adj[a].add(a)
    elif kind == 2:
        g._adj[a].add(m + draw % 3 if draw % 2 else -1 - draw % 3)
    elif kind == 3 and len(g._adj[a]) < m - 1:
        g._adj[a].add(next(b for b in range(m) if b != a and b not in g._adj[a]))
    elif kind == 4 and g._adj[a]:
        g._adj[a].discard(sorted(g._adj[a])[draw % len(g._adj[a])])
    elif kind == 5:
        g._num_switch_edges += 1
    elif kind == 6 and n:
        g._host_switch[draw % n] = (g._host_switch[draw % n] + 1 + draw % (m + 1)) % (m + 2)
    elif kind == 7:
        g._hosts_per_switch[a] += 1
    elif kind == 8:
        for _ in range(g.free_ports(a) + 1):
            g._host_switch.append(a)
            g._hosts_per_switch[a] += 1
            if g._hosts_by_switch is not None:
                g._hosts_by_switch[a].add(len(g._host_switch) - 1)


def _outcome(validate, g: HostSwitchGraph) -> str:
    try:
        validate(g)
    except ValueError as exc:
        return str(exc)
    return "valid"


def _loop_validate(g: HostSwitchGraph) -> None:
    """Reference validate(): one Python loop per check, same order and messages."""
    m = g.num_switches
    for a, nbrs in enumerate(g._adj):
        if a in nbrs:
            raise ValueError(f"self loop at switch {a}")
    for a, nbrs in enumerate(g._adj):
        for b in nbrs:
            if not 0 <= b < m:
                raise ValueError(f"edge ({a}, {b}) leaves the switch range")
    for a, nbrs in enumerate(g._adj):
        for b in nbrs:
            if a not in g._adj[b]:
                raise ValueError(f"asymmetric adjacency at edge ({a}, {b})")
    if sum(map(len, g._adj)) != 2 * g._num_switch_edges:
        raise ValueError("switch edge counter desynchronised from adjacency")
    counts = [0] * m
    for h, s in enumerate(g._host_switch):
        if not 0 <= s < m:
            raise ValueError(f"host {h} attached to invalid switch {s}")
        counts[s] += 1
    for s in range(m):
        if counts[s] != g._hosts_per_switch[s]:
            raise ValueError(
                f"per-switch host counts desynchronised at switch {s}: counter says "
                f"{g._hosts_per_switch[s]}, attachment array has {counts[s]}"
            )
    if g._hosts_by_switch is not None:
        for s in range(m):
            attached = {h for h, t in enumerate(g._host_switch) if t == s}
            if g._hosts_by_switch[s] != attached:
                raise ValueError(
                    f"host index desynchronised at switch {s}: index lists "
                    f"{sorted(g._hosts_by_switch[s])}, attachment array has {sorted(attached)}"
                )
    for s in range(m):
        used = len(g._adj[s]) + g._hosts_per_switch[s]
        if used > g.radix:
            raise ValueError(
                f"switch {s} exceeds its port budget: {used} ports used "
                f"({len(g._adj[s])} switch links + {g._hosts_per_switch[s]} hosts) "
                f"> radix {g.radix}"
            )


#: Each mutator called with one id out of range: ``call(g, bad)``.
_OUT_OF_RANGE = {
    "add_switch_edge": lambda g, bad: g.add_switch_edge(0, bad),
    "remove_switch_edge": lambda g, bad: g.remove_switch_edge(bad, 0),
    "attach_host": lambda g, bad: g.attach_host(bad),
    "move_host-switch": lambda g, bad: g.move_host(0, bad),
    "move_host-host": lambda g, bad: g.move_host(bad, 1),
    "move_any_host-from": lambda g, bad: g.move_any_host(bad, 1),
    "move_any_host-to": lambda g, bad: g.move_any_host(0, bad),
}


class TestMutatorRangeGuards:
    """Ids outside ``0..m-1`` (hosts: ``0..n-1``) are rejected before any change."""

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "m"])
    @pytest.mark.parametrize("call", sorted(_OUT_OF_RANGE))
    def test_rejected_without_change(self, call, bad):
        g = HostSwitchGraph.from_edges(3, 5, [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
        g.move_any_host(2, 0)  # builds the host index
        before = pickle.dumps(g)
        with pytest.raises(ValueError, match=r"outside 0\.\.2|attached to invalid switch"):
            _OUT_OF_RANGE[call](g, bad)
        assert pickle.dumps(g) == before
        g.validate()


class TestHostIndex:
    """The lazy per-switch host index behind ``move_any_host``."""

    def test_built_lazily_and_not_copied(self):
        g = HostSwitchGraph.from_edges(3, 6, [(0, 1), (1, 2)], [0, 0, 1, 2])
        assert g._hosts_by_switch is None
        g.attach_host(2)
        g.move_host(0, 1)
        assert g._hosts_by_switch is None
        assert g.move_any_host(0, 2) == 1
        assert g._hosts_by_switch == [set(), {0, 2}, {1, 3, 4}]
        assert g.copy()._hosts_by_switch is None
        g.validate()

    def test_validate_rejects_desynchronised_index(self):
        g = HostSwitchGraph.from_edges(3, 6, [(0, 1), (1, 2)], [0, 0, 1, 2])
        g.move_any_host(0, 2)
        g._hosts_by_switch[2].discard(1)  # corrupt internals deliberately
        g._hosts_by_switch[0].add(1)
        with pytest.raises(
            ValueError,
            match=r"host index desynchronised at switch 0: index lists \[0, 1\], "
            r"attachment array has \[0\]",
        ):
            g.validate()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["attach", "move", "move_any", "copy", "text", "pickle"]),
                st.integers(0, 2**32),
            ),
            max_size=40,
        )
    )
    def test_move_any_host_matches_highest_id_scan(self, ops):
        g = HostSwitchGraph.from_edges(5, 6, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 2, 2, 4])
        for op, draw in ops:
            switches = range(g.num_switches)
            open_ports = [s for s in switches if g.free_ports(s) > 0]
            if op == "attach" and open_ports:
                s = open_ports[draw % len(open_ports)]
                assert g.attach_host(s) == g.num_hosts - 1
            elif op == "move" and open_ports:
                h = draw % g.num_hosts
                g.move_host(h, open_ports[(draw // g.num_hosts) % len(open_ports)])
            elif op == "move_any":
                sources = [s for s in switches if g.hosts_on(s) > 0]
                source = sources[draw % len(sources)]
                targets = [s for s in open_ports if s != source]
                if targets:
                    expected = max(
                        h for h in range(g.num_hosts) if g.host_attachment(h) == source
                    )
                    target = targets[(draw // len(sources)) % len(targets)]
                    assert g.move_any_host(source, target) == expected
                    assert g.host_attachment(expected) == target
            elif op == "copy":
                g = g.copy()
            elif op == "text":
                g = graph_from_text(graph_to_text(g))
            elif op == "pickle":
                g = pickle.loads(pickle.dumps(g))
            g.validate()
