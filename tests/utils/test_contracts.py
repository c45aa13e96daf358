"""Tests for the runtime contract layer (:mod:`repro.utils.contracts`)."""

from __future__ import annotations

import pytest

from repro.core.hostswitch import HostSwitchGraph
from repro.utils.contracts import (
    ContractViolation,
    contracts_enabled,
    contracts_level,
    ensures,
    set_contracts,
)


@pytest.fixture(autouse=True)
def _restore_level():
    yield
    set_contracts(None)


# --------------------------------------------------------------------- #
# Level plumbing
# --------------------------------------------------------------------- #


def test_default_level_is_on(monkeypatch):
    monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
    set_contracts(None)
    assert contracts_level() == "on"
    assert contracts_enabled()


@pytest.mark.parametrize("raw", ["0", "false", "off", "no", " OFF "])
def test_env_disables(monkeypatch, raw):
    monkeypatch.setenv("REPRO_CONTRACTS", raw)
    set_contracts(None)
    assert contracts_level() == "off"
    assert not contracts_enabled()


@pytest.mark.parametrize("raw", ["full", "2", "all"])
def test_env_full(monkeypatch, raw):
    monkeypatch.setenv("REPRO_CONTRACTS", raw)
    set_contracts(None)
    assert contracts_level() == "full"


def test_set_contracts_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    set_contracts("full")
    assert contracts_level() == "full"
    set_contracts(None)
    assert contracts_level() == "off"


def test_env_is_read_once_until_reset(monkeypatch):
    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    set_contracts(None)
    assert contracts_level() == "on"
    monkeypatch.setenv("REPRO_CONTRACTS", "off")
    assert contracts_level() == "on"  # cached
    set_contracts(None)
    assert contracts_level() == "off"


def test_counting_wrapper_sees_only_uncached_level_reads(monkeypatch):
    # The end-to-end tracer counts checks by wrapping the module attribute.
    # A mutator reads the cached level and calls contracts_level only while
    # nothing is cached: the first edit after set_contracts(None) parses the
    # environment, the later ones read the cache.
    import repro.utils.contracts as contracts

    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    set_contracts(None)
    calls = []
    real = contracts.contracts_level

    def counting() -> str:
        calls.append(1)
        return real()

    monkeypatch.setattr(contracts, "contracts_level", counting)
    g = HostSwitchGraph(num_switches=3, radix=4)
    g.add_switch_edge(0, 1)
    g.add_switch_edge(1, 2)
    h = g.attach_host(0)
    g.move_host(h, 2)
    g.move_any_host(2, 0)
    g.remove_switch_edge(0, 1)
    assert len(calls) == 1
    calls.clear()
    set_contracts("on")
    g.add_switch_edge(0, 1)
    assert calls == []
    HostSwitchGraph.from_edges(3, 4, [(0, 1), (1, 2)], [0, 2])
    assert calls == []  # the bulk constructor makes no mutator call


def test_level_set_between_two_edits_applies_to_the_second():
    # The wrapper reads the cached level on every call, so switching to
    # "full" between two edits validates after the second one.
    set_contracts("on")
    g = HostSwitchGraph(num_switches=3, radix=4)
    g.add_switch_edge(0, 1)
    g._hosts_per_switch[2] = -1  # corrupted behind the guards' back
    g.add_switch_edge(1, 2)  # "on": the edit's own guard only
    set_contracts("full")
    with pytest.raises(ContractViolation, match="desynchronised"):
        g.remove_switch_edge(1, 2)
    set_contracts("off")
    g.add_switch_edge(0, 2)  # "off" again: no check


def test_set_contracts_accepts_bool():
    set_contracts(False)
    assert contracts_level() == "off"
    set_contracts(True)
    assert contracts_level() == "on"


def test_set_contracts_rejects_junk():
    with pytest.raises(ValueError, match="level must be"):
        set_contracts("loud")


# --------------------------------------------------------------------- #
# ensures
# --------------------------------------------------------------------- #


@ensures(lambda r: r >= 0, "result must be non-negative")
def _identity(x: float) -> float:
    return x


def test_ensures_passes_and_fails():
    set_contracts("on")
    assert _identity(3.0) == 3.0
    with pytest.raises(ContractViolation, match="postcondition"):
        _identity(-3.0)


def test_ensures_disabled_skips_check():
    set_contracts("off")
    assert _identity(-3.0) == -3.0


def test_contract_violation_is_assertion_error():
    assert issubclass(ContractViolation, AssertionError)


# --------------------------------------------------------------------- #
# graph_invariant on the real mutation methods
# --------------------------------------------------------------------- #


def _corrupted_graph() -> HostSwitchGraph:
    """Graph whose host counter is broken behind the public guards' back."""
    g = HostSwitchGraph(num_switches=2, radix=3)
    g._hosts_per_switch[0] = -1
    return g


def test_mutations_clean_under_all_levels():
    for level in ("off", "on", "full"):
        set_contracts(level)
        g = HostSwitchGraph(num_switches=3, radix=4)
        g.add_switch_edge(0, 1)
        g.add_switch_edge(1, 2)
        h = g.attach_host(0)
        g.move_host(h, 2)
        g.remove_switch_edge(0, 1)
        assert g.num_hosts == 1


def test_full_level_runs_validate():
    set_contracts("full")
    g = _corrupted_graph()
    with pytest.raises(ContractViolation, match="desynchronised"):
        g.add_switch_edge(0, 1)


def test_on_level_leaves_corrupted_state_to_validate():
    # The mutator's guard checks the edit itself; private state corrupted
    # between two edits is caught at "full" (above) or by validate().
    set_contracts("on")
    g = _corrupted_graph()
    g.add_switch_edge(0, 1)
    assert g.has_switch_edge(0, 1)
    with pytest.raises(ValueError, match="desynchronised"):
        g.validate()


def test_off_level_skips_invariant_checks():
    set_contracts("off")
    g = _corrupted_graph()
    g.add_switch_edge(0, 1)  # no contract check, no raise
    assert g.has_switch_edge(0, 1)


def test_metrics_postcondition_holds_on_real_graph():
    from repro.core.construct import clique_host_switch_graph
    from repro.core.metrics import h_aspl_and_diameter

    set_contracts("on")
    aspl, diam = h_aspl_and_diameter(clique_host_switch_graph(8, 6))
    assert aspl >= 2.0
    assert diam >= aspl
