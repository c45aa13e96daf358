"""Name-based topology construction for harnesses, CLI, and examples.

``build_topology("torus", dimension=5, base=3, radix=15, num_hosts=1024)``
keeps benchmark configuration declarative (strings + kwargs) instead of
importing each builder.

Each family also *declares* its CLI parameters here (:data:`_CLI_PARAMS`):
the ``repro topology`` command builds its flags from these declarations
and maps parsed values back to builder kwargs via
:func:`topology_cli_kwargs`, so registering a new topology never requires
touching ``cli.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.hostswitch import HostSwitchGraph
    from repro.topologies.base import TopologySpec

__all__ = [
    "CLIParam",
    "available_topologies",
    "build_topology",
    "topology_cli_flags",
    "topology_cli_kwargs",
]

#: Builder per accepted name, as exported by :mod:`repro.topologies`; only
#: :func:`build_topology` imports one, so the CLI's flags cost no builder.
_BUILDERS = {
    "torus": "torus",
    "dragonfly": "dragonfly",
    "fat-tree": "fat_tree",
    "fattree": "fat_tree",
    "hypercube": "hypercube",
    "mesh": "mesh",
    "slim-fly": "slim_fly",
    "slimfly": "slim_fly",
    "jellyfish": "jellyfish",
    "random-shortcut-ring": "random_shortcut_ring",
    "compose": "compose_fabric",
}


@dataclass(frozen=True)
class CLIParam:
    """One CLI flag of a topology family.

    ``flag`` is the user-facing option (e.g. ``"--dimension"``); ``dest``
    is the *builder* kwarg it feeds (e.g. ``dim`` for hypercube), which may
    differ from the argparse attribute derived from the flag.
    """

    flag: str
    dest: str
    default: object
    help: str = ""

    @property
    def attr(self) -> str:
        """The argparse namespace attribute for :attr:`flag`."""
        return self.flag.lstrip("-").replace("-", "_")


#: Per-family CLI parameter declarations.  Families sharing a flag (e.g.
#: ``--radix``) must declare it with the same default — enforced by
#: :func:`topology_cli_flags` — since the CLI exposes one flag namespace.
_CLI_PARAMS: dict[str, tuple[CLIParam, ...]] = {
    "torus": (
        CLIParam("--dimension", "dimension", 3, "torus/mesh dimensionality"),
        CLIParam("--base", "base", 3, "switches per torus/mesh dimension"),
        CLIParam("--radix", "radix", 10, "switch radix"),
    ),
    "mesh": (
        CLIParam("--dimension", "dimension", 3, "torus/mesh dimensionality"),
        CLIParam("--base", "base", 3, "switches per torus/mesh dimension"),
        CLIParam("--radix", "radix", 10, "switch radix"),
    ),
    "dragonfly": (
        CLIParam("--a", "a", 8, "dragonfly group size"),
    ),
    "fat-tree": (
        CLIParam("--k", "k", 8, "fat-tree arity"),
    ),
    "hypercube": (
        CLIParam("--dimension", "dim", 3, "torus/mesh dimensionality"),
        CLIParam("--radix", "radix", 10, "switch radix"),
    ),
    "slim-fly": (
        CLIParam("--q", "q", 5, "slim-fly field size (prime, 1 mod 4)"),
    ),
    "jellyfish": (
        CLIParam("--switches", "num_switches", 32, "jellyfish/ring switch count"),
        CLIParam("--radix", "radix", 10, "switch radix"),
        CLIParam("--hosts-per-switch", "hosts_per_switch", 4,
                 "jellyfish concentration"),
        CLIParam("--seed", "seed", 0, "seed for randomised topologies"),
    ),
    "random-shortcut-ring": (
        CLIParam("--switches", "num_switches", 32, "jellyfish/ring switch count"),
        CLIParam("--radix", "radix", 10, "switch radix"),
        CLIParam("--matchings", "num_matchings", 2, "shortcut-ring matchings"),
        CLIParam("--seed", "seed", 0, "seed for randomised topologies"),
    ),
    "compose": (
        CLIParam("--copies", "copies", 4, "composed-fabric block copies"),
        CLIParam("--block-hosts", "block_hosts", 12,
                 "composed-fabric hosts per block"),
        CLIParam("--radix", "radix", 10, "switch radix"),
    ),
}

#: Families whose builder takes ``num_hosts`` (the CLI's ``--hosts``).
_ACCEPTS_NUM_HOSTS = frozenset(
    name for name in _CLI_PARAMS if name != "jellyfish"
)


def topology_cli_flags() -> list[CLIParam]:
    """The union of all families' CLI flags, deduplicated and validated.

    Families sharing a flag must agree on its default/help (one flag
    namespace); a conflicting declaration is a registry bug and raises.
    Order follows first declaration, so ``--help`` output stays stable.
    """
    merged: dict[str, CLIParam] = {}
    for name, params in _CLI_PARAMS.items():
        for param in params:
            existing = merged.get(param.flag)
            if existing is None:
                merged[param.flag] = param
            elif (existing.default, existing.help) != (param.default, param.help):
                raise ValueError(
                    f"topology {name!r} declares {param.flag} with "
                    f"default={param.default!r} but another family uses "
                    f"default={existing.default!r}"
                )
    return list(merged.values())


def topology_cli_kwargs(name: str, values: dict[str, object]) -> dict[str, object]:
    """Builder kwargs for ``name`` from parsed CLI ``values`` (by attr).

    ``values`` maps argparse attributes (e.g. ``vars(args)``) to parsed
    values; only the flags this family declares are consulted, and
    ``hosts`` becomes ``num_hosts`` for families that accept it.
    """
    canonical = name.lower().replace("fattree", "fat-tree").replace(
        "slimfly", "slim-fly"
    )
    try:
        params = _CLI_PARAMS[canonical]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; available: {available_topologies()}"
        ) from None
    kwargs: dict[str, object] = {}
    for param in params:
        if param.attr in values:
            kwargs[param.dest] = values[param.attr]
    hosts = values.get("hosts")
    if hosts is not None and canonical in _ACCEPTS_NUM_HOSTS:
        kwargs["num_hosts"] = hosts
    return kwargs


def available_topologies() -> list[str]:
    """Canonical topology names accepted by :func:`build_topology`."""
    return [
        "torus",
        "dragonfly",
        "fat-tree",
        "hypercube",
        "mesh",
        "slim-fly",
        "jellyfish",
        "random-shortcut-ring",
        "compose",
    ]


def build_topology(name: str, **kwargs) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a topology by family name; kwargs go to the family builder."""
    try:
        builder = _BUILDERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; available: {available_topologies()}"
        ) from None
    import repro.topologies

    return getattr(repro.topologies, builder)(**kwargs)
