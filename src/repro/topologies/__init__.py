"""Conventional interconnection topologies as host-switch graphs (Section 6.1).

Each builder returns a :class:`repro.core.HostSwitchGraph` plus a spec
object recording the parameters the paper derives (``n_max``, ``m``, ``r``).
The three paper comparators are :func:`torus`, :func:`dragonfly`, and
:func:`fat_tree`; :func:`hypercube` and :func:`mesh` are additional classics
built on the same machinery and used in tests/examples.
"""

from repro._lazy import export_lazily

__all__ = export_lazily(
    __name__,
    {
        "repro.topologies.registry": (
            "CLIParam",
            "available_topologies",
            "build_topology",
            "topology_cli_flags",
            "topology_cli_kwargs",
        ),
        "repro.topologies.base": ("TopologySpec",),
        "repro.topologies.torus": ("torus", "torus_spec"),
        "repro.topologies.dragonfly": ("dragonfly", "dragonfly_spec"),
        "repro.topologies.fattree": ("fat_tree", "fat_tree_spec"),
        "repro.topologies.hypercube": ("hypercube", "hypercube_spec"),
        "repro.topologies.mesh": ("mesh", "mesh_spec"),
        "repro.topologies.slimfly": ("slim_fly", "slim_fly_spec"),
        "repro.topologies.jellyfish": ("jellyfish", "jellyfish_spec"),
        "repro.topologies.random_shortcut": (
            "random_shortcut_ring",
            "random_shortcut_spec",
        ),
        "repro.topologies.compose": ("compose_fabric", "compose_fabric_spec"),
    },
)
