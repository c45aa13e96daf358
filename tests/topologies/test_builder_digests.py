"""Every graph builder's output, pinned bit for bit.

Each digest is a sha256 over the graph text, the ``switch_edges()`` order,
the raw iteration order of every neighbour set and the host attachment
list: the annealer samples edges in ``switch_edges()`` order and a set's
iteration order follows its insertion history, so two builds that differ
only in the order they added edges would anneal differently.  The digests
were taken from the edge-by-edge builders these replaced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.construct import (
    clique_host_switch_graph,
    random_host_switch_graph,
    star_host_switch_graph,
)
from repro.core.serialization import graph_to_text
from repro.topologies import (
    compose_fabric,
    dragonfly,
    fat_tree,
    hypercube,
    jellyfish,
    mesh,
    random_shortcut_ring,
    slim_fly,
    torus,
)


def _fills(name, build, full, partial):
    """Cases for both host fills at full and partial host counts."""
    return {
        f"{name}-{fill}-{size}": (lambda fill=fill, n=n: build(num_hosts=n, fill=fill)[0])
        for fill in ("sequential", "round-robin")
        for size, n in (("full", full), ("partial", partial))
    }


CASES = {
    "star-partial": lambda: star_host_switch_graph(3, 6),
    "star-full": lambda: star_host_switch_graph(6, 6),
    "clique-min": lambda: clique_host_switch_graph(20, 8),
    "clique-full": lambda: clique_host_switch_graph(12, 6, m=3),
    "clique-partial": lambda: clique_host_switch_graph(13, 7, m=4),
    **_fills("torus", lambda **kw: torus(2, 4, 7, **kw), None, 37),
    **_fills("torus-base2", lambda **kw: torus(3, 2, 5, **kw), None, 11),
    **_fills("mesh", lambda **kw: mesh(2, 4, 6, **kw), None, 23),
    **_fills("hypercube", lambda **kw: hypercube(4, 7, **kw), None, 29),
    **_fills("dragonfly", lambda **kw: dragonfly(4, **kw), None, 50),
    **_fills("slim-fly", lambda **kw: slim_fly(5, **kw), None, 77),
    "fat-tree-full": lambda: fat_tree(4)[0],
    "fat-tree-partial": lambda: fat_tree(6, num_hosts=40)[0],
    **_fills(
        "random-shortcut-ring",
        lambda **kw: random_shortcut_ring(16, 6, 2, seed=3, **kw), None, 21,
    ),
    "jellyfish": lambda: jellyfish(20, 8, 3, seed=5)[0],
    "compose": lambda: compose_fabric(4, 12, 10)[0],
    "compose-3": lambda: compose_fabric(3, 14, 9)[0],
    "random": lambda: random_host_switch_graph(64, 12, 8, seed=1),
    "random-no-fill": lambda: random_host_switch_graph(64, 12, 8, seed=1, fill_edges=False),
    "random-uneven": lambda: random_host_switch_graph(101, 23, 9, seed=2),
}


def graph_digest(g) -> str:
    """sha256 of the text, edge order, raw neighbour-set order and hosts."""
    parts = [
        graph_to_text(g),
        " ".join(f"{a}-{b}" for a, b in g.switch_edges()),
        ";".join(",".join(map(str, nbrs)) for nbrs in g._adj),
        ",".join(map(str, g.host_attachments().tolist())),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


PINNED = {
    "clique-full": "07fd5871c555be2f6b9619713f1fe43a75d0d3fd37ff6c6f868eb4619a7e552c",
    "clique-min": "6c2774b7ed94561f8f90feee1a6d4103317306b3978bfd86ffc2d72dc1e6f66b",
    "clique-partial": "e1f23ec99d5f22cd6cb5404fec1b9e76a51cc6d77e1c2c4258656356821c704a",
    "compose": "74db5c53e05d00c6175a7645ae033565a736ce486c8be3febaad5b7fb7102de3",
    "compose-3": "35b77f0795563274b48a1b81c5d00f73b54f764a18ee981d2325318594823e59",
    "dragonfly-round-robin-full": "088a1fac1915b273878047f8a8e3ca1eb11cad6292a45c897e232b1bbe03612d",
    "dragonfly-round-robin-partial": "019fce738573188a652013a318decdddef7392aaa42cd9ae6adb895256533774",
    "dragonfly-sequential-full": "d28934c7d5c0ce77b0bee7cbf7de5c239f0c55135f82a78107087c9a16f7f7b5",
    "dragonfly-sequential-partial": "d78a2e91da7420d0a1919dd659d836e193ee44a0ba0f7c92c3c94853402e9fd5",
    "fat-tree-full": "69811c7c2a13de12a7126d05e09d099e205cb3a956ef1a2c38475304ef46c154",
    "fat-tree-partial": "0ad6bdef83f3e4a50484eb340910ac8bb2d4475362e819388181c23214caf2f3",
    "hypercube-round-robin-full": "bccd6b9420dfcdd47ee4a44bfc4b904f10597b712c5f779116b510aa2faee85e",
    "hypercube-round-robin-partial": "28c51e0c4f85eb0317286085e938fc6f79ba20345dd45a78f09e148223cc4a97",
    "hypercube-sequential-full": "6cca7f29d613286b0bae145b912d2f98d6d1e07c0b315fd949457450badeba58",
    "hypercube-sequential-partial": "7d4bc68178e6fa17b523f48590ca302e8889ffb3fd7e36fcb55bfbab74f6ff19",
    "jellyfish": "da9f850d7104f310ce73b7dc9a1b081db163ece29b2a746b9d3ce9ad297896e0",
    "mesh-round-robin-full": "05b478e87757de4765843f3506a4513a851b8644aeba357b441ad6d7a06fa1fe",
    "mesh-round-robin-partial": "6fe6ff62249470f229ced7bcb1f461b778be9f9fdc5aafefed34baf4260b04f1",
    "mesh-sequential-full": "b12fefeb87e3f338dcb5483e98d162e1f270bd1394e20fe76158406cc85c382f",
    "mesh-sequential-partial": "faa59421703744cdcff2607c67684c47a820675cb2876a5189fb0dc652fe5ae2",
    "random": "2b78659bc02370fec194de63bc8b29abe8f2ae9a8b062cb078254eb6681e924a",
    "random-no-fill": "7736cbb6c6e95ed84b7b75f1364c1b839c5770b8b662706d7ce93a8f59361eef",
    "random-shortcut-ring-round-robin-full": "a69aaea8b97f248102ff6b293e77cabe52c56d5a97f7e33c8b05beeaefcabfbc",
    "random-shortcut-ring-round-robin-partial": "991e75a4eb0f09931284abb58caf01f58c501ca671cfcbb0ede50549341022d6",
    "random-shortcut-ring-sequential-full": "e8a1bb4077447b1ec8ebe92beadc9b47a5b1237fe4e77b4f4b821a82738e3964",
    "random-shortcut-ring-sequential-partial": "a3514f7ea77156965875911edcce261be51027788d32283123f8809bec0ac71c",
    "random-uneven": "90b98e79632251447a436accdd40c593b57559fd24c3be2accd6e78e7fa8747f",
    "slim-fly-round-robin-full": "bb1ed4f5c4c72bc1f31baf01b43be3298b47a7274f0b451c2dcd3493bc73bf73",
    "slim-fly-round-robin-partial": "d0be24938ed20bf9fc20255e5497abaac347705a679d3221631520ecb332798d",
    "slim-fly-sequential-full": "522c958f07e9d5a322c72202bd8711845cd6136e191418f33410f6f059b73594",
    "slim-fly-sequential-partial": "479efca96d5503493c9d09b33ba82bc0674b0a4fc8e5484f0a5579fa5da57348",
    "star-full": "358c31714f2363a8a71f09fdab044cd81678755682614cc6456c00f4a3cdef0c",
    "star-partial": "610416fc52c01de199ee4a35ee5b59a18c0cf0a018e66707f6e1da0d0c5263fd",
    "torus-base2-round-robin-full": "d5604951d5c903f5e73de2edc9973604bb3d5226682eea5b8069a4abe98dc99a",
    "torus-base2-round-robin-partial": "18fe3383dbdaedb63a0ffceb36a4f02b6240a7a479b991ea7543875bbfeda19c",
    "torus-base2-sequential-full": "bcff563b3692f724d70a72552a064d52b8501d45c0c5fcf1c32d8610b87ea4bb",
    "torus-base2-sequential-partial": "b7017f3e2aaccb2e09118aa7bbd8057fafb5c6f863ff8862c5ebb2ac3ec33245",
    "torus-round-robin-full": "8caa12cec5bf4fe340ee8f1bdfca0767ec06ba05df850929d76d94a1a5223942",
    "torus-round-robin-partial": "234c3b57eb2f77b912f02d2d114f8bd60b417567a8ab427167ac06fea3aab887",
    "torus-sequential-full": "867a8ec3118d6329616aaf363988cc9bf7278c8abc7c619458c20be84863640f",
    "torus-sequential-partial": "b58c939c6d4c901f5e62b28ff236c2c7397e98e87949b4e5d331d536eef879df",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_builder_output_is_pinned(name):
    g = CASES[name]()
    g.validate()
    assert graph_digest(g) == PINNED[name]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)
