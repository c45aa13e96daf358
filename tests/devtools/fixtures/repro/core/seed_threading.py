"""REP010 fixture: None-defaulted seeds reaching ambient entropy.

Both defaults below fire; defaulting each seed to an integer (None ->
0) makes the module lint clean.
"""

import numpy as np


def make_rng(seed=None):
    return np.random.default_rng(seed)


def solve(graph, seed=None):
    rng = make_rng(seed)
    return rng.random()
