"""REP004 fixture: equality comparison against float("inf").

The fix is ``math.isinf(dist)``: ``==`` against infinity is fragile.
"""


def is_unreachable(dist):
    return dist == float("inf")
