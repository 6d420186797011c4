"""The estimator and its sample tree written out from the definition, path by
path, as references for the library's block draws and depth-at-a-time readers."""

import struct

import numpy as np

from picardnets import RandomOracle, brownian_increment, uniform_time


def reference_eval(n, t, x, theta, cfg, fns, oracle):
    """The estimator written out from its definition, drawing as it recurses."""
    if n == 0:
        return 0.0
    horizon = cfg.horizon
    M = cfg.M

    acc_g = 0.0
    for k in range(1, M**n + 1):
        shift = brownian_increment(oracle, theta + (0, -k), horizon - t)
        acc_g += fns.g(x + shift)
    total = acc_g / M**n

    for i in range(n):
        acc_i = 0.0
        for k in range(1, M ** (n - i) + 1):
            branch = theta + (i, k)
            s = uniform_time(oracle, branch, t, horizon)
            shift = brownian_increment(oracle, branch, s - t)
            y = x + shift
            term = fns.f(reference_eval(i, s, y, branch, cfg, fns, oracle))
            if i >= 1:
                term -= fns.f(reference_eval(i - 1, s, y, theta + (-i, k), cfg, fns, oracle))
            acc_i += term
        total += (horizon - t) / M ** (n - i) * acc_i
    return total


def reference_tree(n, t, theta, cfg, oracle, times):
    """The sample tree of one oracle drawn path by path, as the definition
    recurses, with only the draws its readers read.

    A level-n tree is (shifts, tiers): `shifts` holds the M**n datum shifts
    drawn along (theta, 0, -k), shape (M**n, d), and tier i is (scale,
    branches) with scale (horizon - t) / M**(n-i). Tier 0 has no branches: f of
    a level-0 recursion is f(0) whatever is drawn for it. A branch of tier
    i >= 1 is (shift, child, below): the shift drawn along (theta, i, k), the
    level-i tree at the branch's time along that path, and for i >= 2 the
    level-(i-1) tree at the same time along (theta, -i, k) (None for i = 1).
    The level-0 tree is ((), ()). `times` collects each drawn branch path's time.
    """
    if n == 0:
        return (), ()
    horizon = cfg.horizon
    M = cfg.M
    shifts = np.array(
        [brownian_increment(oracle, theta + (0, -k), horizon - t) for k in range(1, M**n + 1)]
    )
    tiers = [((horizon - t) / M**n, ())]
    for i in range(1, n):
        branches = []
        for k in range(1, M ** (n - i) + 1):
            branch = theta + (i, k)
            s = times[branch] = uniform_time(oracle, branch, t, horizon)
            shift = brownian_increment(oracle, branch, s - t)
            child = reference_tree(i, s, branch, cfg, oracle, times)
            below = reference_tree(i - 1, s, theta + (-i, k), cfg, oracle, times) if i >= 2 else None
            branches.append((shift, child, below))
        tiers.append(((horizon - t) / M ** (n - i), tuple(branches)))
    return shifts, tuple(tiers)


class LoggingOracle(RandomOracle):
    """An oracle that logs one (path, kind) per hashed path, as its keyed hash
    sees the messages, whichever call shape or seed block drew them."""

    def __init__(self, seed, d):
        super().__init__(seed, d)
        self.calls = []
        self._keyed = LoggingKey(self._keyed, self.calls)


class LoggingKey:
    """Stands in for an oracle's keyed BLAKE2b state. A message is the path's
    length prefix and entries, then the kind byte and the 8-byte digest counter;
    each copy logs (path, kind) when it hashes a path's first digest."""

    def __init__(self, keyed, log):
        self.keyed, self.log = keyed, log

    def copy(self):
        return LoggingKey(self.keyed.copy(), self.log)

    def update(self, message):
        if message[-8:] == bytes(8):
            (length,) = struct.unpack_from("<Q", message)
            self.log.append((struct.unpack_from(f"<{length}q", message, 8), message[-9:-8]))
        self.keyed.update(message)

    def digest(self):
        return self.keyed.digest()
