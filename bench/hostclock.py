"""Phase timing that corrects for the speed of a shared host.

On a shared host the same request runs up to 1.6x slower at some times than
at others: neighbours slow this core (the process's CPU time grows with its
wall time, so it is not descheduling). A slow state lasts from a second to
minutes, so one 20-second run may see mostly one state or mostly the other,
and neither its median nor its fastest request repeats between runs. How much
a slow state slows a piece of work depends on the kind of work: interpreter
loops suffer more than streaming array code.

A `PhaseClock` therefore times a short fixed calibration kernel right before
and right after every timed phase. The kernels belong to the benchmark and
call nothing in picardnets; each copies the kind of work a phase does. A
phase is reported twice: its wall time, and its wall time scaled by
`reference time / calibration time` (the mean of the two), i.e. in seconds of
the host state in which the kernel takes its reference time. A change to the
library moves the phase time and not the calibration, so it moves the scaled
time by the same factor.
"""

from __future__ import annotations

import hashlib
import json
import struct
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.special import ndtri

_KEY = struct.pack("<q", 12345)
_POINT = np.full(5, 0.5)
_ARRAYS: dict[str, np.ndarray] = {}  # made on first use, so a process that never calibrates does not hold them


def _oracle_loop() -> None:
    """The estimator's inner step: pack a theta path, keyed blake2b, lanes to uniforms to normals, a 5-vector."""
    for i in range(900):
        path = b"".join([struct.pack("<Q", 3), struct.pack("<q", i), struct.pack("<q", 1), struct.pack("<q", -i)])
        digest = hashlib.blake2b(path + b"G" + struct.pack("<Q", 0), digest_size=64, key=_KEY).digest()
        lanes = np.concatenate([np.frombuffer(digest, dtype="<u8")])[:5]
        y = _POINT + np.sqrt(0.5) * ndtri((lanes.astype(np.float64) + 0.5) / 2.0**64)
        float(np.sum(y * y))


def _json_loop() -> None:
    """A network file's round trip in small: floats to a list, JSON text, and back to an array."""
    if "floats" not in _ARRAYS:
        _ARRAYS["floats"] = np.random.default_rng(0).random(8_000)
    text = json.dumps({"w": _ARRAYS["floats"].tolist()}, sort_keys=True)
    np.asarray(json.loads(text)["w"])


def _array_loop() -> None:
    """A batched `realize` layer in small: 16 rows times a 32 MB weight matrix, twice."""
    if "weights" not in _ARRAYS:
        _ARRAYS["weights"] = np.ones((512, 8192))
        _ARRAYS["rows"] = np.ones((16, 512))
    for _ in range(2):
        _ARRAYS["rows"] @ _ARRAYS["weights"]


# A kernel is a sequence of loops and its time on the fast state of the 2-vCPU host the benchmark
# was sized on; the reference only sets the scale in which scaled times are printed.
KERNELS: dict[str, tuple[tuple[Callable[[], None], ...], float]] = {
    # Estimates are nothing but the estimator's inner step.
    "estimator": ((_oracle_loop,), 0.0077),
    # Set-up and the compile pipeline mix interpreter, JSON and streaming array work.
    "mixed": ((_oracle_loop, _json_loop, _array_loop), 0.0220),
}


def calibrate(kernel: str) -> float:
    """Seconds the kernel takes now, the faster of two tries."""
    loops = KERNELS[kernel][0]
    times = []
    for _ in range(2):
        start = perf_counter()
        for loop in loops:
            loop()
        times.append(perf_counter() - start)
    return min(times)


class PhaseClock:
    """Times the named phases of one request; a phase timed twice adds up.

    Phases that follow each other directly share the calibration between them.
    With `kernel=None` the clock records wall time only.
    """

    def __init__(self, kernel: str | None) -> None:
        self.kernel = kernel
        self.wall: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._last: float | None = None

    @contextmanager
    def phase(self, name: str):
        if self.kernel is not None and self._last is None:
            self._last = calibrate(self.kernel)
        start = perf_counter()
        yield
        elapsed = perf_counter() - start
        self.wall[name] = self.wall.get(name, 0.0) + elapsed
        if self.kernel is not None:
            before, self._last = self._last, calibrate(self.kernel)
            reference = KERNELS[self.kernel][1]
            self.scaled[name] = self.scaled.get(name, 0.0) + elapsed * reference / (0.5 * (before + self._last))
