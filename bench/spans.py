"""In-memory spans around the public calls of each picardnets layer.

Nothing in the library is edited: `Tracer.install` replaces each listed
public function with a wrapper in every picardnets module that holds it, and
patches the two class boundaries (`Network.__post_init__`,
`Activation.__call__`) and the `ProblemFns` that `verify_equivalence` builds.
A span is (name, start, end, parent, request id); a
layer's self time is its spans' durations minus the part their child spans
cover. Spans are kept only while a request runs, so set-up and correctness
gates never show up in them.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from picardnets.engine import ProblemFns

# Imported by path: the package namespace rebinds `network` to the `network()` function.
activations, calculus, compiler, engine, network, sampling = (
    importlib.import_module(f"picardnets.{name}")
    for name in ("activations", "calculus", "compiler", "engine", "network", "sampling")
)

LAYER_FUNCTIONS = {
    "sampling": (sampling, ("uniform_time", "brownian_increment", "probe_point")),
    "engine": (engine, ("mlp_eval", "mlp_estimate_batch")),
    "compiler": (compiler, ("compile_mlp", "verify_equivalence", "size_report")),
    "calculus": (
        calculus,
        (
            "affine", "compose", "identity_affine", "power", "extend", "parallelize", "fan_in",
            "fan_out", "sum_same_depth", "scalar_mul", "linear_combination_same", "sum_diff_depth",
            "activation_wrapper",
        ),
    ),
    "network": (network, ("network", "realize", "dumps_network", "loads_network", "save_network", "load_network")),
}


def _realize_stats(counts: Counter, args: tuple, result: object) -> None:
    net, x = args[0], np.asarray(args[2])
    rows = 1 if x.ndim == 1 else x.shape[0]
    counts["network.realize_rows"] += rows
    # Bytes read and written: every weight and bias once, inputs and outputs per row.
    for w, b in net.layers:
        counts["network.realize_bytes"] += w.nbytes + b.nbytes + 8 * rows * (w.shape[0] + w.shape[1])


def _frozen_stats(counts: Counter, args: tuple, result: object) -> None:
    counts["network.bytes_frozen"] += sum(w.nbytes + b.nbytes for w, b in args[0].layers)


def _activation_stats(counts: Counter, args: tuple, result: object) -> None:
    counts["activations.elements"] += np.size(args[1])


class Tracer:
    """Span recorder; a wrapper records only while `active` (inside a request)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.active = False
        self._stack = [-1]
        self._request_id = -1
        self._undo: list[tuple[object, str, object]] = []
        self._root = self.wrap("bench.request", lambda body: body())

    def wrap(self, name: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1])
            self.name.append(name_id)
            self.request.append(self._request_id)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_exit is not None:
                on_exit(self.counts, args, result)
            return result

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary; `restore` undoes it."""
        for layer, (mod, attrs) in LAYER_FUNCTIONS.items():
            for attr in attrs:
                fn = getattr(mod, attr)
                wrapper = self.wrap(f"{layer}.{attr}", fn, _realize_stats if attr == "realize" else None)
                for mod_name, holder in list(sys.modules.items()):
                    if mod_name == "picardnets" or mod_name.startswith("picardnets."):
                        for name, value in list(vars(holder).items()):
                            if value is fn:
                                self._set(holder, name, wrapper)
        post_init = network.Network.__post_init__
        self._set(network.Network, "__post_init__", self.wrap("network.construct", post_init, _frozen_stats))
        call = activations.Activation.__call__
        self._set(activations.Activation, "__call__", self.wrap("activations.call", call, _activation_stats))
        # verify_equivalence builds its f/g callbacks (realize closures) itself.
        self._set(compiler, "ProblemFns", self.traced_fns)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def traced_fns(self, f: Callable, g: Callable, f_lipschitz: float | None = None) -> ProblemFns:
        """ProblemFns whose f/g callbacks are spans of the `fns` layer."""
        return ProblemFns(f=self.wrap("fns.f", f), g=self.wrap("fns.g", g), f_lipschitz=f_lipschitz)

    def run_request(self, request_id: int, body: Callable[[], object]) -> object:
        """Run one request under a root span, recording the library calls it makes."""
        self._request_id = request_id
        self.active = True
        try:
            return self._root(body)
        finally:
            self.active = False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-layer aggregates derived from a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.arrays()
        self._names = tracer.names
        self._layers = sorted({n.split(".")[0] for n in tracer.names})
        layer_of = np.array([self._layers.index(n.split(".")[0]) for n in tracer.names])
        self.name = spans["name"]
        self.dur = spans["end"] - spans["start"]
        self.layer = layer_of[self.name]
        has_parent = spans["parent"] >= 0
        parent = np.where(has_parent, spans["parent"], 0)
        covered = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size)
        self.self_time = self.dur - covered
        self.parent_name = np.where(has_parent, self.name[parent], -1)
        # An entry is a span called from another layer: a boundary crossing.
        self.entry = self.layer != np.where(has_parent, self.layer[parent], -1)

    def _name_mask(self, name: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self._names) if n == name]
        return np.isin(self.name, ids)

    def _layer_mask(self, layer: str) -> np.ndarray:
        if layer not in self._layers:
            return np.zeros(self.name.size, dtype=bool)
        return self.layer == self._layers.index(layer)

    def count(self, name: str, parent: str | None = None) -> int:
        mask = self._name_mask(name)
        if parent is not None:
            ids = [i for i, n in enumerate(self._names) if n == parent]
            mask &= np.isin(self.parent_name, ids)
        return int(mask.sum())

    def total(self, name: str) -> float:
        return float(self.dur[self._name_mask(name)].sum())

    def entries(self, layer: str) -> int:
        return int((self.entry & self._layer_mask(layer)).sum())

    def inclusive(self, layer: str) -> float:
        return float(self.dur[self.entry & self._layer_mask(layer)].sum())

    def self_s(self, layer: str) -> float:
        return float(self.self_time[self._layer_mask(layer)].sum())
