"""What the benchmark under bench/ needs from the package.

The benchmark is frozen between the changes that measure it, so a public name
it reaches for must outlive any cleanup of the library; these tests only read
bench/.
"""

import importlib.util
from pathlib import Path

from picardnets import ProblemFns

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    # loaded by path: bench/ is a directory of scripts, not a package
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = bench_module("spans")
    for layer, (module, names) in spans.LAYER_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_fns_builds_problem_fns():
    spans = bench_module("spans")
    fns = spans.Tracer().traced_fns(lambda v: 0.1 * v, lambda x: x.sum(axis=-1))
    assert isinstance(fns, ProblemFns)


def test_golden_draws_are_unchanged():
    assert bench_module("reference").golden_failures() == []


def test_star_import_resolves_every_exported_name():
    exec("from picardnets import *", {})
