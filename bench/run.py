"""picardnets benchmark: one closed-loop, single-client workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
print every metric of the workload with its unit and the run environment.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from spans recorded around each layer's public calls. The command exits 1
when a correctness gate fails and 2 when the library cannot be imported.
See bench/README.md for the workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

if __name__ == "__main__":
    # One BLAS thread: the host has 2 vCPUs, and an idle-spinning BLAS pool would share them with
    # the request and its calibration kernels. Set before numpy is first imported; children inherit both.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Pin to one CPU so that a phase and the calibration kernels around it run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

from hostclock import PhaseClock  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
TRACE_MIN_REQUESTS = 2
TRACE_MAX_REQUESTS = 8
CHILD_TIMEOUT_S = 120


@dataclass
class Record:
    wall: float
    items: int = 0
    phases: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    rates: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _import_library() -> None:
    """Import picardnets from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import picardnets
    except ImportError as exc:
        print(f"error: cannot import picardnets from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(picardnets.__file__).resolve().is_relative_to(src):
        print(f"error: picardnets was imported from {picardnets.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _blas_threads() -> int | None:
    for line in Path("/proc/self/maps").read_text().splitlines():
        if "openblas" in line.lower():
            lib = ctypes.CDLL(line.split()[-1])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "process_threads": len(os.listdir("/proc/self/task")),
        "machine": platform.machine(),
    }


def _child(args: argparse.Namespace, flag: str) -> str:
    """Run this script in a fresh interpreter with one of the set-up flags; return its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), flag]
    # A fixed mmap threshold keeps glibc from moving large buffers between the heap and mmap
    # from run to run, which otherwise moves the peak resident size by up to 10%.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{flag} child failed with code {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def measure_setup_s(args: argparse.Namespace) -> tuple[float, float]:
    """Interpreter start, import and workload set-up in a fresh process: median scaled and wall seconds."""
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        clock = PhaseClock("mixed")
        with clock.phase("setup_s"):
            _child(args, "--setup-only")
        scaled.append(clock.scaled["setup_s"])
        walls.append(clock.wall["setup_s"])
    return median(scaled), median(walls)


def run_requests(
    workload, first: int, deadline: float, min_count: int, max_count: int, tracer=None, calibrated: bool = False
) -> list[Record]:
    """Closed loop: the next request starts when the previous one and its gates are done."""
    records: list[Record] = []
    r = first
    while len(records) < max_count and (len(records) < min_count or perf_counter() < deadline):
        # Calibration kernels would sit inside the traced request, so traced runs time wall only.
        clock = PhaseClock(workload.kernel if calibrated else None)
        start = perf_counter()
        try:
            if tracer is None:
                outcome = workload.request(r, clock)
            else:
                outcome = tracer.run_request(r, lambda: workload.request(r, clock))
            record = Record(sum(clock.wall.values()), outcome.items, clock.wall, clock.scaled, outcome.rates)
            record.problems, record.extras = workload.check(r, outcome)
        except Exception:  # a failed request is counted, and the run goes on
            traceback.print_exc()
            record = Record(perf_counter() - start, problems=[f"request {r} raised"])
        for problem in record.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        records.append(record)
        r += 1
    return records


def end_to_end(workload, records: list[Record], setup: tuple[float, float], peak_mb: float) -> tuple[dict, dict]:
    ok = [rec for rec in records if rec.ok]
    scaled = {phase: median(rec.scaled[phase] for rec in ok) for phase in ok[0].phases}
    bounded = {
        "setup_s": (setup[0], "s"),
        "wall_s": (sum(scaled.values()), "s"),
        "peak_mb": (peak_mb, "MB"),
    }
    printed = dict(bounded)
    for phase, value in scaled.items():
        printed[f"{phase}.scaled"] = (value, "s")
    printed["setup_s.unscaled"] = (setup[1], "s")
    printed["wall_s.unscaled"] = (median(rec.wall for rec in ok), "s")
    printed[workload.items_name] = (median(rate for rec in ok for rate in rec.rates), "1/s")
    printed["requests"] = (len(records), "count")
    printed.update(workload.summary(ok))
    printed["failed_share"] = ((len(records) - len(ok)) / len(records), "1")
    return bounded, printed


def per_layer(workload, untraced: list[Record], traced: list[Record], tracer) -> tuple[dict, dict]:
    from reference import oracle_calls, time_draws
    from spans import SpanStats

    stats = SpanStats(tracer)
    reqs = len(traced)
    estimates = stats.count("engine.mlp_eval")
    nodes = stats.count("sampling.uniform_time", parent="engine.mlp_eval")
    draws = nodes + stats.count("sampling.brownian_increment", parent="engine.mlp_eval")
    overhead = median(rec.wall for rec in traced) - median(rec.wall for rec in untraced)
    bounded = {
        "sampling.calls": (stats.entries("sampling") / reqs, "count"),
        "sampling.calls_per_estimate": (draws / estimates, "count"),
        "sampling.self_s": (stats.self_s("sampling") / reqs, "s"),
        "sampling.us_per_call": (1e6 * stats.inclusive("sampling") / stats.entries("sampling"), "us"),
        "engine.estimates": (estimates / reqs, "count"),
        "engine.nodes_per_estimate": (nodes / estimates, "count"),
        "engine.nodes_per_s": (nodes / stats.total("engine.mlp_eval"), "1/s"),
        "engine.self_s": (stats.self_s("engine") / reqs, "s"),
        "engine.fns_calls": (stats.entries("fns") / reqs, "count"),
        "engine.fns_s": (stats.inclusive("fns") / reqs, "s"),
        "pde.setup_s": (workload.timings["pde.setup_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    printed = dict(bounded)
    printed["closed_form.calls_per_estimate"] = (oracle_calls(workload.n, workload.M), "count")
    printed["closed_form.nodes_per_estimate"] = (time_draws(workload.n, workload.M), "count")
    if "interp.build_s" in workload.timings:
        extras = [rec.extras for rec in traced if rec.ok]
        params = extras[0]["params"]
        printed.update(
            {
                "interp.build_s": (workload.timings["interp.build_s"], "s"),
                "compiler.compile_s": (stats.total("compiler.compile_mlp") / reqs, "s"),
                "compiler.self_s": (stats.self_s("compiler") / reqs, "s"),
                "compiler.verify_s": (stats.total("compiler.verify_equivalence") / reqs, "s"),
                "compiler.max_residual": (max(e["max_residual"] for e in extras), "1"),
                "compiler.params_over_bound": (extras[0]["params_over_bound"], "1"),
                "compiler.depth": (extras[0]["depth"], "count"),
                "compiler.max_width": (extras[0]["max_width"], "count"),
                "calculus.calls": (stats.entries("calculus") / reqs, "count"),
                "calculus.self_s": (stats.self_s("calculus") / reqs, "s"),
                "network.constructs": (stats.count("network.construct") / reqs, "count"),
                "network.construct_s": (stats.total("network.construct") / reqs, "s"),
                "network.bytes_frozen": (tracer.counts["network.bytes_frozen"] / reqs, "B"),
                "network.realize_calls": (stats.count("network.realize") / reqs, "count"),
                "network.realize_rows": (tracer.counts["network.realize_rows"] / reqs, "count"),
                "network.realize_s": (stats.total("network.realize") / reqs, "s"),
                "network.realize_bytes": (tracer.counts["network.realize_bytes"] / reqs, "B"),
                "activations.calls": (stats.count("activations.call") / reqs, "count"),
                "activations.elements": (tracer.counts["activations.elements"] / reqs, "count"),
                "activations.self_s": (stats.self_s("activations") / reqs, "s"),
                "network.dumps_s": (stats.total("network.dumps_network") / reqs, "s"),
                "network.loads_s": (stats.total("network.loads_network") / reqs, "s"),
                "network.json_bytes": (extras[0]["json_bytes"], "B"),
                "network.density": (extras[0]["nnz"] / params, "1"),
            }
        )
    return bounded, printed


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--peak-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_library()
    from reference import golden_failures
    from spans import Tracer
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {WORKLOADS}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, OUT_DIR)
    if args.setup_only:
        workload.setup()
        return 0
    if args.peak_only:
        workload.setup()
        workload.request(0, PhaseClock(None))
        print(json.dumps({"peak_mb": _peak_rss_mb()}))
        return 0

    problems = golden_failures()
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.trace == 0:
        setup = measure_setup_s(args)
        peak_mb = json.loads(_child(args, "--peak-only").splitlines()[-1])["peak_mb"]
    workload.setup()
    start = perf_counter()
    if args.trace == 0:
        records = run_requests(workload, 0, start + args.seconds, workload.min_requests, sys.maxsize, calibrated=True)
    else:
        untraced = run_requests(workload, 0, start + args.seconds / 2, TRACE_MIN_REQUESTS, sys.maxsize)
        tracer = Tracer()
        tracer.install()
        if workload.fns is not None:
            workload.fns = tracer.traced_fns(workload.fns.f, workload.fns.g)
        try:
            traced = run_requests(
                workload, len(untraced), start + args.seconds, TRACE_MIN_REQUESTS, TRACE_MAX_REQUESTS, tracer
            )
        finally:
            tracer.restore()
        # TRACE_MAX_REQUESTS bounds the spans kept in memory; untraced requests fill the window.
        untraced += run_requests(workload, len(untraced) + len(traced), start + args.seconds, 0, sys.maxsize)
        tracer.write(OUT_DIR / f"{args.workload}.spans.npz")
        records = untraced + traced

    failed = sum(not rec.ok for rec in records) + bool(problems)
    correct = failed == 0
    metrics, printed = {}, {}
    if args.trace == 0 and any(rec.ok for rec in records):
        metrics, printed = end_to_end(workload, records, setup, peak_mb)
    elif args.trace == 1 and any(rec.ok for rec in traced) and any(rec.ok for rec in untraced):
        metrics, printed = per_layer(workload, [r for r in untraced if r.ok], [r for r in traced if r.ok], tracer)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  requests {len(records)}  failed {failed}")
    for name, (value, unit) in printed.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:34s} {shown:>16} {unit}")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(records) + bool(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    every_metric = {name: {"value": value, "unit": unit} for name, (value, unit) in printed.items()}
    samples = {
        "wall_s": [rec.wall for rec in records if rec.ok],
        "phases": [rec.phases for rec in records if rec.ok],
        "scaled": [rec.scaled for rec in records if rec.ok],
        "rates": [x for rec in records if rec.ok for x in rec.rates],
    }
    summary = dict(result, every_metric=every_metric, samples=samples, environment=env, args=vars(args))
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
