"""Run the benchmark alternately on two checkouts and collect the results in one JSON file.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --new . --workload estimate-fresh \\
        --pairs 10 --trace-pairs 1 --out BENCH_8.json

Pair i runs `python3 bench/run.py --workload W --seed i --trace 0` in the
parent checkout and in the new one, the parent first for odd i and the new
checkout first for even i, and reads each run's result from that checkout's
`bench/out/W-trace0.json`. `--trace-pairs K` then runs K pairs with
`--trace 1`. The output keeps, per workload, every run's result and, for each
bounded metric of the untraced pairs (`summary`) and for the scaled time of
each of their phases (`phase_summary`: `compile_s.scaled`, `save_s.scaled`,
...), the parent's median and quartiles, the new median, and the number of
pairs in which the new run was lower, so a pair file shows which phase moved.
Untraced runs also keep the untimed network sizes (`net_params`, `net_nnz`,
`json_mb`) where the workload prints them, so a shape change shows in any
pair file. Traced runs keep every printed metric, so the
per-layer counts sit next to their closed forms. A run that writes no result
(it failed to start, crashed or ran past RUN_TIMEOUT_S) is kept with its exit
code and the tail of its stderr, and the summary covers only the pairs in
which both runs wrote one. It also records, for each checkout, how many
`uniform_time` and `brownian_increment` block calls and hashed paths one
(4,3), d = 5 sample tree of one oracle takes, with
the hashed paths also split into time and Gaussian draws, the same counts for
the same tree drawn a second and a third time in a row (`kept_tree`,
`warm_tree`), how many `g` and
`f` calls one (4,3) estimate of 16 points by one seed makes, the
`tracemalloc` peak of a (4,4), d = 16 estimate of 64 points by 4 seeds (as
`mlp_eval_memory_4_4`), the traced bytes that one estimate, and two in a
row, leave held at (4,3), d = 5 and (4,4), d = 16 (as `plan_memory`: the
kept plan), and (as
`compile_memory_4_3` and `compile_memory_3_2_sin`) the `tracemalloc` peak
of compiling compile-wide's and compile-deep's inputs next to the bytes of
the net it builds: a count of what a compile holds that does not depend on
timing. As `realize_memory_3_2_sin` it records the `tracemalloc` peak of
the first `realize` of compile-deep's net, on 16 points, which builds its
CSR copies, and of a `realize` of 64 points after it. For a compile workload it also records, per checkout and as
`peak_phases_W`, the resident high-water mark after each phase of one
request made as `bench/run.py --peak-only` makes it, so a pair file shows
which phase sets `peak_mb`, and as `compile_rss_W` how far a compile alone
of W's inputs raises that mark over the set-up, at oracle seeds 1-10. An
existing output file is updated in place, so workloads can be measured in
separate invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


# One (4,3), d = 5 sample tree drawn through an oracle whose keyed hash counts the paths
# it hashes, in all and by kind (time and Gaussian), with the block calls of `_draw_depths`
# counted; the same tree drawn a second time (`kept_tree`, which keeps the plan where the
# engine keeps one) and a third (`warm_tree`, from the kept plan); then one (4,3) estimate of 16 points by one seed through f and g that count
# their calls. A message is a path's length prefix and entries, its kind byte and an
# 8-byte digest counter, so a message with counter 0 is one hashed path however the
# oracle batches its calls or keeps its messages, and a count means the same at any commit.
WORK_COUNTS = """
import json
from collections import Counter
import numpy as np
import picardnets as pn
from picardnets import engine
from picardnets.engine import MlpConfig, _draw_depths
from picardnets.sampling import KIND_GAUSS, KIND_TIME

paths, calls = Counter(), Counter()

class CountingKey:
    def __init__(self, keyed):
        self.keyed = keyed

    def copy(self):
        return CountingKey(self.keyed.copy())

    def update(self, message):
        if message[-8:] == bytes(8):
            paths[message[-9:-8]] += 1
        self.keyed.update(message)

    def digest(self):
        return self.keyed.digest()

def counted(name, fn):
    def call(*args):
        calls[name] += 1
        return fn(*args)
    return call

for name in ("uniform_time", "brownian_increment"):
    setattr(engine, name, counted("draw", getattr(engine, name)))

oracle = pn.RandomOracle(1, 5)
oracle._keyed = CountingKey(oracle._keyed)
cfg = MlpConfig(n=4, M=3, horizon=1.0, t=0.0, d=5)

def tree_counts():
    paths.clear()
    calls.clear()
    _draw_depths(cfg, pn.ROOT_PATH, oracle)
    return {
        "block_calls_per_tree": calls["draw"],
        "hashed_paths_per_tree": paths.total(),
        "hashed_time_paths_per_tree": paths[KIND_TIME],
        "hashed_gauss_paths_per_tree": paths[KIND_GAUSS],
    }

counts = tree_counts()
counts["kept_tree"] = tree_counts()
counts["warm_tree"] = tree_counts()
calls.clear()
fns = pn.ProblemFns(f=counted("f", lambda v: 0.1 * v), g=counted("g", lambda x: np.sum(x * x, axis=-1)))
pn.mlp_estimate_batch(cfg, np.full((16, 5), 0.5), [1], fns)
print(json.dumps({**counts, "g_calls_per_estimate": calls["g"], "f_calls_per_estimate": calls["f"]}))
"""


# The traced peak of one (4,4), d = 16 estimate block: 64 points by 4 oracle seeds, with
# g(x) = |x|^2 and f(u) = 0.1 u.
ESTIMATE_MEMORY = """
import json
import tracemalloc
import numpy as np
import picardnets as pn

cfg = pn.MlpConfig(n=4, M=4, horizon=1.0, t=0.0, d=16)
fns = pn.ProblemFns(f=lambda v: 0.1 * v, g=lambda x: np.sum(x * x, axis=-1))
points = np.random.default_rng(2).uniform(-1.0, 1.0, size=(64, 16))
oracles = [pn.RandomOracle(seed, 16) for seed in range(4)]
tracemalloc.start()
pn.mlp_eval(cfg, points, pn.ROOT_PATH, fns, oracles)
print(json.dumps({"traced_peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
"""


# The traced bytes still held after one estimate (one point, one seed, the result dropped)
# and after a second one in a row, at (4,3), d = 5 and at (4,4), d = 16, after a (1,1)
# estimate has set up what a first call sets up: what the engine keeps of a tree between
# calls, its plan and the plan's messages.
PLAN_MEMORY = """
import gc
import json
import tracemalloc
import numpy as np
import picardnets as pn

fns = pn.ProblemFns(f=lambda v: 0.1 * v, g=lambda x: np.sum(x * x, axis=-1))
pn.mlp_estimate_batch(pn.MlpConfig(n=1, M=1, horizon=1.0, t=0.0, d=5), np.zeros((1, 5)), [1], fns)
retained = {}
for n, M, d in ((4, 3, 5), (4, 4, 16)):
    tracemalloc.start()
    for calls in (1, 2):
        pn.mlp_estimate_batch(pn.MlpConfig(n=n, M=M, horizon=1.0, t=0.0, d=d), np.full((1, d), 0.5), [1], fns)
        gc.collect()
        retained[f"retained_mb_{n}_{M}_d{d}_after_{calls}"] = tracemalloc.get_traced_memory()[0] / 1e6
    tracemalloc.stop()
print(json.dumps(retained))
"""


# The inputs of a compile workload (d = 5, the CLI's relu datum; compile-wide: (4,3) with
# f = 0.1 u, compile-deep: (3,2) with the 17-unit sin net), with the oracle seed given.
COMPILE_INPUTS = """
import json
import sys
import numpy as np
import picardnets as pn
from picardnets.cli import QUADRATIC_DATUM_CELLS, QUADRATIC_DATUM_RANGE

n, M, sin, seed = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "sin", int(sys.argv[4])
d, act = 5, pn.relu()
knots = np.linspace(-QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_CELLS + 1)
square = pn.interp_net_relu(pn.Grid(knots), knots**2)
f_net = pn.approx_net_relu(pn.LipschitzFn(np.sin, 1.0), 2.0, 0.5)[0] if sin else pn.affine([[0.1]], [0.0])
inputs = pn.CompileInputs(
    n=n, M=M, horizon=1.0, d=d, g_net=pn.compose(pn.fan_in(1, d), pn.parallelize([square] * d)),
    f_net=f_net, j_net=pn.default_identity(act), activation=act, oracle=pn.RandomOracle(seed, d),
)
"""
# The traced peak of one compile of those inputs at oracle seed 1 and the bytes of the net it returns.
COMPILE_MEMORY = COMPILE_INPUTS + """
import tracemalloc
tracemalloc.start()
net = pn.compile_mlp(inputs, pn.ROOT_PATH, 0.0, allow_large=True)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
output = sum(w.nbytes + b.nbytes for w, b in net.layers)
print(json.dumps({"traced_peak_mb": peak / 1e6, "output_mb": output / 1e6, "peak_over_output": peak / output}))
"""
# The traced peaks of `realize` on the net those inputs compile to at oracle seed 1: its
# first call, on 16 points, which builds the CSR copies, then a call on 64 points.
REALIZE_MEMORY = COMPILE_INPUTS + """
import tracemalloc
import scipy.sparse  # noqa: F401  (its import is not the calls' memory)
net = pn.compile_mlp(inputs, pn.ROOT_PATH, 0.0, allow_large=True)
points = np.random.default_rng(2).uniform(-1.0, 1.0, size=(64, d))
peaks = {}
for name, rows in (("first_16_rows_mb", 16), ("then_64_rows_mb", 64)):
    tracemalloc.start()
    pn.realize(net, act, points[:rows])
    peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
print(json.dumps(peaks))
"""
# How far one compile of those inputs raises the resident high-water mark (VmHWM, MB) over
# the set-up (imports and inputs), untraced; run under PEAK_ENV, as `bench/run.py --peak-only` runs.
COMPILE_RSS = COMPILE_INPUTS + """
from pathlib import Path

def hwm_mb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0

setup = hwm_mb()
pn.compile_mlp(inputs, pn.ROOT_PATH, 0.0, allow_large=True)
print(json.dumps({"seed": seed, "setup_mb": setup, "growth_mb": hwm_mb() - setup}))
"""
COMPILE_CASES = {"compile-wide": ("4", "3", "linear"), "compile-deep": ("3", "2", "sin")}
COMPILE_MEMORY_KEYS = {"compile_memory_4_3": "compile-wide", "compile_memory_3_2_sin": "compile-deep"}
COMPILE_RSS_SEEDS = range(1, 11)


# The resident high-water mark (VmHWM, MB) after set-up and after each phase of one request,
# made the way `bench/run.py --peak-only` makes it (see PEAK_ENV): the bench modules are
# imported unchanged and `PhaseClock.phase` is wrapped to read the mark as each phase ends.
# The mark only rises, so the phase after which it last rises is the one that sets `peak_mb`.
PEAK_PHASES = """
import json
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path[:0] = ["src", "bench"]
import hostclock
import reference, spans  # noqa: F401  (run.py imports them before its peak request)
from workloads import make_workload


def hwm_mb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0


marks = {}
timed = hostclock.PhaseClock.phase


@contextmanager
def phase(self, name):
    with timed(self, name):
        yield
    marks[name] = hwm_mb()


hostclock.PhaseClock.phase = phase
out_dir = Path("bench/out")
out_dir.mkdir(exist_ok=True)
workload = make_workload(sys.argv[1], 1, out_dir)
workload.setup()
marks["setup"] = hwm_mb()
workload.request(0, hostclock.PhaseClock(None))
print(json.dumps(marks))
"""
# The environment `bench/run.py` gives its peak request: one BLAS thread and a fixed mmap threshold.
PEAK_ENV = {"OPENBLAS_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "131072"}


def run_snippet(checkout: Path, code: str, *args: str, env: dict | None = None) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), **(env or {})}
    cmd = [sys.executable, "-c", code, *args]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        return {"exit": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    return json.loads(proc.stdout)


def compile_rss(sides: list[tuple[str, Path]], case: tuple[str, ...]) -> dict:
    """Per side, COMPILE_RSS at each seed of COMPILE_RSS_SEEDS, the sides alternating which runs first."""
    report: dict = {side: [] for side, _ in sides}
    for seed in COMPILE_RSS_SEEDS:
        for side, checkout in sides if seed % 2 else sides[::-1]:
            report[side].append(run_snippet(checkout.resolve(), COMPILE_RSS, *case, str(seed), env=PEAK_ENV))
    return report


# Untimed counts of a compile workload's network, kept for every untraced run.
SIZES = ("net_params", "net_nnz", "json_mb")
# A run still going after this long is stopped and kept as failed; a 20-s compile run takes about a minute.
RUN_TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    out = checkout / "bench" / "out" / f"{workload}-trace{trace}.json"
    out.unlink(missing_ok=True)  # a run that dies before writing must not leave an older result
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stderr = None, exc.stderr or ""
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        return {"exit": code, "correct": False, "no_result": True, "stderr_tail": stderr[-2000:]}
    every = {k: v["value"] for k, v in result["every_metric"].items()}
    untraced = {
        "sizes": {k: every[k] for k in SIZES if k in every},
        "phases": {k: v for k, v in every.items() if k.endswith(".scaled")},
    }
    return {
        "exit": code,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        **({"every_metric": every} if trace else untraced),
        "environment": result["environment"],
    }


def summarize(runs: list[dict], field: str = "metrics") -> dict:
    """Per value of `field` in the pairs in which both runs wrote a result: the parent's median
    and quartiles, the new median, its change and the number of pairs in which the new run was lower."""
    runs = [run for run in runs if field in run["parent"] and field in run["new"]]
    summary = {}
    for metric in runs[0]["parent"][field] if runs else ():
        old = [run["parent"][field][metric] for run in runs]
        new = [run["new"][field][metric] for run in runs]
        q1, _, q3 = quantiles(old, n=4, method="inclusive") if len(old) > 1 else (old[0],) * 3
        summary[metric] = {
            "parent_median": median(old),
            "parent_quartiles": [q1, q3],
            "new_median": median(new),
            "change": median(new) / median(old) - 1.0,
            "new_lower_in": sum(b < a for a, b in zip(old, new)),
            "pairs": len(runs),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--new", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = [("parent", args.parent), ("new", args.new)]
    entry: dict = {}
    for trace, count in ((0, args.pairs), (1, args.trace_pairs)):
        runs = []
        for seed in range(1, count + 1):
            pair = {"seed": seed}
            for side, checkout in sides if seed % 2 else sides[::-1]:  # alternate which runs first
                pair[side] = run_once(checkout.resolve(), args.workload, seed, trace)
                shown = pair[side].get("metrics", f"no result, exit {pair[side]['exit']}")
                print(args.workload, f"trace {trace}", f"seed {seed}", side, shown, flush=True)
            runs.append(pair)
        if runs:
            summaries = {"summary": summarize(runs), "phase_summary": summarize(runs, "phases")}
            entry[f"trace{trace}"] = {"runs": runs, **({} if trace else summaries)}

    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    report["workloads"].setdefault(args.workload, {}).update(entry)
    report["work_counts_4_3"] = {side: run_snippet(checkout.resolve(), WORK_COUNTS) for side, checkout in sides}
    report["mlp_eval_memory_4_4"] = {side: run_snippet(checkout.resolve(), ESTIMATE_MEMORY) for side, checkout in sides}
    report["plan_memory"] = {side: run_snippet(checkout.resolve(), PLAN_MEMORY) for side, checkout in sides}
    for key, workload in COMPILE_MEMORY_KEYS.items():
        case = (*COMPILE_CASES[workload], "1")
        report[key] = {side: run_snippet(checkout.resolve(), COMPILE_MEMORY, *case) for side, checkout in sides}
    case = (*COMPILE_CASES["compile-deep"], "1")
    report["realize_memory_3_2_sin"] = {side: run_snippet(checkout.resolve(), REALIZE_MEMORY, *case) for side, checkout in sides}
    if args.workload.startswith("compile-"):
        report[f"peak_phases_{args.workload}"] = {
            side: run_snippet(checkout.resolve(), PEAK_PHASES, args.workload, env=PEAK_ENV) for side, checkout in sides
        }
        report[f"compile_rss_{args.workload}"] = compile_rss(sides, COMPILE_CASES[args.workload])
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
