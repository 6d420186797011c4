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
`uniform01` calls and hashed paths one (4,3), d = 5 sample tree takes, with
the hashed paths also split into time and Gaussian draws. An
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


# One (4,3), d = 5 sample tree drawn through an oracle that counts its calls and the
# paths it hashes, in all and by kind (time and Gaussian).
WORK_COUNTS = """
import json
from collections import Counter
import numpy as np
import picardnets as pn
from picardnets.engine import MlpConfig, draw_tree
from picardnets.sampling import KIND_GAUSS, KIND_TIME

class Counting(pn.RandomOracle):
    def __init__(self, seed, d):
        super().__init__(seed, d)
        self.calls, self.paths = 0, Counter()

    def uniform01(self, theta, kind, count):
        self.calls += 1
        self.paths[kind] += len(theta) if isinstance(theta, np.ndarray) and theta.ndim == 2 else 1
        return super().uniform01(theta, kind, count)

oracle = Counting(1, 5)
draw_tree(MlpConfig(n=4, M=3, horizon=1.0, t=0.0, d=5), pn.ROOT_PATH, oracle)
print(json.dumps({
    "uniform01_calls_per_tree": oracle.calls,
    "hashed_paths_per_tree": oracle.paths.total(),
    "hashed_time_paths_per_tree": oracle.paths[KIND_TIME],
    "hashed_gauss_paths_per_tree": oracle.paths[KIND_GAUSS],
}))
"""


def work_counts(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-c", WORK_COUNTS]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        return {"exit": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    return json.loads(proc.stdout)


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
    report["work_counts_4_3"] = {side: work_counts(checkout.resolve()) for side, checkout in sides}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
