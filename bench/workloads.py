"""The four benchmark workloads and their correctness gates.

All four use the heat-quadratic problem (d=5, T=1, c=0.5, f(u)=0.1 u,
g(x)=||x||^2). Each request calls the same public functions the `mlp`,
`pde-error`, `compile` and `verify` subcommands call. The workload seed
drives a numpy generator that hands out oracle seeds and the seed of the box
points, so the library only ever sees generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import picardnets as pn
from picardnets.cli import QUADRATIC_DATUM_CELLS, QUADRATIC_DATUM_RANGE
from hostclock import PhaseClock
from reference import reference_estimate

D = 5
HORIZON = 1.0
DIFFUSION = 0.5
LAMBDA = 0.1
ESTIMATES_PER_REQUEST = 16
POINT_POOL = 64
ERROR_REQUESTS = 8  # rel_l2_error covers the first 8 requests, so it does not depend on speed
ESTIMATE_RTOL = 1.0e-12
REALIZE_BATCH = 16  # 16 x 609,228 float64 activations is 78 MB per array on compile-wide
VERIFY_PROBES = 20
NETWORK_RTOL = 1.0e-8
REFERENCE_PROBES = 2


def heat_problem() -> pn.PdeProblem:
    return pn.PdeProblem(
        d=D, horizon=HORIZON, c=DIFFUSION, f_kind="linear", lam=LAMBDA, g_kind="quadratic", box=(0.0, 1.0)
    )


@dataclass
class Outcome:
    """What one request produced: item count, rate samples and outputs for the gates.

    Its phase times are in the `PhaseClock` the request was given.
    """

    items: int
    rates: list[float]  # items per second, one sample per timed batch of items
    data: dict = field(default_factory=dict)


class Workload:
    min_requests = 3
    items_name = ""
    kernel = ""  # the hostclock calibration kernel that resembles the workload's phases

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.timings: dict[str, float] = {}
        self.fns: pn.ProblemFns | None = None

    def _draw_seed(self) -> int:
        return int(self.rng.integers(0, 2**62))


class EstimateWorkload(Workload):
    """Level (n, M) = (4, 3) estimates of the terminal-form problem at t = 0."""

    n, M = 4, 3
    min_requests = ERROR_REQUESTS
    items_name = "estimates_per_s"
    kernel = "estimator"

    def __init__(self, seed: int, shared: bool) -> None:
        super().__init__(seed)
        self.shared = shared
        self._sq_err = 0.0
        self._sq_ref = 0.0

    def setup(self) -> None:
        start = perf_counter()
        problem = heat_problem()
        pn.pde_residual_check(problem)
        form = pn.time_rescale(problem)
        self.points = pn.box_points(pn.RandomOracle(self._draw_seed(), D), POINT_POOL, *problem.box)
        self.refs = np.array([pn.reference_solution(problem, 0.0, x) for x in self.points])
        self.timings["pde.setup_s"] = perf_counter() - start
        self.cfg = pn.MlpConfig(n=self.n, M=self.M, horizon=form.horizon, t=form.engine_time(0.0), d=D)
        self.base_fns = self.fns = form.fns

    def request(self, r: int, clock: PhaseClock) -> Outcome:
        if self.shared:
            seeds = [self._draw_seed()]
            rows = np.arange(ESTIMATES_PER_REQUEST)
        else:
            seeds = [self._draw_seed() for _ in range(ESTIMATES_PER_REQUEST)]
            rows = np.array([r % POINT_POOL])
        with clock.phase("estimate_s"):
            estimates = pn.mlp_estimate_batch(self.cfg, self.points[rows], seeds, self.fns)
        data = {"seeds": seeds, "rows": rows, "estimates": estimates}
        return Outcome(estimates.size, [estimates.size / clock.wall["estimate_s"]], data)

    def check(self, r: int, out: Outcome) -> tuple[list[str], dict]:
        seeds, rows, estimates = out.data["seeds"], out.data["rows"], out.data["estimates"]
        if estimates.shape != (len(seeds), rows.size) or not np.all(np.isfinite(estimates)):
            return [f"request {r}: estimates have shape {estimates.shape} or are not finite"], {}
        problems = []
        i, j = r % len(seeds), r % rows.size
        expected = reference_estimate(
            self.n, self.M, self.cfg.horizon, self.cfg.t, self.points[rows[j]], pn.ROOT_PATH,
            self.base_fns.f, self.base_fns.g, pn.RandomOracle(seeds[i], D),
        )
        if abs(estimates[i, j] - expected) > ESTIMATE_RTOL * max(1.0, abs(expected)):
            problems.append(f"request {r}: estimate {estimates[i, j]!r} != reference {expected!r}")
        if r < ERROR_REQUESTS:
            refs = self.refs[rows][None, :]
            self._sq_err += float(np.sum((estimates - refs) ** 2))
            self._sq_ref += float(np.sum(np.broadcast_to(refs, estimates.shape) ** 2))
        return problems, {}

    def summary(self, ok: list) -> dict[str, tuple[float, str]]:
        return {"rel_l2_error": (float(np.sqrt(self._sq_err / self._sq_ref)), "1")}


class CompileWorkload(Workload):
    """compile -> size report -> save -> load -> batched realize -> verify, as the CLI runs them."""

    items_name = "realize_points_per_s"
    kernel = "mixed"

    def __init__(
        self, seed: int, out_dir: Path, n: int, M: int, sin_nonlinearity: bool, batches: int, batches_per_phase: int
    ) -> None:
        super().__init__(seed)
        self.n, self.M = n, M
        self.batches = batches
        self.batches_per_phase = batches_per_phase
        self.sin_nonlinearity = sin_nonlinearity
        self.net_path = out_dir / f"net-{n}-{M}.json"
        self._shape: tuple[int, int] | None = None

    def setup(self) -> None:
        start = perf_counter()
        problem = heat_problem()
        pn.pde_residual_check(problem)
        self.points = pn.box_points(
            pn.RandomOracle(self._draw_seed(), D), REALIZE_BATCH * self.batches, *problem.box
        )
        self.timings["pde.setup_s"] = perf_counter() - start

        start = perf_counter()
        self.act = pn.relu()
        # The CLI's relu datum: the clamped interpolant of s^2 on 160 cells, summed over coordinates.
        knots = np.linspace(-QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_CELLS + 1)
        square = pn.interp_net_relu(pn.Grid(knots), knots**2)
        self.g_net = pn.compose(pn.fan_in(1, D), pn.parallelize([square] * D))
        self.g_ref = lambda x: float(np.interp(x, knots, knots**2).sum())
        if self.sin_nonlinearity:
            # What `interp-build --fn sin --q 2 --eps 0.5` builds: 17 units.
            self.f_net, guarantee = pn.approx_net_relu(pn.LipschitzFn(np.sin, 1.0), 2.0, 0.5)
            sin_knots = np.linspace(-guarantee.b, guarantee.b, guarantee.K + 1)
            self.f_ref = lambda v: float(np.interp(v, sin_knots, np.sin(sin_knots)))
        else:
            self.f_net = pn.affine([[LAMBDA]], [0.0])
            self.f_ref = lambda v: LAMBDA * v
        self.j_net = pn.default_identity(self.act)
        self.timings["interp.build_s"] = perf_counter() - start

    def request(self, r: int, clock: PhaseClock) -> Outcome:
        seed = self._draw_seed()
        inputs = pn.CompileInputs(
            n=self.n, M=self.M, horizon=HORIZON, d=D, g_net=self.g_net, f_net=self.f_net,
            j_net=self.j_net, activation=self.act, oracle=pn.RandomOracle(seed, D),
        )
        with clock.phase("compile_s"):
            net = pn.compile_mlp(inputs, pn.ROOT_PATH, 0.0, allow_large=True)
            report = pn.size_report(inputs, net)
        with clock.phase("save_s"):
            pn.save_network(self.net_path, net, self.act)
        with clock.phase("load_s"):
            loaded, loaded_act = pn.load_network(self.net_path)
        batch_s, values = [], []
        # Calibrated about every 0.15 s of realize, so that a change of host speed within the phase shows.
        for chunk in np.split(self.points, self.batches // self.batches_per_phase):
            with clock.phase("realize_s"):
                for batch in np.split(chunk, self.batches_per_phase):
                    start = perf_counter()
                    values.append(pn.realize(loaded, loaded_act, batch))
                    batch_s.append(perf_counter() - start)
        values = np.concatenate(values)
        with clock.phase("verify_s"):
            verdict = pn.verify_equivalence(
                inputs, pn.ROOT_PATH, 0.0, probes=VERIFY_PROBES, tol=NETWORK_RTOL, allow_large=True
            )
        data = {"seed": seed, "net": net, "report": report, "loaded_act": loaded_act, "values": values, "verdict": verdict}
        return Outcome(len(self.points), [REALIZE_BATCH / t for t in batch_s], data)

    def check(self, r: int, out: Outcome) -> tuple[list[str], dict]:
        net, report, values, verdict = (out.data[k] for k in ("net", "report", "values", "verdict"))
        problems = []
        if not report.within_bounds():
            problems.append(f"request {r}: size {report.to_json_obj()} exceeds its bounds")
        if not verdict.passed:
            problems.append(f"request {r}: verify_equivalence residual {verdict.max_residual!r}")
        if out.data["loaded_act"].tag() != self.act.tag() or values.shape != (len(self.points), 1):
            problems.append(f"request {r}: loaded network has the wrong activation or output shape")
        elif not np.all(np.isfinite(values)):
            problems.append(f"request {r}: realized values are not finite")
        # A save -> load round trip must realize bit-identically.
        if not np.array_equal(pn.realize(net, self.act, self.points[:REALIZE_BATCH]), values[:REALIZE_BATCH]):
            problems.append(f"request {r}: loaded network realizes differently from the saved one")
        oracle = pn.RandomOracle(out.data["seed"], D)
        for k in range(REFERENCE_PROBES):
            j = (REFERENCE_PROBES * r + k) % len(self.points)
            expected = reference_estimate(
                self.n, self.M, HORIZON, 0.0, self.points[j], pn.ROOT_PATH, self.f_ref, self.g_ref, oracle
            )
            if abs(values[j, 0] - expected) > NETWORK_RTOL * (1.0 + abs(expected)):
                problems.append(f"request {r}: realized {values[j, 0]!r} != reference recursion {expected!r}")
        nnz = sum(int(np.count_nonzero(w)) + int(np.count_nonzero(b)) for w, b in net.layers)
        # Shape and sparsity must not depend on the oracle seed.
        if self._shape is None:
            self._shape = (report.params, nnz)
        elif self._shape != (report.params, nnz):
            problems.append(f"request {r}: (params, nnz) {(report.params, nnz)} != {self._shape}")
        json_bytes = self.net_path.stat().st_size
        if r == 0:
            second = self.net_path.with_suffix(".again.json")
            pn.save_network(second, net, self.act)
            if second.read_bytes() != self.net_path.read_bytes():
                problems.append("two saves of one network wrote different bytes")
            second.unlink()
        extras = {
            "json_bytes": json_bytes,
            "params": report.params,
            "nnz": nnz,
            "depth": report.depth,
            "max_width": report.max_width,
            "params_over_bound": report.params / report.bound_params,
            "max_residual": verdict.max_residual,
        }
        return problems, extras

    def summary(self, ok: list) -> dict[str, tuple[float, str]]:
        def median_phase(name: str) -> float:
            return float(np.median([rec.phases[name] for rec in ok]))

        return {
            "compile_s": (median_phase("compile_s"), "s"),
            "verify_s": (median_phase("verify_s"), "s"),
            "save_s": (median_phase("save_s"), "s"),
            "load_s": (median_phase("load_s"), "s"),
            "json_mb": (float(np.median([rec.extras["json_bytes"] for rec in ok])) / 1e6, "MB"),
            "net_params": (ok[0].extras["params"], "count"),
            "net_nnz": (ok[0].extras["nnz"], "count"),
        }


def make_workload(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "estimate-shared":
        return EstimateWorkload(seed, shared=True)
    if name == "estimate-fresh":
        return EstimateWorkload(seed, shared=False)
    if name == "compile-wide":
        return CompileWorkload(seed, out_dir, n=4, M=3, sin_nonlinearity=False, batches=8, batches_per_phase=2)
    if name == "compile-deep":
        # The deep net realizes about 20x faster per point, so it gets more points.
        return CompileWorkload(seed, out_dir, n=3, M=2, sin_nonlinearity=True, batches=64, batches_per_phase=16)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("estimate-shared", "estimate-fresh", "compile-wide", "compile-deep")
