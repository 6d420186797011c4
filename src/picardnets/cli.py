"""Command-line interface.

Subcommands: compile, verify, mlp, pde-error, sampler-check, interp-build.
Exit codes: 0 on success, 1 when a requested check fails, 2 on usage errors.
The default seed comes from the PICARDNETS_SEED environment variable when a
--seed flag is omitted (falling back to 0).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .activations import Activation, parse_activation
from .calculus import affine, compose, fan_in, parallelize
from .compiler import (
    CompileInputs,
    compile_mlp,
    report_json,
    size_report,
    verify_equivalence,
)
from .engine import MlpConfig, ProblemFns, mlp_estimate_batch
from .identities import default_identity, monomial_net
from .interp import (
    Grid,
    LipschitzFn,
    approx_net_leaky,
    approx_net_relu,
    approx_net_softplus,
    interp_net_leaky,
    interp_net_relu,
    interp_net_softplus,
)
from .network import Network, load_network, param_count, realize, save_network
from .pde import (
    PdeProblem,
    brownian_moment_check,
    convergence_experiment,
    rows_to_csv,
)
from .sampling import RandomOracle, check_seed

# Grid used when the squared-norm datum must be approximated per coordinate
# (every activation family except repu:2, which represents it exactly).
QUADRATIC_DATUM_RANGE = 8.0
QUADRATIC_DATUM_CELLS = 160


def _oracle_seed(flag: int | None) -> int:
    """The --seed value, else PICARDNETS_SEED, else 0; it must fit in 64 bits."""
    if flag is None:
        raw = os.environ.get("PICARDNETS_SEED", "0")
        try:
            flag = int(raw)
        except ValueError:
            raise ValueError(f"PICARDNETS_SEED must be an integer, got {raw!r}") from None
    check_seed(flag)
    return flag


def _square_net_1d(act: Activation) -> Network:
    """One-hidden-layer approximation of s -> s**2 on the documented grid."""
    pts = np.linspace(-QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_CELLS + 1)
    grid = Grid(pts)
    values = pts**2
    if act.kind in ("relu", "leaky_relu"):
        if act.kind == "relu":
            return interp_net_relu(grid, values)
        return interp_net_leaky(grid, values, act.alpha)
    # softplus: sharpness from the cell-error target of the underlying grid
    lip = 2.0 * QUADRATIC_DATUM_RANGE
    cell_err = 2.0 * lip * QUADRATIC_DATUM_RANGE / QUADRATIC_DATUM_CELLS
    beta = max(2.0, 2.0 * QUADRATIC_DATUM_CELLS**2 * lip * math.log(2.0) / cell_err)
    return interp_net_softplus(grid, values, beta)


def _quadratic_datum_net(d: int, act: Activation) -> Network:
    if act.kind == "repu":
        if act.gamma != 2:
            raise ValueError("the quadratic datum is exact only for repu:2; use --g file:PATH")
        per_coord = monomial_net(2)
    else:
        per_coord = _square_net_1d(act)
    return compose(fan_in(1, d), parallelize([per_coord] * d))


class _NetFn:
    """A loaded network as array-form g, (..., d) -> (...), or if `pointwise` as f."""

    def __init__(self, path: str, pointwise: bool) -> None:
        self.net, self.act = load_network(path)
        self.pointwise = pointwise

    def __call__(self, x: object) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.pointwise:
            x = x[..., None]
        return realize(self.net, self.act, x.reshape(-1, x.shape[-1]))[:, 0].reshape(x.shape[:-1])


def _parse_f(tag: str) -> dict:
    """PdeProblem fields for `--f zero | linear:LAMBDA | interp:PATH`."""
    kind, _, arg = tag.partition(":")
    if tag == "zero":
        return {"f_kind": "zero"}
    if kind == "linear" and arg:
        return {"f_kind": "linear", "lam": float(arg)}
    if kind == "interp" and arg:
        return {"f_kind": "custom", "f_custom": _NetFn(arg, pointwise=True)}
    raise ValueError(f"--f must be 'zero', 'linear:LAMBDA', or 'interp:PATH', got {tag!r}")


def _parse_g(tag: str) -> dict:
    """PdeProblem fields for `--g quadratic | gaussian-bump | file:PATH`."""
    kind, _, arg = tag.partition(":")
    if tag in ("quadratic", "gaussian-bump"):
        return {"g_kind": tag}
    if kind == "file" and arg:
        return {"g_kind": "custom", "g_custom": _NetFn(arg, pointwise=False)}
    raise ValueError(f"--g must be 'quadratic', 'gaussian-bump', or 'file:PATH', got {tag!r}")


def _problem(args: argparse.Namespace, c: float = 0.5, **fields) -> PdeProblem:
    """The problem named by --d, --horizon, --f and (where declared) --g; the
    default c = 1/2 is the estimator's own diffusion, so f and g apply as given."""
    g_fields = _parse_g(args.g) if "g" in args else {}
    return PdeProblem(d=args.d, horizon=args.horizon, c=c, **_parse_f(args.f), **g_fields, **fields)


def _compile_inputs(args: argparse.Namespace) -> CompileInputs:
    problem = _problem(args)
    act = parse_activation(args.activation)
    for fn, what in ((problem.g_custom, "datum"), (problem.f_custom, "nonlinearity")):
        if fn is not None and fn.act.tag() != act.tag():
            raise ValueError(f"{what} network was saved for {fn.act.tag()}, not {act.tag()}")
    if problem.g_kind == "gaussian-bump":
        raise ValueError("--g gaussian-bump has no network form; pass its network as --g file:PATH")
    g_net = problem.g_custom.net if problem.g_custom else _quadratic_datum_net(args.d, act)
    f_net = problem.f_custom.net if problem.f_custom else affine([[problem.lam]], [0.0])
    return CompileInputs(
        n=args.n,
        M=args.m,
        horizon=args.horizon,
        d=args.d,
        g_net=g_net,
        f_net=f_net,
        j_net=default_identity(act),
        activation=act,
        oracle=RandomOracle(args.seed, args.d),
    )


# name -> (type, default, help); a flag without a default is required.
_PROBLEM_FLAGS = {
    "d": (int, None, "space dimension"),
    "n": (int, None, "estimator level"),
    "m": (int, None, "branching factor"),
    "t": (float, None, "evaluation time"),
    "horizon": (float, None, "final time"),
    "f": (str, "zero", "nonlinearity: zero | linear:LAMBDA | interp:PATH"),
    "g": (str, "quadratic", "terminal datum: quadratic | gaussian-bump | file:PATH"),
}


def _add_problem_flags(sub: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Declare the named problem flags (all by default); `defaults` overrides the table."""
    for name in names or _PROBLEM_FLAGS:
        kind, value, text = _PROBLEM_FLAGS[name]
        value = defaults.get(name, value)
        sub.add_argument(f"--{name}", type=kind, default=value, required=value is None, help=text)


def _add_compile_flags(sub: argparse.ArgumentParser) -> None:
    _add_problem_flags(sub)
    sub.add_argument(
        "--activation",
        required=True,
        help="relu | leaky:ALPHA | softplus | repu:GAMMA",
    )
    sub.add_argument("--seed", type=int, default=None, help="oracle seed (default: env)")
    sub.add_argument(
        "--allow-large",
        action="store_true",
        help="compile even when the parameter bound exceeds 1e8",
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    inputs = _compile_inputs(args)
    net = compile_mlp(inputs, (0,), args.t, allow_large=args.allow_large)
    report = size_report(inputs, net)
    save_network(args.out, net, inputs.activation)
    if args.report:
        Path(args.report).write_text(report_json(report) + "\n")
    if not report.within_bounds():
        print(report_json(report))
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inputs = _compile_inputs(args)
    report = verify_equivalence(
        inputs, (0,), args.t, probes=args.probes, tol=args.tol, allow_large=args.allow_large
    )
    print(report_json(report))
    return 0 if report.passed else 1


def _read_points(path: str, d: int) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(v) for v in line.split(",")])
    pts = np.asarray(rows, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points file must have {d} comma-separated values per line")
    return pts


def _parse_seeds(text: str) -> list[int]:
    seeds = [int(v) for v in text.split(",") if v]
    if not seeds:
        raise ValueError("--seeds needs at least one integer")
    return seeds


def _cmd_mlp(args: argparse.Namespace) -> int:
    problem = _problem(args)
    pts = _read_points(args.points, args.d)
    seeds = _parse_seeds(args.seeds)
    cfg = MlpConfig(n=args.n, M=args.m, horizon=args.horizon, t=args.t, d=args.d)
    fns = ProblemFns(f=problem.f_callable(), g=problem.g_callable())
    table = mlp_estimate_batch(cfg, pts, seeds, fns)
    lines = ["seed,point,value"]
    for i, seed in enumerate(seeds):
        for j in range(pts.shape[0]):
            lines.append(f"{seed},{j},{float(table[i, j])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_levels(text: str) -> list[tuple[int, int]]:
    levels = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        n_str, _, m_str = chunk.partition(":")
        if not m_str:
            raise ValueError(f"levels entry {chunk!r} must look like N:M")
        levels.append((int(n_str), int(m_str)))
    if not levels:
        raise ValueError("--levels needs at least one N:M entry")
    return levels


def _cmd_pde_error(args: argparse.Namespace) -> int:
    if args.problem != "heat-quadratic":
        raise ValueError(f"unknown problem {args.problem!r}")
    lo, _, hi = args.box.partition(",")
    problem = _problem(args, c=args.c, box=(float(lo), float(hi)), direction="terminal")
    levels, seeds = _parse_levels(args.levels), _parse_seeds(args.seeds)
    rows = convergence_experiment(problem, levels, seeds, args.samples, args.p)
    Path(args.out).write_text(rows_to_csv(rows))
    return 0


def _cmd_sampler_check(args: argparse.Namespace) -> int:
    report = brownian_moment_check(args.d, args.s, args.gamma, args.samples, args.seed)
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0 if report["passed"] else 1


_AUDIT_GRID = 2001
_AUDIT_SPAN = 50.0


def _audit_interp(
    net: Network, act: Activation, fn, lip: float, q: float, eps: float, factor: float
) -> dict:
    xs = np.linspace(-_AUDIT_SPAN, _AUDIT_SPAN, _AUDIT_GRID)
    got = np.empty_like(xs)
    for start in range(0, xs.size, 256):
        chunk = xs[start : start + 256]
        got[start : start + 256] = realize(net, act, chunk[:, None])[:, 0]
    weight = np.maximum(1.0, np.abs(xs) ** q)
    weighted = np.abs(got - fn(xs)) / weight
    quotients = np.abs(np.diff(got)) / np.diff(xs)
    target = factor * eps * (1.0 + 1.0e-9)
    return {
        "weighted_error": float(weighted.max()),
        "weighted_error_bound": target,
        "lipschitz_sample": float(quotients.max()),
        "lipschitz_bound": lip * (1.0 + 1.0e-9) + 1.0e-12,
    }


_FN_TABLE = {
    "sin": (np.sin, 1.0),
    "cos": (np.cos, 1.0),
    "abs": (np.abs, 1.0),
}


def _cmd_interp_build(args: argparse.Namespace) -> int:
    if args.fn not in _FN_TABLE:
        raise ValueError(f"--fn must be one of {sorted(_FN_TABLE)}, got {args.fn!r}")
    fn, lip = _FN_TABLE[args.fn]
    lip = args.L if args.L is not None else lip
    act = parse_activation(args.activation)
    target = LipschitzFn(fn=fn, lipschitz=lip)
    if act.kind == "relu":
        net, guarantee = approx_net_relu(target, args.q, args.eps)
        factor, width_scale, param_scale = 1.0, 2.0, 12.0
        width_extra = 1.0
    elif act.kind == "leaky_relu":
        net, guarantee = approx_net_leaky(target, args.q, args.eps, act.alpha)
        factor, width_scale, param_scale = 1.0, 4.0, 24.0
        width_extra = 2.0
    elif act.kind == "softplus":
        net, guarantee = approx_net_softplus(target, args.q, args.eps)
        factor, width_scale, param_scale = 2.0, 2.0, 12.0
        width_extra = 1.0
    else:
        raise ValueError("interp-build supports relu, leaky:ALPHA, and softplus only")
    try:
        base = max(1.0, 2.0 * lip) ** (args.q / (args.q - 1.0)) * args.eps ** (
            -args.q / (args.q - 1.0)
        )
    except OverflowError:  # a finite power past the float range
        raise ValueError(
            f"size bound is not finite at q={args.q}, eps={args.eps}, L={lip}"
        ) from None
    audit = _audit_interp(net, act, fn, lip, args.q, args.eps, factor)
    audit.update(
        {
            "eps": guarantee.eps,
            "q": guarantee.q,
            "b": guarantee.b,
            "K": guarantee.K,
            "width": guarantee.width,
            "params": guarantee.params,
            "width_bound": width_scale * base + width_extra,
            "params_bound": param_scale * base,
            "activation": act.tag(),
        }
    )
    passed = (
        audit["weighted_error"] <= audit["weighted_error_bound"]
        and audit["lipschitz_sample"] <= audit["lipschitz_bound"]
        and guarantee.width <= audit["width_bound"]
        and guarantee.params <= audit["params_bound"]
        and param_count(net) == guarantee.params
    )
    audit["passed"] = bool(passed)
    save_network(args.out, net, act)
    if args.report:
        Path(args.report).write_text(json.dumps(audit, sort_keys=True, allow_nan=False) + "\n")
    print(json.dumps(audit, sort_keys=True, allow_nan=False))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="picardnets", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compile", help="compile an estimator into one network file")
    _add_compile_flags(sub)
    sub.add_argument("--out", required=True, help="output network JSON path")
    sub.add_argument("--report", default=None, help="optional size report JSON path")
    sub.set_defaults(handler=_cmd_compile)

    sub = subs.add_parser("verify", help="compile and compare against the estimator")
    _add_compile_flags(sub)
    sub.add_argument("--probes", type=int, default=20, help="number of probe points")
    sub.add_argument("--tol", type=float, default=1.0e-8, help="relative residual tolerance")
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("mlp", help="run the estimator over a batch of points")
    _add_problem_flags(sub)
    sub.add_argument("--points", required=True, help="CSV file, one point per line")
    sub.add_argument("--seeds", required=True, help="comma-separated oracle seeds")
    sub.add_argument("--out", default=None, help="output CSV (default: stdout)")
    sub.set_defaults(handler=_cmd_mlp)

    sub = subs.add_parser("pde-error", help="convergence experiment against a reference")
    sub.add_argument("--problem", default="heat-quadratic")
    _add_problem_flags(sub, "d", "horizon", "f", d=5, horizon=1.0)
    sub.add_argument("--c", type=float, default=0.5)
    sub.add_argument("--box", default="0,1", help="LOW,HIGH box for sampling")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--levels", required=True, help="comma list of N:M, e.g. 1:1,2:2,3:3")
    sub.add_argument("--seeds", required=True, help="comma-separated oracle seeds")
    sub.add_argument("--samples", type=int, required=True, help="evaluation point count")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.set_defaults(handler=_cmd_pde_error)

    sub = subs.add_parser("sampler-check", help="moment test of the Brownian sampler")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--gamma", type=int, required=True)
    sub.add_argument("--s", type=float, default=1.0)
    sub.add_argument("--samples", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.set_defaults(handler=_cmd_sampler_check)

    sub = subs.add_parser("interp-build", help="build and audit an approximation network")
    sub.add_argument("--fn", required=True, help=f"one of {sorted(_FN_TABLE)}")
    sub.add_argument("--L", type=float, default=None, help="Lipschitz constant override")
    sub.add_argument("--q", type=float, required=True, help="growth exponent, > 1")
    sub.add_argument("--eps", type=float, required=True, help="error target in (0, 1]")
    sub.add_argument("--activation", required=True, help="relu | leaky:ALPHA | softplus")
    sub.add_argument("--out", required=True, help="output network JSON path")
    sub.add_argument("--report", default=None, help="optional audit JSON path")
    sub.set_defaults(handler=_cmd_interp_build)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _oracle_seed(args.seed)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
