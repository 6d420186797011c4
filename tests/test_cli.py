import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import picardnets
from picardnets import load_network, realize
from picardnets.cli import main
from picardnets.pde import CSV_HEADER


def cli_env(**extra):
    # a child interpreter finds the package where this one imported it from
    src = os.path.dirname(os.path.dirname(picardnets.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = [
    "--d", "2", "--n", "1", "--m", "2", "--t", "0.0", "--horizon", "1.0",
    "--activation", "repu:2", "--seed", "5",
]


def test_compile_writes_network_and_report(tmp_path, capsys):
    out = tmp_path / "net.json"
    rep = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "compile", *BASE, "--out", str(out), "--report", str(rep)
    )
    assert code == 0
    net, act = load_network(out)
    assert act.tag() == "repu:2"
    assert realize(net, act, np.zeros((1, 2))).shape == (1, 1)
    report = json.loads(rep.read_text())
    assert report["params"] <= report["bound_params"]
    assert report["depth"] <= report["bound_depth"]


def test_compile_zero_nonlinearity_writes_only_live_units(tmp_path, capsys):
    # f = 0 multiplies every child network by zero, so none of their units may be built
    out = tmp_path / "net.json"
    flags = [
        "--d", "5", "--n", "3", "--m", "3", "--t", "0.0", "--horizon", "1.0",
        "--activation", "relu", "--f", "zero", "--seed", "5", "--allow-large", "--out", str(out),
    ]
    code, _, _ = run(capsys, "compile", *flags)
    assert code == 0
    net, _ = load_network(out)
    for w, _ in net.layers[1:]:
        assert np.all(np.any(w != 0.0, axis=0))
    # there is nothing left to prune, and the flag that did it is gone
    with pytest.raises(SystemExit) as exc:
        main(["compile", *flags, "--prune"])
    assert exc.value.code == 2


def test_verify_prints_passing_report(capsys):
    code, out, _ = run(capsys, "verify", *BASE, "--probes", "6", "--tol", "1e-8")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["probe_count"] == 6
    assert report["max_residual"] <= 1e-8


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_verify_rejects_a_probe_count_below_one(capsys, probes):
    code, out, err = run(capsys, "verify", *BASE, "--probes", probes)
    assert code == 2
    assert out == ""
    assert "probe" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [("verify", "--tol", v) for v in ("nan", "inf", "-1")]
    + [("sampler-check", "--s", v) for v in ("nan", "inf", "0", "-1")],
)
def test_a_tolerance_or_elapsed_time_out_of_range_is_a_usage_error(capsys, command, flag, value):
    argv = BASE if command == "verify" else ["--d", "2", "--gamma", "1", "--samples", "10"]
    code, out, err = run(capsys, command, *argv, flag, value)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and f"got {float(value)}" in lines[0], lines


def test_compile_is_deterministic_and_seed_sensitive(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    run(capsys, "compile", *BASE, "--out", str(a))
    run(capsys, "compile", *BASE, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    argv = [v if v != "5" else "6" for v in BASE]
    run(capsys, "compile", *argv, "--out", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    flagged = tmp_path / "flagged.json"
    fromenv = tmp_path / "fromenv.json"
    run(capsys, "compile", *BASE, "--out", str(flagged))
    monkeypatch.setenv("PICARDNETS_SEED", "5")
    argv = [v for v in BASE if v not in ("--seed", "5")]
    run(capsys, "compile", *argv, "--out", str(fromenv))
    assert flagged.read_bytes() == fromenv.read_bytes()


def test_quadratic_datum_needs_square_power(capsys):
    argv = [v if v != "repu:2" else "repu:3" for v in BASE]
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "repu:2" in err


def test_unknown_activation_is_a_usage_error(capsys):
    argv = [v if v != "repu:2" else "bogus" for v in BASE]
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "bogus" in err


def test_file_datum_round_trip(tmp_path, capsys):
    # compile once, reuse the produced network as an external datum file
    first = tmp_path / "first.json"
    run(capsys, "compile", *BASE, "--out", str(first))
    code, out, _ = run(
        capsys, "verify", *BASE, "--g", f"file:{first}", "--probes", "4"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_file_datum_activation_mismatch(tmp_path, capsys):
    first = tmp_path / "first.json"
    run(capsys, "compile", *BASE, "--out", str(first))
    argv = [v if v != "repu:2" else "relu" for v in BASE]
    code, _, err = run(capsys, "verify", *argv, "--g", f"file:{first}")
    assert code == 2
    assert "repu:2" in err


def test_compile_rejects_the_gaussian_bump_datum(tmp_path, capsys):
    code, _, err = run(
        capsys, "compile", *BASE, "--g", "gaussian-bump", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "file:PATH" in err
    assert not (tmp_path / "x.json").exists()


def test_mlp_matches_compile_on_the_same_network_tags(tmp_path, capsys):
    # the same --f/--g tags name one problem: the compiled net realizes the
    # estimate that mlp prints for the same seed, n, M and t
    sin, datum, net = (tmp_path / name for name in ("sin.json", "datum.json", "net.json"))
    relu = [v if v != "repu:2" else "relu" for v in BASE]
    code, _, _ = run(
        capsys, "interp-build", "--fn", "sin", "--q", "2", "--eps", "0.5",
        "--activation", "relu", "--out", str(sin),
    )
    assert code == 0
    assert run(capsys, "compile", *relu, "--out", str(datum))[0] == 0
    tags = ["--g", f"file:{datum}", "--f", f"interp:{sin}"]
    problem = [
        "--d", "2", "--n", "2", "--m", "2", "--t", "0.25", "--horizon", "1.0", *tags,
    ]
    code, _, _ = run(
        capsys, "compile", *problem, "--activation", "relu", "--seed", "11",
        "--allow-large", "--out", str(net),
    )
    assert code == 0
    xs = np.array([[0.1, 0.2], [-1.5, 2.25], [3.0, -0.5]])
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(f"{a},{b}\n" for a, b in xs.tolist()))
    code, out, _ = run(capsys, "mlp", *problem, "--points", str(pts), "--seeds", "11")
    assert code == 0
    estimates = np.array([float(line.split(",")[2]) for line in out.splitlines()[1:]])
    compiled, act = load_network(net)
    realized = realize(compiled, act, xs)[:, 0]
    residual = np.abs(realized - estimates) / (1.0 + np.abs(estimates))
    assert residual.max() <= 1e-8, residual


def test_mlp_rejects_a_zero_horizon(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n")
    code, out, err = run(
        capsys,
        "mlp",
        "--d", "2", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "0.0",
        "--points", str(pts), "--seeds", "1",
    )
    assert code == 2
    assert out == ""
    assert "horizon" in err


def test_mlp_outputs_parseable_csv(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n0.5,0.5\n")
    code, out, _ = run(
        capsys,
        "mlp",
        "--d", "2", "--n", "2", "--m", "2", "--t", "0.0", "--horizon", "1.0",
        "--points", str(pts), "--seeds", "1,2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed,point,value"
    assert len(lines) == 5
    seed, point, value = lines[1].split(",")
    assert (seed, point) == ("1", "0")
    float(value)


def test_mlp_rejects_malformed_points(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2,0.3\n")
    code, _, err = run(
        capsys,
        "mlp",
        "--d", "2", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "1.0",
        "--points", str(pts), "--seeds", "1",
    )
    assert code == 2
    assert "comma-separated" in err


def test_mlp_rejects_non_finite_points(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\nnan,inf\n")
    code, out, err = run(
        capsys,
        "mlp",
        "--d", "2", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "1.0",
        "--points", str(pts), "--seeds", "1",
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("seed", [str(2**64 + 1), str(2**63), str(-(2**63) - 1)])
@pytest.mark.parametrize("command", ["mlp", "pde-error"])
def test_seeds_outside_64_bits_are_usage_errors(tmp_path, capsys, command, seed):
    # such a seed would wrap onto the oracle of another seed, here 1 or -2**63 or 2**63 - 1
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n")
    out_csv = tmp_path / "out.csv"
    argv = {
        "mlp": ["mlp", "--d", "2", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "1.0",
                "--points", str(pts)],
        "pde-error": ["pde-error", "--d", "2", "--levels", "1:1", "--samples", "2",
                      "--out", str(out_csv)],
    }[command]
    code, out, err = run(capsys, *argv, "--seeds", f"1,{seed}")
    assert code == 2
    assert out == "" and not out_csv.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and seed in lines[0], lines


SEED_ARGV = {
    "compile": ["compile", *BASE[:-2]],
    "verify": ["verify", *BASE[:-2]],
    "sampler-check": ["sampler-check", "--d", "2", "--gamma", "2", "--samples", "10"],
}


@pytest.mark.parametrize(
    "source, seed",
    [(source, str(v)) for source in ("flag", "env") for v in (2**64 + 1, 2**63, -(2**63) - 1)]
    + [("env", "abc")],
)
@pytest.mark.parametrize("command", sorted(SEED_ARGV))
def test_oracle_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, monkeypatch, command, source, seed):
    # the oracle would wrap such a seed onto another one: 2**64 + 1 used to print seed 1's report
    argv = list(SEED_ARGV[command])
    if command == "compile":
        argv += ["--out", str(tmp_path / "net.json")]
    if source == "flag":
        argv += ["--seed", seed]
    else:
        monkeypatch.setenv("PICARDNETS_SEED", seed)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and not (tmp_path / "net.json").exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and seed in lines[0], lines


def test_pde_error_csv_is_deterministic_up_to_wall_ms(tmp_path, capsys):
    args = [
        "pde-error",
        "--d", "2", "--levels", "1:1,2:2", "--seeds", "3,4",
        "--samples", "8", "--out", "",
    ]
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:5]) for line in lines]

    args[-1] = str(first)
    assert main(args) == 0
    args[-1] = str(second)
    assert main(args) == 0
    assert strip_wall(first) == strip_wall(second)
    header = first.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    assert len(first.read_text().splitlines()) == 1 + 4


def test_pde_error_rejects_bad_levels(capsys):
    code, _, err = run(
        capsys,
        "pde-error", "--levels", "1-1", "--seeds", "1", "--samples", "4",
        "--out", "/tmp/never.csv",
    )
    assert code == 2
    assert "N:M" in err


def test_pde_error_needs_a_closed_form_nonlinearity(tmp_path, capsys):
    sin = tmp_path / "sin.json"
    run(
        capsys, "interp-build", "--fn", "sin", "--q", "2", "--eps", "0.5",
        "--activation", "relu", "--out", str(sin),
    )
    code, _, err = run(
        capsys,
        "pde-error", "--f", f"interp:{sin}", "--levels", "1:1", "--seeds", "1",
        "--samples", "4", "--out", str(tmp_path / "e.csv"),
    )
    assert code == 2
    assert "closed-form" in err


@pytest.mark.parametrize("p", ["0", "-1", "nan", "inf"])
def test_pde_error_rejects_a_bad_exponent(tmp_path, capsys, p):
    out = tmp_path / "e.csv"
    code, _, err = run(
        capsys,
        "pde-error", "--d", "2", "--p", p, "--levels", "1:1", "--seeds", "1",
        "--samples", "4", "--out", str(out),
    )
    assert code == 2
    assert "exponent" in err
    assert not out.exists()


@pytest.mark.parametrize("box", ["0,inf", "-inf,1", "nan,1"])
def test_pde_error_rejects_a_non_finite_box(tmp_path, capsys, box):
    code, _, err = run(
        capsys,
        "pde-error", "--d", "2", f"--box={box}", "--levels", "1:1", "--seeds", "1",
        "--samples", "4", "--out", str(tmp_path / "e.csv"),
    )
    assert code == 2
    assert "box" in err


def test_pde_error_refuses_an_overflowing_reference(tmp_path, capsys):
    out = tmp_path / "e.csv"
    code, _, err = run(
        capsys,
        "pde-error", "--d", "2", "--f", "linear:1e6", "--levels", "1:1", "--seeds", "1",
        "--samples", "2", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error: ") and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("compile", "--g=file:{missing}"),
        ("verify", "--g=file:{missing}"),
        ("mlp", "--g=file:{missing}"),
        ("compile", "--f=interp:{missing}"),
        ("verify", "--f=interp:{missing}"),
        ("mlp", "--f=interp:{missing}"),
        ("mlp", "--points={missing}"),
        ("compile", "--out={unwritable}"),
        ("mlp", "--out={unwritable}"),
    ],
)
def test_missing_or_unwritable_files_are_usage_errors(tmp_path, capsys, command, flag):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n")
    problem = ["--d", "2", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "1.0"]
    argv = {
        "compile": ["compile", *problem, "--activation", "relu", "--seed", "1",
                    "--out", str(tmp_path / "net.json")],
        "verify": ["verify", *problem, "--activation", "relu", "--seed", "1"],
        "mlp": ["mlp", *problem, "--points", str(pts), "--seeds", "1"],
    }[command]
    paths = {"missing": tmp_path / "missing.json", "unwritable": tmp_path / "no-dir" / "out"}
    # a repeated flag overrides the earlier one, so the last argument names the bad file
    code, out, err = run(capsys, *argv, flag.format(**paths))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert ("missing.json" if "missing" in flag else "no-dir") in lines[0]


MALFORMED_NETS = {
    "no-dims": {"activation": "relu", "layers": [{"w": [1.0], "b": [0.0]}]},
    "top-level-list": [{"activation": "relu", "dims": [1, 1]}],
    "fractional-dims": {"activation": "relu", "dims": [1.5, 1], "layers": [{"w": [1.0], "b": [0.0]}]},
    "bad-layer-entry": {"activation": "relu", "dims": [1, 1], "layers": [[1.0, 0.0]]},
    "string-entry": {"activation": "relu", "dims": [1, 1], "layers": [{"b": [0.0], "w": ["1.5"]}]},
    "bool-entry": {"activation": "relu", "dims": [1, 1], "layers": [{"b": [True], "w": [1.0]}]},
    "relu-with-argument": {"activation": "relu:junk", "dims": [1, 1], "layers": [{"b": [0.0], "w": [1.0]}]},
    "softplus-with-argument": {"activation": "softplus:3", "dims": [1, 1], "layers": [{"b": [0.0], "w": [1.0]}]},
    # raw text, past the json module's recursion limit
    "deep-nesting": "[" * 100_000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NETS))
def test_malformed_network_json_is_a_usage_error(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    net = MALFORMED_NETS[case]
    bad.write_text(net if isinstance(net, str) else json.dumps(net))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5\n")
    code, out, err = run(
        capsys,
        "mlp", "--d", "1", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "1.0",
        "--f", f"interp:{bad}", "--points", str(pts), "--seeds", "1",
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _in_grammar(flag, text):
    """Whether `text` is a well-formed --f or --g tag."""
    kind, _, arg = text.partition(":")
    if flag == "--g":
        return text in ("quadratic", "gaussian-bump") or (kind == "file" and arg != "")
    if text == "zero" or (kind == "interp" and arg != ""):
        return True
    try:
        return kind == "linear" and math.isfinite(float(arg))
    except ValueError:
        return False


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar")
    (path / "pts.csv").write_text("0.1,0.2\n")
    return path


@settings(max_examples=40, deadline=None)
@given(flag=st.sampled_from(["--f", "--g"]), text=st.text(max_size=12))
@example(flag="--f", text="linear:")
@example(flag="--f", text="linear:nan")
@example(flag="--f", text="file:")
@example(flag="--f", text="interp:")
@example(flag="--g", text="linear:")
@example(flag="--g", text="linear:nan")
@example(flag="--g", text="file:")
@example(flag="--g", text="interp:")
def test_malformed_problem_tags_are_usage_errors(grammar_dir, flag, text):
    assume(not _in_grammar(flag, text))
    problem = ["--d", "2", "--n", "1", "--m", "1", "--t", "0.0", "--horizon", "1.0"]
    commands = [
        ["compile", *problem, "--activation", "relu", "--seed", "1",
         "--out", str(grammar_dir / "never.json")],
        ["verify", *problem, "--activation", "relu", "--seed", "1"],
        ["mlp", *problem, "--points", str(grammar_dir / "pts.csv"), "--seeds", "1"],
    ]
    if flag == "--f":  # pde-error takes no --g
        commands.append(
            ["pde-error", "--d", "2", "--levels", "1:1", "--seeds", "1", "--samples", "2",
             "--out", str(grammar_dir / "never.csv")]
        )
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, f"{flag}={text}"])
        lines = err.getvalue().splitlines()
        assert code == 2, (argv[0], text)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_sampler_check_json(capsys):
    code, out, _ = run(
        capsys,
        "sampler-check", "--d", "3", "--gamma", "2", "--samples", "20000", "--seed", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["exact"] == pytest.approx(15.0)


def test_interp_build_audit(tmp_path, capsys):
    out = tmp_path / "sin.json"
    rep = tmp_path / "audit.json"
    code, stdout, _ = run(
        capsys,
        "interp-build", "--fn", "sin", "--q", "2", "--eps", "0.5",
        "--activation", "relu", "--out", str(out), "--report", str(rep),
    )
    assert code == 0
    audit = json.loads(stdout)
    assert audit["passed"] is True
    assert audit["K"] == 16
    assert audit["weighted_error"] <= audit["weighted_error_bound"]
    assert json.loads(rep.read_text()) == audit
    net, act = load_network(out)
    assert act.tag() == "relu"


def test_interp_build_rejects_square_power_family(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "interp-build", "--fn", "sin", "--q", "2", "--eps", "0.5",
        "--activation", "repu:2", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "softplus" in err


def test_interp_build_rejects_unknown_function(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "interp-build", "--fn", "tan", "--q", "2", "--eps", "0.5",
        "--activation", "relu", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "tan" in err


# case -> (argv, a phrase the one error line must carry)
OUT_OF_FLOAT_RANGE = {
    "sampler-exact-overflows": (["sampler-check", "--d", "2", "--gamma", "2000"], "not finite"),
    "sampler-sample-overflows": (["sampler-check", "--d", "2", "--gamma", "200"], "not finite"),
    "interp-huge-L": (["interp-build", "--q", "2", "--eps", "0.5", "--L", "1e308"], "not finite"),
    "interp-tiny-eps": (["interp-build", "--q", "2", "--eps", "1e-300"], "not finite"),
    "interp-nan-q": (["interp-build", "--q", "nan", "--eps", "0.5"], "growth exponent"),
    "interp-inf-q": (["interp-build", "--q", "inf", "--eps", "0.5"], "growth exponent"),
    "interp-q-near-1": (["interp-build", "--q", "1.0001", "--eps", "0.5", "--L", "10"], "not finite"),
    "interp-size-bound-overflows": (
        ["interp-build", "--q", "2", "--eps", "1e-160", "--L", "0"],
        "size bound",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(OUT_OF_FLOAT_RANGE))
def test_values_past_the_float_range_are_usage_errors(tmp_path, capsys, case):
    # an overflow is reported as one usage error before anything is written;
    # warnings are errors here, so the CLI may not print any on the way
    argv, phrase = OUT_OF_FLOAT_RANGE[case]
    if argv[0] == "sampler-check":
        argv = [*argv, "--samples", "10"]
    else:
        argv = [*argv, "--fn", "sin", "--activation", "relu",
                "--out", str(tmp_path / "net.json"), "--report", str(tmp_path / "audit.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and phrase in lines[0], lines
    assert not list(tmp_path.iterdir())


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "picardnets.cli",
            "sampler-check", "--d", "2", "--gamma", "1", "--samples", "5000", "--seed", "3",
        ],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_compiled_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at (3,2), d = 5 the compiler's largest matrix-vector products (6,448 x 5)
    # are large enough for OpenBLAS to split them over two threads
    saved = []
    for threads in ("1", "2"):
        out = tmp_path / f"net-{threads}.json"
        subprocess.run(
            [
                sys.executable, "-m", "picardnets.cli", "compile",
                "--d", "5", "--n", "3", "--m", "2", "--t", "0.0", "--horizon", "1.0",
                "--f", "linear:0.1", "--activation", "relu", "--seed", "3", "--allow-large",
                "--out", str(out),
            ],
            env=cli_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        )
        saved.append(out.read_bytes())
    assert len(saved[0]) > 1_000_000
    assert saved[0] == saved[1]
