import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from picardnets import load_network, realize
from picardnets.cli import main
from picardnets.pde import CSV_HEADER


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


def test_compile_prune_shrinks_or_keeps_params(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    pruned = tmp_path / "pruned.json"
    code, _, _ = run(capsys, "compile", *BASE, "--out", str(plain))
    assert code == 0
    code, _, _ = run(capsys, "compile", *BASE, "--prune", "--out", str(pruned))
    assert code == 0
    n_plain, act = load_network(plain)
    n_pruned, _ = load_network(pruned)
    xs = np.linspace(-1, 1, 10).reshape(5, 2)
    np.testing.assert_allclose(
        realize(n_pruned, act, xs), realize(n_plain, act, xs), rtol=1e-13, atol=1e-13
    )


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


def test_pde_error_workers_flag(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    base = [
        "pde-error", "--d", "2", "--levels", "1:2", "--seeds", "1,2",
        "--samples", "8",
    ]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--workers", "3", "--out", str(threaded)]) == 0
    strip = lambda p: [",".join(l.split(",")[:5]) for l in p.read_text().splitlines()]
    assert strip(serial) == strip(threaded)


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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "picardnets.cli",
            "sampler-check", "--d", "2", "--gamma", "1", "--samples", "5000", "--seed", "3",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
