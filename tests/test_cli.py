import json
import subprocess
import sys

import numpy as np
import pytest

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
