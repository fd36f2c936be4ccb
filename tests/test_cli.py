import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relsingosc
from relsingosc import checks
from relsingosc.cli import main
from relsingosc.operators import AnalyticFunction
from relsingosc.oscillator import radial_basis

VALID = ["--dims", "3", "--l", "1", "--omega0", "0.1", "--g0", "1.0"]
FAST_CHECKS = "eigen-residual,su11-ladder-bracket,casimir-bargmann"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_free_case_alpha_is_one(capsys):
    code, out, _ = run(capsys, ["spectrum", "--dims", "3", "--l", "0",
                                "--omega0", "0.2", "--g0", "0", "--n-max", "1"])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln and not ln.startswith("#")]
    assert all(float(r[5]) == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_spectrum_equal_spacing_and_example_energy(capsys):
    code, out, _ = run(capsys, ["spectrum"] + VALID + ["--n-max", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,l,n,omega0,g0,alpha,nu,s,energy,excitation,nonrel_limit"
    energies = [float(ln.split(",")[8]) for ln in lines[1:]]
    assert energies[0] == pytest.approx(1.290521263313001, rel=1e-12)
    gaps = np.diff(energies)
    assert np.allclose(gaps, 2 * 0.1, atol=1e-12)


def test_spectrum_skips_invalid_points(capsys):
    code, out, _ = run(capsys, ["spectrum", "--dims", "3", "--l", "0,2",
                                "--omega0", "1.0", "--g0", "0.1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert any(s["l"] == 2 for s in data["skipped"])
    assert all(r["l"] == 0 for r in data["rows"])


def test_eval_csv_columns_and_origin(capsys):
    code, out, _ = run(capsys, ["eval", "--dims", "3", "--l", "0", "--omega0", "0.2",
                                "--g0", "0.5", "--n-max", "0", "--grid", "1e-8:25:400"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,re,im,abs2"
    first = [float(x) for x in lines[1].split(",")]
    assert first[3] < 1e-12  # R(0) = 0


def test_eval_abs2_integrates_to_one(capsys):
    code, out, _ = run(capsys, ["eval", "--dims", "3", "--l", "0", "--omega0", "0.2",
                                "--g0", "0.5", "--n-max", "0", "--grid", "1e-8:25:3000"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    rho = np.array([float(ln.split(",")[0]) for ln in lines])
    abs2 = np.array([float(ln.split(",")[3]) for ln in lines])
    assert np.trapezoid(abs2, rho) == pytest.approx(1.0, abs=1e-3)


def test_eval_n1_single_interior_node(capsys):
    code, out, _ = run(capsys, ["eval", "--dims", "3", "--l", "0", "--omega0", "0.2",
                                "--g0", "0.5", "--n-max", "1", "--grid", "1e-8:25:3000"])
    assert code == 0
    blocks = out.split("# ")
    n1 = next(b for b in blocks if b.startswith("N3_l0_n1"))
    lines = n1.strip().splitlines()[2:]
    abs2 = np.array([float(ln.split(",")[3]) for ln in lines])
    kept = abs2 > 1e-12 * abs2.max()
    d = np.diff(abs2[kept])
    flips = int(np.sum(np.sign(d[1:]) * np.sign(d[:-1]) < 0))
    # max, node-minimum, max: exactly three derivative sign changes
    assert flips == 3


def test_eval_writes_suffixed_files(tmp_path, capsys):
    out_file = tmp_path / "wf.csv"
    code, _, _ = run(capsys, ["eval", "--dims", "3", "--l", "0", "--omega0", "0.2",
                              "--g0", "0.5", "--n-max", "1", "--grid", "1e-8:20:50",
                              "--out", str(out_file)])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2
    assert all(f.startswith("wf.N3_l0_n") for f in files)
    text = (tmp_path / files[0]).read_text()
    assert text.splitlines()[0] == "rho,re,im,abs2"


def test_eval_invalid_point_exits_2(capsys):
    code, _, err = run(capsys, ["eval", "--dims", "3", "--l", "2", "--omega0", "1.0",
                                "--g0", "1.0", "--n-max", "0"])
    assert code == 2
    assert "skipped" in err


def test_eval_where_h_n_overflows_prints_finite_states(capsys):
    # h_0 overflows a float at omega0 = 0.008; the states need only log h_0
    code, out, err = run(capsys, ["eval", "--dims", "3", "--l", "1", "--omega0", "0.008",
                                  "--g0", "1", "--n-max", "0", "--grid", "0.5:40:20"])
    assert code == 0 and "skipped" not in err
    values = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
    assert values.shape == (20, 4) and np.all(np.isfinite(values)) and np.max(values[:, 3]) > 0


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, ["verify"] + VALID + ["--checks", FAST_CHECKS])
    assert code == 0
    assert "failed=0" in out


def test_verify_tolerance_override_flips_to_failure(capsys):
    code, out, _ = run(capsys, ["verify"] + VALID +
                       ["--checks", "eigen-residual", "--tol-eigen-residual", "1e-16"])
    assert code == 1
    assert "FAIL" in out


def test_verify_skips_invalid_points_and_continues(capsys):
    code, out, _ = run(capsys, ["verify", "--dims", "3", "--l", "1,2",
                                "--omega0", "1.0", "--g0", "0.1",
                                "--checks", "eigen-residual"])
    # l=1: D = 1 - 0.8 - 8 = negative -> skipped; l=2 also; exit reflects the rest
    assert "SKIP" in out
    assert code in (0, 1)


def test_verify_json_schema_and_invariant(capsys):
    code, out, _ = run(capsys, ["verify"] + VALID +
                       ["--checks", FAST_CHECKS, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["report_version"] == 1
    assert set(data["summary"]) == {"total", "passed", "failed", "skipped"}
    for e in data["entries"]:
        assert set(e) == {"check_id", "params", "residual", "tolerance", "pass",
                          "status", "reason", "runtime_ms"}
        if e["status"] == "ran":
            assert e["pass"] == (e["residual"] <= e["tolerance"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_errored_checks_give_strict_json(capsys, monkeypatch):
    # states that evaluate to inf make every check that reads them error
    def overflowing_basis(p, top):
        basis = radial_basis(p, top)
        return dataclasses.replace(basis, fn=AnalyticFunction(
            lambda z: np.full((top + 1,) + np.shape(z), np.inf + 0j), basis.fn.strip_halfwidth))

    monkeypatch.setattr(checks, "radial_basis", overflowing_basis)
    with np.errstate(invalid="ignore", over="ignore"):
        code, out, _ = run(capsys, ["verify", "--dims", "3", "--l", "1", "--omega0", "0.2",
                                    "--g0", "1", "--n-max", "2", "--format", "json"])
    assert code == 1
    data = json.loads(out, parse_constant=_reject_constant)
    errors = [e for e in data["entries"] if e["status"] == "error"]
    assert errors
    for e in errors:
        assert e["residual"] is None and e["pass"] is False
        assert e["reason"].startswith("error: ")
    assert data["summary"]["failed"] == len(errors)


def test_verify_high_excitations_give_finite_residuals(capsys):
    # the recurrence keeps its digits at n = 30, where the float 3F2 sum
    # read eigen-residual 2e-2 and orthonormality 5e12, so every check passes
    code, out, _ = run(capsys, ["verify", "--dims", "3", "--l", "1", "--omega0", "0.2",
                                "--g0", "1", "--n-max", "30", "--format", "json"])
    data = json.loads(out, parse_constant=_reject_constant)
    assert code == 0
    assert data["summary"]["total"] == data["summary"]["passed"] == 23


def test_error_entries_render_null_in_every_format():
    from relsingosc.checks import CheckOutcome
    from relsingosc.report import build_report

    params = {"N": 3, "l": 1, "omega0": 0.2, "g0": 1.0}
    report = build_report([CheckOutcome("eigen-residual", params, None, 1e-9, False, 1.0,
                                        status="error", reason="error: Boom: x")], {})
    assert "residual=null" in report.render("text")
    row = report.render("csv").splitlines()[1].split(",")
    assert row[5] == "" and row[7] == "false" and row[8] == "error"
    entry = json.loads(report.render("json"), parse_constant=_reject_constant)["entries"][0]
    assert entry["residual"] is None


def test_verify_deterministic_reports(capsys):
    argv = ["verify"] + VALID + ["--checks", FAST_CHECKS, "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["canonical_hash"] == d2["canonical_hash"]
    strip = lambda d: [{k: v for k, v in e.items() if k != "runtime_ms"}
                       for e in d["entries"]]
    assert strip(d1) == strip(d2)


def test_verify_runs_points_in_the_calling_thread(capsys, monkeypatch):
    # no pool is built, and the former thread-cap variable changes nothing
    argv = ["verify", "--dims", "3,5", "--l", "0", "--omega0", "0.2", "--g0", "0.1",
            "--checks", "eigen-residual,su11-ladder-bracket", "--format", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("verify built a thread pool")

    monkeypatch.setattr(relsingosc.cli, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("REL_SINGOSC_THREADS", "4")
    code, out2, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out1)["canonical_hash"] == json.loads(out2)["canonical_hash"]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dims": [5], "l": [0], "omega0": [0.2], "g0": [0.1],
        "checks": "eigen-residual", "tol-eigen-residual": 1e-16,
        "format": "json",
    }))
    # file alone: fails on the absurd tolerance
    code, out, _ = run(capsys, ["verify", "--config", str(cfg)])
    assert code == 1
    data = json.loads(out)
    assert data["config"]["dims"] == [5]
    # flag overrides the file tolerance
    code, out, _ = run(capsys, ["verify", "--config", str(cfg),
                                "--tol-eigen-residual", "1e-6"])
    assert code == 0


def test_report_written_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, ["verify"] + VALID +
                     ["--checks", "su11-ladder-bracket", "--format", "json",
                      "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["summary"]["failed"] == 0


def test_negative_control_report_semantics(capsys):
    code, out, _ = run(capsys, ["verify"] + VALID +
                       ["--checks", "eigen-negative-control", "--format", "json"])
    assert code == 0
    entry = json.loads(out)["entries"][0]
    # margin ratio: threshold/observed <= 1 means the control tripped loudly
    assert entry["tolerance"] == 1.0
    assert entry["residual"] <= 1.0


def test_eval_rejects_format_flag(capsys):
    # eval always writes CSV; --format belongs to spectrum and verify only
    code, _, err = run(capsys, ["eval", "--dims", "3", "--l", "0", "--omega0", "0.2",
                                "--g0", "0.1", "--format", "json"])
    assert code == 2
    assert "--format" in err


def test_config_keys_are_the_subcommands_flags(tmp_path, capsys):
    def with_config(command, data, *flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        return run(capsys, [command, "--config", str(path)] + VALID + list(flags))

    # a key or flag the subcommand does not take is rejected, file or not
    for code, out, err in (
        with_config("eval", {"format": "json"}),
        with_config("spectrum", {"checks": "eigen-residual"}),
        run(capsys, ["spectrum"] + VALID + ["--tol-eigen-residual", "1"]),
        with_config("verify", {"rho_samples": [1.0, 2.0]}),
    ):
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
    # underscores in a key read as dashes
    code, out, _ = with_config("spectrum", {"n_max": 2}, "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3  # header, then n = 0, 1, 2


def test_config_errors_exit_2(capsys):
    for argv in (
        ["verify", "--checks", "nope"],
        ["verify", "--tol-nope", "1e-3"],
        ["eval", "--grid", "1:2"],
        ["verify", "--config", "/nonexistent/path.json"],
        ["verify", "--dims", "a"],
        ["spectrum", "--omega0", "abc"],
        ["verify", "--rho", "x"],
        ["eval", "--grid", "0:1:x"],
        ["eval", "--grid", "0:inf:5"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")


def test_list_checks(capsys):
    code, out, _ = run(capsys, ["verify", "--list-checks"])
    assert code == 0
    assert "eigen-residual" in out
    assert "planewave-eigenvalue" in out


def test_rho_sample_override(capsys):
    code, out, _ = run(capsys, ["verify"] + VALID +
                       ["--checks", "eigen-residual", "--rho", "0.4,1.7,6.0",
                        "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["config"]["rho_samples"] == [0.4, 1.7, 6.0]
    assert data["entries"][0]["pass"] is True


def test_console_script_exit_codes(tmp_path):
    # through the real process: `python -m relsingosc.cli` exits via sys.exit(main())
    src = str(Path(relsingosc.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "relsingosc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_flag": 1}))
    proc = cli("spectrum", "--config", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    proc = cli("spectrum", *VALID, "--n-max", "0", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("N,l,n,")
    assert len(proc.stdout.splitlines()) == 2


def test_flags_and_config_keys_are_never_abbreviated(tmp_path, capsys):
    def with_config(data):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        return run(capsys, ["spectrum", "--config", str(path)])

    for code, out, err in (
        with_config({"om": [0.3]}),  # a prefix of --omega0
        with_config({"config": str(tmp_path / "other.json")}),
        run(capsys, ["spectrum", "--om", "0.3"] + VALID[:2]),
        run(capsys, ["verify", "--n-ma", "2"] + VALID),
    ):
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
