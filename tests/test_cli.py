"""CLI commands, spectrum file round trips, and report reproducibility."""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitats.cli
from eitats.cli import (
    RunConfig,
    SpectrumParseError,
    _build_parser,
    _report_json,
    ingest_spectrum,
    main,
    run,
    write_spectrum,
)
from eitats.lineshape import Spectrum, TlaParams, absorption_profile, default_grid
from eitats.selection import Verdict, discriminate

FIXTURE = Path(__file__).parent / "data" / "circuit_noisy.csv"
SRC = Path(__file__).resolve().parents[1] / "src"
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# The flags each subcommand reads (RunConfig field names): 49 in all.
FLAGS = {
    "generate": {"gamma_ab", "gamma_bc", "omega", "delta1", "alpha", "sigma", "seed", "replicate", "grid", "output"},
    "fit": {"seed", "starts", "max_iterations", "model", "input", "output"},
    "discriminate": {"seed", "starts", "max_iterations", "margin", "input", "output"},
    "sweep": {
        "gamma_ab", "gamma_bc", "sigma", "seed", "replicates", "starts", "max_iterations", "margin", "grid",
        "omegas", "output",
    },
    "boundary": {
        "gamma_ab", "sigma", "seed", "replicates", "starts", "max_iterations", "margin", "omegas", "gbc", "output",
    },
    "circuit": {"seed", "starts", "max_iterations", "margin", "output", "write_spectrum"},
}


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which standard JSON does not have."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def cli(*args):
    """Invoke the CLI in-process; returns (exit code, stdout json or None)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    out = buf.getvalue()
    return code, strict_json(out) if out.strip() else None


class TestSpectrumFiles:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(FINITE, FINITE), min_size=5, max_size=40, unique_by=lambda row: row[0]),
        sigma=st.none() | st.floats(min_value=0.0, allow_infinity=False),
    )
    @example(rows=[(float(i), 0.5) for i in range(5)], sigma=1e200)  # squares overflow
    @example(rows=[(float(i), 0.5) for i in range(5)], sigma=1e-170)  # squares underflow
    def test_round_trip_full_precision_any_finite_spectrum(self, rows, sigma):
        rows.sort()
        data = Spectrum(deltas=[d for d, _ in rows], values=[v for _, v in rows], sigma_exp=sigma)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.csv"
            write_spectrum(data, path)
            back = ingest_spectrum(path)
        assert back.deltas.tobytes() == data.deltas.tobytes()
        assert back.values.tobytes() == data.values.tobytes()
        if sigma is None:
            assert back.sigma_exp is None
        else:
            assert back.sigma_exp == pytest.approx(sigma, rel=1e-15, abs=0.0)

    def test_two_column_file_has_no_noise_scale(self, tmp_path):
        data = absorption_profile(TlaParams(omega=0.3), default_grid())
        path = tmp_path / "spec.csv"
        write_spectrum(data, path)
        assert ingest_spectrum(path).sigma_exp is None

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text("delta,value\n1.0,0.1\n-1.0,0.3\n0.0,0.9\n2.0,0.05\n-2.0,0.2\n")
        data = ingest_spectrum(path)
        assert np.array_equal(data.deltas, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert np.array_equal(data.values, [0.2, 0.3, 0.9, 0.1, 0.05])

    def test_duplicate_detuning_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("delta,value\n0.0,0.1\n0.0,0.2\n1.0,0.3\n2.0,0.1\n3.0,0.2\n")
        with pytest.raises(SpectrumParseError, match="duplicate"):
            ingest_spectrum(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta,value\n0.0,0.1\n1.0,oops\n2.0,0.3\n3.0,0.1\n4.0,0.2\n")
        with pytest.raises(SpectrumParseError, match="line 3"):
            ingest_spectrum(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_value_rejected_with_line_number(self, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"delta,value\n0.0,0.1\n1.0,0.2\n2.0,{bad}\n3.0,0.1\n4.0,0.2\n")
        with pytest.raises(SpectrumParseError, match=f"nonfinite.csv: line 4: value must be finite, got {bad}"):
            ingest_spectrum(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("delta,value\n0.0,0.1\n1.0,0.2\n")
        with pytest.raises(SpectrumParseError, match="at least 5"):
            ingest_spectrum(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("x,y\n0.0,0.1\n")
        with pytest.raises(SpectrumParseError, match="header"):
            ingest_spectrum(path)


class TestCommands:
    def test_generate_then_discriminate_round_trip(self, tmp_path):
        spec_path = tmp_path / "weak_pump.csv"
        code, report = cli(
            "generate", "--omega", "0.2", "--gamma-ab", "1", "--gamma-bc", "0.1",
            "--output", str(spec_path),
        )
        assert code == 0
        assert spec_path.exists()
        assert report["summary"]["n_points"] == 201

        code, report = cli("discriminate", "--input", str(spec_path))
        assert code == 0
        assert report["selection"]["verdict"] == "EIT"

        # matches the in-process pipeline on the same parameters
        data = absorption_profile(TlaParams(omega=0.2, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        direct = discriminate(data)
        assert direct.verdict is Verdict.EIT
        assert report["selection"]["per_point_weights"]["eit"] == pytest.approx(
            direct.per_point_weights["eit"], rel=1e-9
        )

    def test_noiseless_generate_writes_the_profile_without_a_sigma_column(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli("generate", "--omega", "0.4", "--sigma", "0", "--replicate", "3", "--output", str(out))[0] == 0
        profile = absorption_profile(TlaParams(omega=0.4, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        assert out.read_bytes() == Path(write_spectrum(profile, tmp_path / "p.csv")).read_bytes()
        assert out.read_text().startswith("delta,value\n")

    def test_fit_command_recovers_parameters(self, tmp_path):
        spec_path = tmp_path / "doublet.csv"
        cli("generate", "--omega", "3", "--output", str(spec_path))
        code, report = cli("fit", "--input", str(spec_path), "--model", "ats")
        assert code == 0
        fit_info = report["fits"]["ats"]
        assert fit_info["converged"]
        assert fit_info["params"]["d0"] == pytest.approx(3.0, rel=0.1)
        assert "eit" not in report["fits"]

    def test_discriminate_writes_report_file(self, tmp_path):
        spec_path = tmp_path / "s.csv"
        out_path = tmp_path / "report.json"
        cli("generate", "--omega", "1.2", "--output", str(spec_path))
        code, printed = cli("discriminate", "--input", str(spec_path), "--output", str(out_path))
        assert code == 0
        on_disk = json.loads(out_path.read_text())
        assert on_disk == printed
        assert str(out_path) in on_disk["outputs"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_reports_are_reproducible(self, tmp_path):
        spec_path = tmp_path / "s.csv"
        cli("generate", "--omega", "0.6", "--sigma", "0.05", "--seed", "9", "--output", str(spec_path))
        code_a, rep_a = cli("discriminate", "--input", str(spec_path), "--seed", "9")
        code_b, rep_b = cli("discriminate", "--input", str(spec_path), "--seed", "9")
        assert (code_a, rep_a) == (code_b, rep_b)

    def test_sweep_command_writes_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, report = cli(
            "sweep", "--gamma-ab", "1", "--gamma-bc", "0.1",
            "--omegas", "0.2:1.2:0.2", "--starts", "6", "--max-iterations", "150",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,w_ppt_eit,w_ppt_ats,w_akaike_eit,w_akaike_ats,fit_failures"
        assert len(lines) == 7
        assert report["summary"]["crossover"] is not None

    def test_boundary_command_writes_table(self, tmp_path):
        out = tmp_path / "boundary.csv"
        code, report = cli(
            "boundary", "--gamma-ab", "1", "--gbc", "0.1:0.2:0.1",
            "--omegas", "0.5:1.1:0.1", "--starts", "4", "--max-iterations", "100",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma_bc,omega_crossover,transparency_depth"
        assert len(lines) == 3

    def test_boundary_without_any_crossing_reports_null(self, tmp_path):
        out = tmp_path / "boundary.csv"
        code, report = cli(
            "boundary", "--gbc", "0.1:0.2:0.1", "--omegas", "0.1:0.3:0.1", "--starts", "4",
            "--max-iterations", "50", "--output", str(out),
        )
        assert code == 0
        assert report["summary"]["boundary_min"] is None and report["summary"]["boundary_max"] is None
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["nan", "nan"]

    @pytest.mark.parametrize(
        "argv", [["discriminate", "--margin", "nan"], ["generate", "--omega", "inf"], ["sweep", "--sigma=-inf"]]
    )
    def test_non_finite_number_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be a finite number" in capsys.readouterr().err

    def test_missing_input_fails_with_machine_readable_error(self, tmp_path, capsys):
        code = main(["discriminate"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "--input" in err["error"]["message"]

    def test_unreadable_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "missing.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpectrumParseError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["circuit", "--omega", "3"],
            ["boundary", "--grid", "-1:1:0.5"],
            ["boundary", "--gamma-bc", "0.2"],
            ["fit", "--margin", "0.2"],
            ["generate", "--starts", "4"],
            ["discriminate", "--model", "ats"],
            ["sweep", "--gbc", "0.1:0.2:0.1"],
        ],
    )
    def test_each_command_takes_and_echoes_only_its_own_flags(self, tmp_path, capsys, argv):
        command, flag, _ = argv
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert set(vars(_build_parser().parse_args([command]))) == {"command"} | FLAGS[command]
        # A missing output directory fails before any work; the error echoes the config.
        assert main([command, "--output", str(tmp_path / "missing" / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "does not exist" in err["error"]["message"]
        assert set(err["config"]) == {"command"} | FLAGS[command]

    def test_49_settable_command_flag_pairs(self):
        parser = _build_parser()
        assert sum(len(vars(parser.parse_args([command]))) - 1 for command in FLAGS) == 49

    @pytest.mark.parametrize(
        ("argv", "word"),
        [
            (["sweep", "--replicates", "0"], "replicates"),
            (["generate", "--sigma", "0.1", "--replicate", "-1"], "replicate"),
        ],
    )
    def test_replicate_counts_are_validated(self, tmp_path, capsys, argv, word):
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 1
        assert word in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["circuit", "--starts", "0"], "--starts must be >= 1, got 0"),
            (["circuit", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["fit", "--input", str(FIXTURE), "--max-iterations", "0"], "--max-iterations must be >= 1, got 0"),
            (["sweep", "--starts", "0"], "--starts must be >= 1, got 0"),
            (["sweep", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["generate", "--sigma", "-0.1"], "--sigma must lie in [0, 0.5), got -0.1"),
            (["sweep", "--sigma", "0.7"], "--sigma must lie in [0, 0.5), got 0.7"),
            (["boundary", "--sigma", "0.5"], "--sigma must lie in [0, 0.5), got 0.5"),
            (["circuit", "--margin", "1.5"], "--margin must lie in [0, 1), got 1.5"),
            (["discriminate", "--input", str(FIXTURE), "--margin", "-0.2"], "--margin must lie in [0, 1), got -0.2"),
        ],
    )
    def test_bad_solver_flags_fail_by_name_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started")

        work = ("absorption_profile", "transmission_profile", "ingest_spectrum", "sweep_omega", "sweep_gbc_boundary")
        for name in work:
            monkeypatch.setattr(eitats.cli, name, must_not_run)
        out = tmp_path / "out"
        extra = ["--write-spectrum", str(tmp_path / "spectrum.csv")] if argv[0] == "circuit" else []
        assert main([*argv, *extra, "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": message}
        assert not list(tmp_path.iterdir())

    def test_echoed_config_reproduces_the_report(self, tmp_path):
        spec = str(tmp_path / "s.csv")
        caps = ["--starts", "4", "--max-iterations", "100"]
        argvs = [
            ["generate", "--omega", "0.8", "--sigma", "0.05", "--seed", "3", "--replicate", "1", "--output", spec],
            ["fit", "--input", spec, "--model", "ats", *caps, "--output", str(tmp_path / "fit.json")],
            ["discriminate", "--input", spec, *caps, "--seed", "2", "--output", str(tmp_path / "d.json")],
            [
                "sweep", "--omegas", "0.6:1.0:0.2", "--sigma", "0.05", "--replicates", "2", *caps,
                "--output", str(tmp_path / "sweep.csv"),
            ],
            ["boundary", "--gbc", "0.1:0.2:0.1", "--omegas", "0.5:1.1:0.1", *caps, "--output", str(tmp_path / "b.csv")],
            [
                "circuit", *caps, "--margin", "0.2", "--output", str(tmp_path / "c.json"),
                "--write-spectrum", str(tmp_path / "c.csv"),
            ],
        ]
        for argv in argvs:
            code, report = cli(*argv)
            assert code == 0
            written = {path: Path(path).read_bytes() for path in report["outputs"]}
            assert json.loads(_report_json(run(RunConfig(**report["config"])))) == report
            assert {path: Path(path).read_bytes() for path in report["outputs"]} == written

    def test_unwritable_report_path_is_a_reported_error(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.mkdir()  # a directory cannot be replaced by the report file
        code = main(["circuit", "--starts", "2", "--max-iterations", "20", "--output", str(target)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "IsADirectoryError"
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_output_directory_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sweep_omega was called")

        monkeypatch.setattr(eitats.cli, "sweep_omega", must_not_run)
        code = main(["sweep", "--output", str(tmp_path / "missing" / "sweep.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert "does not exist" in err["message"]

    def test_generate_requires_output(self, capsys):
        code = main(["generate"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "--output" in err["error"]["message"]

    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "eitats.cli", "generate", "--omega", "0.4", "--output", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        json.loads(proc.stdout)


class TestCircuitPreset:
    def test_circuit_preset_report(self, tmp_path):
        out = tmp_path / "circuit.json"
        spectrum_out = tmp_path / "circuit.csv"
        code, report = cli("circuit", "--output", str(out), "--write-spectrum", str(spectrum_out))
        assert code == 0
        assert report["selection"]["verdict"] == "ATS"
        assert report["selection"]["per_point_weights"]["eit"] == pytest.approx(0.03, abs=0.02)
        assert report["selection"]["aic"]["ats"] < report["selection"]["aic"]["eit"]
        assert report["summary"]["preset"]["omega"] == 6.0
        assert spectrum_out.exists()
        assert out.exists()
        for entry in report["fits"].values():
            assert entry["converged"] and 1 <= entry["iterations"] < 1000
            assert entry["stop"] == "tolerance"

    def test_circuit_fits_do_not_move_with_the_cap(self):
        # The EIT flat valley converges rather than stopping at the cap.
        _, at_1000 = cli("circuit", "--max-iterations", "1000")
        _, at_5000 = cli("circuit", "--max-iterations", "5000")
        assert at_1000["fits"] == at_5000["fits"]

    def test_noisy_circuit_fixture_is_inconclusive(self):
        data = ingest_spectrum(FIXTURE)
        assert data.sigma_exp == pytest.approx(0.15, rel=1e-12)
        report = discriminate(data)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.per_point_weights["eit"] == pytest.approx(0.48, abs=0.05)
        assert report.per_point_weights["ats"] == pytest.approx(0.52, abs=0.05)


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        run(RunConfig(command="nonsense"))
