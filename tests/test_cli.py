"""CLI commands, spectrum file round trips, and report reproducibility."""
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitats.cli
from eitats.cli import (
    CIRCUIT_GRID,
    CIRCUIT_PRESET,
    RunConfig,
    SpectrumParseError,
    _atomic_write,
    _build_parser,
    _report_json,
    ingest_spectrum,
    main,
    run,
    write_spectrum,
)
from eitats.lineshape import Spectrum, TlaParams, absorption_profile, default_grid, transmission_profile
from eitats.selection import Verdict, discriminate
from eitats.simulation import NoiseSpec, add_noise

FIXTURE = Path(__file__).parent / "data" / "circuit_noisy.csv"
SRC = Path(__file__).resolve().parents[1] / "src"
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Cells that float() may read or refuse: text with underscores, surrounding
# whitespace, Unicode digits, hex, exponents past the float range, nan and
# inf, or nothing at all.
ODD_CELL = st.one_of(
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e400", "0x10", "", " ", "1_000", "1__0", "_1", "\u0663.\u0665"]),
    st.text(alphabet="0123456789_.eE+-x \t\u00a0\u0661\u0662\uff11nfia", max_size=6),
)


@st.composite
def spectrum_cells(draw):
    """A value column: numbers as Python writes them, with up to three odd cells among them."""
    cells = draw(st.lists(FINITE.map(repr), min_size=5, max_size=30))
    for i, cell in draw(st.lists(st.tuples(st.integers(0, len(cells) - 1), ODD_CELL), max_size=3)):
        cells[i] = cell
    return cells

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

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        # Spreadsheet programs write one at the start of a "CSV UTF-8" file.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_spectrum(absorption_profile(TlaParams(omega=0.3), default_grid()), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = ingest_spectrum(plain), ingest_spectrum(marked)
        assert np.array_equal(a.deltas, b.deltas) and np.array_equal(a.values, b.values)
        assert a.sigma_exp is b.sigma_exp is None

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

    def test_negative_sigma_rejected_with_line_number(self, tmp_path):
        # The RMS of the column hid the sign: all -0.1 used to read as 0.1.
        path = tmp_path / "negsigma.csv"
        path.write_text("delta,value,sigma\n" + "".join(f"{d}.0,0.1,-0.1\n" for d in range(6)))
        with pytest.raises(SpectrumParseError, match="negsigma.csv: line 2: sigma must be >= 0, got -0.1"):
            ingest_spectrum(path)

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            # A bad cell before a line that does not parse, and the reverse.
            (["0.0,0.1,0.1", "1.0,nan,0.1", "2.0,0.3", "3.0,0.1,0.1"], "line 3: value must be finite, got nan"),
            (["0.0,0.1,0.1", "1.0,0.2", "2.0,0.3,-1.0", "3.0,0.1,0.1"], "line 3: expected 3 columns, got 2"),
            (["0.0,0.1,-0.5", "1.0,0.2,0.1", "2.0,oops,0.1", "3.0,0.1,0.1"], "line 2: sigma must be >= 0, got -0.5"),
            # Two bad cells on one line: the first column wins.
            (["inf,0.1,-0.1", "1.0,0.2,0.1", "2.0,0.3,0.1", "3.0,0.1,0.1"], "line 2: delta must be finite, got inf"),
            # A cell that does not convert before a short line, and a negative sigma before a nan.
            (
                ["0.0,abc,0.1", "1.0,0.2", "2.0,0.3,0.1", "3.0,0.1,0.1"],
                "line 2: could not convert string to float: 'abc'",
            ),
            (["0.0,0.1,-0.1", "1.0,nan,0.1", "2.0,0.3,0.1", "3.0,0.1,0.1"], "line 2: sigma must be >= 0, got -0.1"),
        ],
    )
    def test_the_first_of_two_bad_lines_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "twobad.csv"
        path.write_text("delta,value,sigma\n" + "\n".join(rows + ["4.0,0.2,0.1", "5.0,0.2,0.1"]) + "\n")
        with pytest.raises(SpectrumParseError, match=f"twobad.csv: {message}$"):
            ingest_spectrum(path)

    @settings(max_examples=200, deadline=None)
    @given(cells=spectrum_cells())
    @example(cells=["0.5", " 1_0 ", "\u0661\u0662", "-0.0", "1e-320"])  # every cell converts
    @example(cells=["0.5", "1", "1__0", "1", "2"])  # only one cell does not convert
    @example(cells=["0.5", "0x10", "nan", "1", "2"])  # the cell that does not convert comes first
    @example(cells=["0.5", "1e400", "", "1", "2"])  # the non-finite cell comes first
    def test_each_cell_reads_as_float_reads_it_or_fails_on_its_line(self, cells):
        # Each line's cells are converted and checked as the line is read;
        # the outcome is float's, cell by cell, with the first line that does
        # not convert or is not finite named.
        lines = [f"{i}.0,{cell}" for i, cell in enumerate(cells)]
        expected = None
        for lineno, cell in enumerate(cells, start=2):
            try:
                value = float(cell)
            except ValueError as exc:
                expected = f"line {lineno}: {exc}"
                break
            if not np.isfinite(value):
                expected = f"line {lineno}: value must be finite, got {value}"
                break
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            path.write_text("delta,value\n" + "\n".join(lines) + "\n", encoding="utf-8")
            if expected is None:
                data = ingest_spectrum(path)
                assert data.values.tobytes() == np.array([float(cell) for cell in cells]).tobytes()
            else:
                with pytest.raises(SpectrumParseError) as caught:
                    ingest_spectrum(path)
                assert str(caught.value) == f"{path}: {expected}"

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte_order_mark"])
    def test_bytes_that_are_not_utf8_are_rejected_with_line_number(self, tmp_path, capsys, mark):
        # Before, a bare UnicodeDecodeError named neither the file nor the
        # line.  The bad byte opens its line, so a count that forgot the
        # mark's three bytes would name line 2.
        path = tmp_path / "latin.csv"
        path.write_bytes(mark + b"delta,value\n0,1\n\xff1,2\n2,0.3\n3,0.1\n4,0.2\n")
        message = f"{path}: line 3: not UTF-8 text (invalid start byte)"
        with pytest.raises(SpectrumParseError) as caught:
            ingest_spectrum(path)
        assert str(caught.value) == message
        assert main(["discriminate", "--input", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == {"type": "SpectrumParseError", "message": message}

    @pytest.mark.parametrize(
        ("lines", "message"),
        [
            # A quoted line break shifted every later line: 2,x, on line 5, was named on line 4.
            (['0,"1', '"', "1,2", "2,x", "3,4", "4,5", "5,6"], "line 2: a quoted field runs on to line 3"),
            # An unclosed quote took every later line into its cell, read as '22,33,44,55,6'.
            (["0,1", '1,"2', "2,3", "3,4", "4,5", "5,6"], "line 3: a quoted field runs on to line 7"),
        ],
        ids=["closed", "unclosed"],
    )
    def test_a_record_that_spans_lines_is_rejected_at_its_first(self, tmp_path, lines, message):
        path = tmp_path / "quoted.csv"
        path.write_text("delta,value\n" + "\n".join(lines) + "\n")
        with pytest.raises(SpectrumParseError, match=f"quoted.csv: {message}$"):
            ingest_spectrum(path)

    def test_a_record_the_csv_reader_refuses_is_rejected_with_its_line(self, tmp_path):
        # The reader's own error (type Error) named neither the file nor the line.
        path = tmp_path / "wide.csv"
        path.write_text("delta,value\n0,1\n1,2\n2," + "1" * 200_000 + "\n3,4\n4,5\n5,6\n")
        with pytest.raises(SpectrumParseError, match=r"wide.csv: line 4: field larger than field limit \(\d+\)$"):
            ingest_spectrum(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("delta,value\n0.0,0.1\n1.0,0.2\n")
        with pytest.raises(SpectrumParseError, match="at least 5"):
            ingest_spectrum(path)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("", "bad.csv: empty file"),
            ("delta,value\n0.0,0.1\n1.0,0.2,0.3\n", "bad.csv: line 3: expected 2 columns, got 3"),
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(SpectrumParseError, match=message):
            ingest_spectrum(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("delta,value\n0.0,0.1\n\n1.0,0.2\n  \n2.0,0.3\n3.0,0.1\n4.0,0.2\n")
        data = ingest_spectrum(path)
        assert np.array_equal(data.deltas, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(data.values, [0.1, 0.2, 0.3, 0.1, 0.2])

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
            # Seeds and replicate indices are integers below 2**64, the noise key's half.
            (["circuit", "--seed", str(2**64)], f"--seed must be <= {2**64 - 1}, got {2**64}"),
            (["sweep", "--seed", str(2**64)], f"--seed must be <= {2**64 - 1}, got {2**64}"),
            (
                ["generate", "--sigma", "0.1", "--replicate", str(2**64)],
                f"--replicate must be <= {2**64 - 1}, got {2**64}",
            ),
            (["sweep", "--replicates", str(2**64 + 1)], f"--replicates must be <= {2**64}, got {2**64 + 1}"),
            (["boundary", "--replicates", str(2**64 + 1)], f"--replicates must be <= {2**64}, got {2**64 + 1}"),
            (["sweep", "--omegas", "0:1:0"], "--omegas 0:1:0: grid requires hi > lo and step > 0"),
            (["generate", "--grid", "1:-1:0.1"], "--grid 1:-1:0.1: grid requires hi > lo and step > 0"),
            (["boundary", "--gbc", "0.1:0.05:0.01"], "--gbc 0.1:0.05:0.01: grid requires hi > lo and step > 0"),
            (["sweep", "--omegas", "nan:1:0.1"], "--omegas nan:1:0.1: grid bounds and step must be finite"),
            (["sweep", "--omegas", "0:1:0.7"], "--omegas 0:1:0.7: step 0.7 does not divide hi - lo = 1"),
            (["generate", "--grid", "0:2:0.3"], "--grid 0:2:0.3: step 0.3 does not divide hi - lo = 2"),
            (["generate", "--grid", "abc"], "--grid must be lo:hi:step, got 'abc'"),
            (["boundary", "--gamma-ab", "0.2"], "--gbc 0.02:0.3:0.02: each value must be below --gamma-ab 0.2"),
            # The transparency depth at a crossing needs gamma_bc > 0.
            (["boundary", "--gbc", "0:0.2:0.1"], "--gbc 0:0.2:0.1: each value must be above 0"),
            (["boundary", "--gbc=-0.1:0.2:0.1"], "--gbc -0.1:0.2:0.1: each value must be above 0"),
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
        assert err["error"] == {"type": "ValueError", "message": f"--output {target}: is a directory"}
        # A write that fails anyway leaves no temp file behind.
        with pytest.raises(IsADirectoryError):
            _atomic_write(target, "{}\n")
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_write_that_fails_partway_leaves_only_the_untouched_target(self, tmp_path, monkeypatch):
        # A full disk fails the temp file's write; before, the partial temp file stayed behind.
        target = tmp_path / "report.json"
        target.write_text("old\n")
        write_text = Path.write_text

        def write_a_little_then_fail(self, text, *args, **kwargs):
            write_text(self, text[:3], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", write_a_little_then_fail)
        with pytest.raises(OSError) as caught:
            _atomic_write(target, "{}\n" * 100)
        monkeypatch.undo()
        assert caught.value.errno == errno.ENOSPC
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]
        assert target.read_text() == "old\n"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["sweep", "--output", "adir"], "--output adir: is a directory"),
            (["generate", "--output", "adir"], "--output adir: is a directory"),
            (["circuit", "--write-spectrum", "adir"], "--write-spectrum adir: is a directory"),
            (["discriminate", "--input", "d.csv", "--output", "d.csv"], "--output d.csv: same file as --input"),
            (
                ["fit", "--input", "d.csv", "--output", "./sub/../d.csv"],
                "--output ./sub/../d.csv: same file as --input",
            ),
            (["circuit", "--output", "x", "--write-spectrum", "x"], "--output x: same file as --write-spectrum"),
        ],
    )
    def test_bad_paths_fail_by_flag_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("absorption_profile", "transmission_profile", "ingest_spectrum", "sweep_omega"):
            monkeypatch.setattr(eitats.cli, name, must_not_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "sub").mkdir()
        (tmp_path / "d.csv").write_text("delta,value\n")
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == {"type": "ValueError", "message": message}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["adir", "d.csv", "sub"]
        assert (tmp_path / "d.csv").read_text() == "delta,value\n" and not list((tmp_path / "adir").iterdir())

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

    def test_the_noisy_fixture_is_rebuilt_from_its_recipe(self, tmp_path):
        """The fixture's bytes are those its recipe writes.

        The measured transmission behind the circuit case study is not
        published in tabular form, so the fixture is a stand-in: the
        theoretical curve for the reported device rates with one frozen
        multiplicative-noise draw.  Its sigma and seed were scanned (sigma in
        [0.1, 0.18], seeds 0..11) so that the stand-in's discrimination
        matches the one reported for the measurement: per-point weights within
        a few thousandths of (0.48, 0.52), and an inconclusive verdict.  A
        change that moves the recipe's bytes on purpose writes ``rebuilt``
        over the fixture.
        """
        clean = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
        rebuilt = write_spectrum(add_noise(clean, NoiseSpec(sigma=0.15, seed=9), 0), tmp_path / "rebuilt.csv")
        assert Path(rebuilt).read_bytes() == FIXTURE.read_bytes()

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


# Invocations whose exit code, stdout, stderr and written files are frozen
# in data/cli_reports.json (rewrite it with tools/refreeze.py).
# They run in this order in one fresh directory holding a copy of FIXTURE,
# with relative paths, so the reports' ``outputs`` do not depend on where.
_CAPS = ["--starts", "4", "--max-iterations", "100"]
GOLDEN_ARGVS = [
    ["generate", "--omega", "0.3", "--output", "weak.csv"],
    ["generate", "--omega", "0.8", "--sigma", "0.05", "--seed", "3", "--replicate", "1", "--output", "noisy.csv"],
    [
        "generate", "--omega", "2", "--gamma-bc", "0.05", "--delta1", "0.1", "--alpha", "0.5", "--grid=-4:4:0.1",
        "--output", "doublet.csv",
    ],
    ["fit", "--input", "weak.csv", *_CAPS],
    ["fit", "--input", "doublet.csv", "--model", "ats", "--output", "fit.json"],
    ["discriminate", "--input", "noisy.csv", "--seed", "2", *_CAPS],
    ["discriminate", "--input", "circuit_noisy.csv", "--margin", "0.2", "--output", "verdict.json"],
    ["sweep", "--omegas", "0.2:1.2:0.2", "--starts", "6", "--max-iterations", "150", "--output", "sweep.csv"],
    [
        "sweep", "--gamma-bc", "0.05", "--omegas", "0.6:1.0:0.2", "--sigma", "0.05", "--replicates", "2",
        "--grid=-3:3:0.1", *_CAPS, "--output", "noisy_sweep.csv",
    ],
    # 4 grid points: every EIT fit fails, so ATS wins by default at each pump value.
    ["sweep", "--grid=-1.5:1.5:1", "--omegas", "0.2:0.4:0.2", "--starts", "4", "--max-iterations", "50",
     "--output", "survivor.csv"],
    # 5 replicates per pump value pin the order of the replicate average.
    [
        "sweep", "--omegas", "0.3:0.9:0.3", "--sigma", "0.1", "--seed", "5", "--replicates", "5", "--grid=-3:3:0.2",
        *_CAPS, "--output", "replicates.csv",
    ],
    ["boundary", "--gbc", "0.1:0.2:0.1", "--omegas", "0.5:1.1:0.1", *_CAPS, "--output", "boundary.csv"],
    ["boundary", "--gbc", "0.1:0.2:0.1", "--omegas", "0.1:0.3:0.1", "--starts", "4", "--max-iterations", "50",
     "--output", "no_crossing.csv"],
    ["circuit"],
    ["circuit", "--margin", "0.2", "--output", "circuit.json", "--write-spectrum", "circuit.csv"],
    ["discriminate"],
    ["fit", "--input", "missing.csv"],
    ["circuit", "--starts", "0"],
    ["sweep", "--output", "missing/sweep.csv"],
    ["circuit", "--omega", "3"],
    ["--help"],
    *([command, "--help"] for command in FLAGS),
]
GOLDEN = Path(__file__).parent / "data" / "cli_reports.json"


def golden_transcript(argvs=GOLDEN_ARGVS):
    """Run ``argvs`` in the current directory: per invocation, its exit
    code, stdout, stderr and the text of each file it wrote."""
    shutil.copy(FIXTURE, "circuit_noisy.csv")
    records = []
    for argv in argvs:
        before = {path: path.read_bytes() for path in Path().iterdir() if path.is_file()}
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help and usage errors
                code = exc.code
        written = {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(Path().iterdir())
            if path.is_file() and before.get(path) != path.read_bytes()
        }
        record = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}
        records.append(record)
    return records


def test_cli_output_is_byte_identical_to_the_frozen_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = golden_transcript()
    assert [record["argv"] for record in records] == [record["argv"] for record in frozen]
    for record, want in zip(records, frozen):
        assert record == want


class TestParser:
    def test_the_parser_is_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    def test_a_usage_error_leaves_the_shared_parser_as_it_was(self, tmp_path, monkeypatch):
        # Every main call parses with the one parser; a call that argparse
        # ends with exit 2 must not change what the next call prints.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        frozen = {tuple(record["argv"]): record for record in json.loads(GOLDEN.read_text(encoding="utf-8"))}
        bad, good = ["circuit", "--omega", "3"], ["generate", "--omega", "0.3", "--output", "weak.csv"]
        records = golden_transcript([bad, good, bad, ["fit", "--help"]])
        assert records[0]["code"] == 2
        assert records == [frozen[tuple(record["argv"])] for record in records]
