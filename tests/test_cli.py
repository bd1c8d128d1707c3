"""Tests for the command-line front end."""

import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zeeman2d import cli, oracle, reference
from zeeman2d.cli import build_parser, main
from zeeman2d.coulomb import QuantumState
from zeeman2d.exactmath import parse_rational


# the package exports the coefficient API and nothing else
COEFFICIENT_API = [
    "QuantumState", "energy0", "CoefficientSet", "EnergyResult", "coefficient_set",
    "assemble_energy", "disputed_value_report", "eps0", "eps1", "eps2_closed",
    "eps2_integral", "eps4_closed", "eps4_sturmian", "__version__",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoeff:
    def test_single_state(self, capsys):
        code, out, _ = run_cli(capsys, ["coeff", "1", "0"])
        assert code == 0
        assert "3/64" in out
        assert "-159/65536" in out
        assert "-3×53/2^16" in out

    def test_sweep_has_ten_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["coeff", "--all-up-to", "4", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 11  # header + 10 states
        header = rows[0]
        n_i, l_i = header.index("n"), header.index("l")
        assert [(r[n_i], r[l_i]) for r in rows[1:]] == [
            (str(n), str(l)) for n in range(1, 5) for l in range(n)
        ]

    def test_sweep_output_is_pinned(self, capsys):
        # sha256 of the stdout bytes of `zeeman2d coeff --all-up-to 40 --format csv`
        code, out, _ = run_cli(capsys, ["coeff", "--all-up-to", "40", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "8176943044468983d102c16717a8bfbb3650bbba76444f1a47ef9cb8e037fdba"
        )

    def test_default_sweep_output_is_pinned(self, capsys):
        # sha256 of the stdout bytes of `zeeman2d coeff --all-up-to 40`, whose
        # factorized and decimal columns the csv pin does not cover
        code, out, _ = run_cli(capsys, ["coeff", "--all-up-to", "40"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "6dd7a9de45449c357edecc35a7ecc4bf0a2aef90bd3a5a50a549b015e5cf283b"
        )

    def test_closed_pipe_exits_quietly(self):
        # a reader that stops early (`| head -3`) ends the command with exit
        # code 1 and no traceback; the sweep is far larger than a pipe buffer
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONIOENCODING="utf-8",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "zeeman2d.cli", "coeff", "--all-up-to", "40", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head[0].startswith(b"n,l,eps0,")
        assert err == b"", err.decode(errors="replace")

    def test_invalid_l_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["coeff", "2", "2"])
        assert err.value.code == 2
        assert "l must satisfy 0 <= l <= n-1" in capsys.readouterr().err

    def test_missing_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["coeff"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["3", "1", "--all-up-to", "1"], ["3", "--all-up-to", "1"]])
    def test_state_and_sweep_together_is_usage_error(self, capsys, argv):
        # the sweep would otherwise run and drop the state without a word
        with pytest.raises(SystemExit) as err:
            main(["coeff", *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not both" in captured.err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, ["coeff", "3", "1", "--format", "json"])
        payload = json.loads(out)
        assert payload[0]["eps2"]["exact"] == "375/32"
        assert parse_rational(payload[0]["eps4"]["exact"]) == Fraction(-56578125, 32768)


class TestEnergy:
    def test_field_off_total(self, capsys):
        code, out, _ = run_cli(
            capsys, ["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "0"]
        )
        assert code == 0
        assert "| total | -2 |" in out

    def test_exact_total_at_tenth(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "1/10", "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["total"]["exact"] == "-1310412959/655360000"
        assert payload["terms"]["2"] == "3/6400"
        assert payload["terms"]["4"] == "-159/655360000"
        assert payload["regime_warning"] is False

    def test_spin_term(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["energy", "--n", "2", "--l", "1", "--ml", "1", "--ms", "1/2", "--spin",
             "--B-over-B0", "0.01", "--format", "json"],
        )
        payload = json.loads(out)
        assert parse_rational(payload["terms"]["1"]) == Fraction(1, 100)

    def test_inconsistent_ml_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["energy", "--n", "2", "--l", "1", "--ml", "0", "--B-over-B0", "0"])
        assert err.value.code == 2
        assert "m_l" in capsys.readouterr().err

    def test_regime_warning_line(self, capsys):
        code, out, _ = run_cli(
            capsys, ["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "5"]
        )
        assert code == 0
        assert "perturbative window exceeded" in out

    def test_tesla_display(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "1", "--tesla"],
        )
        assert "2.35e+05 T" in out

    def test_negative_field_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "-1"])
        assert err.value.code == 2

    def test_field_parse_is_exact(self, capsys):
        # a decimal field string round-trips through Fraction, not float
        code, out, _ = run_cli(
            capsys,
            ["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "0.1",
             "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["B_over_B0"] == "1/10"
        assert payload["total"]["exact"] == "-1310412959/655360000"


class TestTable:
    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, ["table"])
        _, second, _ = run_cli(capsys, ["table"])
        assert first == second

    def test_pinned_rows(self, capsys):
        _, out, _ = run_cli(capsys, ["table"])
        assert "| 3 | 2 | 525/64 | 3×5^2×7/2^6 |" in out
        assert "-3061109331/65536 | -3^2×7^8×59/2^16" in out
        assert "| 2 | 0 | 117/64 | 3^2×13/2^6 |" in out

    def test_no_digits_option(self, capsys):
        # the table prints exact rationals only, so it takes no --digits
        with pytest.raises(SystemExit) as err:
            main(["table", "--digits", "5"])
        assert err.value.code == 2
        assert "--digits" in capsys.readouterr().err

    def test_every_rational_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, ["table", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        for row in body:
            cell = dict(zip(header, row))
            n, l = int(cell["n"]), int(cell["l"])
            assert parse_rational(cell["eps2"]) == reference.TABLE_EPS2[(n, l)]
            assert parse_rational(cell["eps4"]) == reference.TABLE_EPS4[(n, l)]


class TestValidate:
    def test_exact_checks_pass_quickly(self, capsys, tmp_path):
        # max-n 0 skips the oracle fits; the exact suites must still pass
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["validate", "--max-n", "0", "--json", str(report)])
        assert code == 0
        assert "[PASS] dual-route coefficients" in out
        assert "[PASS] published coefficient table" in out
        assert "validate: all checks passed" in out
        payload = json.loads(report.read_text())
        assert payload["all_passed"] is True
        assert payload["disputed_value"]["closed_form"] == "-159/65536"

    def test_oracle_fit_single_state(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--max-n", "1", "--basis-size", "60"])
        assert code == 0
        assert "[PASS] oracle quadratic coefficient (1,0)" in out
        assert "[PASS] oracle quartic coefficient (1,0)" in out
        assert "[PASS] oracle quartic uncertainty (1,0)" in out
        assert "REJECTED" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-n", "-2"],
            ["--max-n", "1", "--basis-size", "10"],
            ["--max-n", "1", "--basis-size", "19"],
            ["--max-n", "4", "--basis-size", "22"],
            ["--max-n", "0", "--basis-size", "-5"],
        ],
    )
    def test_bad_arguments_rejected_before_any_check(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert "--max-n" in out.err or "--basis-size" in out.err

    def test_unwritable_report_rejected_before_any_check(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--max-n", "0", "--json", str(tmp_path / "missing" / "r.json")])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert "--json" in out.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_full_disk_report_is_one_error_line(self, capsys, tmp_path):
        # /dev/full opens but fails the write, here when the buffer is flushed at close
        code, written, _ = run_cli(capsys, ["validate", "--max-n", "0", "--json", str(tmp_path / "r.json")])
        assert code == 0
        code, out, err = run_cli(capsys, ["validate", "--max-n", "0", "--json", "/dev/full"])
        assert code == 1
        assert out == written
        assert err == f"zeeman2d validate: error: cannot write the --json report /dev/full: {os.strerror(errno.ENOSPC)}\n"

    def test_failed_report_write_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        # a write that fails at once, as one larger than the buffer does on a full disk
        class FullFile(io.StringIO):
            name = "full.json"

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullFile(), raising=False)
        code, out, err = run_cli(capsys, ["validate", "--max-n", "0", "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert out.endswith("validate: all checks passed\n")
        assert err == f"zeeman2d validate: error: cannot write the --json report full.json: {os.strerror(errno.ENOSPC)}\n"

    def test_fit_entry_keys_are_pinned(self, capsys, tmp_path):
        # the oracle's fit fields plus the CLI's tolerances and verdicts
        report = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, ["validate", "--max-n", "1", "--json", str(report)])
        assert code == 0
        (entry,) = json.loads(report.read_text())["oracle_fits"]
        assert set(entry) == {
            "state", "Z", "basis_size", "grid", "energies", "residuals", "coefficients",
            "uncertainties", "tolerances", "verdicts",
        }
        assert entry["tolerances"] == {"c2_rel": 1e-6}
        assert set(entry["verdicts"]) == {"c2_rel_err", "c2_ok"}

    def test_basis_size_default_is_the_oracle_default(self):
        # the parser spells out its own default so that it need not load
        # numpy; the two must not drift apart
        assert build_parser().parse_args(["validate"]).basis_size == oracle.DEFAULT_BASIS_SIZE

    @pytest.mark.parametrize("max_n", range(1, 5))
    def test_basis_size_floor_is_the_fit_floor(self, capsys, max_n):
        # the CLI's floor max_n + 19 is the fit's n_r + 20 for the state
        # (max_n, 0), which has the largest n_r of the run
        state = QuantumState(max_n, 0, 0)
        assert oracle.fit_field_series(state, basis_size=max_n + 19).basis_size == max_n + 19
        with pytest.raises(ValueError, match="n_r \\+ 20"):
            oracle.fit_field_series(state, basis_size=max_n + 18)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--max-n", str(max_n), "--basis-size", str(max_n + 18)])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert f"--basis-size must be at least {max_n + 19}" in out.err

    def test_smallest_basis_size_accepted(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--max-n", "1", "--basis-size", "20"])
        assert code == 0
        assert "[PASS] oracle quadratic coefficient (1,0)" in out

    def test_mutated_table_fails(self, capsys, monkeypatch):
        # perturbing a single published entry must flip the exit code
        mutated = dict(reference.TABLE_EPS2)
        mutated[(3, 1)] += Fraction(1, 64)
        monkeypatch.setattr(reference, "TABLE_EPS2", mutated)
        code, out, _ = run_cli(capsys, ["validate", "--max-n", "0"])
        assert code == 1
        assert "[FAIL] published coefficient table" in out
        assert "FAILURES detected" in out

    def test_table_check_reads_what_table_prints(self, capsys, monkeypatch):
        # one renderer serves `table` and the check: a factorized form that
        # renderer gets wrong must change the table and fail the check
        _, printed, _ = run_cli(capsys, ["table"])
        render = cli._coeff_row

        def wrong_for_3_1(n, l, names, digits=None):
            row, entry = render(n, l, names, digits)
            if (n, l) == (3, 1):
                entry["eps4"]["factorized"] = row[row.index("-3×5^6×17×71/2^15")] = "-3×5^6×1207/2^15"
            return row, entry

        monkeypatch.setattr(cli, "_coeff_row", wrong_for_3_1)
        code, out, _ = run_cli(capsys, ["validate", "--max-n", "0"])
        assert code == 1
        assert "[FAIL] published coefficient table" in out
        assert "mismatches: [(3, 1, 'eps4')]" in out
        _, altered, _ = run_cli(capsys, ["table"])
        assert altered != printed
        assert "| 3 | 1 | 375/32 | 3×5^3/2^5 | -56578125/32768 | -3×5^6×1207/2^15 |" in altered


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_isolated(args, **preset):
    """Run python with ``args`` in an environment holding neither BLAS thread
    variable unless ``preset`` names it; return stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# runs a command through cli.main, then prints the BLAS thread variables and
# the number of threads in the process (-1 where /proc is absent)
PIN_PROBE = (
    "import contextlib, io, json, os, sys\n"
    "from zeeman2d import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(sys.argv[1:]) == 0\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'), tasks]))\n"
)


class TestLayering:
    def test_exact_commands_never_load_numpy(self):
        # coeff, table, energy and the exact part of validate run on rationals
        # alone; the oracle, and with it numpy and scipy, is imported only for
        # fits, and so is the BLAS thread pin: these commands leave os.environ
        # alone.  The records are named tuples, so neither dataclasses nor the
        # inspect module it pulls in is loaded either
        script = (
            "import contextlib, io, os, sys\n"
            "from zeeman2d import cli\n"
            "before = dict(os.environ)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['coeff', '3', '1']) == 0\n"
            "    assert cli.main(['table']) == 0\n"
            "    assert cli.main(['energy', '--n', '2', '--l', '1', '--ml', '1', '--B-over-B0', '1/100']) == 0\n"
            "    assert cli.main(['validate', '--max-n', '0']) == 0\n"
            "loaded = {'numpy', 'scipy', 'zeeman2d.oracle', 'dataclasses', 'inspect'} & set(sys.modules)\n"
            "print(sorted(loaded), dict(os.environ) == before)\n"
        )
        assert run_isolated(["-c", script]).strip() == "[] True"

    def test_validate_pins_blas_to_one_thread(self):
        openblas, omp, tasks = json.loads(run_isolated(["-c", PIN_PROBE, "validate", "--max-n", "1"]))
        assert (openblas, omp) == ("1", "1")
        if tasks != -1:
            assert tasks == 1

    @pytest.mark.parametrize("preset", BLAS_THREAD_VARS)
    def test_preset_thread_count_wins(self, preset):
        out = run_isolated(["-c", PIN_PROBE, "validate", "--max-n", "1"], **{preset: "2"})
        assert json.loads(out)[:2] == [("2" if var == preset else None) for var in BLAS_THREAD_VARS]

    def test_report_is_independent_of_blas_threads(self, tmp_path):
        reports = []
        for name, preset in (("pinned", {}), ("threaded", {"OPENBLAS_NUM_THREADS": "2"})):
            path = tmp_path / f"{name}.json"
            run_isolated(["-m", "zeeman2d.cli", "validate", "--max-n", "4", "--json", str(path)], **preset)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_library_imports_without_the_tests(self):
        # an isolated interpreter sees src but not tests/, so every module
        # imports only if none of them reaches for the test-side references
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import importlib, pkgutil, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import zeeman2d\n"
            "for module in pkgutil.iter_modules(zeeman2d.__path__):\n"
            "    importlib.import_module('zeeman2d.' + module.name)\n"
            "assert 'dataclasses' not in sys.modules, 'a zeeman2d module loads dataclasses'\n"
            "print(' '.join(zeeman2d.__all__))\n"
        )
        # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps bytecode out of src
        proc = subprocess.run(
            [sys.executable, "-I", "-B", "-c", script, str(src)], cwd=src, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == COEFFICIENT_API


class TestParserHygiene:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_rational_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "lots"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--max-n", "-1"],
            ["validate", "--max-n", "0", "--json", "{missing}"],
            ["coeff", "1", "0", "--digits", "0"],
            ["coeff", "--all-up-to", "0"],
            ["energy", "--n", "1", "--l", "0", "--ml", "0", "--B-over-B0", "1", "--Z", "0"],
        ],
        ids=["max-n", "json", "digits", "all-up-to", "charge"],
    )
    def test_usage_error_names_the_subcommand(self, capsys, tmp_path, argv):
        # the argument checks of main and the library errors it catches both
        # print the usage line of the subcommand, not the top-level one
        argv = [arg.format(missing=tmp_path / "missing" / "r.json") for arg in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: zeeman2d {argv[0]} ")
