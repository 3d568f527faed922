import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covchan import channels as mc
from covchan import cli
from covchan import fock

from conftest import FIXTURES, csv_lines_by_entry, dumps_by_recursion, env_with_src


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_covariant_channel_passes(self, capsys):
        code, out, _ = run(capsys, "check",
                           str(FIXTURES / "amplitude_damping_0.3.json"),
                           str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["covariance_defect"] < 1e-12
        assert payload["tp_defect"] < 1e-12

    def test_non_covariant_exit_1(self, capsys):
        code, out, _ = run(capsys, "check",
                           str(FIXTURES / "hadamard_gate_channel.json"),
                           str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_VIOLATION
        assert abs(json.loads(out)["covariance_defect"] - 0.5) < 1e-12

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.json",
                           str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_USAGE
        assert "not found" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_exit_2(self, capsys, tmp_path, value):
        chan = json.loads((FIXTURES / "amplitude_damping_0.3.json").read_text())
        chan["kraus"][0]["data"][0][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(chan))
        code, out, err = run(capsys, "check", str(bad),
                             str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_USAGE
        assert out == "" and "parse error" in err

    def test_empty_kraus_list_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"dim_in": 2, "dim_out": 2, "kraus": []}')
        code, out, err = run(capsys, "check", str(empty),
                             str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error:")

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "check", str(bad),
                           str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_USAGE
        assert "parse error" in err


class TestDecompose:
    def test_amplitude_damping(self, capsys):
        code, out, _ = run(capsys, "decompose",
                           str(FIXTURES / "amplitude_damping_0.3.json"),
                           str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        sigmas = sorted(s["sigma"] for s in payload["sectors"])
        assert sigmas == [-1.0, 0.0]
        np.testing.assert_allclose(payload["diagonal_sums"], 1.0, atol=1e-10)
        assert payload["reconstruction_choi_distance"] < 1e-10

    def test_zero_map(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"dim_in": 2, "dim_out": 2,
                                    "kraus": [{"rows": 2, "cols": 2, "data": [[0, 0]] * 4}]}))
        code, out, err = run(capsys, "decompose", str(zero),
                             str(FIXTURES / "spectrum_2level.json"))
        assert (code, err) == (cli.EXIT_OK, "")
        payload = json.loads(out)
        assert payload["sectors"] == []
        assert payload["diagonal_sums"] == [0.0, 0.0]
        assert payload["projection_defect"] == 0.0
        assert payload["reconstruction_choi_distance"] == 0.0

    def test_non_covariant_exit_1(self, capsys):
        code, _, err = run(capsys, "decompose",
                           str(FIXTURES / "hadamard_gate_channel.json"),
                           str(FIXTURES / "spectrum_2level.json"))
        assert code == cli.EXIT_VIOLATION
        assert "not covariant" in err

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "decomp.json"
        code, out, _ = run(capsys, "decompose",
                           str(FIXTURES / "amplitude_damping_0.3.json"),
                           str(FIXTURES / "spectrum_2level.json"),
                           "--out", str(dest))
        assert code == cli.EXIT_OK
        assert dest.read_text().strip() == out.strip()


class TestCapacity:
    def test_mask_input(self, capsys):
        code, out, _ = run(capsys, "capacity",
                           str(FIXTURES / "mask_c_sqrt_half.json"))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["hadamard_bound_bits"] == pytest.approx(0.3991, abs=5e-5)
        assert payload["verify_hqc_difference"] < 1e-9

    def test_channel_input(self, capsys):
        code, out, _ = run(capsys, "capacity",
                           str(FIXTURES / "identity_channel.json"))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["coherent_information_bits"] == pytest.approx(1.0, abs=1e-10)
        assert payload["hadamard_bound_bits"] is None

    def test_explicit_input_state(self, capsys):
        code, out, _ = run(capsys, "capacity",
                           str(FIXTURES / "identity_channel.json"),
                           "--input-state", str(FIXTURES / "plus_state.json"))
        assert code == cli.EXIT_OK
        # pure input through the identity: zero coherent information? no:
        # S(rho) = 0 and joint stays pure, I_c = 0.
        assert json.loads(out)["coherent_information_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_trace_decreasing_channel_exit_1(self, capsys):
        # The shift mixture loses trace at the edge levels, so its output at
        # the maximally mixed input is no state: a property violation.
        code, out, err = run(capsys, "capacity",
                             str(FIXTURES / "shift_mixture_channel.json"))
        assert code == cli.EXIT_VIOLATION
        assert out == "" and "not a state" in err

    def test_bad_input_state_exit_2(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"rows": 2, "cols": 2,
                                     "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        code, out, err = run(capsys, "capacity",
                             str(FIXTURES / "identity_channel.json"),
                             "--input-state", str(state))
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error:")


class TestTiming:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "timing",
                           str(FIXTURES / "shift_mixture_channel.json"),
                           str(FIXTURES / "spectrum_4level.json"),
                           "--phi0", str(FIXTURES / "phi0_4level.json"),
                           "--s", str(np.pi), "--N", "2")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        np.testing.assert_allclose(payload["q"], [1.0, 0.0], atol=1e-10)
        assert payload["bound_bits"] == pytest.approx(1.0, abs=1e-10)

    def test_non_positive_orbit_length_exit_2(self, capsys):
        code, out, err = run(capsys, "timing",
                             str(FIXTURES / "shift_mixture_channel.json"),
                             str(FIXTURES / "spectrum_4level.json"),
                             "--phi0", str(FIXTURES / "phi0_4level.json"),
                             "--s", str(np.pi), "--N", "0")
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error:")

    def test_orbit_length_past_max_n_exit_2(self):
        # N = 1e12 once reached np.arange(N) and died of a MemoryError, exit 1.
        proc = subprocess.run(
            [sys.executable, "-m", "covchan.cli", "timing",
             str(FIXTURES / "shift_mixture_channel.json"), str(FIXTURES / "spectrum_4level.json"),
             "--phi0", str(FIXTURES / "phi0_4level.json"), "--s", "1e-9", "--N", "1000000000000"],
            capture_output=True, text=True, env=env_with_src(), timeout=60)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stdout == "" and "MAX_N" in proc.stderr and "Traceback" not in proc.stderr

    def test_unreliable_exit_1(self, capsys):
        # At s = pi/2 adjacent translates of phi0 overlap, so the N = 4 orbit
        # outputs are not pairwise orthogonal.
        code, _, err = run(capsys, "timing",
                           str(FIXTURES / "shift_mixture_channel.json"),
                           str(FIXTURES / "spectrum_4level.json"),
                           "--phi0", str(FIXTURES / "phi0_4level.json"),
                           "--s", "1.5707963267948966", "--N", "4")
        assert code == cli.EXIT_VIOLATION
        assert "not reliable timing" in err


class TestGaussian:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "gaussian", "--std-dev", "0.3", "--dim", "4",
                           "--sigma-max", "2")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert len(payload["masks"]) == 5
        m0 = next(m for m in payload["masks"] if m["sigma"] == 0.0)
        assert m0["mask"]["data"][0][0] == pytest.approx(1.0 / 1.18, abs=1e-10)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "gaussian", "--std-dev", "0.3", "--dim", "3",
                           "--sigma-max", "1", "--format", "csv")
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("matrix,row,")
        assert any(line.startswith("mask_sigma_-1,") for line in lines)

    def test_bad_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "gaussian", "--dim", "4")
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flags", [("--std-dev", "0.3", "--dim", "1"),
                                       ("--std-dev", "-1", "--dim", "8"),
                                       ("--std-dev", "1", "--dim", "187")])
    def test_out_of_range_parameter_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "gaussian", *flags)
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("command", ["gaussian", "mc-gaussian"])
    def test_quad_points_flag_is_unknown_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--std-dev", "1", "--dim", "8",
                             "--quad-points", "200")
        assert code == cli.EXIT_USAGE
        assert out == "" and "unrecognized arguments: --quad-points" in err

    def test_dim_past_old_cap_exit_0(self, capsys):
        code, out, _ = run(capsys, "gaussian", "--std-dev", "1", "--dim", "100",
                           "--sigma-max", "1")
        assert code == cli.EXIT_OK
        assert "quad_points" not in json.loads(out)


@pytest.mark.parametrize("command", ["gaussian", "mc-gaussian"])
@pytest.mark.parametrize("std_dev, code", [
    ("1e-200", cli.EXIT_USAGE), ("1e-154", cli.EXIT_USAGE), ("1.1e-154", cli.EXIT_OK),
    ("1e150", cli.EXIT_OK), ("9.4e153", cli.EXIT_OK), ("9.5e153", cli.EXIT_USAGE),
    ("1e200", cli.EXIT_USAGE), ("1e308", cli.EXIT_USAGE),
])
def test_std_dev_needs_finite_normal_two_variance(capsys, command, std_dev, code):
    # 2 std_dev^2 lies in [2.2e-308, 1.8e308] from 1.1e-154 to 9.4e153 only.
    samples = ("--samples", "4") if command == "mc-gaussian" else ()
    got, out, err = run(capsys, command, "--std-dev", std_dev, "--dim", "4", *samples)
    assert got == code, err
    if code == cli.EXIT_OK:
        assert json.loads(out, parse_constant=_reject_constant)["dim"] == 4
    else:
        assert out == "" and "std_dev" in err


class TestMcGaussian:
    def test_agreement_and_determinism(self, capsys):
        args = ("mc-gaussian", "--std-dev", "0.3", "--dim", "6",
                "--samples", "20000", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == cli.EXIT_OK
        assert out1 == out2
        assert json.loads(out1)["ok"] is True

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("COVCHAN_SEED", "5")
        code, out_env, _ = run(capsys, "mc-gaussian", "--std-dev", "0.3",
                               "--dim", "6", "--samples", "20000")
        assert code == cli.EXIT_OK
        _, out_flag, _ = run(capsys, "mc-gaussian", "--std-dev", "0.3",
                             "--dim", "6", "--samples", "20000", "--seed", "5")
        assert out_env == out_flag

    def test_bad_seed_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COVCHAN_SEED", "abc")
        code, out, err = run(capsys, "mc-gaussian", "--std-dev", "0.3", "--dim", "6",
                             "--samples", "100")
        assert code == cli.EXIT_USAGE
        assert out == "" and "--seed" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == cli.EXIT_USAGE


def matrix_json_by_entry(mat):
    """The {"rows", "cols", "data"} object built one complex entry at a time."""
    mat = np.asarray(mat, dtype=complex)
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "data": [[float(x.real), float(x.imag)] for x in mat.reshape(-1)]}


def assert_same_text(got, want):
    """Equality of long reports, failing with the first differing offset
    (pytest's own diff of megabyte strings takes minutes)."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"lengths {len(got)} vs {len(want)}, first difference at {i}: "
                    f"{got[i - 40:i + 40]!r} vs {want[i - 40:i + 40]!r}")


class TestGoldenReports:
    """stdout equals the per-value oracles applied to the library's own
    objects, and --out holds the same bytes (criterion 12 only compares two
    runs with each other)."""

    GAUSSIAN = fock.FockParams(dim=48, std_dev=0.5, sigma_max=0, mc_samples=1, seed=0)
    MC = fock.FockParams(dim=8, std_dev=0.3, sigma_max=0, mc_samples=20000, seed=17)

    @staticmethod
    def run_with_out(capsys, tmp_path, *argv):
        out_file = tmp_path / "report.out"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert_same_text(out_file.read_text(encoding="utf-8"), out)
        return code, out, err

    def test_gaussian_json(self, capsys, tmp_path):
        code, out, err = self.run_with_out(capsys, tmp_path, "gaussian", "--std-dev", "0.5",
                                           "--dim", "48")
        decomp = fock.gaussian_decomposition(self.GAUSSIAN)
        golden = dumps_by_recursion({
            "dim": decomp.params.dim, "std_dev": decomp.params.std_dev,
            "sigma_max": decomp.params.sigma_max,
            "masks": [{"sigma": m.sigma, "mask": matrix_json_by_entry(m.mask)}
                      for m in decomp.masks],
            "truncation_defect": [float(x) for x in decomp.truncation_defect],
        })
        assert (code, err) == (cli.EXIT_OK, "")
        assert_same_text(out, golden + "\n")

    def test_gaussian_csv(self, capsys, tmp_path):
        code, out, err = self.run_with_out(capsys, tmp_path, "gaussian", "--std-dev", "0.5",
                                           "--dim", "48", "--format", "csv")
        lines = []
        for m in fock.gaussian_decomposition(self.GAUSSIAN).masks:
            lines.extend(csv_lines_by_entry(f"mask_sigma_{int(m.sigma)}", m.mask))
        assert (code, err) == (cli.EXIT_OK, "")
        assert_same_text(out, "\n".join(lines) + "\n")

    def test_mc_gaussian_csv(self, capsys, tmp_path):
        code, out, err = self.run_with_out(capsys, tmp_path, "mc-gaussian", "--std-dev", "0.3",
                                           "--dim", "8", "--samples", "20000", "--seed", "17",
                                           "--format", "csv")
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        report = fock.compare_decomposition_to_mc(self.MC, mc.DensityMatrix(vac))
        sampled = report.sampled
        lines = (csv_lines_by_entry("mc_mean", sampled.mean)
                 + csv_lines_by_entry("mc_stderr", sampled.standard_error.astype(complex)))
        assert report.ok and (code, err) == (cli.EXIT_OK, "")
        assert_same_text(out, "\n".join(lines) + "\n")


TIMING_FILES = (str(FIXTURES / "shift_mixture_channel.json"),
                str(FIXTURES / "spectrum_4level.json"),
                "--phi0", str(FIXTURES / "phi0_4level.json"))


@pytest.mark.parametrize("argv", [
    ("check", str(FIXTURES / "amplitude_damping_0.3.json"),
     str(FIXTURES / "spectrum_2level.json"), "--tol", "nan"),
    ("check", str(FIXTURES / "identity_channel.json"),
     str(FIXTURES / "spectrum_2level.json"), "--tol", "-1"),
    ("decompose", str(FIXTURES / "hadamard_gate_channel.json"),
     str(FIXTURES / "spectrum_2level.json"), "--tol", "nan"),
    # s = pi/2, N = 4 is the unreliable case; a NaN tolerance passed it
    ("timing", *TIMING_FILES, "--s", "1.5707963267948966", "--N", "4", "--tol", "nan"),
    ("timing", *TIMING_FILES, "--s", "nan", "--N", "2"),
    ("timing", *TIMING_FILES, "--s", "inf", "--N", "2"),
    ("gaussian", "--std-dev", "nan", "--dim", "4"),
    ("gaussian", "--std-dev", "inf", "--dim", "4"),
    ("mc-gaussian", "--std-dev", "nan", "--dim", "4", "--samples", "20"),
    ("mc-gaussian", "--std-dev", "0.3", "--dim", "4", "--samples", "20", "--seed", "-1"),
])
def test_non_finite_or_negative_number_exit_2(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the library and CLI run on numpy.
    proc = subprocess.run(
        [sys.executable, "-c", "import covchan.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env_with_src(), check=True)
    assert proc.stdout.strip() == "False"


def test_reader_closing_pipe_early(tmp_path):
    # `covchan gaussian ... | head -c 10`: the report (~2 MB) outgrows the
    # pipe, the reader leaves after 10 bytes; no traceback, exit code 0, and
    # the --out copy is still complete.
    out = tmp_path / "masks.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "covchan.cli", "gaussian", "--std-dev", "1", "--dim", "40",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env_with_src())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_OK
    assert head == b'{"dim": 40'
    assert "Traceback" not in err and "BrokenPipe" not in err
    assert json.loads(out.read_text())["dim"] == 40


# ---------------------------------------------------------------------------
# Exit codes as a property: every subcommand, numeric flags drawn from bad and
# extreme values, run in-process.

FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "abc", "1", "0.3", "4")
EXIT_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# Each subcommand with valid numeric flags; the property replaces one of them.
VALID_FLAGS = {
    "check": {"--tol": "1e-9"},
    "decompose": {"--tol": "1e-10"},
    "capacity": {},
    "timing": {"--s": repr(np.pi), "--N": "2", "--tol": "1e-9"},
    "gaussian": {"--std-dev": "0.3", "--dim": "4", "--sigma-max": "0"},
    "mc-gaussian": {"--std-dev": "0.3", "--dim": "4", "--sigma-max": "0",
                    "--samples": "20", "--seed": "0"},
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(VALID_FLAGS)))
    flags = VALID_FLAGS[command]
    bad = {}
    if flags:  # one flag at a time, so that an earlier bad flag does not mask it
        bad[draw(st.sampled_from(sorted(flags)))] = draw(st.sampled_from(FLAG_VALUES))
    if command in ("gaussian", "mc-gaussian"):
        argv = [command, "--format", draw(st.sampled_from(["json", "csv"]))]
    else:
        chan = draw(st.sampled_from(["amplitude_damping_0.3.json", "hadamard_gate_channel.json",
                                     "identity_channel.json", "shift_mixture_channel.json"]))
        four = chan.startswith("shift")
        argv = [command, str(FIXTURES / chan)]
        if command != "capacity":
            argv.append(str(FIXTURES / ("spectrum_4level.json" if four else "spectrum_2level.json")))
        if command == "timing":
            argv += ["--phi0", str(FIXTURES / ("phi0_4level.json" if four else "plus_state.json"))]
    for flag, value in {**flags, **bad}.items():
        argv += [flag, value]
    return argv


@EXIT_PROPERTY
@given(argv=cli_argvs())
@example(argv=["mc-gaussian", "--format", "json", "--std-dev", "1e308", "--dim", "4",
               "--sigma-max", "0", "--samples", "20", "--seed", "0"])  # once printed nan
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping main fails the test
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_USAGE), argv
    if out.getvalue() and "csv" not in argv:  # strict JSON under every exit code
        json.loads(out.getvalue(), parse_constant=_reject_constant)
