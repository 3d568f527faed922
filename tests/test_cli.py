import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covchan import capacity as cap
from covchan import channels as mc
from covchan import cli
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import inputs
from covchan import serialize as ser

from conftest import (
    FIXTURES,
    csv_lines_by_entry,
    dumps_by_recursion,
    env_with_src,
    reconstruction_distance_by_union_choi,
)


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


    @pytest.mark.parametrize("family", ["integer", "sqrt_prime"])
    @pytest.mark.parametrize("kind", ["random_covariant", "dropped", "dropped_mixed"])
    @settings(derandomize=True, max_examples=6, deadline=None, database=None)
    @given(data=st.data())
    def test_round_trip_distance_matches_the_union_choi_oracle(self, family, kind, data):
        # reconstruction_choi_distance, summed sector by sector, against both Choi
        # matrices on the union of the supports, within c u ||C||_F: c = 0.72 over
        # 2,000 draws at n <= 7.  A dropped input is the reconstruction of a
        # random_covariant channel with one sector's operators scaled by 3e-7, below
        # decompose's drop floor, as it is or mixed by a (K + 2) x K isometry.
        n = data.draw(st.integers(2, 7))
        primes = data.draw(st.permutations([2, 3, 5, 7, 11, 13]))[:n - 1]
        spec = cov.Spectrum(np.arange(float(n)) if family == "integer"
                            else np.r_[0.0, np.cumsum(np.sqrt(primes))])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chan = gen.random_covariant(spec, rng, data.draw(st.integers(1, n * n)))
        if kind != "random_covariant":
            recon = cov.reconstruct(cov.decompose(chan, spec))
            cluster = cov._label(recon, spec).cluster
            ops = recon._ops.copy()
            ops[cluster == data.draw(st.sampled_from(sorted(set(cluster.tolist()))))] *= 3e-7
            if kind == "dropped_mixed":
                k = len(ops)
                u = np.linalg.qr(rng.normal(size=(k + 2, k)) + 1j * rng.normal(size=(k + 2, k)))[0]
                ops = np.tensordot(u, ops, axes=1)
            chan = mc.Channel(tuple(ops))
            assert len(cov.decompose(chan, spec).sectors) < len(set(spec._cluster[chan._support]))
        with tempfile.TemporaryDirectory() as tmp:
            files = [os.path.join(tmp, name) for name in ("chan.json", "spec.json")]
            for path, obj in zip(files, (ser.channel_to_json(chan), ser.spectrum_to_json(spec))):
                with open(path, "w") as fh:
                    fh.write(ser.dumps(obj))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["decompose", *files]) == cli.EXIT_OK
        got = json.loads(out.getvalue())["reconstruction_choi_distance"]
        want = reconstruction_distance_by_union_choi(
            chan, cov.reconstruct(cov.decompose(chan, spec)))
        assert abs(got - want) <= 2.0 * np.finfo(float).eps / 2 * np.linalg.norm(
            mc.choi_of(chan).matrix)

    def test_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # covchan decompose pins one BLAS thread unless the environment sets a count,
        # so a dense n = 16 channel prints the same bytes with the variables unset as
        # with them set to 1.  On a one-core host the two runs agree trivially.
        spec = cov.Spectrum(np.arange(16.0))
        files = [tmp_path / "chan.json", tmp_path / "spec.json"]
        files[0].write_text(ser.dumps(ser.channel_to_json(
            gen.random_covariant(spec, np.random.default_rng(0)))))
        files[1].write_text(ser.dumps(ser.spectrum_to_json(spec)))
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in env_with_src().items() if k not in names}
        outs = [subprocess.run([sys.executable, "-m", "covchan.cli", "decompose", *map(str, files)],
                               capture_output=True, env=env, check=True).stdout
                for env in (unset, dict(unset, **dict.fromkeys(names, "1")))]
        assert outs[0] == outs[1] and outs[0]


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

    @pytest.mark.parametrize("state", [None, "plus_state.json"])
    def test_a_mask_is_checked_once(self, capsys, monkeypatch, state):
        calls = []
        check = cap._check_mask
        monkeypatch.setattr(cap, "_check_mask", lambda *a: calls.append(a) or check(*a))
        argv = ["capacity", str(FIXTURES / "mask_c_sqrt_half.json")]
        if state:
            argv += ["--input-state", str(FIXTURES / state)]
        code, out, _ = run(capsys, *argv)
        assert code == cli.EXIT_OK and len(calls) == 1
        payload = json.loads(out)
        assert payload["verify_hqc_difference"] == cap.verify_hqc(
            ser.matrix_from_json(ser.load_json(FIXTURES / "mask_c_sqrt_half.json")), 2)

    def test_a_256_level_mask_holds_no_kraus_stack(self, monkeypatch, tmp_path):
        # The n diagonal Kraus operators of hadamard_channel alone were 16 n^3
        # = 268 MB at n = 256.  The mask route holds a few n x n arrays; the
        # file is read before tracing starts, and the CLI's reader returns it.
        n = 256
        mask = gen.random_unit_diagonal_mask(n, np.random.Generator(np.random.PCG64(256)))
        path = tmp_path / "mask.json"
        path.write_text(ser.dumps(ser.matrix_to_json(mask)))
        obj = inputs.load_json(path)
        monkeypatch.setattr(inputs, "load_json", lambda _: obj)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["capacity", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK and json.loads(out.getvalue())["verify_hqc_difference"] < 1e-12
        assert peak <= 32 * 2**20, peak

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


TIMING = ["timing", str(FIXTURES / "shift_mixture_channel.json"),
          str(FIXTURES / "spectrum_4level.json"), "--phi0", str(FIXTURES / "phi0_4level.json")]


@pytest.mark.parametrize("argv, opening", [
    (["decompose", str(FIXTURES / "hadamard_gate_channel.json"),
      str(FIXTURES / "spectrum_2level.json")], "not covariant: defect "),
    # the Hadamard gate mixes the energy sectors: its timing report was exit 0
    (["timing", str(FIXTURES / "hadamard_gate_channel.json"),
      str(FIXTURES / "spectrum_2level.json"), "--phi0", str(FIXTURES / "plus_state.json"),
      "--s", repr(np.pi), "--N", "2"],
     "not covariant: defect "),
    (TIMING + ["--s", "1", "--N", "4"], "not periodic: e^(-iHsN) deviates"),  # 4 is no period
    (TIMING + ["--s", "1.5707963267948966", "--N", "4"],
     "not reliable timing: orthogonality defect "),
], ids=["not-covariant", "timing-not-covariant", "not-periodic", "not-reliable"])
def test_violation_exit_1_writes_no_out_file(capsys, tmp_path, argv, opening):
    dest = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--out", str(dest))
    assert code == cli.EXIT_VIOLATION
    assert out == "" and err.startswith(opening) and err.count("\n") == 1
    assert not dest.exists()


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

    @pytest.mark.parametrize("flags", [("gaussian", "--std-dev", "0.3", "--dim", "1"),
                                       ("gaussian", "--std-dev", "-1", "--dim", "8"),
                                       ("gaussian", "--std-dev", "1", "--dim", "187"),
                                       ("mc-gaussian", "--std-dev", "1", "--dim", "187")])
    def test_out_of_range_parameter_exit_2(self, capsys, flags):
        # dim 187 is past the mask builder's cap, the same for both commands.
        code, out, err = run(capsys, *flags)
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
    runs with each other).  At dim 186 three orders a side keep the report at
    7 masks of the largest size (all 371 would be 191 MB of JSON)."""

    MC = fock.FockParams(dim=8, std_dev=0.3, sigma_max=0, mc_samples=20000, seed=17)
    OTHER_DIMS = [(8, 0), (186, 3)]  # (dim, sigma_max); 0 -> every sector

    @staticmethod
    def run_with_out(capsys, tmp_path, *argv):
        out_file = tmp_path / "report.out"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert_same_text(out_file.read_text(encoding="utf-8"), out)
        return code, out, err

    @staticmethod
    def gaussian(dim, sigma_max):
        params = fock.FockParams(dim=dim, std_dev=0.5, sigma_max=sigma_max, mc_samples=1, seed=0)
        flags = ("gaussian", "--std-dev", "0.5", "--dim", str(dim), "--sigma-max", str(sigma_max))
        return fock.gaussian_decomposition(params), flags

    def check_gaussian_json(self, capsys, tmp_path, dim, sigma_max):
        decomp, flags = self.gaussian(dim, sigma_max)
        code, out, err = self.run_with_out(capsys, tmp_path, *flags)
        golden = dumps_by_recursion({
            "dim": decomp.params.dim, "std_dev": decomp.params.std_dev,
            "sigma_max": decomp.params.sigma_max,
            "masks": [{"sigma": m.sigma, "mask": matrix_json_by_entry(m.mask)}
                      for m in decomp.masks],
            "truncation_defect": [float(x) for x in decomp.truncation_defect],
        })
        assert (code, err) == (cli.EXIT_OK, "")
        assert_same_text(out, golden + "\n")

    def check_gaussian_csv(self, capsys, tmp_path, dim, sigma_max):
        decomp, flags = self.gaussian(dim, sigma_max)
        code, out, err = self.run_with_out(capsys, tmp_path, *flags, "--format", "csv")
        lines = []
        for m in decomp.masks:
            lines.extend(csv_lines_by_entry(f"mask_sigma_{int(m.sigma)}", m.mask))
        assert (code, err) == (cli.EXIT_OK, "")
        assert_same_text(out, "\n".join(lines) + "\n")

    def test_gaussian_json(self, capsys, tmp_path):
        self.check_gaussian_json(capsys, tmp_path, 48, 0)

    def test_gaussian_csv(self, capsys, tmp_path):
        self.check_gaussian_csv(capsys, tmp_path, 48, 0)

    @pytest.mark.parametrize("dim, sigma_max", OTHER_DIMS)
    def test_gaussian_json_other_dims(self, capsys, tmp_path, dim, sigma_max):
        self.check_gaussian_json(capsys, tmp_path, dim, sigma_max)

    @pytest.mark.parametrize("dim, sigma_max", OTHER_DIMS)
    def test_gaussian_csv_other_dims(self, capsys, tmp_path, dim, sigma_max):
        self.check_gaussian_csv(capsys, tmp_path, dim, sigma_max)

    def test_json_report_holds_one_mask_at_a_time(self):
        # Holding every entry at once takes at least the report's own 3.2 MB
        # (95 masks of 48 x 48).  The streamed report holds the decomposition's
        # blocks (0.6 MB) and one dense mask with its text: 1.3 MB in all.
        class Sink:
            size = 0

            def write(self, piece):
                self.size += len(piece)

            def flush(self):
                pass

        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(["gaussian", "--std-dev", "0.5", "--dim", "48"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK and sink.size > 3_000_000
        assert peak < sink.size / 2, (peak, sink.size)

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


@pytest.mark.parametrize("name", ["negative-dims", "zero-dim-kraus", "fractional-dim",
                                  "boolean-dim", "directory", "not-utf8", "deep-nesting"])
@pytest.mark.parametrize("slot", ["capacity", "capacity --input-state", "check", "timing --phi0"])
def test_misshapen_matrix_exit_2(capsys, bad_files, name, slot):
    # Each file in each slot that reads a matrix or a channel: one line on
    # stderr, nothing on stdout, never a traceback.  A directory, a UTF-16
    # byte-order mark and 100,000 open brackets ended in a traceback with
    # exit 1 (IsADirectoryError, UnicodeDecodeError, RecursionError); their
    # line names the path.
    bad = bad_files[f"bad:{name}"]
    argv = {"capacity": ["capacity", bad],
            "capacity --input-state": ["capacity", FIXTURES / "amplitude_damping_0.3.json",
                                       "--input-state", bad],
            "check": ["check", bad, FIXTURES / "spectrum_2level.json"],
            "timing --phi0": ["timing", *TIMING_FILES, "--phi0", bad,
                              "--s", "1.5707963267948966", "--N", "4"]}[slot]
    code, out, err = run(capsys, *map(str, argv))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    if name in UNREADABLE_FILES:
        assert err.startswith(f"parse error: {bad}: ")


@pytest.mark.parametrize("statement, absent", [
    # The package namespace is lazy: importing it loads no submodule.
    ("import covchan", "numpy"),
    # scipy is a test dependency only: every library module runs on numpy.
    ("import covchan, covchan.cli, covchan.generate, covchan.serialize; "
     "[getattr(covchan, name) for name in covchan.__all__]", "scipy"),
], ids=["package-numpy", "library-scipy"])
def test_import_leaves_out(statement, absent):
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print({absent!r} in sys.modules)"],
        capture_output=True, text=True, env=env_with_src(), check=True)
    assert proc.stdout.strip() == "False"


# Runs cli.main on the arguments, then prints its exit code and the numpy and
# covchan submodules that were loaded.
FOOTPRINT = """\
import contextlib, io, sys
from covchan import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m == "numpy" or m.startswith("covchan.")))
"""
LIBRARY_AFTER_PARSING = {"numpy", "covchan.channels", "covchan.covariant", "covchan.serialize",
                         "covchan.fock", "covchan.timing", "covchan.capacity"}
CHECK_FILES = (str(FIXTURES / "amplitude_damping_0.3.json"), str(FIXTURES / "spectrum_2level.json"))


# Input files the front door refuses before numpy loads, written by the test.
FRONT_DOOR_FILES = {
    "malformed.json": '{"dim_in": 2, "kraus": [',
    "nan_channel.json": '{"dim_in": 2, "dim_out": 2, "kraus": [{"rows": 2, "cols": 2, '
                        '"data": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}]}',
    "nan_spectrum.json": '{"energies": [0, NaN]}',
}


@pytest.mark.parametrize("argv, seed_env, code, loaded", [
    (["gaussian", "--std-dev", "1", "--dim", "8", "--bogus"], None, 2, set()),
    (["mc-gaussian", "--std-dev", "1", "--dim", "8"], "abc", 2, set()),
    (["--help"], None, 0, set()),
    (["mc-gaussian", "--help"], None, 0, set()),
    (["check", CHECK_FILES[0]], None, 2, set()),  # a missing argument
    (["check", "<tmp>/missing.json", CHECK_FILES[1]], None, 2, set()),
    (["check", "<tmp>/malformed.json", CHECK_FILES[1]], None, 2, set()),
    (["check", "<tmp>/nan_channel.json", CHECK_FILES[1]], None, 2, set()),
    (["decompose", CHECK_FILES[0], "<tmp>/nan_spectrum.json"], None, 2, set()),
    (["gaussian", "--std-dev", "1", "--dim", "1"], None, 2, set()),
    (["gaussian", "--std-dev", "-1", "--dim", "8"], None, 2, set()),
    (["gaussian", "--std-dev", "1", "--dim", "8", "--sigma-max", "99"], None, 2, set()),
    (["mc-gaussian", "--std-dev", "1", "--dim", "8", "--seed", "-1"], None, 2, set()),
    (["gaussian", "--std-dev", "1", "--dim", "187"], None, 2, set()),
    (["mc-gaussian", "--std-dev", "1", "--dim", "1024"], None, 2, set()),
    (["timing", str(FIXTURES / "shift_mixture_channel.json"),
      str(FIXTURES / "spectrum_4level.json"), "--phi0", str(FIXTURES / "phi0_4level.json"),
      "--s", "1", "--N", "5000"], None, 2, set()),
    (["check", *CHECK_FILES], None, 0,
     {"numpy", "covchan.channels", "covchan.covariant", "covchan.serialize"}),
    (["decompose", *CHECK_FILES], None, 0,
     {"numpy", "covchan.channels", "covchan.covariant", "covchan.serialize"}),
    (["gaussian", "--std-dev", "0.5", "--dim", "4"], None, 0,
     {"numpy", "covchan.channels", "covchan.covariant", "covchan.serialize", "covchan.fock"}),
], ids=["unknown-flag", "seed-env-abc", "help", "subcommand-help", "missing-argument",
        "missing-file", "malformed-json", "nan-channel", "nan-spectrum", "gaussian-dim-1",
        "std-dev-negative", "sigma-max-99", "mc-gaussian-seed-negative", "gaussian-dim-187",
        "mc-gaussian-dim-1024", "timing-N-5000", "check", "decompose", "gaussian"])
def test_subcommand_loads_only_what_it_uses(argv, seed_env, code, loaded, tmp_path):
    # Every refusal, argparse's and the front door's (inputs), loads no numpy.
    for name, text in FRONT_DOOR_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("<tmp>", str(tmp_path)) for arg in argv]
    env = env_with_src()
    env.pop("COVCHAN_SEED", None)
    if seed_env is not None:
        env["COVCHAN_SEED"] = seed_env
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    got_code, *modules = proc.stdout.split()
    assert int(got_code) == code
    assert set(modules) & LIBRARY_AFTER_PARSING == loaded
    assert {"covchan.cli", "covchan.errors"} <= set(modules)


def read_ten_bytes_and_close(argv):
    """Run the CLI, read 10 bytes of stdout, close the pipe: (exit code, head, stderr)."""
    proc = subprocess.Popen([sys.executable, "-m", "covchan.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env_with_src())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), head, err


def test_reader_closing_pipe_early(tmp_path):
    # `covchan gaussian ... | head -c 10`: the report (~2 MB) outgrows the
    # pipe, the reader leaves after 10 bytes; no traceback, exit code 0, and
    # the --out copy is still complete.
    out = tmp_path / "masks.json"
    code, head, err = read_ten_bytes_and_close(
        ["gaussian", "--std-dev", "1", "--dim", "40", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert head == b'{"dim": 40'
    assert "Traceback" not in err and "BrokenPipe" not in err
    assert json.loads(out.read_text())["dim"] == 40


def test_reader_closing_pipe_early_csv(tmp_path):
    # The same for the CSV report (~1.5 MB), with and without an --out copy.
    out = tmp_path / "masks.csv"
    for extra in (["--out", str(out)], []):
        code, head, err = read_ten_bytes_and_close(
            ["gaussian", "--std-dev", "1", "--dim", "40", "--format", "csv", *extra])
        assert code == cli.EXIT_OK
        assert head == b"matrix,row"
        assert "Traceback" not in err and "BrokenPipe" not in err
    lines = out.read_text().split("\n")
    assert len(lines) == 79 * 41 + 1 and lines[-2].startswith("mask_sigma_39,39,")
    assert lines[-1] == ""


@pytest.mark.parametrize("where", ["directory", "missing-folder"])
def test_out_file_that_cannot_be_opened_exit_2(capsys, tmp_path, where):
    # Opened before the first byte is written: no report on stdout, one line
    # on stderr, no traceback (a directory once raised IsADirectoryError, and
    # a missing folder printed the whole report before exiting 2).
    dest = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "check", str(FIXTURES / "amplitude_damping_0.3.json"),
                         str(FIXTURES / "spectrum_2level.json"), "--out", str(dest))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: cannot open --out file") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("check", str(FIXTURES / "amplitude_damping_0.3.json"), str(FIXTURES / "spectrum_2level.json")),
    ("gaussian", "--std-dev", "1", "--dim", "40", "--format", "csv"),
])
def test_out_file_write_error_exit_2(capsys, argv):
    # A full disk once ended in an OSError traceback at the file's close.
    code, _, err = run(capsys, *argv, "--out", "/dev/full")
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: cannot write --out file") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("check", str(FIXTURES / "amplitude_damping_0.3.json"), str(FIXTURES / "spectrum_2level.json")),
    ("gaussian", "--std-dev", "0.5", "--dim", "48"),
])
def test_stdout_write_error_exit_2(tmp_path, argv):
    # stdout on a full device once ended in an OSError traceback with exit 1,
    # and left --out empty: now one line on stderr, exit 2, no traceback at
    # the interpreter's exit flush, and the --out copy written in full.
    out = tmp_path / "report.json"
    for extra in ([], ["--out", str(out)]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "covchan.cli", *argv, *extra],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env_with_src())
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr == "error: cannot write to stdout: No space left on device\n"
    whole = subprocess.run([sys.executable, "-m", "covchan.cli", *argv], capture_output=True,
                           env=env_with_src()).stdout
    assert out.read_bytes() == whole and whole.endswith(b"}\n")


# ---------------------------------------------------------------------------
# Exit codes as a property: every subcommand, numeric flags drawn from bad and
# extreme values, run in-process.

# "1e-150" and "9.48e153" are the ends of the std_dev range FockParams accepts.
FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "abc", "1", "0.3", "4",
               "1e-150", "9.48e153")
EXIT_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


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


# Files the property may put in place of an input file, as "bad:<name>":
# malformed JSON for any input, and non-finite numbers (1e999 parses to inf)
# where each kind of file holds them: Kraus entries of a channel, energies or
# match_tol of a spectrum, entries of a state or --phi0 vector.  Each is a
# parse or parameter error, exit code 2.
MALFORMED_FILES = {
    "empty": "",
    "truncated": '{"dim_in": 2, "dim_out": 2, "kraus": [{"rows": 2',
    "not-json": "kraus",
    "trailing-comma": '{"energies": [0, 1],}',
    "null": "null",
    "list": "[1, 2]",
    # well-formed, but each reader finds its fields short or of the wrong size
    "short-data": '{"dim_in": 1, "dim_out": 1, "kraus": [{"rows": 1, "cols": 1, "data": []}],'
                  ' "energies": [0], "rows": 2, "cols": 1, "data": [[1, 0]]}',
    # misshapen matrices: the product of two negative dims matches the data,
    # an empty Kraus operator, a fractional and a boolean dim
    "negative-dims": '{"rows": -1, "cols": -1, "data": [[1, 0]]}',
    "zero-dim-kraus": '{"dim_in": 0, "dim_out": 2, "kraus": [{"rows": 2, "cols": 0, "data": []}]}',
    "fractional-dim": '{"rows": 1.5, "cols": 1, "data": [[1, 0]]}',
    "boolean-dim": '{"rows": true, "cols": 1, "data": [[1, 0]]}',
}
NON_FINITE_ENTRIES = ("NaN", "Infinity", "-Infinity", "1e999")


def _channel_text(entry: str) -> str:
    return ('{"dim_in": 2, "dim_out": 2, "kraus": [{"rows": 2, "cols": 2, '
            f'"data": [[1, 0], [0, 0], [0, {entry}], [1, 0]]}}]}}')


NON_FINITE_FILES = {
    "channel": {f"entry-{x}": _channel_text(x) for x in NON_FINITE_ENTRIES},
    "spectrum": {
        **{f"energy-{x}": f'{{"energies": [0, {x}], "match_tol": 0}}' for x in NON_FINITE_ENTRIES},
        **{f"match-tol-{x}": f'{{"energies": [0, 1], "match_tol": {x}}}'
           for x in NON_FINITE_ENTRIES},
    },
    "state": {f"state-{x}": f'{{"rows": 2, "cols": 1, "data": [[1, 0], [0, {x}]]}}'
              for x in NON_FINITE_ENTRIES},
}


def _mask_text(rows: int, cols: int, entries: str) -> str:
    return f'{{"rows": {rows}, "cols": {cols}, "data": [{entries}]}}'


# Finite masks that capacity refuses: skew 3e-9 > EPS_H, an eigenvalue -1, a
# diagonal of 0.5 and a 2 x 3 matrix.
MASK_FILES = {
    "mask-skew": _mask_text(2, 2, "[1, 0], [0.500000003, 0], [0.5, 0], [1, 0]"),
    "mask-indefinite": _mask_text(2, 2, "[1, 0], [2, 0], [2, 0], [1, 0]"),
    "mask-diagonal-half": _mask_text(2, 2, "[0.5, 0], [0, 0], [0, 0], [0.5, 0]"),
    "mask-2x3": _mask_text(2, 3, ", ".join(["[1, 0]"] * 6)),
    # a JSON true, which complex() read as 1: the identity mask on one level
    "mask-entry-bool": _mask_text(1, 1, "[true, 0]"),
    "mask-entry-null": _mask_text(1, 1, "null"),
}
# Headers of the wrong JSON type, which int() and float() used to coerce, and
# an integer literal past the largest double, which used to escape as OverflowError.
HEADER_FILES = {
    "channel": {
        "dims-float-and-string": _channel_text("0").replace('"dim_in": 2, "dim_out": 2',
                                                            '"dim_in": 2.9, "dim_out": "2"'),
        "dims-whole-floats": _channel_text("0").replace('"dim_in": 2, "dim_out": 2',
                                                        '"dim_in": 2.0, "dim_out": 2.0'),
        "entry-huge-int": _channel_text("1" + "0" * 400),
        "entry-bool": _channel_text("true"),
        # an entry that is no list, which escaped as len()'s TypeError text
        "entry-scalar": '{"dim_in": 1, "dim_out": 1, "kraus": [{"rows": 1, "cols": 1, "data": [1]}]}',
    },
    "spectrum": {
        "energies-string": '{"energies": "01"}',
        "energies-bool": '{"energies": [0, true]}',
        "match-tol-true": '{"energies": [0, 1], "match_tol": true}',
        "match-tol-string": '{"energies": [0, 1], "match_tol": "1e-3"}',
        "energy-huge-int": '{"energies": [0, 1' + "0" * 400 + "]}",
        # finite energies whose difference is not: two RuntimeWarnings and exit 0
        "energy-span-overflow": '{"energies": [-1e308, 1e308]}',
    },
}
KIND_FILES = {kind: {**NON_FINITE_FILES.get(kind, {}), **HEADER_FILES.get(kind, {})}
              for kind in ("channel", "spectrum", "state")}
KIND_FILES["mask"] = MASK_FILES  # the bad files of each kind of input
BAD_FILES = {**MALFORMED_FILES, **{name: text for files in KIND_FILES.values()
                                   for name, text in files.items()}}
# Files no reader gets to parse: a directory, bytes that are not UTF-8 (a
# UTF-16 byte-order mark) and brackets nested deeper than the JSON parser
# recurses.  None stands for the directory.
UNREADABLE_FILES = {"directory": None, "not-utf8": b"\xff\xfe", "deep-nesting": b"[" * 100_000}
# --out targets: "out:file" can be written, the other two cannot be opened.
OUT_TARGETS = ("out:file", "out:directory", "out:missing-folder")


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """The path of each BAD_FILES and UNREADABLE_FILES entry, written once for
    the module, and of each OUT_TARGETS entry."""
    folder = tmp_path_factory.mktemp("bad-inputs")
    paths = {"out:file": folder / "report.out", "out:directory": folder,
             "out:missing-folder": folder / "missing" / "report.out"}
    for name, text in BAD_FILES.items():
        paths[f"bad:{name}"] = folder / f"{name}.json"
        paths[f"bad:{name}"].write_text(text, encoding="utf-8")
    for name, data in UNREADABLE_FILES.items():
        path = paths[f"bad:{name}"] = folder / f"{name}.json"
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
    return paths


@st.composite
def cli_argvs(draw):
    """(argv, COVCHAN_SEED or None).  For mc-gaussian the drawn value may go
    to COVCHAN_SEED instead of a flag; --seed is then left out, so that the
    variable supplies the seed.  capacity reads a channel or a mask file.  A
    command that reads files may have one of them replaced by a bad file of
    its kind, named "bad:<name>" (BAD_FILES), and any
    command may get an --out target (OUT_TARGETS)."""
    command = draw(st.sampled_from(sorted(VALID_FLAGS)))
    flags = VALID_FLAGS[command]
    bad, seed_env = {}, None
    # An --out target comes with valid flags, so that most of those runs write a report.
    out = draw(st.sampled_from((None,) * 3 + OUT_TARGETS))
    if out is None and command == "mc-gaussian" and draw(st.booleans()):
        seed_env = draw(st.sampled_from(FLAG_VALUES))
        flags = {flag: value for flag, value in flags.items() if flag != "--seed"}
    elif out is None and flags:  # one flag at a time, so that an earlier bad flag does not mask it
        bad[draw(st.sampled_from(sorted(flags)))] = draw(st.sampled_from(FLAG_VALUES))
    if command in ("gaussian", "mc-gaussian"):
        argv = [command, "--format", draw(st.sampled_from(["json", "csv"]))]
    else:
        chan = draw(st.sampled_from(["amplitude_damping_0.3.json", "hadamard_gate_channel.json",
                                     "identity_channel.json", "shift_mixture_channel.json"]
                                    + ["mask_c_sqrt_half.json"] * (command == "capacity")))
        four = chan.startswith("shift")
        state = "phi0_4level.json" if four else "plus_state.json"
        argv = [command, str(FIXTURES / chan)]
        kinds = {1: "mask" if chan.startswith("mask") else "channel"}
        if command != "capacity":
            kinds[len(argv)] = "spectrum"
            argv.append(str(FIXTURES / ("spectrum_4level.json" if four else "spectrum_2level.json")))
        if command == "timing" or (command == "capacity" and draw(st.booleans())):
            kinds[len(argv) + 1] = "state"
            argv += ["--phi0" if command == "timing" else "--input-state", str(FIXTURES / state)]
        if draw(st.booleans()):
            slot = draw(st.sampled_from(sorted(kinds)))
            names = (sorted(MALFORMED_FILES) + sorted(UNREADABLE_FILES)
                     + sorted(KIND_FILES[kinds[slot]]))
            argv[slot] = "bad:" + draw(st.sampled_from(names))
    if out:
        argv += ["--out", out]
    for flag, value in {**flags, **bad}.items():
        argv += [flag, value]
    return argv, seed_env


def run_main(argv, seed_env):
    """cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if seed_env is None:
            mp.delenv("COVCHAN_SEED", raising=False)
        else:
            mp.setenv("COVCHAN_SEED", seed_env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # an exception escaping main fails the test
    return code, out.getvalue(), err.getvalue()


@EXIT_PROPERTY
@given(case=cli_argvs())
@example(case=(["capacity", str(FIXTURES / "mask_c_sqrt_half.json"),
                "--input-state", str(FIXTURES / "plus_state.json")], None))
@example(case=(["capacity", "bad:mask-skew"], None))
@example(case=(["capacity", "bad:mask-indefinite"], None))
@example(case=(["capacity", "bad:mask-diagonal-half"], None))
@example(case=(["capacity", "bad:mask-2x3"], None))
@example(case=(["check", "bad:dims-float-and-string", str(FIXTURES / "spectrum_2level.json")],
               None))
@example(case=(["check", "bad:dims-whole-floats", str(FIXTURES / "spectrum_2level.json")], None))
@example(case=(["capacity", "bad:entry-huge-int"], None))
@example(case=(["capacity", "bad:mask-entry-bool"], None))
@example(case=(["check", "bad:entry-bool", str(FIXTURES / "spectrum_2level.json")], None))
@example(case=(["capacity", "bad:mask-entry-null"], None))
@example(case=(["check", "bad:entry-scalar", str(FIXTURES / "spectrum_2level.json")], None))
@example(case=(["decompose", str(FIXTURES / "identity_channel.json"), "bad:energies-string"],
               None))
@example(case=(["check", str(FIXTURES / "identity_channel.json"), "bad:energies-bool"], None))
@example(case=(["check", str(FIXTURES / "identity_channel.json"), "bad:match-tol-true"], None))
@example(case=(["check", str(FIXTURES / "identity_channel.json"), "bad:match-tol-string"], None))
@example(case=(["check", str(FIXTURES / "identity_channel.json"), "bad:energy-huge-int"], None))
@example(case=(["decompose", str(FIXTURES / "identity_channel.json"),
                "bad:energy-span-overflow"], None))
@example(case=(["check", "bad:directory", str(FIXTURES / "spectrum_2level.json")], None))
@example(case=(["check", "bad:not-utf8", str(FIXTURES / "spectrum_2level.json")], None))
@example(case=(["check", "bad:deep-nesting", str(FIXTURES / "spectrum_2level.json")], None))
@example(case=(["mc-gaussian", "--format", "json", "--std-dev", "1e308", "--dim", "4",
                "--sigma-max", "0", "--samples", "20", "--seed", "0"], None))  # once printed nan
def test_exit_code_contract(case, bad_files):
    """Every exit code is documented; a bad file is exit 2 with no report; an
    --out file holds exactly the report, and one that cannot be opened turns
    a report into exit 2 with nothing on stdout."""
    argv, seed_env = case
    argv = [str(bad_files.get(arg, arg)) for arg in argv]
    bad_files["out:file"].unlink(missing_ok=True)
    code, out, err = run_main(argv, seed_env)
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_USAGE), case
    if any(arg.startswith("bad:") for arg in case[0]):
        assert code == cli.EXIT_USAGE and not out, case
    if "out:file" in case[0]:
        copy = bad_files["out:file"]
        assert (copy.read_text(encoding="utf-8") if out else copy.exists()) == (out or False)
    elif "--out" in argv:
        i = argv.index("--out")
        ref_code, ref_out, _ = run_main(argv[:i] + argv[i + 2:], seed_env)
        if ref_out:
            assert (code, out) == (cli.EXIT_USAGE, ""), case
            assert err.startswith("error: cannot open --out file") and err.count("\n") == 1
        else:
            assert (code, out) == (ref_code, ""), case
    if out and "csv" not in argv:  # strict JSON under every exit code
        json.loads(out, parse_constant=_reject_constant)
