"""Seeded inputs, work items and correctness oracles of the four workloads.

Every workload is a fixed cycle of item shapes.  The workload seed draws the
contents of each item (channels, masks, states, standard deviations, phases);
the shapes and their order do not depend on it, so the cost of a cycle is
the same for every seed and the run-to-run spread stays small.  The shapes
are ordered so that the median and the tail of a run fall inside a group of
items of similar cost rather than on the edge between two groups.

Library calls go through module attributes only (``cap.verify_hqc``), so a
traced run sees every call.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from covchan import capacity as cap
from covchan import channels as mc
from covchan import cli
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import timing as tim
from covchan.errors import NotCovariant, NotPeriodic, NotReliableTiming

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

# Oracle bounds, taken from the acceptance gate (tests/test_acceptance.py).
ROUND_TRIP_TOL = 1e-10
DIAG_SUM_TOL = 1e-10
HQC_TOL = 1e-9
TIMING_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10
CP_TOL = 1e-9

# compare_decomposition_to_mc allows 3 standard errors per entry and no more,
# so about 3% of sample seeds report ok=False on correct masks (2 of 72 in a
# scan over dims 8 and 12).  Every Monte Carlo item therefore samples with
# the acceptance gate's own seed; the workload seed varies everything else.
MC_SEED = 424242
MC_SAMPLES = 100_000
STD_DEVS = (0.3, 0.5, 1.0)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass
class Item:
    """One unit of work: ``run`` calls the library, ``check`` judges its output.

    ``check`` returns None for a correct output and a reason otherwise.
    ``inputs`` holds the generated inputs the item consumes.
    ``run_in_process`` is the traced form of ``run`` where the two differ
    (the cli items run as subprocesses untraced and through ``cli.main``
    traced).  ``known_defect`` names a documented defect that makes the item
    fail at the time the benchmark was written.
    """

    kind: str
    run: object
    check: object
    inputs: tuple = ()
    run_in_process: object = None
    known_defect: str | None = None
    expected_exit: int | None = None

    def __post_init__(self):
        if self.run_in_process is None:
            self.run_in_process = self.run


def fingerprint(value) -> str:
    """SHA-256 over a canonical encoding of a library output."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif is_dataclass(v):
            h.update(type(v).__name__.encode())
            for f in fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, (list, tuple)):
            h.update(f"seq{len(v)}".encode())
            for x in v:
                feed(x)
        elif isinstance(v, bytes):
            h.update(v)
        elif isinstance(v, BaseException):
            h.update(f"exc{type(v).__name__}:{v}".encode())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def integer_spectrum(n):
    return cov.Spectrum(np.arange(float(n)))


def incommensurate_spectrum(n):
    """Gaps sqrt(p) for distinct primes p: all n^2 - n + 1 differences differ."""
    return cov.Spectrum(np.concatenate([[0.0], np.cumsum(np.sqrt(PRIMES[: n - 1]))]))


def choi_by_stacking(kraus):
    """Choi matrix as V V^dag with column m = vec(A_m); independent of choi_of."""
    v = np.stack([np.asarray(k).reshape(-1) for k in kraus], axis=1)
    return v @ v.conj().T


def entropy_bits(mat):
    vals = np.clip(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0), 0.0, None)
    vals = vals[vals > 0]
    return float(-np.sum(vals * np.log2(vals)))


# ---------------------------------------------------------------------------
# decompose: the check + decompose pipeline in-process


def _decompose_pipeline(chan, spec, rho):
    report = mc.is_cptp(chan)
    defect = cov.covariance_defect(chan, spec)
    try:
        decomp = cov.decompose(chan, spec)
    except NotCovariant as exc:
        return report, defect, exc
    recon = cov.reconstruct(decomp)
    dist = cov.shift_distribution(decomp, rho)
    return report, defect, decomp, recon, dist


def _check_decompose(chan, rho, covariant, out):
    report, defect = out[0], out[1]
    if not covariant:
        if isinstance(out[2], NotCovariant) and defect > 1e-10:
            return None
        return "non-covariant channel was not rejected with NotCovariant"
    if isinstance(out[2], NotCovariant):
        return f"covariant channel rejected: {out[2]}"
    _, _, decomp, recon, dist = out
    gram = sum(k.conj().T @ k for k in chan.kraus)
    tp = float(np.linalg.norm(gram - np.eye(chan.dim_in)))
    if abs(report.tp_defect - tp) > DIAG_SUM_TOL or report.cp_defect > CP_TOL:
        return f"is_cptp report {report} disagrees (tp defect {tp:.3e})"
    if defect > 1e-10:
        return f"covariance defect {defect:.3e} on a covariant channel"
    dist_rt = float(np.linalg.norm(
        choi_by_stacking(recon.kraus) - choi_by_stacking(chan.kraus)))
    if dist_rt > ROUND_TRIP_TOL:
        return f"Choi round-trip distance {dist_rt:.3e}"
    diag = sum(np.real(np.diag(m.mask)) for _, m in decomp.sectors)
    expected = np.real(np.diag(gram))
    if float(np.max(np.abs(diag - expected))) > DIAG_SUM_TOL:
        return "mask diagonal sums differ from diag(sum A^dag A)"
    total = sum(p for _, p in dist.pairs)
    want = float(np.real(np.sum(np.diag(rho.matrix) * expected)))
    if abs(total - want) > DIAG_SUM_TOL:
        return f"shift distribution sums to {total!r}, expected {want!r}"
    return None


def _decompose_item(kind, chan, spec, rng, covariant=True):
    rho = gen.random_state(spec.dim, rng)
    return Item(
        kind=kind,
        run=lambda: _decompose_pipeline(chan, spec, rho),
        check=lambda out: _check_decompose(chan, rho, covariant, out),
        inputs=(chan, spec, rho),
    )


def setup_decompose(seed, workdir):
    """Four shapes: (a) dense covariant channels on integer spectra (bound by
    choi_of), (b) dense channels on an incommensurate spectrum (n^2 - n + 1
    sectors of 1x1 masks: per-sector overhead), (c) few-Kraus Hadamard
    channels and shift mixtures at n = 24-32 (bound by the n^2 x n^2
    eigensolve), (d) random non-covariant channels that must be rejected."""
    rng = np.random.default_rng(seed)

    def dense(n):
        spec = integer_spectrum(n)
        return _decompose_item(f"dense-{n}", gen.random_covariant(spec, rng), spec, rng)

    def incommensurate(n):
        spec = incommensurate_spectrum(n)
        return _decompose_item(f"incommensurate-{n}",
                               gen.random_covariant(spec, rng), spec, rng)

    def hadamard(n):
        chan = cap.hadamard_channel(gen.random_unit_diagonal_mask(n, rng))
        return _decompose_item(f"hadamard-{n}", chan, integer_spectrum(n), rng)

    def shift_mixture(n):
        spec = integer_spectrum(n)
        sigmas = (0.0, float(rng.integers(1, 4)), -float(rng.integers(1, 4)))
        probs = rng.random(3) + 0.1
        mix = tim.build_shift_mixture(spec, list(zip(sigmas, probs / probs.sum())))
        return _decompose_item(f"shift-mixture-{n}", mix.channel, spec, rng)

    def non_covariant(n):
        return _decompose_item(f"non-covariant-{n}", gen.random_cptp(n, rng),
                               integer_spectrum(n), rng, covariant=False)

    return [
        dense(8), shift_mixture(28), dense(12), non_covariant(6), incommensurate(10),
        shift_mixture(28), dense(12), incommensurate(8), dense(16),
        incommensurate(10), hadamard(24), dense(12), non_covariant(8),
        incommensurate(12), shift_mixture(32), incommensurate(10), shift_mixture(28),
    ]


# ---------------------------------------------------------------------------
# bounds: Hadamard bound, coherent information, timing channels


def _check_hqc(n, out):
    bound, diff = out
    if not (diff <= HQC_TOL and -1e-12 <= bound <= np.log2(n) + 1e-12):
        return f"HQC difference {diff:.3e}, bound {bound!r}"
    return None


def _hqc_item(n, rng):
    mask = gen.random_unit_diagonal_mask(n, rng)
    return Item(
        kind=f"hqc-{n}",
        run=lambda: (cap.hadamard_bound(mask, n), cap.verify_hqc(mask, n)),
        check=lambda out: _check_hqc(n, out),
        inputs=(mask,),
    )


def _check_coherent(chan, rho, ic):
    """I_c = S(G(rho)) - S(G^c(rho)) with G^c(rho)_ab = tr(A_a rho A_b^dag)."""
    kraus = np.stack(chan.kraus)
    out = np.einsum("aij,jk,alk->il", kraus, rho.matrix, kraus.conj())
    comp = np.einsum("aij,jk,bik->ab", kraus, rho.matrix, kraus.conj())
    want = entropy_bits(out) - entropy_bits(comp)
    if abs(ic - want) > HQC_TOL:
        return f"coherent information {ic!r}, complementary route {want!r}"
    return None


def _coherent_item(n, rng):
    chan = gen.random_covariant(integer_spectrum(n), rng)
    rho = gen.random_state(n, rng)
    return Item(
        kind=f"coherent-{n}",
        run=lambda: cap.coherent_information(chan, rho),
        check=lambda out: _check_coherent(chan, rho, out),
        inputs=(chan, rho),
    )


def timing_fixture(N, rng, spacing=None):
    """Shift mixture whose N translate outputs are exactly orthogonal.

    The construction of tests/test_timing.py with three components: shift l
    sits at l * N plus a running sum of offsets below N, so components are
    at least N levels apart.  The offsets are a seeded permutation of a fixed
    set, which fixes the dimension for a given N.  ``spacing`` < N places the
    components closer than N, which breaks orthogonality.
    """
    gap = N if spacing is None else spacing
    offsets = rng.permutation(np.array([0, N // 2, N - 1]))
    sigmas = [l * gap + int(offsets[: l + 1].sum()) for l in range(3)]
    probs = rng.random(3) + 0.1
    spec = integer_spectrum(N + sigmas[-1])
    mix = tim.build_shift_mixture(
        spec, list(zip(map(float, sigmas), probs / probs.sum())))
    phi0 = np.zeros(spec.dim, dtype=complex)
    phi0[:N] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=N)) / np.sqrt(N)
    return mix.channel, spec, phi0, 2.0 * np.pi / N


def _check_timing(N, out):
    if isinstance(out, BaseException):
        return f"raised {out!r}"
    hb = cap.hadamard_bound(tim.circulant(out.v), N)
    if abs(out.bound - hb) > TIMING_TOL or out.orthogonality_defect > 1e-9:
        return f"timing bound {out.bound!r} vs circulant Hadamard bound {hb!r}"
    return None


def _timing_item(N, rng):
    chan, spec, phi0, s = timing_fixture(N, rng)
    return Item(
        kind=f"timing-{N}",
        run=lambda: tim.timing_channel(chan, spec, phi0, s, N),
        check=lambda out: _check_timing(N, out),
        inputs=(chan, spec, phi0, s),
    )


def _timing_error_item(kind, N, rng, expected, step_scale=1.0, spacing=None):
    chan, spec, phi0, s = timing_fixture(N, rng, spacing=spacing)

    def run():
        try:
            return tim.timing_channel(chan, spec, phi0, s * step_scale, N)
        except expected as exc:
            return exc

    def check(out):
        return None if isinstance(out, expected) else f"expected {expected.__name__}"

    return Item(kind=kind, run=run, check=check, inputs=(chan, spec, phi0, s))


def setup_bounds(seed, workdir):
    """Hadamard bound + HQC equality on unit-diagonal masks, coherent
    information of dense covariant channels, and timing channels on shift
    mixtures, with a share of non-periodic and non-orthogonal timing inputs."""
    rng = np.random.default_rng(seed)
    return [
        _hqc_item(4, rng), _timing_item(8, rng), _coherent_item(10, rng),
        _hqc_item(12, rng), _timing_error_item("not-periodic-6", 6, rng, NotPeriodic,
                                               step_scale=0.97),
        _hqc_item(16, rng), _coherent_item(10, rng), _timing_item(12, rng),
        _hqc_item(12, rng), _coherent_item(12, rng), _timing_item(4, rng),
        _hqc_item(20, rng), _coherent_item(10, rng), _hqc_item(8, rng), _timing_item(6, rng),
        _timing_error_item("not-orthogonal-4", 4, rng, NotReliableTiming, spacing=1),
        _hqc_item(12, rng), _timing_item(16, rng), _coherent_item(6, rng),
        _hqc_item(24, rng), _coherent_item(10, rng), _timing_item(2, rng), _hqc_item(20, rng),
    ]


# ---------------------------------------------------------------------------
# gaussian: Fock-space masks and their Monte Carlo comparison


def _gaussian_item(dim, std):
    params = fock.FockParams(dim=dim, std_dev=std)

    def check(out):
        got = float(np.real(out.mask(0).mask[0, 0]))
        want = 1.0 / (1.0 + 2.0 * std * std)
        if abs(got - want) > CLOSED_FORM_TOL:
            return f"M0(0,0) = {got!r}, closed form {want!r}"
        if len(out.masks) != 2 * params.sigma_max + 1:
            return f"{len(out.masks)} masks for sigma_max {params.sigma_max}"
        return None

    return Item(kind=f"masks-{dim}", run=lambda: fock.gaussian_decomposition(params),
                check=check, inputs=(params,))


def _mc_item(dim, std, superposed):
    params = fock.FockParams(dim=dim, std_dev=std, mc_samples=MC_SAMPLES, seed=MC_SEED)
    vec = np.zeros(dim, dtype=complex)
    vec[: 2 if superposed else 1] = np.sqrt(0.5) if superposed else 1.0
    rho = mc.DensityMatrix(np.outer(vec, vec.conj()))
    return Item(
        kind=f"mc-{dim}-{'superposed' if superposed else 'vacuum'}",
        run=lambda: fock.compare_decomposition_to_mc(params, rho),
        check=lambda out: None if out.ok else f"MC disagrees, worst ratio {out.worst_ratio!r}",
        inputs=(params, rho),
    )


def setup_gaussian(seed, workdir):
    """gaussian_decomposition over dim 16-64 (quadrature: laguerre/laggauss)
    and compare_decomposition_to_mc at dim 8 and 16 (Monte Carlo sampling)."""
    rng = np.random.default_rng(seed)

    def std():
        return float(STD_DEVS[rng.integers(len(STD_DEVS))])

    return [
        _gaussian_item(16, std()), _mc_item(8, std(), False), _gaussian_item(40, std()),
        _gaussian_item(32, std()), _gaussian_item(48, std()), _gaussian_item(24, std()),
        _gaussian_item(64, std()), _gaussian_item(40, std()), _mc_item(8, std(), True),
        _gaussian_item(16, std()), _gaussian_item(48, std()), _mc_item(16, std(), True),
        _gaussian_item(24, std()), _gaussian_item(32, std()), _gaussian_item(48, std()),
        _gaussian_item(40, std()), _gaussian_item(24, std()),
    ]


# ---------------------------------------------------------------------------
# cli: every subcommand as a subprocess


def _matrix_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "data": [[float(x.real), float(x.imag)] for x in mat.reshape(-1)]}


def _channel_json(chan):
    return {"dim_in": chan.dim_in, "dim_out": chan.dim_out,
            "kraus": [_matrix_json(k) for k in chan.kraus]}


def write_cli_inputs(rng, workdir):
    """Generated input files, written with the standard json module."""
    workdir.mkdir(parents=True, exist_ok=True)
    n = 16
    spec = integer_spectrum(n)
    files = {
        "dense16.json": _channel_json(gen.random_covariant(spec, rng)),
        "spectrum16.json": {"energies": [float(x) for x in spec.energies], "match_tol": 0.0},
        "mask16.json": _matrix_json(gen.random_unit_diagonal_mask(n, rng)),
    }
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj), encoding="utf-8")
    damping = json.loads((FIXTURES / "amplitude_damping_0.3.json").read_text())
    damping["kraus"][0]["data"][0][0] = float("nan")
    (workdir / "nan_channel.json").write_text(json.dumps(damping), encoding="utf-8")
    (workdir / "malformed.json").write_text('{"dim_in": 2, "kraus": [', encoding="utf-8")


def run_cli_subprocess(argv, env_extra):
    env = dict(os.environ, **env_extra)
    proc = subprocess.run([sys.executable, "-m", "covchan.cli", *argv],
                          capture_output=True, env=env, cwd=REPO, timeout=120)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv, env_extra):
    saved = {k: os.environ.get(k) for k in env_extra}
    os.environ.update(env_extra)
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except Exception:  # an uncaught exception is a traceback: exit 1
                code = 1
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue().encode("utf-8")


def _check_cli_content(argv, stdout):
    """Spot checks on the first output of a successful JSON subcommand."""
    if "--format" in argv:
        return None
    report = json.loads(stdout)
    cmd = argv[0]
    if cmd == "decompose":
        if report["reconstruction_choi_distance"] > ROUND_TRIP_TOL:
            return "decompose round-trip distance above tolerance"
        if max(abs(x - 1.0) for x in report["diagonal_sums"]) > DIAG_SUM_TOL:
            return "decompose diagonal sums differ from 1"
    elif cmd == "capacity" and report["verify_hqc_difference"] > HQC_TOL:
        return "capacity HQC difference above tolerance"
    elif cmd == "gaussian":
        std = float(argv[argv.index("--std-dev") + 1])
        m0 = next(m for m in report["masks"] if m["sigma"] == 0.0)
        if abs(m0["mask"]["data"][0][0] - 1.0 / (1.0 + 2.0 * std * std)) > CLOSED_FORM_TOL:
            return "gaussian M0(0,0) differs from the closed form"
    elif cmd == "mc-gaussian" and not report["ok"]:
        return "mc-gaussian reports disagreement"
    return None


class CliOracle:
    """Exit code as documented; stdout identical to the first call of the argv."""

    def __init__(self):
        self.first = {}

    def check(self, key, argv, expected, out):
        code, stdout = out
        if code != expected:
            return f"exit {code}, documented {expected}"
        digest = hashlib.sha256(stdout).hexdigest()
        if key not in self.first:
            self.first[key] = digest
            if code == 0:
                return _check_cli_content(argv, stdout)
            return None
        if self.first[key] != digest:
            return "stdout differs from the first invocation"
        return None


# Invocations that end in a traceback (exit 1) where the documented exit code
# is 2.  They stay in the mix and count as failures until fixed.
KNOWN_DEFECTS = ("COVCHAN_SEED=abc", "gaussian --dim 1", "gaussian --std-dev -1",
                 "channel JSON containing NaN")


def setup_cli(seed, workdir):
    """Every subcommand as a `python -m covchan.cli` subprocess: committed
    fixtures, generated files (a dense n = 16 channel, an n = 16 mask) and
    error inputs, each with its documented exit code."""
    rng = np.random.default_rng(seed)
    write_cli_inputs(rng, workdir)
    fx = {name: str(FIXTURES / f"{name}.json") for name in (
        "amplitude_damping_0.3", "amplitude_damping_0.5", "hadamard_gate_channel",
        "mask_c_sqrt_half", "shift_mixture_channel", "spectrum_2level",
        "spectrum_4level", "phi0_4level")}
    gen_file = {name: str(workdir / f"{name}.json") for name in (
        "dense16", "spectrum16", "mask16", "nan_channel", "malformed")}

    def std():
        return repr(float(STD_DEVS[rng.integers(len(STD_DEVS))]))

    # (label, argv, documented exit code, extra environment, known defect).
    # The four known defects sit at evenly spaced places in the cycle, so a
    # run that stops part-way through a cycle keeps about the cycle's share.
    calls = [
        ("check-dense16", ["check", gen_file["dense16"], gen_file["spectrum16"]], 0, {}, None),
        ("decompose-fixture", ["decompose", fx["amplitude_damping_0.3"],
                               fx["spectrum_2level"]], 0, {}, None),
        ("gaussian-dim-1", ["gaussian", "--std-dev", std(), "--dim", "1"], 2, {},
         KNOWN_DEFECTS[1]),
        ("capacity-mask16", ["capacity", gen_file["mask16"]], 0, {}, None),
        ("gaussian-48-json", ["gaussian", "--std-dev", std(), "--dim", "48"], 0, {}, None),
        ("not-covariant", ["decompose", fx["hadamard_gate_channel"],
                           fx["spectrum_2level"]], 1, {}, None),
        ("check-nan", ["check", gen_file["nan_channel"], fx["spectrum_2level"]], 2, {},
         KNOWN_DEFECTS[3]),
        ("timing-fixture", ["timing", fx["shift_mixture_channel"], fx["spectrum_4level"],
                            "--phi0", fx["phi0_4level"], "--s", repr(np.pi), "--N", "2"],
         0, {}, None),
        ("mc-gaussian-8", ["mc-gaussian", "--std-dev", std(), "--dim", "8",
                           "--seed", str(MC_SEED)], 0, {}, None),
        ("missing-file", ["check", str(workdir / "missing.json"), fx["spectrum_2level"]],
         2, {}, None),
        ("decompose-dense16", ["decompose", gen_file["dense16"], gen_file["spectrum16"]],
         0, {}, None),
        ("gaussian-std-dev-negative", ["gaussian", "--std-dev", "-1", "--dim", "8"], 2, {},
         KNOWN_DEFECTS[2]),
        ("capacity-fixture", ["capacity", fx["mask_c_sqrt_half"]], 0, {}, None),
        ("malformed-json", ["check", gen_file["malformed"], fx["spectrum_2level"]],
         2, {}, None),
        ("gaussian-48-csv", ["gaussian", "--std-dev", std(), "--dim", "48",
                             "--format", "csv"], 0, {}, None),
        ("seed-env-abc", ["mc-gaussian", "--std-dev", std(), "--dim", "8"], 2,
         {"COVCHAN_SEED": "abc"}, KNOWN_DEFECTS[0]),
        ("unknown-flag", ["gaussian", "--std-dev", std(), "--dim", "8", "--bogus"],
         2, {}, None),
        ("check-fixture", ["check", fx["amplitude_damping_0.5"], fx["spectrum_2level"]],
         0, {}, None),
    ]
    oracle = CliOracle()
    items = []
    for label, argv, expected, env_extra, defect in calls:
        key = (tuple(argv), tuple(sorted(env_extra.items())))
        items.append(Item(
            kind=f"cli-{label}",
            run=lambda a=argv, e=env_extra: run_cli_subprocess(a, e),
            run_in_process=lambda a=argv, e=env_extra: run_cli_in_process(a, e),
            check=lambda out, k=key, a=argv, x=expected: oracle.check(k, a, x, out),
            inputs=(argv, env_extra),
            known_defect=defect,
            expected_exit=expected,
        ))
    return items


WORKLOADS = {
    "decompose": setup_decompose,
    "bounds": setup_bounds,
    "gaussian": setup_gaussian,
    "cli": setup_cli,
}

# Workloads whose items run in child processes; their peak memory is the
# children's.
SUBPROCESS_WORKLOADS = ("cli",)

# Seconds one cycle of each workload took when the benchmark was written
# (2-vCPU x86_64 VM, OpenBLAS 0.3.31 at one thread).  A run makes
# round(seconds / CYCLE_SECONDS) whole cycles, at least one.  It lasts about
# --seconds at that commit, always runs the stated mix, and does the same
# work on every commit, so the tail percentile stays comparable.
CYCLE_SECONDS = {"decompose": 5.3, "bounds": 3.9, "gaussian": 7.9, "cli": 17.0}
