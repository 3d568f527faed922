"""Command-line front end.

Subcommands: check, decompose, capacity, timing, gaussian, mc-gaussian.
All reports are emitted as JSON (floats at 17 significant digits) or CSV;
exit codes are 0 for success, 1 for property violations, 2 for usage or
parse errors.  A reader that closes stdout early (``covchan ... | head``)
ends the output quietly: the rest of the report is dropped, any ``--out``
file is still written, and the subcommand's own exit code is returned.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import capacity as cap
from . import channels as mc
from . import covariant as cov
from . import fock
from . import serialize as ser
from . import timing as tim
from .errors import (
    CovchanError,
    NotCovariant,
    NotDensityMatrix,
    NotPeriodic,
    NotReliableTiming,
    ParseError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _load_channel(path):
    return ser.channel_from_json(ser.load_json(path))


def _load_spectrum(path):
    return ser.spectrum_from_json(ser.load_json(path))


def _print(text: str) -> None:
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so that the flush at
        # interpreter shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, payload) -> None:
    text = ser.dumps(payload)
    _print(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _matrix_csv_lines(name, mat):
    mat = np.asarray(mat, dtype=complex)
    header = "matrix,row," + ",".join(
        f"re{c},im{c}" for c in range(mat.shape[1])
    )
    lines = [header]
    for rix, row in enumerate(mat):
        cells = ",".join(f"{x.real:.17g},{x.imag:.17g}" for x in row)
        lines.append(f"{name},{rix},{cells}")
    return lines


def cmd_check(args) -> int:
    channel = _load_channel(args.channel)
    spectrum = _load_spectrum(args.spectrum)
    report = mc.is_cptp(channel)
    defect = cov.covariance_defect(channel, spectrum)
    _emit(args, {
        "tp_defect": report.tp_defect,
        "cp_defect": report.cp_defect,
        "covariance_defect": defect,
        "tolerance": args.tol,
    })
    ok = max(report.tp_defect, report.cp_defect, defect) <= args.tol
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_decompose(args) -> int:
    channel = _load_channel(args.channel)
    spectrum = _load_spectrum(args.spectrum)
    try:
        decomp = cov.decompose(channel, spectrum, tol=args.tol)
    except NotCovariant as exc:
        print(f"not covariant: defect {exc.defect:.17g} > tol {exc.tol:.17g}",
              file=sys.stderr)
        return EXIT_VIOLATION
    diag_sum = np.zeros(spectrum.dim)
    for _, mask in decomp.sectors:
        diag_sum += np.real(np.diag(mask.mask))
    recon = cov.reconstruct(decomp)
    dist = float(np.linalg.norm(
        mc.choi_of(recon).matrix - mc.choi_of(channel).matrix
    ))
    payload = ser.decomposition_to_json(decomp)
    payload["diagonal_sums"] = [float(x) for x in diag_sum]
    payload["projection_defect"] = decomp.projection_defect
    payload["reconstruction_choi_distance"] = dist
    _emit(args, payload)
    return EXIT_OK


def cmd_capacity(args) -> int:
    obj = ser.load_json(args.input)
    if isinstance(obj, dict) and "kraus" in obj:
        channel = ser.channel_from_json(obj)
        mask = None
    else:
        mask = ser.matrix_from_json(obj)
        channel = cap.hadamard_channel(mask)
    n = channel.dim_in
    if args.input_state == "maximally-mixed":
        rho = mc.DensityMatrix(np.eye(n) / n)
    else:
        mat = ser.matrix_from_json(ser.load_json(args.input_state))
        if 1 in mat.shape:  # pure-state vector file
            vec = mat.reshape(-1)
            mat = np.outer(vec, vec.conj())
        rho = mc.DensityMatrix(mat)
    try:
        coh = cap.coherent_information(channel, rho)
    except NotDensityMatrix as exc:
        print(f"channel output is not a state: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    payload = {
        "coherent_information_bits": coh,
        "hadamard_bound_bits": None if mask is None else cap.hadamard_bound(mask, n),
        "dim": n,
    }
    if mask is not None:
        payload["verify_hqc_difference"] = cap.verify_hqc(mask, n)
    _emit(args, payload)
    return EXIT_OK


def cmd_timing(args) -> int:
    channel = _load_channel(args.channel)
    spectrum = _load_spectrum(args.spectrum)
    phi0 = ser.vector_from_json(ser.load_json(args.phi0))
    try:
        report = tim.timing_channel(channel, spectrum, phi0, args.s, args.N, tol=args.tol)
    except NotReliableTiming as exc:
        print(f"not reliable timing: orthogonality defect {exc.defect:.17g}",
              file=sys.stderr)
        return EXIT_VIOLATION
    except NotPeriodic as exc:
        print(f"not periodic: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(args, {
        "N": report.N,
        "s": report.s,
        "v": [[x.real, x.imag] for x in report.v],
        "q": [float(x) for x in report.q],
        "bound_bits": report.bound,
        "orthogonality_defect": report.orthogonality_defect,
    })
    return EXIT_OK


def _fock_params(args, mc_samples=1, seed=0) -> fock.FockParams:
    return fock.FockParams(
        dim=args.dim,
        std_dev=args.std_dev,
        sigma_max=args.sigma_max,
        quad_points=args.quad_points,
        mc_samples=mc_samples,
        seed=seed,
    )


def cmd_gaussian(args) -> int:
    decomp = fock.gaussian_decomposition(_fock_params(args))
    if args.format == "csv":
        lines = []
        for m in decomp.masks:
            lines.extend(_matrix_csv_lines(f"mask_sigma_{int(m.sigma)}", m.mask))
        _print("\n".join(lines))
        return EXIT_OK
    _emit(args, {
        "dim": decomp.params.dim,
        "std_dev": decomp.params.std_dev,
        "sigma_max": decomp.params.sigma_max,
        "quad_points": decomp.params.quad_points,
        "masks": [
            {"sigma": m.sigma, "mask": ser.matrix_to_json(m.mask)}
            for m in decomp.masks
        ],
        "truncation_defect": [float(x) for x in decomp.truncation_defect],
    })
    return EXIT_OK


def cmd_mc_gaussian(args) -> int:
    params = _fock_params(args, mc_samples=args.samples, seed=args.seed)
    vac = np.zeros((params.dim, params.dim), dtype=complex)
    vac[0, 0] = 1.0
    rho = mc.DensityMatrix(vac)
    report = fock.compare_decomposition_to_mc(params, rho)
    result = report.sampled
    if args.format == "csv":
        lines = _matrix_csv_lines("mc_mean", result.mean)
        lines.extend(_matrix_csv_lines("mc_stderr", result.standard_error.astype(complex)))
        _print("\n".join(lines))
        return EXIT_OK if report.ok else EXIT_VIOLATION
    _emit(args, {
        "dim": params.dim,
        "std_dev": params.std_dev,
        "samples": params.mc_samples,
        "seed": params.seed,
        "max_entry_deviation": report.max_entry_deviation,
        "max_allowed": report.max_allowed,
        "worst_ratio": report.worst_ratio,
        "ok": report.ok,
        "mc_mean": ser.matrix_to_json(result.mean),
    })
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covchan",
        description="Decompose and analyze time-covariant quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate CPTP and covariance of a channel")
    p.add_argument("channel")
    p.add_argument("spectrum")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="canonical sector decomposition")
    p.add_argument("channel")
    p.add_argument("spectrum")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("capacity", help="coherent information / Hadamard bound")
    p.add_argument("input", help="channel file or unit-diagonal mask file")
    p.add_argument("--input-state", dest="input_state", default="maximally-mixed",
                   help="'maximally-mixed' or a state file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("timing", help="timing-channel capacity bound")
    p.add_argument("channel")
    p.add_argument("spectrum")
    p.add_argument("--phi0", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("gaussian", help="Gaussian channel sector masks")
    p.add_argument("--std-dev", dest="std_dev", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sigma-max", dest="sigma_max", type=int, default=0)
    p.add_argument("--quad-points", dest="quad_points", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("mc-gaussian", help="Monte Carlo vs decomposition check")
    p.add_argument("--std-dev", dest="std_dev", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sigma-max", dest="sigma_max", type=int, default=0)
    p.add_argument("--quad-points", dest="quad_points", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    # A string default goes through type=int, so a bad value is a usage error.
    p.add_argument("--seed", type=int, default=os.environ.get("COVCHAN_SEED", "0"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mc_gaussian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except CovchanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
