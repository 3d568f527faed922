"""Command-line front end.

Subcommands: check, decompose, capacity, timing, gaussian, mc-gaussian.
All reports are emitted as JSON (floats at 17 significant digits) or CSV;
exit codes are 0 for success, 1 for property violations, 2 for usage or
parse errors.  ``main`` maps the library's violations (NotCovariant,
NotPeriodic, NotReliableTiming) to 1 and its other errors to 2, each with
one line on stderr; a subcommand returns only its own verdict (check,
mc-gaussian, and capacity's output that is not a state).  An input file that
cannot be read (a directory, bytes that are not UTF-8, nesting deeper than
the JSON parser recurses) or that holds a NaN, Infinity or -Infinity token,
anywhere, is a parse error that names it; a missing one prints "file not
found".

Start-up pays only for the subcommand that runs: at module level this file
imports argparse, os, sys and the numpy-free ``errors``, and each ``cmd_*``
first reads every input file it names (``_read``, by ``inputs.load_json``) or checks the
Gaussian parameters' ranges (``inputs.check_fock_params`` and the mask cap
``inputs.check_mask_dim``), timing then its orbit length
(``inputs.check_orbit_length``), all numpy-free, and only then imports the
library modules it uses.  So every argparse refusal (an unknown flag, a missing
option, a non-integer --seed or COVCHAN_SEED, --help) and every input refusal of
the front door (a missing, unreadable or malformed file, a non-finite token, a
Gaussian parameter out of range or a dim above the mask cap, a timing --N out of
range) exits before numpy is imported.  A file is read whole before any is
interpreted, so a missing or malformed later file is reported before what is
wrong inside an earlier one.  check and decompose never load fock, timing or capacity, and
gaussian never loads timing or capacity.

The BLAS thread count can change the last bits of a report, so ``main`` sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy
loads, unless the environment already sets them: the same input gives the same
bytes on any host.  Called in a process that has loaded numpy already, it
leaves the environment as it is.

Every report goes through one writer (``_write``) that streams it in pieces
to stdout and to the ``--out`` file: a JSON report comes from
``serialize.iter_dumps``, a CSV report one matrix at a time, and the masks of
``gaussian`` and ``decompose`` are made dense one at a time as they are
written, so a report holds one mask and its text, never all of them.  The
bytes are those of formatting the whole report at once.

``--out`` is opened before the first byte is written: if it cannot be opened
(a directory, a missing folder, no permission) the subcommand prints one line
on stderr and exits 2 with nothing on stdout; an error while writing it (a
full disk) prints one line and exits 2 too, after part of the report; a
subcommand that ends without a report does not create it.  A reader that closes stdout early
(``covchan ... | head``) ends the output quietly: the rest of the report is
dropped, any ``--out`` file is still written in full, and the subcommand's
own exit code is returned.  Any other error on stdout (a full device) drops
the rest of the report there as well and writes ``--out`` in full, then
prints one line on stderr and exits 2.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

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


def _read(*paths):
    """The JSON object of each path.  Every file is parsed (inputs.load_json)
    before the caller imports numpy, so a refused file costs no import."""
    from . import inputs

    return [inputs.load_json(path) for path in paths]


def _silence_stdout() -> None:
    """The reader is gone: point stdout at devnull, so that the flush at
    interpreter shutdown does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write(args, pieces) -> None:
    """Write a report, piece by piece and then a newline, to stdout and to the
    --out file if one is given.  The file is opened before the first byte is
    written, so a file that cannot be opened leaves stdout empty; once stdout
    fails (the reader closed it, or the device is full) the pieces go on to
    the file alone.  An OSError on the file, or one on stdout other than a
    closed pipe, is a usage error."""
    path = getattr(args, "out", None)
    try:
        copy = open(path, "w", encoding="utf-8") if path else None
    except OSError as exc:
        raise CovchanError(f"cannot open --out file {path!r}: {exc.strerror}") from exc
    stdout, lost = sys.stdout, None
    try:
        for piece in chain(pieces, ["\n"]):
            if stdout is not None:
                try:
                    stdout.write(piece)
                except OSError as exc:
                    _silence_stdout()
                    stdout, lost = None, exc
            if copy is None and stdout is None:
                break
            if copy is not None:
                try:
                    copy.write(piece)
                except OSError as exc:
                    raise CovchanError(f"cannot write --out file {path!r}: {exc.strerror}") from exc
    finally:
        if copy is not None:
            try:
                copy.close()  # flushes: a full disk shows here at the latest
            except OSError as exc:
                raise CovchanError(f"cannot write --out file {path!r}: {exc.strerror}") from exc
    if stdout is not None:
        try:
            stdout.flush()
        except OSError as exc:
            _silence_stdout()
            lost = exc
    if lost is not None and not isinstance(lost, BrokenPipeError):
        raise CovchanError(f"cannot write to stdout: {lost.strerror}") from lost


def _emit(args, payload) -> None:
    from . import serialize as ser

    _write(args, ser.iter_dumps(payload))


_CSV_PAIRS = ("%.17g,%.17g", "%.17g,0", "0,%.17g", "0,0")  # as serialize._JSON_PAIRS


def _matrix_csv(name, mat) -> str:
    """The CSV text of one matrix: its header line and a line per row."""
    import numpy as np

    from . import serialize as ser

    mat = np.ascontiguousarray(mat, dtype=complex)
    rows, cols = mat.shape
    header = "matrix,row," + ",".join(f"re{c},im{c}" for c in range(cols))
    if not rows:
        return header
    # One %-template over the (re, im)-interleaved float view, an exact +0.0 as "0".
    cells, values = ser._pair_cells(mat.view(float).reshape(-1, 2), _CSV_PAIRS)
    body = "\n".join(f"{name},{rix}," + ",".join(cells[rix * cols:(rix + 1) * cols])
                     for rix in range(rows))
    return header + "\n" + body % values


def _csv_pieces(named_matrices):
    """The CSV text of each (name, matrix), one piece per matrix."""
    sep = ""
    for name, mat in named_matrices:
        yield sep + _matrix_csv(name, mat)
        sep = "\n"


def cmd_check(args) -> int:
    channel, spectrum = _read(args.channel, args.spectrum)
    from . import channels as mc
    from . import covariant as cov
    from . import serialize as ser

    channel, spectrum = ser.channel_from_json(channel), ser.spectrum_from_json(spectrum)
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
    channel, spectrum = _read(args.channel, args.spectrum)
    from . import covariant as cov
    from . import serialize as ser

    channel, spectrum = ser.channel_from_json(channel), ser.spectrum_from_json(spectrum)
    decomp = cov.decompose(channel, spectrum, tol=args.tol)
    dist = cov._choi_distance(channel, cov.reconstruct(decomp), spectrum)
    payload = ser._decomposition_object(decomp)
    payload["diagonal_sums"] = [float(x) for x in decomp.diagonal_sums()]
    payload["projection_defect"] = decomp.projection_defect
    payload["reconstruction_choi_distance"] = dist
    _emit(args, payload)
    return EXIT_OK


def cmd_capacity(args) -> int:
    state_path = [] if args.input_state == "maximally-mixed" else [args.input_state]
    obj, *state = _read(args.input, *state_path)  # state: [] or [its JSON]
    import numpy as np

    from . import capacity as cap
    from . import channels as mc
    from . import serialize as ser

    if isinstance(obj, dict) and "kraus" in obj:
        channel = ser.channel_from_json(obj)
        mask = None
        n = channel.dim_in
    else:
        mask = ser.matrix_from_json(obj)
        n = mask.shape[0]
        mask, vals = cap._check_mask(mask, n)  # the one check; its Hermitian part is read on
    rho = None  # the maximally mixed state, which the mask route takes as None
    if state:
        mat = ser.matrix_from_json(state[0])
        if 1 in mat.shape:  # pure-state vector file
            vec = mat.reshape(-1)
            mat = np.outer(vec, vec.conj())
        rho = mc.DensityMatrix(mat)
    elif mask is None:
        rho = mc.DensityMatrix(np.eye(n) / n)
    try:
        if mask is None:
            coh, bound = cap.coherent_information(channel, rho), None
        else:
            coh, bound, hqc = cap._mask_numbers(mask, vals, rho)
    except NotDensityMatrix as exc:
        print(f"channel output is not a state: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    payload = {"coherent_information_bits": coh, "hadamard_bound_bits": bound, "dim": n}
    if mask is not None:  # verify_hqc's number, from the one check
        payload["verify_hqc_difference"] = hqc
    _emit(args, payload)
    return EXIT_OK


def cmd_timing(args) -> int:
    channel, spectrum, phi0 = _read(args.channel, args.spectrum, args.phi0)
    from . import inputs

    inputs.check_orbit_length(args.N)  # timing_channel's first check, before numpy loads
    from . import serialize as ser
    from . import timing as tim

    channel, spectrum = ser.channel_from_json(channel), ser.spectrum_from_json(spectrum)
    phi0 = ser.vector_from_json(phi0)
    report = tim.timing_channel(channel, spectrum, phi0, args.s, args.N, tol=args.tol)
    _emit(args, {
        "N": report.N,
        "s": report.s,
        "v": [[x.real, x.imag] for x in report.v],
        "q": [float(x) for x in report.q],
        "bound_bits": report.bound,
        "orthogonality_defect": report.orthogonality_defect,
    })
    return EXIT_OK


def _fock_params(args, mc_samples=1, seed=0):
    """FockParams of args, whose ranges are checked (inputs.check_fock_params,
    FockParams' own rule, then the mask cap of gaussian_decomposition, which
    both subcommands call) before fock and numpy load."""
    from . import inputs

    values = dict(dim=args.dim, std_dev=args.std_dev, sigma_max=args.sigma_max,
                  mc_samples=mc_samples, seed=seed)
    inputs.check_fock_params(**values)
    inputs.check_mask_dim(args.dim)
    from . import fock

    return fock.FockParams(**values)


def cmd_gaussian(args) -> int:
    params = _fock_params(args)
    from . import fock
    from . import serialize as ser

    decomp = fock.gaussian_decomposition(params)
    if args.format == "csv":  # each mask made as its piece is written
        masks = (m for _, m in decomp._pairs())
        _write(args, _csv_pieces((f"mask_sigma_{int(m.sigma)}", m.mask) for m in masks))
        return EXIT_OK
    _emit(args, {
        "dim": decomp.params.dim,
        "std_dev": decomp.params.std_dev,
        "sigma_max": decomp.params.sigma_max,
        "masks": ser._decomposition_object(decomp)["sectors"],
        "truncation_defect": [float(x) for x in decomp.truncation_defect],
    })
    return EXIT_OK


def cmd_mc_gaussian(args) -> int:
    params = _fock_params(args, mc_samples=args.samples, seed=args.seed)
    import numpy as np

    from . import channels as mc
    from . import fock
    from . import serialize as ser

    vac = np.zeros((params.dim, params.dim), dtype=complex)
    vac[0, 0] = 1.0
    rho = mc.DensityMatrix(vac)
    report = fock.compare_decomposition_to_mc(params, rho)
    result = report.sampled
    if args.format == "csv":
        _write(args, _csv_pieces([("mc_mean", result.mean),
                                  ("mc_stderr", result.standard_error.astype(complex))]))
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
        "mc_mean": ser._matrix_object(result.mean),
    })
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _tolerance(text: str) -> float:
    """A --tol value: a finite non-negative number (NaN would switch checks off)."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covchan",
        description="Decompose and analyze time-covariant quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    files = argparse.ArgumentParser(add_help=False, parents=[out])
    files.add_argument("channel")
    files.add_argument("spectrum")
    gauss = argparse.ArgumentParser(add_help=False, parents=[out])
    gauss.add_argument("--std-dev", dest="std_dev", type=float, required=True)
    gauss.add_argument("--dim", type=int, required=True)
    gauss.add_argument("--sigma-max", dest="sigma_max", type=int, default=0)
    gauss.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("check", parents=[files], help="validate CPTP and covariance of a channel")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", parents=[files], help="canonical sector decomposition")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("capacity", parents=[out], help="coherent information / Hadamard bound")
    p.add_argument("input", help="channel file or unit-diagonal mask file")
    p.add_argument("--input-state", dest="input_state", default="maximally-mixed",
                   help="'maximally-mixed' or a state file")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("timing", parents=[files], help="timing-channel capacity bound")
    p.add_argument("--phi0", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("gaussian", parents=[gauss], help="Gaussian channel sector masks")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("mc-gaussian", parents=[gauss], help="Monte Carlo vs decomposition check")
    p.add_argument("--samples", type=int, default=100_000)
    # A string default goes through type=int, so a bad value is a usage error.
    p.add_argument("--seed", type=int, default=os.environ.get("COVCHAN_SEED", "0"))
    p.set_defaults(func=cmd_mc_gaussian)

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # BLAS reads them when numpy loads; a set value wins
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NotCovariant as exc:
        print(f"not covariant: defect {exc.defect:.17g} > tol {exc.tol:.17g}", file=sys.stderr)
        return EXIT_VIOLATION
    except NotReliableTiming as exc:
        print(f"not reliable timing: orthogonality defect {exc.defect:.17g}", file=sys.stderr)
        return EXIT_VIOLATION
    except NotPeriodic as exc:
        print(f"not periodic: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
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
