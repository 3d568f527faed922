"""Input reading and parameter-range checks that need no numpy.

The CLI runs these before it imports numpy or any library module, so a
refused input costs the interpreter, argparse and json and nothing more.
``load_json`` refuses a file that is missing or cannot be read, bytes that are
not UTF-8, malformed JSON, and the NaN, Infinity and -Infinity tokens: json
calls its parse_constant hook for those tokens alone, so the refusal costs
nothing per number.  A number literal past the double range (1e999) parses to
inf and is left to the readers' finiteness checks.  ``check_fock_params`` is
the one range rule of the Gaussian channel's parameters; fock.FockParams
applies it too.  ``check_mask_dim`` and ``check_orbit_length`` are the caps
of fock.gaussian_decomposition and of the timing orbit length, which those
modules apply and the CLI applies before they load.
"""
from __future__ import annotations

import math
import operator
import sys

from .errors import InvalidParameter, ParseError

# Largest accepted dim: an unbounded dim would ask for terabytes in the
# spectrum's n^2 sector pairs and the Monte Carlo's dim x dim arrays.
MAX_DIM = 1024
# Largest dim fock.gaussian_decomposition builds masks for.  The closed form has no
# limit of its own and the CLI reports stream one mask at a time, but past
# dim 186 the log-factorial factor loses accuracy (about 3e-13 relative at
# 186, growing with log (2 dim)!), and the quadrature oracle stops there; the
# cap stays until that accuracy is measured and bounded at larger dims.
MAX_MASK_DIM = 186
# Largest accepted timing orbit length, refused beyond before anything is allocated.
# It caps the lag sum's N x n phase table and the Fourier sum's N x D longdouble one,
# D the differences that carry weight (K Kraus operators, or at most n^2 - n + 1),
# 32 B an entry: 30 MiB at N = 4096 and D = 241 (n = 16 on an incommensurate spectrum).
MAX_N = 4096


def load_json(path) -> object:
    """Parse a JSON file, turning syntax errors into ParseError with position.

    A missing file raises FileNotFoundError.  Any other file that cannot be
    read (a directory, no permission), text that is not UTF-8, a NaN, Infinity
    or -Infinity token and nesting deeper than the parser recurses are
    ParseErrors that name the path."""
    import json  # here, so that check_fock_params alone does not load it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc

    def refuse(token):
        raise ParseError(f"{path}: invalid JSON: {token} is not a JSON number")

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _integer(name, value) -> int:
    """value read by operator.index, which a numpy integer passes and a float does
    not, or InvalidParameter naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None


def check_fock_params(dim, std_dev, sigma_max, mc_samples, seed) -> int:
    """Refuse Gaussian-channel parameters out of range or, for the counts and the
    seed, not integers, with InvalidParameter, checked in this order; return
    sigma_max, with 0 read as dim - 1.

    N = 2 std_dev^2, the mean photon number the channel adds, must be a finite
    normal float, so that the log N and 1 / N of the masks are finite too;
    * overflows to inf where ** raises."""
    if not 2 <= _integer("dim", dim) <= MAX_DIM:
        raise InvalidParameter(f"dim must lie in [2, {MAX_DIM}]")
    two_var = 2.0 * std_dev * std_dev
    if not (std_dev > 0.0 and sys.float_info.min <= two_var < math.inf):
        raise InvalidParameter("std_dev must be positive with 2 std_dev^2 a finite normal float")
    if _integer("sigma_max", sigma_max) == 0:
        sigma_max = dim - 1
    if not 0 < sigma_max < dim:
        raise InvalidParameter("sigma_max must lie in [1, dim)")
    if _integer("mc_samples", mc_samples) < 1:
        raise InvalidParameter("mc_samples must be positive")
    if not 0 <= _integer("seed", seed) < 2**128:  # the Philox key range
        raise InvalidParameter("seed must lie in [0, 2**128)")
    return sigma_max


def check_mask_dim(dim) -> None:
    """Refuse a Gaussian mask dim above MAX_MASK_DIM with InvalidParameter."""
    if dim > MAX_MASK_DIM:
        raise InvalidParameter(f"Gaussian masks need dim <= {MAX_MASK_DIM}, got {dim}")


def check_orbit_length(N) -> None:
    """Refuse a timing orbit length N that is not an integer in [1, MAX_N] with
    InvalidParameter."""
    if not 1 <= _integer("N", N) <= MAX_N:
        raise InvalidParameter(f"N must lie in [1, MAX_N = {MAX_N}]")
