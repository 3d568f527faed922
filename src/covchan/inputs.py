"""Input reading and parameter-range checks that need no numpy.

The CLI runs these before it imports numpy or any library module, so a
refused input costs the interpreter, argparse and json and nothing more.
``load_json`` refuses a file that is missing or cannot be read, bytes that are
not UTF-8, malformed JSON, and the NaN, Infinity and -Infinity tokens: json
calls its parse_constant hook for those tokens alone, so the refusal costs
nothing per number.  A number literal past the double range (1e999) parses to
inf and is left to the readers' finiteness checks.  ``check_fock_params`` is
the one range rule of the Gaussian channel's parameters; fock.FockParams
applies it too.
"""
from __future__ import annotations

import math
import sys

from .errors import InvalidParameter, ParseError

# Largest accepted dim: an unbounded dim would ask for terabytes in the
# spectrum's n^2 sector pairs and the Monte Carlo's dim x dim arrays.
MAX_DIM = 1024


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


def check_fock_params(dim, std_dev, sigma_max, mc_samples, seed) -> int:
    """Refuse Gaussian-channel parameters out of range with InvalidParameter,
    checked in this order; return sigma_max, with 0 read as dim - 1.

    N = 2 std_dev^2, the mean photon number the channel adds, must be a finite
    normal float, so that the log N and 1 / N of the masks are finite too;
    * overflows to inf where ** raises."""
    if not 2 <= dim <= MAX_DIM:
        raise InvalidParameter(f"dim must lie in [2, {MAX_DIM}]")
    two_var = 2.0 * std_dev * std_dev
    if not (std_dev > 0.0 and sys.float_info.min <= two_var < math.inf):
        raise InvalidParameter("std_dev must be positive with 2 std_dev^2 a finite normal float")
    if sigma_max == 0:
        sigma_max = dim - 1
    if not 0 < sigma_max < dim:
        raise InvalidParameter("sigma_max must lie in [1, dim)")
    if mc_samples < 1:
        raise InvalidParameter("mc_samples must be positive")
    if not 0 <= seed < 2**128:  # the Philox key range
        raise InvalidParameter("seed must lie in [0, 2**128)")
    return sigma_max
