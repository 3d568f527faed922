"""JSON wire formats shared by the library, the CLI, and the fixtures.

Complex matrices are objects {"rows": n, "cols": m, "data": [[re, im], ...]}
with entries in row-major order; all numbers are IEEE doubles.  Channels hold
their Kraus list, spectra their energy list, and decompositions serialize the
masks only: partial shifts are rebuilt from sigma and the spectrum.  A mask is
written as its dim x dim view.  The reader refuses the structural faults
first, in file order: a sigma that is no energy difference or is listed twice,
a mask of the wrong shape and support outside the domain.  It then lays the
domain blocks straight into the store (covariant._store_of_blocks), in the
spectrum's sector order, and runs the store's one check
(covariant._store_failure), which names the first mask that is not PSD in
that order by its cluster's sigma; the sectors read back carry the cluster's
sigma too.  A file the library wrote reads back bit for bit.

``iter_dumps`` writes JSON in pieces, with every float at 17 significant
digits (round-trip safe), and ``dumps`` is the pieces joined.  A dict yields
a piece per key and the pieces of its value; any other iterator (a generator
of masks, say) is written as a list, one piece per item, so that a report
never holds more than one item's text and the item itself.  A value is
formatted by dispatch on its exact type: a list of floats or of [float, float]
pairs, and a 1-d or 2-d float64 array (a matrix's "data" as its (rows * cols,
2) float view), in one pass with one %-template; other values go through an
isinstance chain (numpy scalars, bool before int, None, str, complex, tuples,
other arrays).  The text is that of formatting each float on its own.
"""
from __future__ import annotations

import json
import reprlib
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .channels import Channel
from .covariant import (SectorDecomposition, Spectrum, _store_failure, _store_of_blocks,
                        partial_shift)
from .errors import MaskNotPSD, ParseError


def _matrix_object(mat: np.ndarray) -> dict:
    """The matrix object with "data" as the (rows * cols, 2) float view that
    interleaves (re, im); iter_dumps writes it without building the pairs."""
    mat = np.ascontiguousarray(mat, dtype=complex)
    return {"rows": mat.shape[0], "cols": mat.shape[1], "data": mat.view(float).reshape(-1, 2)}


def matrix_to_json(mat: np.ndarray) -> dict:
    obj = _matrix_object(mat)
    obj["data"] = obj["data"].tolist()  # the [re, im] pairs
    return obj


def _check_dims(kind: str, names: str, *dims) -> None:
    """Refuse header dimensions that are not JSON integers >= 1 (no bool, no 1.5, no "2")."""
    if not all(type(d) is int and d >= 1 for d in dims):
        raise ParseError(f"{kind} {names} must be integers >= 1, "
                         f"got {', '.join(map(reprlib.repr, dims))}")


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = obj["rows"], obj["cols"]
        _check_dims("matrix", "rows and cols", rows, cols)
        data = obj["data"]
        if len(data) != rows * cols:
            raise ParseError(f"matrix data has {len(data)} entries, "
                             f"expected {reprlib.repr(rows * cols)}")
        flat = np.array([complex(re, im) for re, im in data  # a bool is left out, not read as 1
                         if type(re) is not bool and type(im) is not bool])
        if flat.size != rows * cols:
            raise ParseError("matrix entries must be numbers, not true or false")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ParseError("matrix contains NaN or Inf entries")
    return flat.reshape(rows, cols)


def vector_from_json(obj) -> np.ndarray:
    mat = matrix_from_json(obj)
    if 1 not in mat.shape:
        raise ParseError(f"expected a vector, got shape {mat.shape}")
    return mat.reshape(-1)


def channel_to_json(channel: Channel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [matrix_to_json(k) for k in channel.kraus],
    }


def channel_from_json(obj) -> Channel:
    try:
        kraus = tuple(matrix_from_json(k) for k in obj["kraus"])
        dim_in, dim_out = obj["dim_in"], obj["dim_out"]
        _check_dims("channel", "dim_in and dim_out", dim_in, dim_out)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed channel object: {exc}") from exc
    chan = Channel(kraus)
    if chan.dim_in != dim_in or chan.dim_out != dim_out:
        declared = ", ".join(map(reprlib.repr, (dim_in, dim_out)))
        raise ParseError(f"declared dims ({declared}) do not match Kraus shape "
                         f"({chan.dim_in}, {chan.dim_out})")
    return chan


def spectrum_to_json(spectrum: Spectrum) -> dict:
    return {
        "energies": [float(x) for x in spectrum.energies],
        "match_tol": float(spectrum.match_tol),
    }


def spectrum_from_json(obj) -> Spectrum:
    try:
        energies, match_tol = obj["energies"], obj.get("match_tol", 0.0)
        if type(energies) is not list or not all(type(x) in (int, float) for x in energies):
            raise ParseError("spectrum energies must be a list of numbers")  # no bool, no "1"
        if type(match_tol) not in (int, float):
            raise ParseError(f"spectrum match_tol must be a number, not {type(match_tol).__name__}")
        energies, match_tol = [float(x) for x in energies], float(match_tol)
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an int past any double
        raise ParseError(f"malformed spectrum object: {exc}") from exc
    return Spectrum(energies=np.array(energies), match_tol=match_tol)


def _decomposition_object(decomp: SectorDecomposition, matrix=_matrix_object) -> dict:
    """The decomposition object with "sectors" as a generator: each pair and
    its dense mask are made from the store as iter_dumps reaches them."""
    return {
        "spectrum": spectrum_to_json(decomp.spectrum),
        "sectors": ({"sigma": float(shift.sigma), "mask": matrix(mask.mask)}
                    for shift, mask in decomp._pairs()),
    }


def decomposition_to_json(decomp: SectorDecomposition) -> dict:
    obj = _decomposition_object(decomp, matrix_to_json)
    obj["sectors"] = list(obj["sectors"])
    return obj


def decomposition_from_json(obj) -> SectorDecomposition:
    try:
        spectrum = spectrum_from_json(obj["spectrum"])
        if not all(type(s["sigma"]) in (int, float) for s in obj["sectors"]):  # no bool, no "0"
            raise ParseError("sector sigma must be a number")
        raw = [(float(s["sigma"]), matrix_from_json(s["mask"])) for s in obj["sectors"]]
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an int past any double
        raise ParseError(f"malformed decomposition object: {exc}") from exc
    n, blocks = spectrum.dim, {}  # by cluster
    for sigma, mask in raw:
        shift = partial_shift(spectrum, sigma)
        if not shift.domain:
            raise ParseError(f"sigma {sigma!r} is not an energy difference of the spectrum")
        c = int(spectrum._cluster[shift.image[0] * n + shift.domain[0]])
        if c in blocks:
            raise ParseError(f"sigma {sigma!r} names a sector listed before")
        if mask.shape != (n, n):
            raise ParseError(f"sector {sigma!r}: mask shape {mask.shape} vs spectrum dim {n}")
        dom = np.ix_(shift.domain, shift.domain)
        if np.count_nonzero(mask) > np.count_nonzero(mask[dom]):
            raise MaskNotPSD(f"sector {sigma}: mask has support outside its domain")
        blocks[c] = mask[dom]
    clusters = sorted(blocks)  # the spectrum's sector order, which decompose and fock write
    store = _store_of_blocks(spectrum, clusters, [blocks[c] for c in clusters])
    failure = _store_failure(spectrum, store)
    if failure is not None:
        raise MaskNotPSD(failure)
    return SectorDecomposition._of_store(spectrum, store)


def load_json(path) -> object:
    """Parse a JSON file, turning syntax errors into ParseError with position.

    A missing file raises FileNotFoundError.  Any other file that cannot be
    read (a directory, no permission), text that is not UTF-8 and nesting
    deeper than the parser recurses are ParseErrors that name the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _format_list(items) -> str:
    """A list of floats, or of [float, float] pairs, in one %-template pass."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return ("[" + ", ".join(["%.17g"] * len(items)) + "]") % tuple(items)
    if kinds == {list} and set(map(len, items)) == {2}:
        flat = tuple(chain.from_iterable(items))
        if set(map(type, flat)) == {float}:
            return ("[" + ", ".join(["[%.17g, %.17g]"] * len(items)) + "]") % flat
    return "[" + ", ".join(map(_format, items)) + "]"


def _format_floats(arr: np.ndarray) -> str:
    """A 1-d or 2-d float64 array in one %-template pass."""
    text = "[" + ", ".join(["%.17g"] * arr.shape[-1]) + "]"
    if arr.ndim == 2:
        text = "[" + ", ".join([text] * arr.shape[0]) + "]"
    return text % tuple(arr.ravel().tolist())


def _format(value) -> str:
    kind = type(value)
    if kind is float:
        return f"{value:.17g}"
    if kind is list:
        return _format_list(value)
    if kind is np.ndarray and value.dtype == np.float64 and value.ndim in (1, 2):
        return _format_floats(value)
    if isinstance(value, (dict, Iterator)):
        return "".join(iter_dumps(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, complex):
        return _format([value.real, value.imag])
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(_format, value)) + "]"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)}")


def iter_dumps(value):
    """The JSON text of value in pieces: a dict a piece per key, each followed
    by the pieces of its value; another iterator a list of one piece per item;
    anything else one piece."""
    if isinstance(value, dict):
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{json.dumps(str(key))}: "
            yield from iter_dumps(item)
            sep = ", "
        yield "}" if sep == ", " else "{}"
    elif isinstance(value, Iterator):
        sep = "["
        for item in value:
            yield sep + _format(item)
            sep = ", "
        yield "]" if sep == ", " else "[]"
    else:
        yield _format(value)


def dumps(value) -> str:
    """Serialize to JSON with every float at 17 significant digits."""
    return "".join(iter_dumps(value))
