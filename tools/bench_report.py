"""Peak memory and wall time of the CLI reports, written as one BENCH_*.json
file.

    python3 tools/bench_report.py --out BENCH_20.json \
        [--parent-src DIR --parent-label SHA] [--rounds 6] [--tier1]

Rows, each one `python -m covchan.cli` subprocess with OPENBLAS_NUM_THREADS=1
and PYTHONPATH set to the code under test, its stdout read through a pipe:
cli.gaussian --std-dev 0.5 as JSON and as CSV at dims 8, 48, 120 and 186
(every sector), and cli.decompose of a dense n = 16 random_covariant channel
on the integer spectrum (the benchmark's dense16 input, written with the
standard json module).  A row holds the median and interquartile range of
the wall time (ms) and of the child's peak resident set (rss_mb, from
wait4), and the SHA-256 of stdout, which must be the same in every round.
With --parent-src (the src directory of another checkout, e.g. one made by
git archive) the same rows are run on that code, labelled with
--parent-label, in passes that alternate with this checkout's ("change");
the JSON report at dim 186 runs on this checkout only (--with-dim-186-json),
because a report that holds every entry would take about 3 GB there.  With
--tier1 the wall time of one tier-1 run is recorded as tier1_wall_s.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

from benchlib import main

GAUSSIAN_DIMS = (8, 48, 120, 186)


def _run_cli(src: str, argv: list[str]) -> tuple[float, float, str]:
    """(wall ms, peak RSS in MB, SHA-256 of stdout) of one CLI run that must exit 0."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "covchan.cli", *argv],
                            stdout=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
        digest.update(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, digest.hexdigest()


# Writes the decompose input files into the folder argv[1], in a process of
# its own: a child's peak RSS counts the pages of the process that spawned it,
# so the worker itself never imports numpy.
WRITE_INPUTS = """
import json, os, sys
import numpy as np
from covchan import covariant as cov
from covchan import generate as gen

chan = gen.random_covariant(cov.Spectrum(np.arange(16.0)), np.random.default_rng(20))
files = {"dense16": {"dim_in": 16, "dim_out": 16, "kraus": [
             {"rows": 16, "cols": 16,
              "data": [[float(x.real), float(x.imag)] for x in k.reshape(-1)]}
             for k in chan.kraus]},
         "spectrum16": {"energies": list(range(16)), "match_tol": 0.0}}
for name, obj in files.items():
    with open(os.path.join(sys.argv[1], name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
"""


def _worker(src: str, rounds: int, with_186_json: bool = False) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", WRITE_INPUTS, tmp], check=True,
                       env=dict(os.environ, PYTHONPATH=src))
        cases = [("cli.decompose", "dense random_covariant, integer", 16,
                  ["decompose", os.path.join(tmp, "dense16.json"),
                   os.path.join(tmp, "spectrum16.json")])]
        for dim in GAUSSIAN_DIMS:
            for fmt in ("json", "csv"):
                if (dim, fmt) != (186, "json") or with_186_json:
                    cases.append(("cli.gaussian", fmt, dim, ["gaussian", "--std-dev", "0.5",
                                                             "--dim", str(dim), "--format", fmt]))
        rows = []
        for name, variant, n, argv in cases:
            runs = [_run_cli(src, argv) for _ in range(rounds)]
            digests = {sha for _, _, sha in runs}
            if len(digests) != 1:
                raise RuntimeError(f"{argv}: stdout differs between rounds")
            rows.append({"name": name, "variant": variant, "n": n,
                         "ms": [ms for ms, _, _ in runs], "rss_mb": [mb for _, mb, _ in runs],
                         "stdout_sha256": digests.pop()})
    return rows


if __name__ == "__main__":
    main(__file__, __doc__, _worker, change_only="--with-dim-186-json")
