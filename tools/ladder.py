"""Layer timings of the library on a size ladder, written as one BENCH_*.json file.

    python3 tools/ladder.py --out BENCH_46.json [--parent-src DIR --parent-label SHA] \
        [--rounds 9] [--tier1] [--only REGEX]

Each row of ROWS is a layer, a variant and a size n; --only keeps the rows
whose "name | variant | n" matches REGEX.  A worker process per code
(benchlib.worker_env: glibc's mmap threshold and one BLAS thread, both in the
report) times each row in passes that alternate between this checkout's code
("change") and, with --parent-src (the src of another checkout), that code.
A row's time is one call: the median, interquartile range and minimum over its
rounds, each timing enough calls to last ROUND_S.  A "cold" row calls its layer
on the channel and decomposition as built, what a call keeps on them dropped
before every call; a "warm" row, after a first call.  A row has the tracemalloc
peak of one call (peak_traced_mb); a cli.* row, one subprocess per round, its
wait4 peak RSS (rss_mb) and stdout SHA-256, the same in every round; these run
before the worker loads numpy, as a child's peak counts its parent's pages.  A
row whose builder meets a name that a code lacks (a private helper, or an oracle
of the tests/conftest.py beside its src) is absent for that code.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

from benchlib import ROOT, gauge_mixed, spectrum_energies, timing_mixture, worker_env

PASSES, ROUND_S = 3, 0.05
LADDER, DIMS, TIMING_NS = (4, 8, 16, 32, 64), (16, 32, 64, 120, 186), (2, 4, 6, 8, 12, 16)
# random_covariant diagonalises an n^2 x n^2 matrix; a Gaussian decomposition is std_dev 1.
FAMILIES = {"random_covariant": (4, 8, 16), "shift_mixture_k3": LADDER, "hadamard": LADDER,
            "reconstructed_gaussian": (16, 48), "gaussian": DIMS}
# The worker's src, whose library load binds, and main's folder of the dense16 input.
SRC, DENSE = str(ROOT / "src"), None
np = cap = mc = cov = fock = gen = ser = tim = None


def load(src: str) -> None:
    """Bind the library of src and its tests' oracles for the builders; numpy loads here."""
    global np, cap, mc, cov, fock, gen, ser, tim
    sys.path.insert(0, src)
    sys.path.append(str(Path(src).parent / "tests"))
    import numpy as np
    from covchan import capacity as cap, channels as mc, covariant as cov, fock
    from covchan import generate as gen, serialize as ser, timing as tim


def _on(*states, families=tuple(FAMILIES)[:4], max_n=64):
    """A row's variants on the families: (label, (family, spectrum, state), sizes)."""
    return [(", ".join(filter(None, (family, kind, state))), (family, kind, state),
             tuple(n for n in FAMILIES[family] if n <= max_n))
            for family in families
            for kind in (("integer",) if "gaussian" in family else ("integer", "sqrt_prime"))
            for state in states]


@lru_cache(maxsize=None)
def _family(family: str, kind: str, n: int) -> SimpleNamespace:
    """A channel at n levels (None for "gaussian"), its spectrum, its decomposition and a
    random state; built holds (object, its __dict__ as built) of the first and third."""
    energies, rng = dict(spectrum_energies(n))[kind], np.random.default_rng(n)
    spec, chan = cov.Spectrum(energies), None
    if family == "random_covariant":
        chan = gen.random_covariant(spec, rng)
    elif family == "shift_mixture_k3":
        chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (energies[1] - energies[0], 0.3),
                                              (energies[0] - energies[2], 0.2)]).channel
    elif family == "hadamard":
        chan = cap.hadamard_channel(gen.random_unit_diagonal_mask(n, rng))
    else:
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=n, std_dev=1.0))
        spec = decomp.spectrum
        chan = cov.reconstruct(decomp) if family == "reconstructed_gaussian" else None
    built = [] if chan is None else [(chan, dict(chan.__dict__))]
    decomp = decomp if chan is None else cov.decompose(chan, spec)
    return SimpleNamespace(chan=chan, spec=spec, decomp=decomp, rho=gen.random_state(n, rng),
                           built=[*built, (decomp, dict(decomp.__dict__))])


def _stage(stage):
    """The builder of a row on _on: stage(inputs) is the call, made cold or warm."""
    def build(arg, n):
        inputs = _family(*arg[:2], n)

        def reset():
            for obj, state in inputs.built:
                obj.__dict__.clear()
                obj.__dict__.update(state)

        reset()
        call = stage(inputs)
        return (lambda: (reset(), call())[1]) if arg[2] == "cold" else call
    return build


def _oracle(name):
    """A row's builder of a per-sector oracle of the tests beside the code's src."""
    return _stage(lambda c: partial(getattr(__import__("conftest"), name), c.chan, c.spec))


def _pipeline(c, tail=False):
    mc.is_cptp(c.chan)
    cov.covariance_defect(c.chan, c.spec)
    built = cov.decompose(c.chan, c.spec)
    return (cov.reconstruct(built), cov.shift_distribution(built, c.rho)) if tail else built


def _gram_certified(s, dim):
    tables = fock._gaussian_layout(dim, fock.FockParams(dim=dim, std_dev=s).sigma_max)
    factors = [fock._mask_chunk(orders, tables, 2.0 * s * s)[0] for orders in tables.chunks]
    return lambda: [mc._gram_certified(f, f.shape[-1]) for f in factors]


def _monte_carlo(kind, dim):
    vac, sup = np.eye(dim)[0], np.sqrt(0.5) * np.eye(dim)[:2].sum(axis=0)
    mat = {"|0>": np.outer(vac, vac), "|0> + |1>": np.outer(sup, sup),
           "rank 2": np.diag(np.r_[0.6, 0.4, np.zeros(dim - 2)])}[kind]
    params = fock.FockParams(dim=dim, std_dev=0.5, mc_samples=100_000, seed=1)
    return partial(fock.monte_carlo_channel, mc.DensityMatrix(mat + 0j), params)


def _timing(arg, N):
    """At N, step 2 pi / N: arg (gauge-mixed, is_reliable_timing) on the benchmark's bounds
    timing shape, or None for timing_channel at tol inf on an n = 16 shift mixture."""
    rng, s = np.random.default_rng(N), 2.0 * np.pi / N
    if arg is None:
        spec = cov.Spectrum(np.arange(16.0))
        chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (1.0, 0.3), (-15.0, 0.2)]).channel
        return partial(tim.timing_channel, chan, spec, np.full(16, 0.25), s, N, np.inf)
    chan, spec, phi0 = timing_mixture(N, N, rng)
    chan = gauge_mixed(chan, rng) if arg[0] else chan
    return (partial(tim.is_reliable_timing, chan, spec, phi0, s) if arg[1]
            else partial(tim.timing_channel, chan, spec, phi0, s, N))


def _psd(kind, n):
    """The one PSD check at its three entry points."""
    rng = np.random.default_rng(n)
    state, mask = gen.random_state(n, rng).matrix, gen.random_unit_diagonal_mask(n, rng)
    return {"state": lambda: mc.DensityMatrix(state),
            "bound": lambda: (cap.hadamard_bound(mask, n), cap.verify_hqc(mask, n)),
            "mask": lambda: cov.SectorMask(0.0, mask, tuple(range(n)), n)}[kind]


def _cli(argv, n):
    """One `python -m covchan.cli` run of argv's words ({n}: n, {f}: fixtures/, {d}: DENSE)
    that must exit 0: (wall ms, peak RSS in MB, SHA-256 of stdout)."""
    args = [sys.executable, "-m", "covchan.cli",
            *(a.format(n=n, f=ROOT / "fixtures", d=DENSE) for a in argv.split())]

    def run():
        start, digest = time.perf_counter(), hashlib.sha256()
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC))
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"{args} exited {os.waitstatus_to_exitcode(status)}")
        return (time.perf_counter() - start) * 1e3, usage.ru_maxrss / 1024.0, digest.hexdigest()
    return run


# (name, [(variant, builder argument, sizes)], builder(argument, n) -> the call timed),
# the cli.* rows first.
ROWS = [
    *((f"cli.{cmd}", [("dense random_covariant, integer",
                       cmd + " {d}/dense16.json {d}/spectrum16.json", (16,))], _cli)
      for cmd in ("check", "decompose")),
    ("cli.capacity", [("mask_c_sqrt_half", "capacity {f}/mask_c_sqrt_half.json", (2,))], _cli),
    ("cli.timing", [("shift_mixture_channel, s = pi, N = 2", "timing {f}/shift_mixture_channel.json"
                     " {f}/spectrum_4level.json --phi0 {f}/phi0_4level.json"
                     " --s 3.141592653589793 --N 2", (4,))], _cli),
    ("cli.gaussian", [(fmt, "gaussian --std-dev 0.5 --dim {n} --format " + fmt, (8, 48, 120, 186))
                      for fmt in ("json", "csv")], _cli),
    ("cli.mc-gaussian", [("std_dev=0.3, 1e5 samples, seed 17", "mc-gaussian --std-dev 0.3"
                          " --dim {n} --samples 100000 --seed 17", (8,))], _cli),
    ("channels.is_cptp", _on("cold", "warm"), _stage(lambda c: partial(mc.is_cptp, c.chan))),
    ("covariance_defect + decompose", _on("cold", "warm"), _stage(
        lambda c: lambda: (cov.covariance_defect(c.chan, c.spec), cov.decompose(c.chan, c.spec)))),
    ("covariant.reconstruct", _on("cold", "warm"),
     _stage(lambda c: partial(cov.reconstruct, c.decomp))),
    ("covariant.covariance_defect", _on("warm"),
     _stage(lambda c: partial(cov.covariance_defect, c.chan, c.spec))),
    ("covariant.decompose", _on("warm"), _stage(lambda c: partial(cov.decompose, c.chan, c.spec))),
    ("covariance_defect_per_sector", _on(None, max_n=32), _oracle("covariance_defect_per_sector")),
    ("decompose_per_sector", _on(None, max_n=32), _oracle("decompose_per_sector")),
    ("pipeline", _on("cold"), _stage(lambda c: partial(_pipeline, c))),
    ("is_cptp -> ... -> shift_distribution", _on("cold"),
     _stage(lambda c: partial(_pipeline, c, tail=True))),
    ("covariant.shift_distribution", _on("warm"),
     _stage(lambda c: partial(cov.shift_distribution, c.decomp, c.rho))),
    ("channels._tp_defect", _on(None), _stage(lambda c: partial(mc._tp_defect, c.chan._ops))),
    ("covariant.domain_extension_check", _on("cold", families=("random_covariant", "gaussian")),
     _stage(lambda c: partial(cov.domain_extension_check, c.decomp, c.rho, 0.7))),
    ("fock.GaussianDecomposition.mask(0)", _on("cold", families=("gaussian",)),
     _stage(lambda c: partial(c.decomp.mask, 0))),
    ("fock.gaussian_decomposition", [(f"std_dev={s}", s, DIMS) for s in (0.3, 1.0)],
     lambda s, dim: partial(fock.gaussian_decomposition, fock.FockParams(dim=dim, std_dev=s))),
    ("channels._gram_certified", [(f"std_dev={s}, all chunks", s, DIMS) for s in (0.3, 1.0)],
     _gram_certified),
    ("fock.monte_carlo_channel", [(f"{kind}, 1e5 samples", kind, sizes) for kind, sizes in (
        ("|0>", (8, 16, 32, 64)), ("|0> + |1>", (8, 16, 32, 64)), ("rank 2", (8, 16)))],
     _monte_carlo),
    ("timing.timing_channel", [("three-shift mixture", (False, False), TIMING_NS),
                               ("gauge-mixed", (True, False), TIMING_NS),
                               ("n = 16 mixture, tol = inf", None, (64, 256, 1024))], _timing),
    ("timing.is_reliable_timing", [("three-shift mixture", (False, True), TIMING_NS),
                                   ("gauge-mixed", (True, True), TIMING_NS)], _timing),
    ("timing.build_shift_mixture", [("shift mixture", None, (28, 128))],
     lambda _, n: partial(tim.build_shift_mixture, cov.Spectrum(np.arange(float(n))),
                          [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)])),
    ("capacity.hadamard_channel", [("random mask", None, (16, 64))], lambda _, n: partial(
        cap.hadamard_channel, gen.random_unit_diagonal_mask(n, np.random.default_rng(n)))),
    ("channels.Channel._adopt", [("(256, 16, 16) stack", None, (16,))], lambda _, n: partial(
        mc.Channel._adopt, np.random.default_rng(0).standard_normal((256, n, n)) + 0j)),
    ("covariant.Spectrum(...)", [("sqrt_prime", None, (16, 64))],
     lambda _, n: partial(cov.Spectrum, spectrum_energies(n)[1][1])),
    ("channels.DensityMatrix(...)", [("random state", "state", (4, 16, 64))], _psd),
    ("capacity.hadamard_bound + verify_hqc", [("random mask", "bound", (4, 16, 64))], _psd),
    ("covariant.SectorMask(...)", [("random mask", "mask", (4, 16, 64))], _psd),
]


def jobs() -> list:
    """(name, variant, n, builder argument, builder) of every row, in ROWS order."""
    return [(name, label, n, arg, build) for name, variants, build in ROWS
            for label, arg, sizes in variants for n in sizes]


def measure(job, rounds: int) -> dict:
    """rounds rounds of a row on SRC's code after an untimed call, or what the code lacks."""
    name, _, n, arg, build = job
    if not name.startswith("cli.") and np is None:
        load(SRC)
    try:
        call = build(arg, n)
        first = call()
    except (AttributeError, ImportError) as exc:
        return {"absent": f"{type(exc).__name__}: {exc}"}
    if name.startswith("cli."):
        runs = zip(first, *(call() for _ in range(rounds - 1)))
        return dict(zip(("ms", "rss_mb", "stdout_sha256"), map(list, runs)))
    number = max(1, round(ROUND_S / max(timeit.timeit(call, number=1), 1e-6)))
    ms = [t / number * 1e3 for t in timeit.repeat(call, number=number, repeat=rounds)]
    tracemalloc.start()
    call()
    peak = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
    tracemalloc.stop()
    return {"ms": ms, "peak_traced_mb": [peak]}


def collect(srcs: dict, indices: list, rounds: int, dense: str) -> tuple[list, list]:
    """(rows, absent) of the jobs at indices on the codes of srcs, {label: src}, with dense
    the dense16 folder: each per-round list's median, interquartile range and minimum, the
    largest peak_traced_mb; a job's passes alternate between codes, so that a drift in
    load falls on all alike."""
    procs = {code: subprocess.Popen([sys.executable, __file__, "--worker", str(src), dense],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                    env=worker_env()) for code, src in srcs.items()}
    table, rows, absent = jobs(), [], []
    for index in indices:
        got = {code: {} for code in procs}
        for code in [code for p in range(PASSES) for code in list(procs)[::(-1) ** p]]:
            procs[code].stdin.write(json.dumps([index, -(-rounds // PASSES)]) + "\n")
            procs[code].stdin.flush()
            for field, values in json.loads(procs[code].stdout.readline()).items():
                got[code].setdefault(field, []).extend(values if field != "absent" else [values])
        for code, lists in got.items():
            row = dict(zip(("name", "variant", "n"), table[index]), code=code)
            if "absent" in lists:
                absent.append({**row, "missing": lists["absent"][0]})
                continue
            peak, shas = lists.pop("peak_traced_mb", []), set(lists.pop("stdout_sha256", []))
            if len(shas) > 1:
                raise ValueError(f"{row}: stdout differs between rounds")
            for field, values in lists.items():
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update({f"median_{field}": round(statistics.median(values), 4),
                            f"iqr_{field}": round(q3 - q1, 4),
                            f"min_{field}": round(min(values), 4)})
            rows.append({**row, "rounds": len(lists["ms"]), **({"peak_traced_mb": max(peak)}
                         if peak else {}), **({"stdout_sha256": shas.pop()} if shas else {})})
    for proc in procs.values():
        proc.communicate()  # end of input: the worker exits
    return rows, absent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--parent-src", type=Path)
    ap.add_argument("--parent-label", default="parent", help="the code field of its rows")
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("--tier1", action="store_true", help="record one tier-1 run's wall time")
    ap.add_argument("--only", help="keep the rows whose 'name | variant | n' matches this regex")
    ap.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)  # SRC and DENSE
    args = ap.parse_args()
    if args.worker:  # answer each line [job index, rounds] with measure's JSON line
        global SRC, DENSE
        (SRC, DENSE), table = args.worker, jobs()
        for index, rounds in map(json.loads, sys.stdin):
            print(json.dumps(measure(table[index], rounds)), flush=True)
        return
    indices = [i for i, (name, variant, n, *_) in enumerate(jobs())
               if args.only is None or re.search(args.only, f"{name} | {variant} | {n}")]
    if args.out is None or not indices:
        ap.error("--out is required" if args.out is None else f"--only {args.only!r} keeps no row")
    srcs = {"change": ROOT / "src", **({args.parent_label: args.parent_src.resolve()}
                                       if args.parent_src else {})}
    load(str(ROOT / "src"))
    chan = gen.random_covariant(cov.Spectrum(np.arange(16.0)), np.random.default_rng(20))
    with tempfile.TemporaryDirectory() as dense:
        Path(dense, "dense16.json").write_text(ser.dumps(ser.channel_to_json(chan)))
        Path(dense, "spectrum16.json").write_text(json.dumps({"energies": list(range(16))}))
        rows, absent = collect(srcs, indices, args.rounds, dense)
    git = [subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True).stdout.strip()
           for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "--", "src"])]
    report = {"git_sha": git[0], "tree_dirty": bool(git[1]), "numpy": np.__version__,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "blas_threads": 1, "unit": "ms per call",
              "malloc_mmap_threshold": int(worker_env()["MALLOC_MMAP_THRESHOLD_"])}
    if args.tier1:
        pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        env = dict(worker_env(), PYTHONPATH=str(ROOT / "src"))
        report["tier1_wall_s"] = round(timeit.timeit(lambda: subprocess.run(
            pytest, cwd=ROOT, env=env, check=True, capture_output=True), number=1), 1)
    args.out.write_text(json.dumps({**report, "absent": absent, "rows": rows}, indent=1) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
