"""Self-tests of the benchmark.

    python3 -m pytest benchmarks/tests -q

They check that the workload generators are deterministic, that tracing
does not change what the library computes, that the span accounting adds up,
that the exact per-layer counts repeat for one seed, and that the launcher
refuses to run outside a covchan checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
# The worker's child processes find the library the way run.py arranges it.
os.environ["PYTHONPATH"] = str(ROOT / "src")

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
# A cheap prefix of each cycle, enough to reach every kind of layer call.
PREFIX = {"decompose": 5, "bounds": 8, "gaussian": 2, "cli": 8}


def input_digest(workload, seed, workdir):
    """Digest of every item's inputs and of the files written, paths aside."""
    def relative(value):
        if isinstance(value, str):
            return value.replace(str(workdir), "<workdir>")
        if isinstance(value, (list, tuple)):
            return [relative(v) for v in value]
        return value

    items = wl.WORKLOADS[workload](seed, workdir)
    files = sorted(p.name + wl.fingerprint(p.read_bytes()) for p in workdir.glob("*"))
    return wl.fingerprint([(i.kind, relative(i.inputs)) for i in items]) + "".join(files)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generators_are_deterministic(workload, tmp_path):
    first = input_digest(workload, SEED, tmp_path / "a")
    again = input_digest(workload, SEED, tmp_path / "b")
    other = input_digest(workload, SEED + 1, tmp_path / "c")
    assert first == again
    assert first != other


def traced_prefix(workload, tmp_path):
    tracer = tr.Tracer()
    tracer.install()
    try:
        items = wl.WORKLOADS[workload](SEED, tmp_path / "inputs")
        return worker.traced_pass(items[:PREFIX[workload]], tracer,
                                  tmp_path / "spans.tsv")
    finally:
        tracer.uninstall()


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def traced_twice(request, tmp_path_factory):
    runs = [traced_prefix(request.param, tmp_path_factory.mktemp(f"{request.param}{k}"))
            for k in range(2)]
    return request.param, runs


def test_tracing_leaves_outputs_bit_identical(traced_twice):
    _, (run, _) = traced_twice
    assert run["identical_outputs"]
    assert run["fingerprints_untraced"] == run["fingerprints_traced"]


def test_tracer_restores_every_binding(traced_twice):
    from covchan import capacity, channels, covariant, serialize, timing
    import covchan

    assert channels.choi_of is covchan.choi_of
    assert timing.partial_shift is covariant.partial_shift
    assert serialize.partial_shift is covariant.partial_shift
    for fn in (channels.choi_of, capacity.verify_hqc, covariant.partial_shift):
        assert not hasattr(fn, "__wrapped__")


def test_self_times_add_up_to_the_traced_item(traced_twice):
    _, (run, _) = traced_twice
    overhead = abs(run["metrics"]["trace.overhead_frac"])
    for item in run["per_item"]:
        # Self times of all spans in an item, the benchmark's own span
        # included, partition the item's span exactly.
        whole = item["library_self_s"] + item["outside_spans_s"]
        assert item["traced_s"] <= whole + 1e-6
        # What the library spans do not cover is the tracer's own cost and
        # the benchmark's glue, within the reported overhead.
        assert item["outside_spans_s"] <= max(overhead * item["traced_s"], 5e-3)


def test_exact_counts_repeat_for_one_seed(traced_twice):
    workload, (first, second) = traced_twice
    counts = {k: v for k, v in first["metrics"].items() if isinstance(v, int)}
    again = {k: v for k, v in second["metrics"].items() if isinstance(v, int)}
    assert counts == again
    assert first["counts"] == second["counts"]
    assert sum(counts.values()) > 0, workload


def test_traced_calls_reach_every_binding(traced_twice):
    workload, (run, _) = traced_twice
    calls = run["functions"]
    if workload == "bounds":
        # timing calls partial_shift through its own `from .covariant import`.
        assert calls["timing.build_shift_mixture"]["calls"] > 0
        assert calls["covariant.partial_shift"]["calls"] > 0
    if workload == "cli":
        assert calls["cli.main"]["calls"] == PREFIX["cli"]
        assert run["metrics"]["serialize.bytes_in"] > 3_000_000


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = worker.tail([float(x) for x in range(1, 41)])
    assert value == 30.0
    assert pct == pytest.approx(75.0)


def test_launcher_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = benchmark_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", "bounds", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_names_match_benchmark_json(traced_twice):
    _, (run, _) = traced_twice
    assert list(run["metrics"]) == [m["name"] for m in benchmark_json()["per_layer"]]


def test_end_to_end_names_match_benchmark_json():
    items = wl.WORKLOADS["bounds"](SEED, None)[:11]
    timed = worker.timed_loop(items, 1, "bounds")
    names = [m["name"] for m in benchmark_json()["end_to_end"]]
    assert ["setup_s", *timed["metrics"]] == names


def test_timed_loop_scales_every_item_by_the_host_slowdown(monkeypatch):
    items = wl.WORKLOADS["bounds"](SEED, None)[:11]
    monkeypatch.setattr(worker.hs, "slowdown", lambda before, after: 2.0)
    timed = worker.timed_loop(items, 1, "bounds")
    scaled, raw = timed["metrics"], timed["raw_metrics"]
    assert scaled["item_p50_ms"] == pytest.approx(raw["item_p50_ms"] / 2.0)
    assert scaled["item_tail_ms"] == pytest.approx(raw["item_tail_ms"] / 2.0)
    assert scaled["items_per_s"] == pytest.approx(raw["items_per_s"] * 2.0)


def test_host_slowdown_is_one_at_the_reference_speed():
    import hostspeed as hs

    at_reference = [hs.REFERENCE_S] * hs.SAMPLES
    assert hs.slowdown(at_reference, at_reference) == pytest.approx(1.0)
    assert hs.slowdown(at_reference, [2 * hs.REFERENCE_S] * (hs.SAMPLES + 1)) == \
        pytest.approx(2.0)
