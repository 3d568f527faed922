"""tools/ladder.py builds and calls every row of its table on this tree, so that a
renamed or re-signed library name breaks here rather than in a timing run."""
import json
import subprocess
import sys
from pathlib import Path

from covchan import fock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import benchlib  # noqa: E402
import ladder  # noqa: E402


def test_every_ladder_row_builds_and_runs_at_its_smallest_size():
    ladder.load(str(ROOT / "src"))
    for name, variants, build in ladder.ROWS:
        for label, arg, sizes in variants:
            if not name.startswith("cli."):
                build(arg, sizes[0])()


def test_a_cli_row_reports_its_peak_rss_and_stdout_digest(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "ladder.py"), "--out", str(out),
                    "--rounds", "3", "--only", r"^cli\.check "], check=True, capture_output=True)
    report = json.loads(out.read_text())
    (row,) = report["rows"]
    assert (row["name"], row["code"], row["n"], row["rounds"]) == ("cli.check", "change", 16, 3)
    assert row["median_rss_mb"] > 0 and len(row["stdout_sha256"]) == 64
    assert (report["malloc_mmap_threshold"], report["absent"]) == (benchlib.MMAP_THRESHOLD, [])


def test_a_row_whose_code_lacks_a_name_is_absent(monkeypatch):
    ladder.load(str(ROOT / "src"))
    monkeypatch.delattr(fock, "_mask_chunk")
    (job,) = [job for job in ladder.jobs()
              if job[:3] == ("channels._gram_certified", "std_dev=0.3, all chunks", 16)]
    assert ladder.measure(job, 1) == {
        "absent": "AttributeError: module 'covchan.fock' has no attribute '_mask_chunk'"}
