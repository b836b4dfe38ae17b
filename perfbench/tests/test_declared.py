"""``BENCHMARK.json`` is where the benchmark's workloads and metrics are
declared; the README's tables must list the same ones, and the peak-RSS
reading must cover only what runs after its reset."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from common import FIGURE_IDS, declared_metrics, declared_workloads

PERFBENCH = Path(__file__).resolve().parent.parent
README = (PERFBENCH / "README.md").read_text()


def _table_rows(section: str) -> list[list[str]]:
    """The body rows of the first table under the ``## section`` heading."""
    body = README.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in body.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_readme_workloads_are_the_declared_ones():
    rows = _table_rows("Workloads")
    assert [_names(row[0])[0] for row in rows] == list(declared_workloads())


def test_readme_end_to_end_table_matches_declaration():
    rows = _table_rows("End-to-end metrics")
    documented = {
        _names(row[0])[0]: {"unit": row[1], "better": row[2], "bound": float(row[3])}
        for row in rows
    }
    declared = {
        name: {k: row[k] for k in ("unit", "better", "bound")}
        for name, row in declared_metrics("end_to_end").items()
    }
    assert documented == declared


def test_readme_per_layer_table_matches_declaration():
    documented: list[str] = []
    for row in _table_rows("Per-layer metrics (`--trace 1`)"):
        for name in _names(row[0]):
            if name == "core.figures.<fig>_s":
                documented += [f"core.figures.{fid}_s" for fid in FIGURE_IDS]
            else:
                documented.append(name)
    assert sorted(documented) == sorted(declared_metrics("per_layer"))


def test_peak_rss_covers_only_what_runs_after_the_reset():
    script = (
        "import common\n"
        "block = bytearray(160 * 2**20)\n"
        "block[::4096] = b'x' * len(block[::4096])\n"
        "before = common.peak_rss_mb()\n"
        "del block\n"
        "assert common.reset_peak_rss()\n"
        "print(before, common.peak_rss_mb())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=PERFBENCH,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    before, after = map(float, out)
    assert before > 160 and after < before - 120
