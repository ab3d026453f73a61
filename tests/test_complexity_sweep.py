"""End-to-end smoke test of scripts/complexity_sweep.py."""

import os
import subprocess
import sys
from pathlib import Path

from squadsim import run_scenario, worst_case
from squadsim.metrics import CSV_HEADER, fit_slope

ROOT = Path(__file__).resolve().parent.parent
NS = (4, 7)


def test_sweep_writes_report_rows_and_slopes(tmp_path):
    env = dict(os.environ, SQUADSIM_OUT=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "complexity_sweep.py"),
         "--seeds", "1", "--ns", ",".join(map(str, NS))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    words, sync_words = {}, {}
    for protocol in ("squad", "alltoall", "doubling"):
        reports = {n: run_scenario(worst_case(n, 0, protocol)).report for n in NS}
        rows = (tmp_path / f"sweep_{protocol}.csv").read_text().splitlines()
        assert rows == [CSV_HEADER] + [reports[n].csv_row() for n in NS]
        words[protocol] = {n: r.words_post_gst for n, r in reports.items()}
        sync_words[protocol] = {n: r.words_sync_window for n, r in reports.items()}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "sweep_alltoall.csv", "sweep_doubling.csv", "sweep_squad.csv"]

    lines = proc.stdout.splitlines()
    assert "fitted log-log slopes:" in lines
    assert f"  squad total words:              {fit_slope(words['squad']):.3f}" in lines
    assert (f"  alltoall synchronizer words:    "
            f"{fit_slope(sync_words['alltoall']):.3f}") in lines
    assert (f"  squad synchronizer words:       "
            f"{fit_slope(sync_words['squad']):.3f}") in lines
