"""End-to-end smoke tests of scripts/complexity_sweep.py."""

import os
import subprocess
import sys
from pathlib import Path

from squadsim import run_scenario, worst_case
from squadsim.metrics import CSV_HEADER, fit_slope

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = ("squad", "alltoall", "doubling")


def sweep(tmp_path, ns):
    """Runs the sweep for one seed at the sizes ``ns``; returns its printed
    lines and the report of every run, by protocol and size."""
    env = dict(os.environ, SQUADSIM_OUT=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "complexity_sweep.py"),
         "--seeds", "1", "--ns", ",".join(map(str, ns))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reports = {}
    for protocol in PROTOCOLS:
        reports[protocol] = {n: run_scenario(worst_case(n, 0, protocol)).report
                             for n in ns}
        rows = (tmp_path / f"sweep_{protocol}.csv").read_text().splitlines()
        assert rows == [CSV_HEADER] + [reports[protocol][n].csv_row() for n in ns]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "sweep_alltoall.csv", "sweep_doubling.csv", "sweep_squad.csv"]
    return proc.stdout.splitlines(), reports


def slope_lines(reports):
    words = {n: r.words_post_gst for n, r in reports["squad"].items()}
    sync = {p: {n: r.words_sync_window for n, r in reports[p].items()}
            for p in ("squad", "alltoall")}
    return [f"  squad total words:              {fit_slope(words):.3f}",
            f"  alltoall synchronizer words:    {fit_slope(sync['alltoall']):.3f}",
            f"  squad synchronizer words:       {fit_slope(sync['squad']):.3f}"]


def test_sweep_writes_report_rows_and_slopes(tmp_path):
    lines, reports = sweep(tmp_path, (4, 7))
    assert all(r.decided for runs in reports.values() for r in runs.values())
    assert "fitted log-log slopes:" in lines
    assert set(slope_lines(reports)) <= set(lines)


def test_undecided_runs_are_counted_and_left_out(tmp_path):
    # doubling at n=13 does not decide at seed 0: its words after GST run
    # to the trace's end, so they are neither a maximum nor a fit point
    lines, reports = sweep(tmp_path, (4, 13))
    assert not reports["doubling"][13].decided
    assert all(r.decided for p, runs in reports.items() for n, r in runs.items()
               if (p, n) != ("doubling", 13))
    at = lines.index(next(line for line in lines if "(max words after GST)" in line))
    assert lines[at + 1:at + 3] == [
        f"   4 | {reports['squad'][4].words_post_gst:>10} "
        f"{reports['alltoall'][4].words_post_gst:>10} "
        f"{reports['doubling'][4].words_post_gst:>10}",
        f"  13 | {reports['squad'][13].words_post_gst:>10} "
        f"{reports['alltoall'][13].words_post_gst:>10} {'-':>10}"]
    at = lines.index(next(line for line in lines if "(undecided runs of 1)" in line))
    assert lines[at + 1:at + 3] == [f"   4 | {0:>10} {0:>10} {0:>10}",
                                    f"  13 | {0:>10} {0:>10} {1:>10}"]
    assert set(slope_lines(reports)) <= set(lines)
