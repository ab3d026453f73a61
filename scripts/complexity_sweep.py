#!/usr/bin/env python3
"""Three-way synchronizer comparison at desk scale.

Runs the worst-case scenario for the certified protocol, the per-view
all-to-all baseline, and the view-doubling baseline over a range of system
sizes, then prints per-size word counts (full run and synchronizer window)
with fitted log-log slopes. Writes one CSV per protocol under the output
directory (SQUADSIM_OUT or ./out).

Only runs in which every correct process decided enter the maxima and the
fits: an undecided run has no decision time, so its words after GST run
to the end of the trace. The number of undecided runs is printed per
protocol and size, and a size at which no run decided is marked "-".

Usage: python scripts/complexity_sweep.py [--seeds 10] [--ns 4,7,13,25,49]
"""

import argparse
import os
from pathlib import Path

from squadsim import run_scenario, worst_case
from squadsim.metrics import CSV_HEADER, fit_slope

PROTOCOLS = ("squad", "alltoall", "doubling")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--ns", default="4,7,13,25,49")
    args = ap.parse_args()
    ns = [int(s) for s in args.ns.split(",")]
    out_dir = Path(os.environ.get("SQUADSIM_OUT", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    # protocol -> n -> the maximum over the runs that decided
    words = {p: {} for p in PROTOCOLS}
    sync_words = {p: {} for p in PROTOCOLS}
    undecided = {p: {} for p in PROTOCOLS}   # protocol -> n -> runs
    for protocol in PROTOCOLS:
        rows = [CSV_HEADER]
        for n in ns:
            decided = []
            for seed in range(args.seeds):
                res = run_scenario(worst_case(n, seed, protocol))
                rows.append(res.report.csv_row())
                if res.report.decided:
                    decided.append(res.report)
            undecided[protocol][n] = args.seeds - len(decided)
            if decided:
                words[protocol][n] = max(r.words_post_gst for r in decided)
                sync_words[protocol][n] = max(r.words_sync_window for r in decided)
        path = out_dir / f"sweep_{protocol}.csv"
        path.write_text("\n".join(rows) + "\n")
        print(f"wrote {path}")

    def table(title, columns, cells):
        print(f"\n{'n':>4} | " + " ".join(f"{p:>10}" for p in columns) + f"   ({title})")
        for n in ns:
            print(f"{n:>4} | " + " ".join(f"{cells[p].get(n, '-'):>10}" for p in columns))

    table("max words after GST", PROTOCOLS, words)
    table("synchronizer words in [GST, t_s + overlap]", PROTOCOLS[:2], sync_words)
    table(f"undecided runs of {args.seeds}", PROTOCOLS, undecided)

    def slope(points):
        if len(points) < 2:
            return "- (fewer than two sizes decided)"
        return f"{fit_slope(points):.3f}"

    print("\nfitted log-log slopes:")
    print(f"  squad total words:              {slope(words['squad'])}")
    print(f"  alltoall synchronizer words:    {slope(sync_words['alltoall'])}")
    print(f"  squad synchronizer words:       {slope(sync_words['squad'])}")


if __name__ == "__main__":
    main()
