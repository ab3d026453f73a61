#!/usr/bin/env python3
"""Three-way synchronizer comparison at desk scale.

Runs the worst-case scenario for the certified protocol, the per-view
all-to-all baseline, and the view-doubling baseline over a range of system
sizes, then prints per-size word counts (full run and synchronizer window)
with fitted log-log slopes. Writes one CSV per protocol under the output
directory (SQUADSIM_OUT or ./out).

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

    words = {p: {} for p in PROTOCOLS}
    sync_words = {p: {} for p in PROTOCOLS}
    for protocol in PROTOCOLS:
        rows = [CSV_HEADER]
        for n in ns:
            per_seed = []
            for seed in range(args.seeds):
                res = run_scenario(worst_case(n, seed, protocol))
                rows.append(res.report.csv_row())
                per_seed.append(res.report)
            words[protocol][n] = max(r.words_post_gst for r in per_seed)
            sync_words[protocol][n] = max(r.words_sync_window for r in per_seed)
        path = out_dir / f"sweep_{protocol}.csv"
        path.write_text("\n".join(rows) + "\n")
        print(f"wrote {path}")

    print(f"\n{'n':>4} | {'squad':>10} {'alltoall':>10} {'doubling':>10}   "
          f"(max words after GST)")
    for n in ns:
        print(f"{n:>4} | {words['squad'][n]:>10} {words['alltoall'][n]:>10} "
              f"{words['doubling'][n]:>10}")
    print(f"\n{'n':>4} | {'squad':>10} {'alltoall':>10}   "
          f"(synchronizer words in [GST, t_s + overlap])")
    for n in ns:
        print(f"{n:>4} | {sync_words['squad'][n]:>10} "
              f"{sync_words['alltoall'][n]:>10}")
    print(f"\nfitted log-log slopes:")
    print(f"  squad total words:              {fit_slope(words['squad']):.3f}")
    print(f"  alltoall synchronizer words:    {fit_slope(sync_words['alltoall']):.3f}")
    print(f"  squad synchronizer words:       {fit_slope(sync_words['squad']):.3f}")


if __name__ == "__main__":
    main()
