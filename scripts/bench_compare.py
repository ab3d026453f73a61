#!/usr/bin/env python3
"""Alternating parent/change comparison of the run benchmark.

Exports the parent commit into a temporary directory (``git archive``,
so nothing is registered in the repository and nothing is left behind if
the script is interrupted), then runs ``perfbench/run.py --trace 0`` on
both sides in pairs. Pair i runs both sides on seed ``first_seed + i``;
the side that runs first alternates from pair to pair. The change is this
checkout as it stands, uncommitted edits included.

For every workload and end-to-end metric of BENCHMARK.json it writes, to
``BENCH_<label>.json`` at the root of this checkout:

- both sides' medians and quartiles and every run's value;
- the pairs the change won (ties count for neither);
- a verdict: ``gate failed`` on every metric of a workload where any
  change run failed the benchmark's output gate (its ``failed`` count is
  not 0: a wrong trace or CSV row), whatever the numbers say; otherwise
  ``gain`` when the change won at least 9 of 10 pairs and the
  medians differ by more than the parent's interquartile range;
  ``regression`` when the change's median is worse by more than the
  metric's bound; ``unresolved`` when the parent's own spread is wider
  than the bound and not every change run beats every parent run;
  ``no regression`` otherwise;
- each benchmark run's wall seconds (``wall_s``: the whole
  ``perfbench/run.py`` process, set-up and output gate included, not only
  its timed runs), per side and workload with their median, and per side
  the sum of the workloads' medians, so a comparison shows whether the
  change lengthens the benchmark;
- both commit SHAs, the Python version and ``nproc``.

The script exits 1 when any workload's verdict is ``gate failed``, and 2,
with one ``bench_compare: ...`` line and no run started, when a workload,
the parent revision, ``--workdir``, ``--seconds`` (it must be positive),
``--pairs`` (at least 2) or ``--first-seed`` (nonnegative) is unusable.

Usage:
    python3 scripts/bench_compare.py --label random_mix_exact_time \\
        --parent HEAD~1 --workload random_mix --pairs 10 --first-seed 11 \\
        --seconds 25 [--workdir DIR]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary line of one benchmark run, with the run's wall
    seconds added as ``wall_s``. Exit 1, a failed output gate, still gives
    one: its ``failed`` count decides the verdict."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    summary["wall_s"] = time.monotonic() - start
    return summary


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= GAIN_SHARE * len(parent) and gain > p_q3 - p_q1:
        verdict = "gain"
    elif -gain > bound * p_med:
        verdict = "regression"
    elif p_q3 - p_q1 > bound * p_med and not separated:
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "runs": parent},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change},
        "change_over_parent": c_med / p_med if p_med else None,
        "pairs_won": wins, "pairs": len(parent), "better": better,
        "bound": bound, "verdict": verdict,
    }


def summarize(runs: dict[str, list[dict]], first_side: list[str],
              metrics: list[dict]) -> dict:
    """One workload's record from both sides' run summaries."""
    entry = {"first_side": first_side, "metrics": {}}
    for field in ("correct", "attempted", "failed"):
        entry[field] = {side: [r[field] for r in runs[side]] for side in runs}
    entry["wall_s"] = {}
    for side in runs:
        walls = [r["wall_s"] for r in runs[side]]
        entry["wall_s"][side] = {"median": statistics.median(walls), "runs": walls}
    gate_failed = any(entry["failed"]["change"])
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                  for side in runs}
        c = compare(values["parent"], values["change"], m["better"], m["bound"])
        if gate_failed:
            c["verdict"] = "gate failed"
        entry["metrics"][m["name"]] = c
    return entry


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--parent", default="HEAD~1", help="parent revision")
    p.add_argument("--workload", action="append", required=True,
                   help="a BENCHMARK.json workload; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True,
                   help="pair i runs seed first_seed + i on both sides")
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--workdir", default=None,
                   help="directory for the parent checkout (default: a "
                        "temporary directory)")
    args = p.parse_args(argv)
    # refused before any export or run
    if args.pairs < 2:
        refuse(f"--pairs must be at least 2, not {args.pairs}")
    if args.first_seed < 0:
        refuse(f"--first-seed must be nonnegative, not {args.first_seed}")
    if args.seconds is not None and not args.seconds > 0:
        refuse(f"--seconds must be positive, not {args.seconds:g}")
    return args


def refuse(message: str) -> NoReturn:
    """Exit 2 with one ``bench_compare: ...`` line."""
    print(f"bench_compare: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    unknown = sorted(set(args.workload) - known)
    if unknown:
        refuse(f"unknown workload(s) {unknown}")
    if args.workdir is not None and not os.path.isdir(args.workdir):
        refuse(f"--workdir {args.workdir} is not a directory")
    try:
        parent_sha = git("rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        refuse(f"--parent {args.parent} names no commit")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    record = {
        "label": args.label,
        "parent_sha": parent_sha,
        "change_sha": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        parent_dir = Path(tmp) / "parent"
        export(parent_sha, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            order = []
            for i, seed in enumerate(record["seeds"]):
                first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(first[0])
                for side in first:
                    out = run_bench(sides[side], workload, seed, seconds)
                    runs[side].append(out)
                    print(f"# {workload} pair {i} seed {seed} {side}: correct="
                          f"{out['correct']} events_per_s="
                          f"{out['metrics']['events_per_s']['value']:.0f}",
                          flush=True)
            record["workloads"][workload] = summarize(runs, order, metrics)
    record["wall_s"] = {side: sum(entry["wall_s"][side]["median"]
                                  for entry in record["workloads"].values())
                        for side in ("parent", "change")}

    out_path = ROOT / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["workloads"].items():
        for name, c in entry["metrics"].items():
            print(f"{workload:15s} {name:13s} parent {c['parent']['median']:.6g} "
                  f"change {c['change']['median']:.6g} "
                  f"x{c['change_over_parent']:.3f} won {c['pairs_won']}/{c['pairs']} "
                  f"{c['verdict']}")
        wall = entry["wall_s"]
        print(f"{workload:15s} {'wall_s':13s} parent {wall['parent']['median']:.1f} "
              f"change {wall['change']['median']:.1f} (median per run)")
    print(f"{'all workloads':15s} {'wall_s':13s} parent {record['wall_s']['parent']:.1f} "
          f"change {record['wall_s']['change']:.1f} (sum of medians)")
    print(f"wrote {out_path}")
    failed = [w for w, e in record["workloads"].items() if any(e["failed"]["change"])]
    if failed:
        print(f"bench_compare: change failed the output gate on {failed}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
