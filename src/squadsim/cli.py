"""Scenario runner CLI.

Executes seed sweeps over one or more system sizes, writes one CSV row
per (n, seed) pair, and exits nonzero when any run violates an invariant
or fails to decide. Flags override a flat key=value config file; the
SQUADSIM_OUT environment variable supplies the default output directory.

The CLI only parses text; the scenario builders and ``ScenarioConfig.validate``
judge each value. The whole sweep is built before any run or directory, so
every config error, a process outside 1..n included, is refused first.

Exit codes: 0 all runs decided with zero violations; 1 a run failed to
decide by its horizon, raised an adversary or protocol error, or violated
an invariant; 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .adversary import BUILDERS, SCENARIO_KEYS, ScenarioConfig, custom_file
from .consensus import PROTOCOLS
from .engine import AdversaryViolation, ProtocolError
from .metrics import CSV_HEADER
from .runner import run_scenario

SCENARIOS = (*BUILDERS, "custom-file")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ConfigError, like every other malformed input."""

    def error(self, message):
        raise ConfigError(message)


def parse_seed_range(spec: str) -> list[int]:
    """'0..9' or '4' or '1,3,5'."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in spec:
        return [int(s) for s in spec.split(",") if s]
    return [int(spec)]


def read_config_file(path: str, known) -> dict[str, str]:
    """Parse a flat key=value file ('#' comments); every key must be in ``known``."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad line in {path}: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    unknown = set(out) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
    return out


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="squadsim",
        description="Deterministic partial-synchrony consensus simulator")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--n", help="comma-separated list of system sizes (each 3f+1)")
    p.add_argument("--delta", help="message delay bound after GST (rational)")
    p.add_argument("--gst", help="global stabilization time (rational); default "
                   "the scenario's own; at least 5*delta for worst_case and "
                   "three views plus delta for scenario_s; not with "
                   "--scenario random, which draws it per seed")
    p.add_argument("--seeds", help="seed range, e.g. 0..9")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--scenario-file",
                   help="flat key=value scenario description "
                        "(with --scenario custom-file)")
    p.add_argument("--epsilon", help="view duration slack (rational)")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--trace-dir", help="directory for per-run trace files")
    return p


DEFAULTS = {"protocol": "squad", "n": "4", "delta": "1", "gst": None,
            "seeds": "0..4", "scenario": "happy", "scenario_file": None,
            "epsilon": None, "out": None, "trace_dir": None}


def resolve_options(argv) -> dict[str, Optional[str]]:
    """The text of each option: a flag, else its --config key, else DEFAULTS."""
    args = build_parser().parse_args(argv)
    given = read_config_file(args.config, DEFAULTS) if args.config else {}
    for key in DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            given[key] = flag
    return {**DEFAULTS, **given}


def build_sweep(opts) -> list[ScenarioConfig]:
    """Every configuration of the sweep, in (n, seed) order. A value that
    does not parse, or that a builder or ``ScenarioConfig.validate``
    refuses, is a ConfigError before the first run."""
    if opts["scenario"] == "custom-file":
        if not opts["scenario_file"]:
            raise ConfigError("--scenario custom-file requires --scenario-file")
        builder = functools.partial(
            custom_file, read_config_file(opts["scenario_file"], SCENARIO_KEYS))
    elif opts["scenario"] in BUILDERS:
        builder = BUILDERS[opts["scenario"]]
    else:
        raise ConfigError(f"unknown scenario {opts['scenario']!r}")
    try:
        n_list = [int(s) for s in opts["n"].split(",") if s]
        seeds = parse_seed_range(opts["seeds"])
        if not n_list or not seeds:
            raise ConfigError("empty system-size or seed list: nothing to run")
        delta = Fraction(opts["delta"])
        gst = None if opts["gst"] is None else Fraction(opts["gst"])
        epsilon = None if opts["epsilon"] in (None, "") else Fraction(opts["epsilon"])
        return [builder(n, seed, opts["protocol"], delta, gst, epsilon)
                for n in n_list for seed in seeds]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc))


def default_out_path(opts) -> Path:
    out_dir = Path(os.environ.get("SQUADSIM_OUT", "out"))
    return out_dir / f"{opts['protocol']}_{opts['scenario']}.csv"


def prepare_outputs(out_path: Path, trace_dir: Optional[Path]) -> None:
    """Create the directories the sweep writes into. A path that cannot
    take its output is a ConfigError before any run, not a traceback after
    the sweep."""
    if out_path.is_dir():
        raise ConfigError(f"--out {out_path} is a directory")
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        if trace_dir:
            trace_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create an output directory: {exc}")


def run_one(cfg, trace_dir: Optional[Path]) -> tuple[Optional[str], bool]:
    """Run one configuration, print its status line and write its trace
    file. Returns its CSV row (None when the run raised) and whether it
    failed. The run, its trace included, is freed when this returns, so a
    sweep holds one run at a time."""
    head = f"{cfg.protocol} n={cfg.n} seed={cfg.seed} scenario={cfg.name}"
    try:
        result = run_scenario(cfg)
    except (AdversaryViolation, ProtocolError) as exc:
        print(f"[FAIL] {head} error={type(exc).__name__}: {exc}")
        return None, True
    report = result.report
    failed = bool(report.violations) or not report.decided
    print(f"[{'FAIL' if failed else 'ok'}] {head} "
          f"words={report.words_post_gst} t_s={report.t_s} t_d={report.t_d} "
          f"violations={len(report.violations)}")
    for v in report.violations:
        print(f"    {v}")
    if trace_dir:
        name = f"{cfg.protocol}_{cfg.name}_n{cfg.n}_seed{cfg.seed}.trace"
        with open(trace_dir / name, "w", encoding="utf-8", newline="\n") as fp:
            result.trace.write(fp)
    return report.csv_row(), failed


def main(argv=None) -> int:
    try:
        opts = resolve_options(argv)
        sweep = build_sweep(opts)
        out_path = Path(opts["out"]) if opts["out"] else default_out_path(opts)
        trace_dir = Path(opts["trace_dir"]) if opts["trace_dir"] else None
        prepare_outputs(out_path, trace_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:   # --help
        return 0 if exc.code in (0, None) else 2

    rows = [CSV_HEADER]
    failures = 0
    for cfg in sweep:
        row, failed = run_one(cfg, trace_dir)
        failures += failed
        if row is not None:
            rows.append(row)
    out_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {out_path}")
    return 1 if failures else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
