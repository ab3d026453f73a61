"""Scenario runner CLI.

Executes seed sweeps over one or more system sizes, writes one CSV row
per (n, seed) pair, and exits nonzero when any run violates an invariant
or fails to decide. Flags override a flat key=value config file; the
SQUADSIM_OUT environment variable supplies the default output directory.

Exit codes: 0 all runs decided with zero violations; 1 a run failed to
decide, raised an adversary or livelock error, or violated an invariant;
2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .adversary import BUILDERS, SCENARIO_KEYS, custom_file
from .engine import AdversaryViolation, LivelockError
from .metrics import CSV_HEADER
from .runner import PROTOCOLS, run_scenario

SCENARIOS = ("happy", "worst_case", "scenario_s", "equivocate", "random",
             "custom-file")


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


def parse_n_list(spec: str) -> list[int]:
    return [int(s) for s in str(spec).split(",") if s]


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
                   "the scenario's own; not with --scenario random, which "
                   "draws it per seed")
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


def resolve_options(argv) -> dict:
    args = build_parser().parse_args(argv)
    given = read_config_file(args.config, DEFAULTS) if args.config else {}
    for key in DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            given[key] = flag
    opts = {**DEFAULTS, **given}
    if opts["protocol"] not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {opts['protocol']!r}")
    if opts["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {opts['scenario']!r}")
    if opts["scenario"] == "custom-file":
        if not opts["scenario_file"]:
            raise ConfigError("--scenario custom-file requires --scenario-file")
        opts["scenario_fields"] = read_config_file(opts["scenario_file"],
                                                   SCENARIO_KEYS)
    try:
        opts["n_list"] = parse_n_list(opts["n"])
        opts["seed_list"] = parse_seed_range(str(opts["seeds"]))
        opts["delta_frac"] = Fraction(str(opts["delta"]))
        opts["gst_frac"] = (None if opts["gst"] is None      # the scenario's default
                            else Fraction(str(opts["gst"])))
        opts["epsilon_frac"] = (None if opts["epsilon"] in (None, "")
                                else Fraction(str(opts["epsilon"])))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc))
    if not opts["n_list"] or not opts["seed_list"]:
        raise ConfigError("empty system-size or seed list: nothing to run")
    for n in opts["n_list"]:
        if n < 4 or (n - 1) % 3 != 0:
            raise ConfigError(f"n={n} is not 3f+1 for integer f >= 1")
    if opts["delta_frac"] <= 0:
        raise ConfigError("delta must be positive")
    if opts["gst_frac"] is not None and opts["gst_frac"] < 0:
        raise ConfigError("GST must be nonnegative")
    return opts


def default_out_path(opts) -> Path:
    out_dir = Path(os.environ.get("SQUADSIM_OUT", "out"))
    return out_dir / f"{opts['protocol']}_{opts['scenario']}.csv"


def main(argv=None) -> int:
    try:
        opts = resolve_options(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:   # --help
        return 0 if exc.code in (0, None) else 2

    out_path = Path(opts["out"]) if opts["out"] else default_out_path(opts)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    trace_dir = Path(opts["trace_dir"]) if opts["trace_dir"] else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)

    if opts["scenario"] == "custom-file":
        builder = functools.partial(custom_file, opts["scenario_fields"])
    else:
        builder = BUILDERS[opts["scenario"]]
    rows = [CSV_HEADER]
    failures = 0
    for n in opts["n_list"]:
        for seed in opts["seed_list"]:
            try:
                cfg = builder(n, seed, opts["protocol"], opts["delta_frac"],
                              opts["gst_frac"], opts["epsilon_frac"])
            except (ValueError, ZeroDivisionError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            try:
                result = run_scenario(cfg)
            except (AdversaryViolation, LivelockError) as exc:
                failures += 1
                print(f"[FAIL] {cfg.protocol} n={n} seed={seed} "
                      f"scenario={cfg.name} error={type(exc).__name__}: {exc}")
                continue
            report = result.report
            rows.append(report.csv_row())
            status = "ok"
            if report.violations or not report.decided:
                failures += 1
                status = "FAIL"
            print(f"[{status}] {cfg.protocol} n={n} seed={seed} "
                  f"scenario={cfg.name} words={report.words_post_gst} "
                  f"t_s={report.t_s} t_d={report.t_d} "
                  f"violations={len(report.violations)}")
            for v in report.violations:
                print(f"    {v}")
            if trace_dir:
                name = f"{cfg.protocol}_{cfg.name}_n{n}_seed{seed}.trace"
                (trace_dir / name).write_text(result.trace.serialize())
    out_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {out_path}")
    return 1 if failures else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
