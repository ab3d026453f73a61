"""Record the output-gate reference: for the default seed of every
workload, full and tiny, the CSV row, trace SHA-256 and event count of
each run. Rerun only when a change is meant to alter traces or CSV rows.

    python3 perfbench/record_reference.py
"""

import json

import workloads as wl


def main() -> None:
    runs = {}
    for workload in wl.WORKLOADS:
        for tiny in (False, True):
            for unit in wl.build_units(wl.run_units(workload, wl.DEFAULT_SEED, tiny)):
                for spec, cfg in unit:
                    _, outcome, error = wl.timed_run(cfg)
                    problem = error or outcome.problem()
                    if problem:
                        raise SystemExit(f"{spec.key}: {problem}")
                    runs[spec.key] = outcome.reference_fields()
    wl.REFERENCE_FILE.write_text(
        json.dumps({"seed": wl.DEFAULT_SEED, "runs": runs}, indent=1,
                   sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {wl.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
