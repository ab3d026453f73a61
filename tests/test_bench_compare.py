"""The verdict rules and records of scripts/bench_compare.py, on made-up run
values: no benchmark is started."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "scripts" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.mark.parametrize("change, better, verdict, won", [
    ([v * 1.3 for v in PARENT], "higher", "gain", 10),
    ([v / 1.3 for v in PARENT], "lower", "gain", 10),
    ([v * 0.7 for v in PARENT], "higher", "regression", 0),
    ([v + (1 if i % 2 else -1) for i, v in enumerate(PARENT)], "higher",
     "no regression", 5),
    ([130, 131, 129, 130, 132, 128, 130, 131, 129, 98], "higher", "gain", 9),
    ([130, 131, 129, 130, 132, 128, 130, 131, 97, 98], "higher", "no regression", 8),
])
def test_verdicts(change, better, verdict, won):
    out = bench_compare.compare(PARENT, change, better, 0.25)
    assert out["verdict"] == verdict
    assert out["pairs_won"] == won
    assert out["parent"]["median"] == 100


def test_wide_parent_spread_is_unresolved_unless_separated():
    parent = [50, 150, 60, 140, 100, 100, 55, 145, 100, 100]
    assert bench_compare.compare(parent, [v * 0.95 for v in parent], "higher",
                                 0.25)["verdict"] == "unresolved"
    assert bench_compare.compare(parent, [200 + i for i in range(10)], "higher",
                                 0.25)["verdict"] == "gain"


METRICS = [{"name": "events_per_s", "better": "higher", "bound": 0.25},
           {"name": "run_s.p50", "better": "lower", "bound": 0.25}]


def fake_run(events_per_s, failed=0, wall_s=30.0):
    """A perfbench/run.py summary line with the fields bench_compare reads,
    and the wall seconds run_bench adds to it."""
    return {"correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {"events_per_s": {"value": events_per_s},
                        "run_s.p50": {"value": 1000 / events_per_s},
                        "peak_rss_mb": {"value": 40.0}, "setup_s": {"value": 0.2}},
            "wall_s": wall_s}


def test_run_bench_adds_the_wall_seconds_of_the_benchmark_process(tmp_path, monkeypatch):
    clock = iter([100.0, 137.5])
    line = json.dumps(fake_run(120.0))

    def run(argv, **kwargs):   # stands in for the perfbench/run.py process
        assert argv[1] == "perfbench/run.py" and kwargs["cwd"] == tmp_path
        return subprocess.CompletedProcess(argv, 0, stdout=f"# a comment\n{line}\n",
                                           stderr="")

    monkeypatch.setattr(bench_compare, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    monkeypatch.setattr(bench_compare, "subprocess", SimpleNamespace(run=run))
    out = bench_compare.run_bench(tmp_path, "random_mix", 3, 25.0)
    assert out["wall_s"] == 37.5
    assert out["metrics"] == json.loads(line)["metrics"]


def test_a_failed_gate_on_the_change_side_is_never_a_gain():
    parent = [fake_run(v) for v in PARENT]
    change = [fake_run(v * 1.5, failed=int(i == 9)) for i, v in enumerate(PARENT)]
    entry = bench_compare.summarize({"parent": parent, "change": change},
                                    ["parent", "change"] * 5, METRICS)
    assert entry["failed"]["change"] == [0] * 9 + [1]
    assert {m: c["verdict"] for m, c in entry["metrics"].items()} == \
        {"events_per_s": "gate failed", "run_s.p50": "gate failed"}
    # the same numbers with every gate passed are a gain
    passed = [fake_run(v * 1.5) for v in PARENT]
    entry = bench_compare.summarize({"parent": parent, "change": passed},
                                    ["parent", "change"] * 5, METRICS)
    assert {c["verdict"] for c in entry["metrics"].values()} == {"gain"}


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_main_exits_1_when_the_change_fails_the_gate(tmp_path, monkeypatch, capsys,
                                                     failed, code):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(bench_compare, "ROOT", tmp_path)
    monkeypatch.setattr(bench_compare, "git", lambda *args: "")
    monkeypatch.setattr(bench_compare, "export", lambda rev, dest: None)

    def run_bench(checkout, workload, seed, seconds):
        if checkout == tmp_path:    # the change side
            return fake_run(130.0 + seed, failed=failed, wall_s=20.0 + seed)
        return fake_run(100.0 + seed, wall_s=30.0 + seed)

    monkeypatch.setattr(bench_compare, "run_bench", run_bench)
    assert bench_compare.main(["--label", "t", "--workload", "random_mix",
                               "--workload", "squad_worst",
                               "--pairs", "4", "--first-seed", "3"]) == code
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    # seeds 3-6: the wall seconds of every run, their median per side and
    # workload, and the sum of those medians over the workloads
    wall = record["workloads"]["random_mix"]["wall_s"]
    assert wall == {"parent": {"median": 34.5, "runs": [33.0, 34.0, 35.0, 36.0]},
                    "change": {"median": 24.5, "runs": [23.0, 24.0, 25.0, 26.0]}}
    assert record["wall_s"] == {"parent": 69.0, "change": 49.0}
    printed = capsys.readouterr().out
    assert "random_mix      wall_s        parent 34.5 change 24.5" in printed
    assert "all workloads   wall_s        parent 69.0 change 49.0" in printed
    verdicts = {m: c["verdict"]
                for m, c in record["workloads"]["random_mix"]["metrics"].items()}
    if failed:
        assert set(verdicts.values()) == {"gate failed"}
    else:
        assert verdicts == {"events_per_s": "gain", "run_s.p50": "gain",
                            "peak_rss_mb": "no regression",
                            "setup_s": "no regression"}


@pytest.mark.parametrize("flag", ["--workdir", "--parent", "--workload"])
def test_unusable_workdir_or_parent_exits_2_without_a_traceback(tmp_path, monkeypatch,
                                                                capsys, flag):
    def git(*args):
        if args[0] == "rev-parse":   # as git fails on a revision it cannot resolve
            raise subprocess.CalledProcessError(1, ["git", *args])
        return ""

    def run_bench(*args):
        raise AssertionError("no run starts on bad input")

    monkeypatch.setattr(bench_compare, "git", git)
    monkeypatch.setattr(bench_compare, "run_bench", run_bench)
    bad = {"--workdir": str(tmp_path / "missing"), "--parent": "no-such-rev",
           "--workload": "no_such_workload"}[flag]
    argv = ["--label", "t", "--workload", "random_mix", "--first-seed", "3", flag, bad]
    with pytest.raises(SystemExit) as exit_:
        bench_compare.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("bench_compare: ") and bad in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("seconds", ["0", "-1", "nan"])
def test_nonpositive_seconds_exits_2_before_any_export(monkeypatch, capsys, seconds):
    def refuse(*args):
        raise AssertionError("nothing is exported or run on bad input")

    for name in ("git", "export", "run_bench"):
        monkeypatch.setattr(bench_compare, name, refuse)
    argv = ["--label", "t", "--workload", "random_mix", "--first-seed", "3",
            "--seconds", seconds]
    with pytest.raises(SystemExit) as exit_:
        bench_compare.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("bench_compare: --seconds ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [("--pairs", "1"), ("--pairs", "0"),
                                         ("--first-seed", "-1")])
def test_too_few_pairs_or_a_negative_seed_exits_2_before_any_export(
        monkeypatch, capsys, flag, value):
    def refuse(*args):
        raise AssertionError("nothing is exported or run on bad input")

    for name in ("git", "export", "run_bench"):
        monkeypatch.setattr(bench_compare, name, refuse)
    argv = ["--label", "t", "--workload", "random_mix", "--first-seed", "3",
            flag, value]
    with pytest.raises(SystemExit) as exit_:
        bench_compare.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err == f"bench_compare: {flag} must be " + (
        f"at least 2, not {value}" if flag == "--pairs" else f"nonnegative, not {value}")
