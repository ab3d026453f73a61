import io
import os
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from squadsim import cli, run_scenario, worst_case
from squadsim.cli import main, parse_seed_range
from squadsim.crypto import CryptoSystem, ThresholdTooSmall
from squadsim.engine import AdversaryViolation
from squadsim.metrics import CSV_HEADER


def run_cli(tmp_path, *args, env_out=None):
    out = tmp_path / "results.csv"
    argv = list(args) + ["--out", str(out)]
    code = main(argv)
    return code, out


def test_happy_sweep_exit_zero(tmp_path):
    code, out = run_cli(tmp_path, "--protocol", "raresync-quad", "--n", "4",
                        "--scenario", "happy", "--seeds", "0..2")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "raresync-quad" and fields[1] == "4"
        assert fields[-1] == "0"    # violations


def test_rejects_bad_n(tmp_path):
    code, _ = run_cli(tmp_path, "--n", "5")
    assert code == 2


def test_rejects_unknown_scenario():
    assert main(["--scenario", "nope"]) == 2


def test_rejects_bad_delta(tmp_path):
    code, _ = run_cli(tmp_path, "--delta", "0")
    assert code == 2


def test_same_config_gives_identical_csv_bytes(tmp_path):
    args = ("--protocol", "squad", "--n", "4", "--scenario", "worst_case",
            "--seeds", "0..1")
    _, out1 = run_cli(tmp_path / "a", *args)
    _, out2 = run_cli(tmp_path / "b", *args)
    assert out1.read_bytes() == out2.read_bytes()


def test_worst_case_sweep_clean(tmp_path):
    code, out = run_cli(tmp_path, "--protocol", "squad", "--n", "4,7",
                        "--scenario", "worst_case", "--seeds", "0..1")
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    # rows come in (n, seed) order
    assert [r.split(",")[1] for r in rows] == ["4", "4", "7", "7"]


def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=squad\nn=4\nscenario=happy\nseeds=0\n")
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--protocol", "raresync-quad",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("raresync-quad,4")


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    assert main(["--config", str(cfg)]) == 2


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SQUADSIM_OUT", str(tmp_path / "envout"))
    code = main(["--protocol", "raresync-quad", "--n", "4",
                 "--scenario", "happy", "--seeds", "0"])
    assert code == 0
    assert (tmp_path / "envout" / "raresync-quad_happy.csv").exists()


def test_trace_files_are_replay_identical(tmp_path):
    args = ["--protocol", "squad", "--n", "4", "--scenario", "worst_case",
            "--seeds", "0"]
    blobs = []
    for i in range(3):
        tdir = tmp_path / f"t{i}"
        code = main(args + ["--trace-dir", str(tdir),
                            "--out", str(tmp_path / f"o{i}.csv")])
        assert code == 0
        blobs.append((tdir / "squad_worst_case_n4_seed0.trace").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0] == run_scenario(worst_case(4, 0, "squad")).trace.serialize().encode()


def test_sweep_frees_each_run_before_the_next(tmp_path, monkeypatch):
    real_run, traces = cli.run_scenario, []

    def run_and_watch(cfg):
        assert all(trace() is None for trace in traces), "an earlier run is alive"
        result = real_run(cfg)
        traces.append(weakref.ref(result.trace))
        return result

    monkeypatch.setattr(cli, "run_scenario", run_and_watch)
    code, _ = run_cli(tmp_path, "--protocol", "squad", "--n", "4,7",
                      "--scenario", "worst_case", "--seeds", "0..1")
    assert code == 0 and len(traces) == 4


def test_parse_seed_range_forms():
    assert parse_seed_range("0..3") == [0, 1, 2, 3]
    assert parse_seed_range("7") == [7]
    assert parse_seed_range("1,4,9") == [1, 4, 9]


def test_custom_file_scenario(tmp_path):
    scen = tmp_path / "scenario.cfg"
    scen.write_text(
        "byzantine=4\nstrategy=silent\nproposals=9\ndrift=1:1/2\npolicy=max\n")
    out = tmp_path / "c.csv"
    code = main(["--protocol", "raresync-quad", "--n", "4",
                 "--scenario", "custom-file", "--scenario-file", str(scen),
                 "--seeds", "0", "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "custom-file" and row[-1] == "0"


def test_custom_file_requires_path():
    assert main(["--scenario", "custom-file"]) == 2


@pytest.mark.parametrize("scenario, args, config, message", [
    pytest.param("drift=0\n", [], None, "", id="zero-drift"),
    pytest.param("drift=1/0\n", [], None, "", id="zero-denominator"),
    pytest.param("byzantine=9\n", [], None, "", id="byzantine-id-out-of-range"),
    pytest.param("drift=9:2\n", [], None, "", id="drift-id-out-of-range"),
    pytest.param("bogus=1\n", [], None, "", id="unknown-scenario-key"),
    pytest.param("byzantine=4\nstrategy silent\n", [], None, "",
                 id="line-without-equals"),
    pytest.param("start=-3\n", [], None, "nonnegative", id="negative-start"),
    pytest.param(None, ["--seeds", "5..1"], None, "", id="empty-seeds"),
    pytest.param(None, ["--n", ""], None, "", id="empty-n"),
    pytest.param(None, ["--epsilon", "-1"], None, "", id="negative-epsilon"),
    pytest.param(None, ["--delta", ""], None, "", id="empty-delta"),
    pytest.param(None, ["--gst", ""], None, "", id="empty-gst"),
    pytest.param(None, ["--scenario", "random", "--epsilon", "-1"], None,
                 "epsilon", id="random-negative-epsilon"),
    pytest.param(None, ["--scenario", "random", "--gst", "50"], None,
                 "draws its GST per seed", id="random-gst-flag"),
    pytest.param(None, ["--scenario", "random"], "gst=7\n",
                 "draws its GST per seed", id="random-gst-config-key"),
    pytest.param(None, ["--scenario", "nope"], None, "invalid choice",
                 id="unknown-scenario-flag"),
    pytest.param(None, ["--scenario", "worst_case", "--gst", "0"], None,
                 "gst >= 5*delta = 5", id="worst-case-gst-below-minimum"),
    pytest.param(None, ["--scenario", "scenario_s", "--gst", "1"], None,
                 "gst >= three views plus delta", id="scenario-s-gst-below-minimum"),
])
def test_malformed_input_is_config_error(tmp_path, capsys, scenario, args,
                                         config, message):
    argv = ["--protocol", "raresync-quad", "--n", "4"] + args
    if scenario is not None:
        scen = tmp_path / "scenario.cfg"
        scen.write_text(scenario)
        argv += ["--scenario", "custom-file", "--scenario-file", str(scen)]
    if config is not None:
        conf = tmp_path / "run.cfg"
        conf.write_text(config)
        argv += ["--config", str(conf)]
    code, out = run_cli(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err
    assert message in err
    assert not out.exists()


def test_a_config_error_in_a_later_size_is_refused_before_any_run(tmp_path, capsys):
    # byzantine={5,6} is legal at n=7 (f=2) but not at n=4 (f=1)
    scen = tmp_path / "scenario.cfg"
    scen.write_text("byzantine=5,6\n")
    out = tmp_path / "results" / "r.csv"
    code = main(["--n", "7,4", "--seeds", "0..1", "--scenario", "custom-file",
                 "--scenario-file", str(scen), "--out", str(out)])
    printed = capsys.readouterr()
    assert code == 2
    assert printed.out == ""
    assert "config error: byzantine set exceeds f" in printed.err
    assert not out.parent.exists()


# -- the input contract over random flag sets and scenario files ---------------

# well-formed and malformed values per option; n stays <= 7 and at most
# two seeds run, so one example costs a few small runs
_FLAG_VALUES = {
    "protocol": (["squad", "raresync-quad", "alltoall", "doubling"], ["paxos"]),
    "scenario": (["happy", "worst_case", "scenario_s", "equivocate", "random"],
                 ["nope"]),
    "n": (["4", "7", "4,7"], ["5", "1", "", "x"]),
    "seeds": (["0", "3", "0..1", "1,2"], ["5..1", "", "y"]),
    "gst": (["0", "7/2", "20"], ["-1", "1/0", "z"]),
    "epsilon": (["0", "1/100", "3", ""], ["-1", "e"]),
    "delta": (["1", "1/2"], ["0", "-2", "d"]),
}
_SCENARIO_VALUES = {
    "byzantine": (["", "4", "2,3"], ["9", "0", "-1", "b"]),
    "strategy": (["silent", "equivocate", "spam_enter_epoch", "cert_attack"], ["evil"]),
    "proposals": (["distinct", "9"], ["p"]),
    "drift": (["1/2", "2", "1:1/3"], ["0", "-1", "9:2", "1/0", "r"]),
    "policy": (["max", "jitter", "random"], ["slow"]),
    "start": (["0", "3", "1:2"], ["-3", "100", "9:1", "s"]),
}
# malformations of the scenario file itself rather than of one value
_BAD_FILE = ("missing-file", "bogus=1", "no equals sign")


@st.composite
def cli_inputs(draw):
    """(flags, config-file lines, scenario-file text) for one CLI call.

    At most one option is malformed (none in about a third of the calls),
    so each malformed value reaches its own check instead of hiding behind
    an earlier one. Every option that is drawn goes on the command line or
    into a --config file; at least half the calls use a custom-file
    scenario."""
    bad = draw(st.sampled_from([None] * 8 + [*_FLAG_VALUES, *_SCENARIO_VALUES,
                                             *_BAD_FILE]))
    custom = bad in _SCENARIO_VALUES or bad in _BAD_FILE or draw(st.booleans())

    def value(key, choices):
        good, malformed = choices
        return draw(st.sampled_from(malformed if key == bad else good))

    flags, config = [], []
    for key, choices in _FLAG_VALUES.items():
        if key == "scenario" and custom:
            text = "custom-file"
        elif key == bad or draw(st.booleans()):
            text = value(key, choices)
        else:
            continue
        if draw(st.booleans()):
            flags += [f"--{key}", text]
        else:
            config.append(f"{key}={text}")
    if not custom or bad == "missing-file":
        return flags, config, None
    lines = [f"{key}={value(key, choices)}" for key, choices in _SCENARIO_VALUES.items()
             if key == bad or draw(st.booleans())]
    if bad in _BAD_FILE:
        lines.append(bad)
    return flags, config, "\n".join(draw(st.permutations(lines))) + "\n"


@given(cli_inputs())
@settings(max_examples=300, deadline=None)
def test_any_input_ends_in_a_documented_exit(inputs):
    flags, config, scenario = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(flags) + ["--out", os.path.join(tmp, "o.csv")]
        # one seed at n=4 unless drawn: the default seed range runs five
        if not any(line.startswith("n=") for line in config) and "--n" not in flags:
            argv += ["--n", "4"]
        if not any(line.startswith("seeds=") for line in config) and "--seeds" not in flags:
            argv += ["--seeds", "0"]
        if config:
            path = os.path.join(tmp, "run.cfg")
            Path(path).write_text("\n".join(config) + "\n")
            argv += ["--config", path]
        if scenario is not None:
            path = os.path.join(tmp, "scenario.cfg")
            Path(path).write_text(scenario)
            argv += ["--scenario-file", path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err + out.getvalue()
    if code == 2:
        assert "config error" in err, (argv, err)
        assert out.getvalue() == "", (argv, out.getvalue())   # refused before any run


@pytest.mark.parametrize("error", [
    AdversaryViolation("post-GST delay 2 outside (0, delta]"),
], ids=["adversary"])
def test_runtime_error_is_a_reported_failure(tmp_path, monkeypatch, capsys, error):
    real_run = cli.run_scenario

    def run_or_raise(cfg):
        if cfg.seed == 0:
            raise error
        return real_run(cfg)

    monkeypatch.setattr(cli, "run_scenario", run_or_raise)
    code, out = run_cli(tmp_path, "--n", "4", "--seeds", "0..1")
    assert code == 1
    printed = capsys.readouterr()
    assert (f"[FAIL] squad n=4 seed=0 scenario=happy "
            f"error={type(error).__name__}: {error}") in printed.out.splitlines()
    assert "[ok] squad n=4 seed=1" in printed.out
    assert "Traceback" not in printed.out + printed.err
    # the failed run has no report, so only seed 1 has a row
    rows = out.read_text().splitlines()
    assert rows[0] == CSV_HEADER and [r.split(",")[3] for r in rows[1:]] == ["1"]


def test_handler_exception_is_a_reported_protocol_error(tmp_path, monkeypatch, capsys):
    def combine(self, partials):
        raise ThresholdTooSmall("planted")

    monkeypatch.setattr(CryptoSystem, "combine", combine)
    code, out = run_cli(tmp_path, "--protocol", "squad", "--n", "4",
                        "--scenario", "worst_case", "--seeds", "0")
    assert code == 1
    printed = capsys.readouterr()
    (line,) = printed.out.splitlines()[:-1]    # the last line names the CSV
    assert line.startswith("[FAIL] squad n=4 seed=0 scenario=worst_case "
                           "error=ProtocolError: P")
    assert "raised ThresholdTooSmall: planted while handling" in line
    assert "Traceback" not in printed.out + printed.err
    assert out.read_text().splitlines() == [CSV_HEADER]


def test_an_undecided_run_names_its_horizon(tmp_path, capsys):
    # randomized doubling n=4 seed 5 is undecided at its horizon; only its
    # FAIL line changes, never an [ok] line or a CSV row
    code, out = run_cli(tmp_path, "--protocol", "doubling", "--scenario", "random",
                        "--n", "4", "--seeds", "4..6")
    assert code == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "[ok] doubling n=4 seed=4 scenario=random words=55 t_s=5363/192 "
        "t_d=529/16 violations=0",
        "[FAIL] doubling n=4 seed=5 scenario=random words=57 t_s=None t_d=None "
        "violations=0 horizon=8203/50",
        "[ok] doubling n=4 seed=6 scenario=random words=57 t_s=1287/64 "
        "t_d=691/32 violations=0"]
    assert out.read_text().splitlines()[1:] == [
        "doubling,4,1,4,random,55,0,5363/192,529/16,321/16,2,0",
        "doubling,4,1,5,random,57,0,,,,2,0",
        "doubling,4,1,6,random,57,0,1287/64,691/32,499/32,2,0"]


@pytest.mark.parametrize("out, trace_dir", [
    pytest.param("results.csv", "file", id="trace-dir-is-a-file"),
    pytest.param("results.csv", "file/traces", id="trace-dir-under-a-file"),
    pytest.param("file/results.csv", None, id="out-parent-is-a-file"),
    pytest.param("dir", None, id="out-is-a-directory"),
])
def test_unusable_output_path_is_config_error(tmp_path, capsys, out, trace_dir):
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "dir").mkdir()
    argv = ["--n", "4", "--seeds", "0", "--out", str(tmp_path / out)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(tmp_path / trace_dir)]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert "config error" in printed.err
    assert "Traceback" not in printed.out + printed.err
    assert printed.out == ""   # refused before any run
    assert (tmp_path / "file").read_text() == "not a directory\n"
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("flags", [[], ["--gst", "1e400"], ["--delta", "1e400"]],
                         ids=["delta-1", "gst-beyond-float-range",
                              "delta-beyond-float-range"])
def test_times_beyond_the_float_range_run_exactly(tmp_path, capsys, flags):
    code, out = run_cli(tmp_path, "--n", "4", "--seeds", "0", *flags)
    printed = capsys.readouterr()
    assert code == 0, printed.out + printed.err
    assert printed.out.startswith("[ok] squad n=4 seed=0 scenario=happy words=76 ")
    assert len(out.read_text().splitlines()) == 2
