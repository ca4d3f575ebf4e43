import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waringtk
from waringtk.cli import COMMANDS, run
from waringtk.powersets import rep_count_table, write_table_cache


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_exit_zero_and_csv_shape(capsys):
    code, out = run_capture(["expsum", "--q", "5", "--a", "2", "--k", "2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows and "q" in rows[0]


def parse_csv(text):
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(data))))


def test_exit_one_on_usage_error(capsys):
    assert run(["expsum", "--q", "5"]) == 1  # missing required --a/--k
    assert run(["nonsense"]) == 1
    capsys.readouterr()


def test_exit_two_on_precondition(capsys):
    # S_k needs gcd(a, q) = 1
    code, _ = run_capture(["expsum", "--q", "6", "--a", "3", "--k", "2"], capsys)
    assert code == 2


def test_exit_three_on_budget(capsys):
    code, _ = run_capture(
        ["count", "conje", "--nmax", "2000000", "--k", "2", "--l", "2", "--t", "8", "--s", "1", "--r", "0"],
        capsys,
    )
    assert code == 3


def test_golden_determinism(capsys):
    argv = ["series", "trunc", "--n", "10", "--Q", "40", "--k", "2", "--l", "2", "--t", "8", "--s", "1"]
    _, out1 = run_capture(argv, capsys)
    _, out2 = run_capture(argv, capsys)
    assert out1 == out2


def test_json_mode(capsys):
    code, out = run_capture(
        ["local", "--p", "3", "--h", "1", "--n", "0", "--k", "2", "--l", "2", "--t", "8", "--s", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = [json.loads(ln) for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert payload and "count" in payload[0]


def test_global_flag_position_invariant(capsys):
    _, a = run_capture(["--format", "json", "expsum", "--q", "5", "--a", "1", "--k", "2"], capsys)
    _, b = run_capture(["expsum", "--q", "5", "--a", "1", "--k", "2", "--format", "json"], capsys)
    assert a == b


def test_out_file(tmp_path, capsys):
    path = os.path.join(tmp_path, "out.csv")
    code, out = run_capture(["expsum", "--q", "7", "--a", "3", "--k", "2", "--out", path], capsys)
    assert code == 0 and out == ""
    with open(path) as fh:
        assert parse_csv(fh.read())


def test_cache_warm_cold_identical(tmp_path, capsys):
    argv = ["sieve", "--l", "2", "--t", "4", "--limit", "200", "--cache-dir", str(tmp_path)]
    _, cold = run_capture(argv, capsys)
    assert os.path.exists(os.path.join(tmp_path, "tables", "l2_t4_N200.bin"))
    _, warm = run_capture(argv, capsys)
    assert "cache=miss" in cold and "cache=hit" in warm
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("#")]
    assert strip(cold) == strip(warm)


def test_cache_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WFC_CACHE_DIR", str(tmp_path))
    run_capture(["sieve", "--l", "2", "--t", "2", "--limit", "100"], capsys)
    assert os.path.exists(os.path.join(tmp_path, "tables", "l2_t2_N100.bin"))


def test_config_file(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("q=5\na=2\nk=2\n")
    _, via_cfg = run_capture(["expsum", "--config", cfg], capsys)
    _, direct = run_capture(["expsum", "--q", "5", "--a", "2", "--k", "2"], capsys)
    assert via_cfg == direct
    # explicit argv wins over config
    _, override = run_capture(["expsum", "--config", cfg, "--a", "3"], capsys)
    _, want = run_capture(["expsum", "--q", "5", "--a", "3", "--k", "2"], capsys)
    assert override == want


def test_config_equals_spelling(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("q=5\na=2\nk=2\n")
    code, via_cfg = run_capture(["expsum", f"--config={cfg}"], capsys)
    _, direct = run_capture(["expsum", "--q", "5", "--a", "2", "--k", "2"], capsys)
    assert code == 0
    assert via_cfg == direct
    _, override = run_capture(["expsum", f"--config={cfg}", "--a=3"], capsys)
    _, want = run_capture(["expsum", "--q", "5", "--a", "3", "--k", "2"], capsys)
    assert override == want


@pytest.mark.parametrize("spelling", ["--conf {}", "--conf={}", "--co {}", "--co={}", "--config {}"])
def test_config_abbreviations(tmp_path, capsys, spelling):
    """argparse accepts a unique prefix of --config, so the file is read
    for each spelling, before or after the subcommand."""
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("q=5\na=2\nk=2\n")
    flag = spelling.format(cfg).split(" ")
    _, direct = run_capture(["expsum", "--q", "5", "--a", "2", "--k", "2"], capsys)
    for argv in (["expsum", *flag], [*flag, "expsum"]):
        code, via_cfg = run_capture(argv, capsys)
        assert code == 0, argv
        assert via_cfg == direct


@pytest.mark.parametrize("given", [["--nm", "30"], ["--nm=30"], ["--nmax", "30"]])
def test_abbreviated_flag_wins_over_config(tmp_path, capsys, given):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("nmax=20\nk=2\nl=2\nxi=5\ns=2\n")
    _, want = run_capture(["count", "thm13", "--nmax", "30", "--k", "2", "--l", "2", "--xi", "5", "--s", "2"], capsys)
    for argv in (["count", "thm13", "--co", cfg, *given], ["count", "thm13", *given, f"--conf={cfg}"]):
        code, out = run_capture(argv, capsys)
        assert code == 0, argv
        assert out == want


def test_ambiguous_config_prefix_is_a_usage_error(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("q=5\na=2\nk=2\n")
    assert run(["expsum", "--c", cfg]) == 1  # --cache-dir or --config
    assert "ambiguous option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "thm13", "--nmax", "-5", "--k", "2", "--l", "2", "--xi", "5", "--s", "2"],
        ["count", "conje", "--nmax", "-3", "--k", "2", "--l", "2", "--t", "8", "--s", "1", "--r", "1"],
        ["count", "main-term", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--n", "-5"],
        ["count", "k2", "--t", "2", "--X", "-30"],
        ["count", "k2", "--t", "2", "--X", "30", "--Y", "-3"],
    ],
    ids=["thm13", "conje", "main-term", "k2-X", "k2-Y"],
)
def test_negative_size_is_a_precondition_violation(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "precondition violation" in err and "Traceback" not in err


_LOCAL = ["local", "--p", "3", "--h", "2", "--n", "4"]
_LOCAL_REST = ["--k", "2", "--l", "2", "--t", "8", "--s", "2"]


@pytest.mark.parametrize("value, flagged", [("1", True), ("true", True), ("Yes", True), ("on", True),
                                            ("0", False), ("false", False), ("no", False), ("OFF", False)])
def test_config_sets_switch(tmp_path, capsys, value, flagged):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write(f"star={value}\nk=2\nl=2\nt=8\ns=2\n")
    code, via_cfg = run_capture(_LOCAL + ["--config", cfg], capsys)
    _, direct = run_capture(_LOCAL + _LOCAL_REST + (["--star"] if flagged else []), capsys)
    assert code == 0
    assert via_cfg == direct
    assert ("Mstar" in via_cfg) == flagged


def test_config_switch_bad_value_exits_two(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("star=maybe\nk=2\nl=2\nt=8\ns=2\n")
    assert run(_LOCAL + [f"--config={cfg}"]) == 2
    err = capsys.readouterr().err
    assert "star='maybe'" in err and "Traceback" not in err


def test_python_dash_m_runs_cli(capsys):
    argv = ["expsum", "--q", "5", "--a", "2", "--k", "2"]
    _, want = run_capture(argv, capsys)
    src = os.path.dirname(os.path.dirname(waringtk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "waringtk", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_seed_recorded_in_header(capsys):
    _, out = run_capture(
        ["integral", "udecay", "--n", "500", "--t", "8", "--k", "2", "--l", "2", "--samples", "12", "--seed", "7"],
        capsys,
    )
    assert "seed=7" in out


def test_classify_reports_arc(capsys):
    _, out = run_capture(
        ["arcs", "classify", "--alpha", "0.3334", "--n", "10000", "--Q", "10"], capsys
    )
    rows = parse_csv(out)
    assert rows[0]["classification"] == "major"
    assert int(rows[0]["q"]) == 3


def test_report_runs(capsys):
    code, out = run_capture(
        ["report", "--k", "2", "--l", "2", "--t", "8", "--xi", "5", "--n", "50000"], capsys
    )
    assert code == 0
    assert parse_csv(out)


@pytest.mark.parametrize(
    "config, code",
    [(None, 1), ("missing", 2), ("q=5\nnot a pair\n", 2)],
    ids=["dangling-flag", "missing-file", "malformed-line"],
)
def test_config_errors_map_to_exit_codes(tmp_path, capsys, config, code):
    argv = ["expsum", "--q", "5", "--a", "2", "--k", "2", "--config"]
    if config is not None:
        path = os.path.join(tmp_path, "cfg")
        if config != "missing":
            with open(path, "w") as fh:
                fh.write(config)
        argv.append(path)
    assert run(argv) == code
    assert capsys.readouterr().err


def test_out_unwritable_exits_two(tmp_path, capsys):
    path = os.path.join(tmp_path, "no-such-dir", "x.csv")
    assert run(["expsum", "--q", "7", "--a", "3", "--k", "2", "--out", path]) == 2
    assert "precondition violation" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "wrong-limit"])
def test_bad_cache_file_is_a_miss(tmp_path, capsys, damage):
    argv = ["sieve", "--l", "2", "--t", "4", "--limit", "200", "--cache-dir", str(tmp_path)]
    _, fresh = run_capture(argv, capsys)
    path = os.path.join(tmp_path, "tables", "l2_t4_N200.bin")
    if damage == "truncated":
        with open(path, "r+b") as fh:
            fh.truncate(100)
    else:  # a whole, valid table, but for limit 100, under the limit-200 name
        write_table_cache(rep_count_table(2, 4, 100), path)
    code, out = run_capture(argv, capsys)
    assert code == 0 and "cache=miss" in out
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("#")]
    assert strip(out) == strip(fresh)
    _, again = run_capture(argv, capsys)  # the miss rewrote the file
    assert "cache=hit" in again


_NOISE = (["--bogus", "1"], ["--format", "xml"], ["--out", "/nonexistent/dir/x.csv"], ["--config", "/nonexistent/cfg"])


@st.composite
def malformed_argv(draw):
    """argv for one leaf of COMMANDS with at least one defect that argparse
    or the config loader rejects, so that no example starts a computation."""
    path = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[path][2]
    broken = draw(st.sampled_from([f for f, kw in flags.items() if kw.get("required")]))
    defect = draw(st.sampled_from(["omitted", "not-a-number", "no-value"]))
    argv = list(path)
    for flag, kwargs in flags.items():
        if flag == broken:
            if defect == "not-a-number":
                argv += [flag, draw(st.sampled_from(["x", "1.5e", "", "--"]))]
        elif kwargs.get("action") == "store_true":
            argv += [flag] if draw(st.booleans()) else []
        elif kwargs.get("required") or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(["1", "2", "0", "-1"]))]
    for noise in draw(st.lists(st.sampled_from(_NOISE), max_size=2)):
        argv += noise
    if defect == "no-value":
        argv.append(broken)
    if draw(st.booleans()):
        argv.append("--config")
    return argv


@settings(max_examples=200, deadline=None)
@given(malformed_argv())
def test_malformed_argv_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (1, 2), (code, argv)
    assert "Traceback" not in err.getvalue()
