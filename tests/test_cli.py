import contextlib
import csv
import importlib
import inspect
import io
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import time

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


def test_series_budget_exits_three_before_any_table(capsys):
    start = time.perf_counter()
    code, _ = run_capture(
        ["series", "trunc", "--n", "10", "--Q", "5001", "--k", "2", "--l", "2", "--t", "8", "--s", "1"], capsys
    )
    assert code == 3
    assert time.perf_counter() - start < 5.0  # building the 5000 tables takes minutes


@pytest.mark.parametrize(
    "argv",
    [
        ["expsum", "--q", "1000000000000", "--a", "1", "--k", "2"],
        ["arcs", "classify", "--alpha", "0.3", "--n", "100", "--Q", "1000000000000"],
    ],
    ids=["expsum-q", "classify-Q"],
)
def test_unscannable_sizes_exit_three_at_once(capsys, argv):
    """q = 10^12 cannot be allocated and Q = 10^12 denominators take days
    to scan: both exit 3 before any work."""
    start = time.perf_counter()
    assert run(argv) == 3
    assert "resource budget exceeded" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("grid, code", [("x", 1), ("50,x", 1), ("1.5", 1), (",", 2)])
@pytest.mark.parametrize("via_config", [False, True], ids=["argv", "config"])
def test_bad_density_grid_never_raises(tmp_path, capsys, grid, code, via_config):
    """A grid that is not a list of integers is a usage error; an empty
    one is a precondition violation."""
    argv = ["density", "--r", "2", "--l", "2"]
    if via_config:
        path = os.path.join(tmp_path, "cfg")
        with open(path, "w") as fh:
            fh.write(f"grid={grid}\n")
        argv += ["--config", path]
    else:
        argv += ["--grid", grid]
    assert run(argv) == code
    assert "Traceback" not in capsys.readouterr().err


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


def test_parser_built_twice_only_for_a_config_prefix(capsys, monkeypatch):
    """The explicit parser behind --config is built only when a token
    before `=` could be a prefix of --config; the output is the same."""
    from waringtk import cli

    built = []
    real = cli.build_parser

    def counting(*args, **kwargs):
        built.append(kwargs.get("explicit", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting)
    argv = ["expsum", "--q", "5", "--a", "2", "--k", "2"]
    code, want = run_capture(argv, capsys)
    assert code == 0 and built == [False]
    cases = [(["--format", "csv"], 1), (["--cache-dir=x"], 1), (["--cox"], 1), (["--c=x"], 2), (["--con"], 2)]
    for extra, builds in cases:
        del built[:]
        run(argv + extra)
        capsys.readouterr()
        assert len(built) == builds, extra
    del built[:]
    assert run_capture(argv + ["--format=csv"], capsys) == (0, want)
    assert built == [False]


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


_KLTS = ["--k", "2", "--l", "2", "--t", "8", "--s", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "trunc", "--n", "10", "--Q", "0", *_KLTS],
        ["count", "main-term", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--n", "50", "--Q", "0"],
        ["series", "positivity", "--n-lo", "2", "--n-hi", "30", "--Q", "0", *_KLTS],
        ["series", "trunc", "--n", "10", "--Q", "20", "--k", "0", "--l", "2", "--t", "8", "--s", "2"],
        ["series", "positivity", "--n-lo", "30", "--n-hi", "2", *_KLTS],
    ],
    ids=["trunc-Q0", "main-term-Q0", "positivity-Q0", "trunc-k0", "positivity-empty"],
)
def test_degenerate_series_is_a_precondition_violation(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "precondition violation" in captured.err and "Traceback" not in captured.err
    assert not [ln for ln in captured.out.splitlines() if ln and not ln.startswith("#")]


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


# a small valid argv for every leaf of COMMANDS
_SMALL = {
    ("sieve",): ["--l", "2", "--t", "2", "--limit", "50"],
    ("density",): ["--r", "2", "--l", "2"],
    ("expsum",): ["--q", "5", "--a", "2", "--k", "2", "--l", "2", "--t", "2"],
    ("local",): ["--p", "3", "--h", "1", "--n", "1", "--k", "2", "--l", "2", "--t", "2", "--s", "1"],
    ("series", "trunc"): ["--n", "10", "--Q", "5", "--k", "2", "--l", "2", "--t", "2", "--s", "1"],
    ("series", "snm"): ["--p", "3", "--h", "1", "--k", "2", "--l", "2", "--t", "2", "--s", "1", "--n", "1"],
    ("series", "positivity"): ["--n-lo", "2", "--n-hi", "4", "--k", "2", "--l", "2", "--t", "2", "--s", "1", "--Q", "5"],
    ("integral", "jprime"): ["--n", "100", "--s", "3", "--xi", "5", "--k", "2", "--l", "2"],
    ("integral", "jn"): ["--n", "100", "--s", "2", "--k", "2", "--l", "2", "--t", "8"],
    ("integral", "udecay"): ["--n", "100", "--t", "8", "--k", "2", "--l", "2", "--samples", "10", "--seed", "0"],
    ("arcs", "residual"): ["--n", "100", "--k", "2", "--l", "2", "--t", "8", "--Q", "3", "--samples", "3", "--seed", "0"],
    ("arcs", "weyl"): ["--n", "100", "--k", "2", "--l", "2", "--t", "8", "--samples", "3", "--seed", "0"],
    ("arcs", "classify"): ["--alpha", "0.3", "--n", "100", "--Q", "5", "--k", "2"],
    ("arcs", "vmv"): ["--s", "2", "--ksys", "2", "--r", "2", "--Y", "5", "--l", "2"],
    ("count", "conje"): ["--nmax", "50", "--k", "2", "--l", "2", "--t", "2", "--s", "1", "--r", "1"],
    ("count", "thm13"): ["--nmax", "50", "--k", "2", "--l", "2", "--xi", "5", "--s", "2"],
    ("count", "main-term"): ["--k", "2", "--l", "2", "--xi", "5", "--s", "2", "--n", "50", "--Q", "5"],
    ("count", "qm"): ["--n", "10000", "--k", "2", "--l", "2", "--t", "8"],
    ("count", "k2"): ["--t", "2", "--X", "10", "--l", "2", "--Y", "5"],
    ("report",): ["--k", "2", "--l", "2", "--t", "8", "--xi", "5", "--n", "1000"],
}


def _with_value(path, flag, value):
    argv = list(_SMALL[path])
    argv[argv.index(flag) + 1] = value
    return [*path, *argv]


# values that exit 2: each ended in a traceback or printed a report
# (a count for a non-prime p, a series for s < 0) before it was checked
_PRECONDITION = {
    (("local",), "--p", "0"), (("local",), "--p", "4"), (("local",), "--h", "-1"), (("local",), "--t", "0"),
    (("series", "snm"), "--p", "4"), (("series", "snm"), "--h", "-1"), (("series", "trunc"), "--s", "-1"),
    (("density",), "--r", "0"), (("count", "thm13"), "--k", "0"), (("count", "conje"), "--k", "0"),
    (("integral", "jprime"), "--n", "0"), (("integral", "jprime"), "--k", "0"), (("integral", "jn"), "--n", "0"),
    (("integral", "jn"), "--k", "1"), (("arcs", "classify"), "--n", "0"),
    (("arcs", "residual"), "--samples", "0"), (("arcs", "residual"), "--samples", "-1"),
    (("arcs", "weyl"), "--samples", "0"), (("arcs", "weyl"), "--samples", "-1"),
    (("integral", "jn"), "--s", "-1"), (("integral", "jn"), "--t", "0"), (("integral", "jn"), "--t", "-1"),
    (("arcs", "vmv"), "--l", "0"), (("arcs", "vmv"), "--l", "-1"),
}
_EDGES = sorted({
    (path, flag, value)
    for path, (_, _, flags) in COMMANDS.items()
    for flag, kwargs in flags.items()
    if kwargs.get("type") is int
    for value in ("0", "-1")
} | _PRECONDITION)


@pytest.mark.parametrize("path", list(COMMANDS), ids=" ".join)
def test_small_argv_is_valid(tmp_path, capsys, path):
    """The starting points of the edge-value test each give a report."""
    assert run([*path, *_SMALL[path], "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("path, flag, value", _EDGES, ids=[" ".join([*p, f, v]) for p, f, v in _EDGES])
def test_zero_and_negative_integers_never_raise(tmp_path, capsys, path, flag, value):
    """Every integer flag of every leaf at 0 and at -1 gives a report, a
    precondition violation or a budget violation, never a traceback."""
    code = run(_with_value(path, flag, value) + ["--cache-dir", str(tmp_path)])
    assert code in ((2,) if (path, flag, value) in _PRECONDITION else (0, 2, 3)), code
    assert "Traceback" not in capsys.readouterr().err


# The domain of each integer flag of each leaf, from the docstrings and
# input checks of the functions the leaf calls: the least value inside it,
# with the other flags as in _SMALL, or None where the flag has no lower
# bound (a residue n or a numerator a is read mod q, and the singular
# series is defined at every integer n).
_DOMAIN = {
    ("sieve",): {"--l": 1, "--t": 1, "--limit": 0},
    ("density",): {"--r": 1, "--l": 1},
    ("expsum",): {"--q": 1, "--a": None, "--k": 1, "--l": 1, "--t": 1},
    ("local",): {"--p": 2, "--h": 0, "--n": None, "--k": 1, "--l": 1, "--t": 1, "--s": 0},
    ("series", "trunc"): {"--n": None, "--Q": 1, "--k": 1, "--l": 1, "--t": 1, "--s": 0},
    ("series", "snm"): {"--p": 2, "--h": 0, "--k": 1, "--l": 1, "--t": 1, "--s": 0, "--n": None},
    # n_hi >= n_lo = 2
    ("series", "positivity"): {"--n-lo": None, "--n-hi": 2, "--k": 1, "--l": 1, "--t": 1, "--s": 0, "--Q": 1},
    ("integral", "jprime"): {"--n": 1, "--s": 2, "--xi": 1, "--k": 1, "--l": 1},
    ("integral", "jn"): {"--n": 2, "--s": 0, "--k": 2, "--l": 1, "--t": 1},
    ("integral", "udecay"): {"--n": 1, "--t": 1, "--k": 1, "--l": 1, "--samples": 10, "--seed": 0},
    # Q = 3 < P = n^(1/kl) needs n > 81
    ("arcs", "residual"): {"--n": 82, "--k": 1, "--l": 1, "--t": 1, "--Q": 1, "--samples": 1, "--seed": 0},
    ("arcs", "weyl"): {"--n": 1, "--k": 1, "--l": 1, "--t": 1, "--samples": 1, "--seed": 0},
    ("arcs", "classify"): {"--n": 1, "--Q": 1, "--k": 1},
    ("arcs", "vmv"): {"--s": 1, "--ksys": 1, "--r": 1, "--Y": 1, "--l": 1},
    ("count", "conje"): {"--nmax": 0, "--k": 1, "--l": 1, "--t": 1, "--s": 0, "--r": 0},
    ("count", "thm13"): {"--nmax": 0, "--k": 1, "--l": 1, "--xi": 1, "--s": 1},
    ("count", "main-term"): {"--k": 1, "--l": 1, "--xi": 1, "--s": 1, "--n": 1, "--Q": 1},
    # k, l >= 2 and t1 = t - l >= 1; the support claim H (max S1 + max S2)^k <= n/2 needs n >= 1728
    ("count", "qm"): {"--n": 1728, "--k": 2, "--l": 2, "--t": 3},
    ("count", "k2"): {"--t": 1, "--X": 0, "--l": 1, "--Y": 1},
    # k, l >= 2, t1 = t - l >= 1 and xi1 = xi - 1 >= 1
    ("report",): {"--k": 2, "--l": 2, "--t": 3, "--xi": 2, "--n": 1},
}
_BOUNDS = [(path, flag, lo) for path, flags in _DOMAIN.items() for flag, lo in flags.items()]


def test_every_integer_flag_has_a_domain():
    """A new integer flag must declare its domain in _DOMAIN."""
    flags = {(path, flag) for path, (_, _, fl) in COMMANDS.items() for flag, kw in fl.items() if kw.get("type") is int}
    assert {(path, flag) for path, flag, _ in _BOUNDS} == flags


# Public objects that no CLI row, bench op or script reaches: the second
# routes the tests check production against, and S'_n(q), which criterion 3
# reads.
ORACLES = {
    "count_oracle", "count_enumerate", "f_alpha_direct", "s_form_direct",
    "rep_count_enumerate", "schoolbook_convolve", "v_beta", "w_beta", "s_n_prime_q",
}


def test_every_public_object_is_reached():
    """Every top-level function or class of waringtk is named, as a word, in
    cli.py, bench/workloads.py, scripts/*.py or the source of an object they
    reach, except the oracles."""
    root = pathlib.Path(__file__).resolve().parents[1]
    roots = [root / "src" / "waringtk" / "cli.py", root / "bench" / "workloads.py", *sorted(root.glob("scripts/*.py"))]
    objects: dict[str, list] = {}
    for info in pkgutil.iter_modules(waringtk.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"waringtk.{info.name}")
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                objects.setdefault(name, []).append(inspect.unwrap(obj))
    reached: set[str] = set()
    texts = [path.read_text() for path in roots]
    while texts:
        words = set(re.findall(r"\w+", "\n".join(texts)))
        new = (words & objects.keys()) - reached
        reached |= new
        texts = [inspect.getsource(obj) for name in new for obj in objects[name]]
    assert {name for name in objects if not name.startswith("_")} - reached == ORACLES


@pytest.mark.parametrize("path, flag, lo", _BOUNDS, ids=[" ".join([*p, f]) for p, f, _ in _BOUNDS])
def test_integer_flag_domains(tmp_path, capsys, path, flag, lo):
    """The least value of a flag's domain (-3 where it has no lower bound)
    gives a report or a budget violation; the value below it, a
    precondition violation."""
    inside = run(_with_value(path, flag, str(-3 if lo is None else lo)) + ["--cache-dir", str(tmp_path)])
    assert inside in (0, 3), inside
    if lo is not None:
        assert run(_with_value(path, flag, str(lo - 1)) + ["--cache-dir", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
