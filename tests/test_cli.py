import ast
import collections
import contextlib
import csv
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waringtk
from waringtk import arith, local, smooth
from waringtk.cli import COMMANDS, emit_report, run
from waringtk.errors import require_within
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


_REPORT_ROWS = [
    {"n": 0, "value": 0.1 + 0.2, "label": 'a,"b"', "count": 2**64 + 1},
    {"n": 1, "value": -1.5e-300, "label": "plain", "count": 2**63},
    {"n": 2, "value": float("nan"), "label": "two\nlines", "count": 0},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [_REPORT_ROWS, []], ids=["rows", "no-rows"])
def test_emit_report_writes_a_generator_as_its_list(fmt, rows):
    """Rows given as a generator give the bytes of the same rows as a list;
    the CSV bytes are those of csv.DictWriter on the formatted rows."""

    def written(given):
        out = io.StringIO()
        emit_report(given, fmt, out, ["provenance=test"])
        return out.getvalue()

    as_list = written(list(rows))
    assert written(row for row in rows) == as_list
    if fmt == "csv":
        want = io.StringIO()
        want.write("# provenance=test\n")
        if rows:
            writer = csv.DictWriter(want, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: f"{v:.12g}" if isinstance(v, float) else v for k, v in row.items()})
        assert as_list == want.getvalue()


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


def test_flag_wins_over_abbreviated_config_key(tmp_path, capsys):
    """A file key that abbreviates a flag loses to the flag in argv."""
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("nm=20\nk=2\nl=2\nxi=5\ns=2\n")
    _, want = run_capture(["count", "thm13", "--nmax", "30", "--k", "2", "--l", "2", "--xi", "5", "--s", "2"], capsys)
    assert run_capture(["count", "thm13", "--config", cfg, "--nmax", "30"], capsys) == (0, want)


def test_ambiguous_config_prefix_is_a_usage_error(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("q=5\na=2\nk=2\n")
    assert run(["expsum", "--c", cfg]) == 1  # --cache-dir or --config
    assert "ambiguous option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spelling", [[], ["--config", "{}"], ["--conf={}"], ["--co", "{}"]], ids=["none", "config", "conf=", "co"]
)
def test_parser_built_once_per_run(tmp_path, capsys, monkeypatch, spelling):
    """run builds the argparse tree of COMMANDS once, with or without a
    config file, whether --config comes before or after the command."""
    from waringtk import cli

    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write("k=2\n")
    _, want = run_capture(["expsum", "--q", "5", "--a", "2", "--k", "2"], capsys)
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    flag = [tok.format(cfg) for tok in spelling]
    given = ["--q", "5", "--a", "2"] + ([] if spelling else ["--k", "2"])
    for argv in (["expsum", *given, *flag], [*flag, "expsum", *given]):
        del built[:]
        assert run_capture(argv, capsys) == (0, want), argv
        assert built == [1], argv


_GLOBAL_FLAGS = ("--format", "--out", "--cache-dir", "--config")


def test_no_command_flag_shares_a_prefix_with_a_global_flag():
    """cli._parse takes the global flags, abbreviated or not, out of argv
    before the tree reads it; a command flag that shared more than its
    leading `--` with a global flag could be taken for it."""
    shared = {
        (flag, glob)
        for _, _, flags in COMMANDS.values()
        for flag in flags
        for glob in _GLOBAL_FLAGS
        if os.path.commonprefix([flag, glob]) != "--"
    }
    assert not shared


@pytest.mark.parametrize("key", ["format", "fo"])
def test_config_sets_global_flags(tmp_path, capsys, key):
    """A global flag in the config file, abbreviated or not, applies when
    argv does not give it; argv's, before or after the command and
    abbreviated or not, wins."""
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write(f"{key}=json\nq=5\na=2\nk=2\n")
    direct = ["expsum", "--q", "5", "--a", "2", "--k", "2"]
    _, as_csv = run_capture(direct, capsys)
    _, as_json = run_capture(direct + ["--format", "json"], capsys)
    assert as_json != as_csv
    assert run_capture(["expsum", "--config", cfg], capsys) == (0, as_json)
    for argv in (
        ["--format", "csv", "expsum", "--config", cfg],
        ["expsum", "--config", cfg, "--format=csv"],
        ["expsum", "--fo", "csv", "--config", cfg],
    ):
        assert run_capture(argv, capsys) == (0, as_csv), argv


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
        ["series", "trunc", "--n", "10", "--Q", "0", *_KLTS, "--variant", "prime"],
        ["count", "main-term", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--n", "50", "--Q", "0"],
        ["series", "positivity", "--n-lo", "2", "--n-hi", "30", "--Q", "0", *_KLTS],
        ["series", "trunc", "--n", "10", "--Q", "20", "--k", "0", "--l", "2", "--t", "8", "--s", "2"],
        ["series", "positivity", "--n-lo", "30", "--n-hi", "2", *_KLTS],
    ],
    ids=["trunc-Q0", "trunc-prime-Q0", "main-term-Q0", "positivity-Q0", "trunc-k0", "positivity-empty"],
)
def test_degenerate_series_is_a_precondition_violation(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "precondition violation" in captured.err and "Traceback" not in captured.err
    assert not [ln for ln in captured.out.splitlines() if ln and not ln.startswith("#")]


def test_prime_variant_cuts_the_euler_product_at_q(capsys):
    """--variant prime keeps the factors p^h <= Q, so Q moves the value."""
    values = []
    for Q in ("7", "200"):
        code, out = run_capture(["series", "trunc", "--n", "100", "--Q", Q, *_KLTS, "--variant", "prime"], capsys)
        assert code == 0
        values.append(parse_csv(out)[0]["value"])
    assert values[0] != values[1]


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


_THM13 = ["count", "thm13", "--nmax", "30", "--k", "2", "--l", "2", "--xi", "3", "--s", "2"]


@pytest.mark.parametrize("argv, line, flag", [
    (_LOCAL + _LOCAL_REST, "sta=1", "--star"), (_LOCAL + _LOCAL_REST, "sta=0", None), (_THM13, "se=1", "--set"),
])
def test_config_key_abbreviating_a_switch(tmp_path, capsys, argv, line, flag):
    """A key that abbreviates a switch of the command, as argparse reads
    `--sta`, follows the switch rule."""
    cfg = os.path.join(tmp_path, "cfg")
    with open(cfg, "w") as fh:
        fh.write(line + "\n")
    code, via_cfg = run_capture(argv + ["--config", cfg], capsys)
    _, direct = run_capture(argv + ([flag] if flag else []), capsys)
    assert code == 0
    assert via_cfg == direct


def test_python_dash_m_runs_cli(capsys):
    argv = ["expsum", "--q", "5", "--a", "2", "--k", "2"]
    _, want = run_capture(argv, capsys)
    src = os.path.dirname(os.path.dirname(waringtk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "waringtk", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


# the leaves that compute in Python integers, and the modules they read
_NUMPY_FREE = {
    ("density",): ["--r", "2", "--l", "2"],
    ("arcs", "classify"): ["--alpha", "0.6181", "--n", "100000", "--Q", "20"],
    ("arcs", "vmv"): ["--s", "2", "--ksys", "2", "--r", "2", "--Y", "20"],
    ("count", "k2"): ["--t", "2", "--X", "30"],
}
_NUMPY_FREE_MODULES = ("smooth", "rational")


@pytest.mark.parametrize("path", list(_NUMPY_FREE), ids=" ".join)
def test_integer_leaves_start_without_numpy(path):
    """A fresh process that runs one of these leaves gives its report and
    never imports numpy."""
    assert COMMANDS[path][0] in _NUMPY_FREE_MODULES
    code = "import sys; from waringtk.cli import run; c = run(sys.argv[1:]); print('numpy' in sys.modules); sys.exit(c)"
    src = os.path.dirname(os.path.dirname(waringtk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *path, *_NUMPY_FREE[path]], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _outside_imports(name: str) -> set[str]:
    """The top-level modules other than waringtk that an import statement
    names anywhere in the source of waringtk.<name>, of the package's
    __init__, or of a waringtk module one of those imports, transitively."""
    pending, seen, other = [name, "__init__"], set(), set()
    while pending:
        module = pending.pop()
        if module in seen:
            continue
        seen.add(module)
        for node in ast.walk(ast.parse((_ROOT / "src" / "waringtk" / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "waringtk":
                names = [f"waringtk.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for full in names:
                top, _, rest = full.partition(".")
                if top == "waringtk":
                    pending.append(rest.partition(".")[0] or "__init__")
                else:
                    other.add(top)
    return other


@pytest.mark.parametrize("name", _NUMPY_FREE_MODULES)
def test_numpy_free_modules_import_only_the_standard_library(name):
    """smooth and rational, and every waringtk module they import, directly
    or through another, import only the standard library, so no import of
    theirs reaches numpy."""
    other = _outside_imports(name)
    assert other <= sys.stdlib_module_names, other - sys.stdlib_module_names


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


@pytest.mark.parametrize(
    "given, wrong",
    [(["--M", "nan"], "nan"), (["--Q", "3", "--M", "4"], "exactly one of --Q"), ([], "exactly one of --Q")],
    ids=["M-nan", "Q-and-M", "neither"],
)
def test_classify_bad_arc_flags_exit_two(capsys, given, wrong):
    """classify reads exactly one of --Q and --M, and M must be a number."""
    assert run(["arcs", "classify", "--alpha", "0.3", "--n", "10", *given]) == 2
    err = capsys.readouterr().err
    assert wrong in err and "Traceback" not in err


@pytest.mark.parametrize("given, missing", [(["--l", "2"], "--t"), (["--t", "8"], "--l")])
def test_expsum_form_needs_l_and_t(capsys, given, missing):
    """The form columns need both --l and --t; one alone exits 2 and names
    the other."""
    assert run(["expsum", "--q", "5", "--a", "2", "--k", "2", *given]) == 2
    err = capsys.readouterr().err
    assert f"{missing} is missing" in err and "Traceback" not in err


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


def test_table_past_u64_is_printed_uncached(tmp_path, capsys):
    """A table with a count past u64 has no cached form: each run computes
    it, reports a miss and prints its rows, and no file is written."""
    argv = ["sieve", "--l", "1", "--t", "30", "--limit", "200", "--cache-dir", str(tmp_path)]
    runs = [run_capture(argv, capsys) for _ in range(2)]
    assert [code for code, _ in runs] == [0, 0]
    assert all("cache=miss" in out for _, out in runs)
    # rho[m] = C(m - 1, 29), so the mass is C(200, 30), past 2^64
    assert int(parse_csv(runs[0][1])[0]["mass"]) == math.comb(200, 30)
    assert not os.listdir(tmp_path)


def test_unwritable_cache_dir_exits_two(tmp_path, capsys):
    blocker = os.path.join(tmp_path, "file")
    open(blocker, "w").close()
    assert run(["sieve", "--l", "2", "--t", "4", "--limit", "200", "--cache-dir", blocker]) == 2
    assert "precondition violation" in capsys.readouterr().err


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
# (a count for a non-prime p, a series for s < 0) before it was checked.
# 318665857834031151167461 = 399165290221 * 798330580441 passes
# Miller-Rabin to the bases 2..37.
_PRECONDITION = {
    (("local",), "--p", "0"), (("local",), "--p", "4"), (("local",), "--h", "-1"), (("local",), "--t", "0"),
    (("local",), "--p", "318665857834031151167461"),
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


# integer flags that reach a float power (n^(1/k), X^(1/l)) or a float
# product before any budget: 10^400 has no float, so each ended in an
# OverflowError. count k2 leaves --Y to its default X^(1/l).
_BIG = str(10**400)
_PAST_FLOAT = {
    "arcs weyl --n": _with_value(("arcs", "weyl"), "--n", _BIG),
    "arcs residual --n": _with_value(("arcs", "residual"), "--n", _BIG),
    "arcs classify --n": ["arcs", "classify", "--alpha", "0.3", "--n", _BIG, "--M", "5", "--k", "2"],
    "integral udecay --n": _with_value(("integral", "udecay"), "--n", _BIG),
    "count k2 --X": ["count", "k2", "--t", "2", "--X", _BIG, "--l", "2"],
    "report --n": _with_value(("report",), "--n", _BIG),
    "count qm --n": _with_value(("count", "qm"), "--n", _BIG),
}


@pytest.mark.parametrize("name", list(_PAST_FLOAT))
def test_integer_past_the_float_range_exits_cleanly(tmp_path, capsys, name):
    code = run(_PAST_FLOAT[name] + ["--cache-dir", str(tmp_path)])
    assert code in (2, 3), code
    assert "Traceback" not in capsys.readouterr().err


# argv with one flag at 10^6 or 10^4. The first five formed a power of it
# (3^h, 6^s, 5^l, 2^l) and put it in the message of a budget check, which
# ended in Python's 4300-digit ValueError; the two loop budgets admitted
# k_sys and X of any size and ran for minutes; local --t 10000 computed
# its count and then failed to print it.
_E6 = str(10**6)
_HUGE_FLAGS = {
    "local --h 10^6": _with_value(("local",), "--h", _E6),
    "series snm --h 10^6": _with_value(("series", "snm"), "--h", _E6),
    "arcs vmv --s 10^6": _with_value(("arcs", "vmv"), "--s", _E6),
    "arcs vmv --l 10^6": _with_value(("arcs", "vmv"), "--l", _E6),
    "count k2 --l 10^6": ["count", "k2", "--t", "2", "--X", "30", "--l", _E6],
    "arcs vmv --ksys 10^6": _with_value(("arcs", "vmv"), "--ksys", _E6),
    "count k2 --X 10^6": _with_value(("count", "k2"), "--X", _E6),
    "local --t 10^4": _with_value(("local",), "--t", "10000"),
    # one flag at 10^400, which never ended: p^h, r Y^l and |S|^s were
    # formed before their budgets, and kth_root(n, k) formed 2^(k-1)
    "local --h 10^400": _with_value(("local",), "--h", _BIG),
    "series snm --h 10^400": _with_value(("series", "snm"), "--h", _BIG),
    "arcs vmv --s 10^400": _with_value(("arcs", "vmv"), "--s", _BIG),
    "arcs vmv --l 10^400": _with_value(("arcs", "vmv"), "--l", _BIG),
    "count k2 --l 10^400": ["count", "k2", "--t", "2", "--X", "30", "--l", _BIG],
    "sieve --l 10^400": _with_value(("sieve",), "--l", _BIG),
    "density --l 10^400": _with_value(("density",), "--l", _BIG),
    "count conje --k 10^400": _with_value(("count", "conje"), "--k", _BIG),
    "count thm13 --k 10^400": _with_value(("count", "thm13"), "--k", _BIG),
    # Miller-Rabin on a 13,288-bit p took seconds before the p^h budget;
    # is_prime now refuses a p past its exact range
    "local --p 10^4000+1": _with_value(("local",), "--p", str(10**4000 + 1)),
}


# the rows of the argv above that give a report: local --t prints a count
# past 4300 digits (None), and at l or k = 10^400 only x = 1 has its power
# within the limit, so the sieve finds only 1^l + 1^l = 2 and no form value
# T(x) >= 2 has its k-th power within nmax
_HUGE_REPORTS = {
    "local --t 10^4": None,
    "sieve --l 10^400": ["l,t,limit,distinct,mass", f"{_BIG},2,50,1,1"],
    "count conje --k 10^400": ["n,count"] + [f"{n},0" for n in range(51)],
    "count thm13 --k 10^400": ["n,count"] + [f"{n},0" for n in range(51)],
}


@pytest.mark.parametrize("name", list(_HUGE_FLAGS))
def test_huge_flag_exits_at_once(tmp_path, capsys, name):
    """A flag at 10^4, 10^6 or 10^400 gives the report of _HUGE_REPORTS or
    exits 2 or 3, within seconds."""
    start = time.perf_counter()
    code = run(_HUGE_FLAGS[name] + ["--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 5.0
    assert "Traceback" not in err
    if name in _HUGE_REPORTS:
        assert code == 0, (code, err)
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(out) > 4300 if _HUGE_REPORTS[name] is None else rows == _HUGE_REPORTS[name]
    else:
        assert code in (2, 3), (code, err)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_past_4300_digits_prints_exactly(capsys, fmt):
    """Python refuses the decimal form of an int past 4300 digits by
    default; run lifts that limit only while it writes the report, so an
    in-process run leaves the interpreter's limit as it found it."""
    from waringtk.local import m_n

    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(["local", "--p", "3", "--h", "1", "--n", "1", "--k", "2", "--l", "2", "--t", "12000",
                    "--s", "1", "--format", fmt]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(_HUGE_FLAGS["local --h 10^6"]) == 3
        assert sys.get_int_max_str_digits() == 5000
        count = m_n(3, 1, 1, 2, 2, 12000, 1)
        sys.set_int_max_str_digits(0)
        text = capsys.readouterr().out
        assert str(count) in text and len(str(count)) > 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_budget_message_has_no_huge_decimal():
    """A budget message gives a power it did not form as base^exponent and
    an integer past 64 bits by its bit length."""
    with pytest.raises(waringtk.ResourceError) as info:
        require_within(10**4, **{"p^h": (3, 10**400)})
    assert str(info.value) == "p^h = 3^<1329-bit integer> exceeds the budget 10000"
    with pytest.raises(waringtk.ResourceError) as info:
        require_within(10**6, n_max=10**5000)
    assert str(info.value) == "n_max = <16610-bit integer> exceeds the budget 1000000"
    with pytest.raises(waringtk.ResourceError) as info:
        require_within(10, q=11)
    assert str(info.value) == "q = 11 exceeds the budget 10"
    with pytest.raises(waringtk.ResourceError) as info:
        require_within(4 * 10**6, **{"|S|^s s k_sys": (6, 10**6, 2 * 10**6)})
    assert str(info.value) == "|S|^s s k_sys = 2000000*6^1000000 exceeds the budget 4000000"


@pytest.mark.parametrize(
    "call",
    [
        lambda: smooth.default_y_grid(2, 10**5000),
        lambda: local.m_n(10**5000, 1, 1, 2, 2, 2, 1),
        lambda: arith.gamma_exponent(10**5000, 2),
        lambda: arith.nu_exponent(10**5000, 2, 2),
    ],
    ids=["default_y_grid", "m_n", "gamma_exponent", "nu_exponent"],
)
def test_precondition_message_has_no_huge_decimal(call):
    """A precondition message gives an integer past 64 bits by its bit
    length, where its decimal form would pass Python's 4300-digit limit."""
    with pytest.raises(waringtk.PreconditionError, match="<16610-bit integer>"):
        call()


def test_require_within_matches_the_formed_value():
    """require_within(most, v=(base, exponent, factor)) raises exactly when
    factor * base**exponent > most, whether it forms the power or not."""
    for most in range(1, 70):
        for base in range(0, 9):
            for exponent in range(0, 9):
                for factor in (1, 2, 5):
                    value = (base, exponent, factor) if factor > 1 else (base, exponent)
                    try:
                        require_within(most, v=value)
                        refused = False
                    except waringtk.ResourceError:
                        refused = True
                    assert refused == (factor * base**exponent > most), (most, base, exponent, factor)
    require_within(10, a=10, b=-(10**400), c=(1, 10**400), d=(0, 10**400), e=(2, -1))  # nothing past 10
    with pytest.raises(waringtk.ResourceError):
        require_within(10, a=10, b=11)


def test_only_errors_raises_resource_error():
    """Every budget goes through errors.require_within: no other waringtk
    module raises ResourceError."""
    raisers = set()
    for path in sorted((_ROOT / "src" / "waringtk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceError":
                    raisers.add(path.name)
    assert raisers == {"errors.py"}


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
# Defaulted parameters that no production call passes. window_ratio's Q is
# main_term's cutoff (which the CLI sets) applied to a window; its
# FFT-route test checks every offset only at a small Q.
UNSET_DEFAULTS = {("window_ratio", "Q")}

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SCRIPTS = sorted(_ROOT.glob("scripts/*.py"))


def _references(tree: ast.AST) -> set[str]:
    """The names, attribute names and imported names that tree's code uses."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def _bench_op_names() -> set[str]:
    """The function names of the op strings of bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("_workloads", _ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    chains = [chain for name in workloads.WORKLOADS for chain in workloads.all_chains(name)]
    return {op.rpartition(".")[2] for chain in chains for op, _, _ in chain}


@functools.cache
def _production() -> tuple[dict[str, list], set[str], list[ast.AST]]:
    """(every top-level function or class of waringtk by name, lru caches
    unwrapped; the names of those that cli.py, bench/workloads.py or
    scripts/*.py reach, directly or through the source of an object
    reached; the syntax trees of those roots and sources)."""
    objects: dict[str, list] = {}
    for info in pkgutil.iter_modules(waringtk.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"waringtk.{info.name}")
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                objects.setdefault(name, []).append(inspect.unwrap(obj))
    roots = [_ROOT / "src" / "waringtk" / "cli.py", _ROOT / "bench" / "workloads.py", *_SCRIPTS]
    pending = [ast.parse(path.read_text()) for path in roots]
    trees, refs, reached = [], _bench_op_names(), set()
    while pending:
        trees += pending
        refs = refs.union(*map(_references, pending))
        new = (refs & objects.keys()) - reached
        reached |= new
        pending = [ast.parse(textwrap.dedent(inspect.getsource(obj))) for name in new for obj in objects[name]]
    return objects, reached, trees


def test_every_public_object_is_reached():
    """Every top-level function or class of waringtk is referred to, by a
    name, an attribute or an import, in cli.py, bench/workloads.py (its code
    or its op strings), scripts/*.py or the source of an object they reach,
    except the oracles."""
    objects, reached, _ = _production()
    assert {name for name in objects if not name.startswith("_")} - reached == ORACLES


def test_every_defaulted_parameter_is_set():
    """Every defaulted parameter of a public waringtk function or dataclass
    is passed, by position or by keyword, by some call in the roots or the
    reached source of test_every_public_object_is_reached, except
    UNSET_DEFAULTS. A call with *args or **kwargs passes every parameter."""
    objects, _, trees = _production()
    passed = collections.defaultdict(set)  # callee name -> positions and keywords some call passes
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            passed[callee] |= {None} if starred else set(range(len(node.args)))
            passed[callee] |= {kw.arg for kw in node.keywords}
    unset = set()
    for name, objs in objects.items():
        for obj in objs:
            if name.startswith("_") or not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
                continue
            for i, param in enumerate(inspect.signature(obj).parameters.values()):
                ways = {param.name, None} | ({i} if param.kind is param.POSITIONAL_OR_KEYWORD else set())
                if param.default is not param.empty and not ways & passed[name]:
                    unset.add((name, param.name))
    assert unset == UNSET_DEFAULTS


# The underscore names that one waringtk module imports from another: none,
# as a helper that one module shares with another is public.
SHARED_PRIVATES = set()


def test_no_module_reads_another_modules_privates():
    """No waringtk module imports an underscore name of another waringtk
    module, or reads one as an attribute of a waringtk module it imported,
    except SHARED_PRIVATES: a module's private layout stays its own."""
    shared = set()
    for path in sorted((_ROOT / "src" / "waringtk").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> waringtk module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "waringtk":
                modules |= {alias.asname or alias.name: alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("waringtk."):
                owner = node.module.removeprefix("waringtk.")
                shared |= {(owner, alias.name) for alias in node.names if alias.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                if node.attr.startswith("_"):
                    shared.add((modules[node.value.id], node.attr))
    assert shared == SHARED_PRIVATES


# small arguments for each lru-cached function of waringtk
_LRU_CALLS = {
    "arcs._rho_table_for": (2, 2, 10),
    "arith.smallest_prime_factors": (30,),
    "expsums.omega_table": (7,),
    "expsums.power_residue_histogram": (7, 2),
    "expsums._s_l_table": (7, 2),
    "integral._u_grid": (100, 8, 2, 2),
    "local.form_histogram": (3, 1, 2, 2),
    "local.form_power_histogram": (6, 2, 2, 2),
    "local._m_n_histogram": (3, 1, 2, 2, 2, 1),
    "local._m_star_histogram": (3, 1, 2, 2, 2, 1),
    "singular._d_table": (5, 2, 2, 8, 2, "Sn"),
}


def _changeable(obj) -> bool:
    """Whether obj, or an array or field inside it, can be changed in place."""
    if isinstance(obj, np.ndarray):
        return obj.flags.writeable
    if isinstance(obj, tuple):
        return any(_changeable(item) for item in obj)
    if dataclasses.is_dataclass(obj):
        fields = [getattr(obj, field.name) for field in dataclasses.fields(obj)]
        return not obj.__dataclass_params__.frozen or any(_changeable(field) for field in fields)
    return not isinstance(obj, (int, float, complex, str))


def test_every_lru_cached_table_is_read_only():
    """An lru cache hands the same object to every caller, so no caller may
    change it in place: each cached result is read-only, and every
    lru-cached function of waringtk has an entry in _LRU_CALLS."""
    cached = {}
    for info in pkgutil.iter_modules(waringtk.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"waringtk.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                cached[f"{info.name}.{name}"] = obj
    assert sorted(cached) == sorted(_LRU_CALLS)
    for name, fn in cached.items():
        assert not _changeable(fn(*_LRU_CALLS[name])), name


# the arguments of each script's run and a line of its header
_SCRIPT_RUNS = {
    "density_sweep.py": ([], "r,l,Y,cardinality,pointwise_exponent,pair_slope,reference_exponent,grid_exponent"),
    "main_term_scan.py": (["20000"], "window_lo,window_hi,ratio"),
    "stability_report.py": ([], "== w_k majorant constants (q-range doubling) =="),
}


@pytest.mark.parametrize("script", list(_SCRIPT_RUNS))
def test_script_runs(script):
    """Each script of scripts/, a root of the guards above, exits 0 and
    prints its header."""
    assert sorted(path.name for path in _SCRIPTS) == sorted(_SCRIPT_RUNS)
    args, header = _SCRIPT_RUNS[script]
    src = os.path.dirname(os.path.dirname(waringtk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()


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
