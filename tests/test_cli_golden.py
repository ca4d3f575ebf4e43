"""The CLI's output bytes, pinned.

Each case of tests/data/cli_golden.json (the criterion-11 acceptance
battery plus the extra runs below: JSON output, three count vectors,
and the alternates of the benchmark's CLI battery) must
exit with the recorded code and print stdout whose SHA-256 equals the
recorded digest. The sieve's
`# cache=... path=...` line names a temporary directory and the cache
state, so it is hashed with both dropped, as the benchmark's output
check does.

Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile

from waringtk.cli import run

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
_KL28 = ["--k", "2", "--l", "2", "--t", "8"]
EXTRA_RUNS = [
    ["expsum", "--q", "49", "--a", "3", *_KL28, "--format", "json"],
    ["count", "conje", "--nmax", "10000", *_KL28, "--s", "1", "--r", "1", "--format", "json"],
    ["count", "thm13", "--nmax", "20000", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--format", "json"],
    ["count", "thm13", "--nmax", "3000", "--k", "2", "--l", "2", "--xi", "5", "--s", "3", "--set", "--format", "json"],
    # The alternates of the benchmark's CLI battery.
    ["arcs", "residual", "--n", "62500", *_KL28, "--Q", "5", "--seed", "1"],
    ["arcs", "weyl", "--n", "10000", *_KL28, "--seed", "1"],
    ["integral", "udecay", "--n", "2000", "--t", "8", "--k", "2", "--l", "2", "--samples", "20", "--seed", "2"],
    ["expsum", "--q", "49", "--a", "5", *_KL28],
    ["local", "--p", "3", "--h", "2", "--n", "5", *_KL28, "--s", "2"],
    ["local", "--p", "3", "--h", "6", "--n", "4", *_KL28, "--s", "2", "--star"],
    ["local", "--p", "3", "--h", "6", "--n", "5", *_KL28, "--s", "2", "--star"],
    ["series", "snm", "--p", "3", "--h", "2", *_KL28, "--s", "1", "--n", "5"],
    ["series", "trunc", "--n", "1000", "--Q", "100", *_KL28, "--s", "2"],
    ["sieve", "--l", "2", "--t", "8", "--limit", "19000"],
    ["sieve", "--l", "2", "--t", "8", "--limit", "20000"],
    ["count", "conje", "--nmax", "2900", *_KL28, "--s", "1", "--r", "1"],
    ["count", "conje", "--nmax", "9500", *_KL28, "--s", "1", "--r", "1", "--format", "json"],
    ["arcs", "classify", "--alpha", "0.4142", "--n", "100000", "--Q", "20"],
]
_CACHE_LINE = re.compile(r"^# cache=(hit|miss) path=.*$", re.MULTILINE)


def _stdout_digest(text: str) -> str:
    return hashlib.sha256(_CACHE_LINE.sub("# cache=", text).encode()).hexdigest()


def test_cli_output_bytes(tmp_path, capsys):
    with open(DATA) as fh:
        cases = json.load(fh)
    differ = []
    for case in cases:
        code = run([*case["argv"], "--cache-dir", str(tmp_path)])
        digest = _stdout_digest(capsys.readouterr().out)
        if (code, digest) != (case["exit"], case["stdout_sha256"]):
            differ.append(" ".join(case["argv"]))
    assert not differ, f"output differs from {DATA}: {differ}"


if __name__ == "__main__":
    from test_acceptance import CLI_BATTERY

    cases = []
    for argv in [*CLI_BATTERY, *EXTRA_RUNS]:
        buf = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
            code = run([*argv, "--cache-dir", tmp])
        cases.append({"argv": argv, "exit": code, "stdout_sha256": _stdout_digest(buf.getvalue())})
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
