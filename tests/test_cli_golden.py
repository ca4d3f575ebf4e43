"""The CLI's output bytes, pinned.

Each case of tests/data/cli_golden.json (the criterion-11 acceptance
battery plus the JSON runs below, three of them count vectors) must
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
JSON_RUNS = [
    ["expsum", "--q", "49", "--a", "3", "--k", "2", "--l", "2", "--t", "8", "--format", "json"],
    ["count", "conje", "--nmax", "10000", "--k", "2", "--l", "2", "--t", "8", "--s", "1", "--r", "1", "--format", "json"],
    ["count", "thm13", "--nmax", "20000", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--format", "json"],
    ["count", "thm13", "--nmax", "3000", "--k", "2", "--l", "2", "--xi", "5", "--s", "3", "--set", "--format", "json"],
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
    for argv in [*CLI_BATTERY, *JSON_RUNS]:
        buf = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
            code = run([*argv, "--cache-dir", tmp])
        cases.append({"argv": argv, "exit": code, "stdout_sha256": _stdout_digest(buf.getvalue())})
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
