"""Traced stand-in for `python -m waringtk.cli`.

Imports only waringtk.cli (as `-m` does), wraps its functions, and calls
waringtk.cli.main(). On entry into cli.run it records cli.start_s (time
since the parent spawned this process, from BENCH_SPAWN_T0 on the
monotonic clock), wraps the waringtk modules already loaded, and puts an
import finder in front of sys.meta_path that wraps each further waringtk
module as soon as it is executed. The CLI imports the modules its
subcommand needs inside cli.run, so those imports (and the wrapping,
which is small beside them) are timed inside the cli.run span, as the
real CLI pays them there. At exit it writes the pass aggregate and the
spans to BENCH_TRACE_OUT.

Usage: BENCH_TRACE_OUT=f.json BENCH_SPAWN_T0=<t> python3 bench/cli_shim.py <cli args>
"""

import importlib.abc
import importlib.machinery
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import MODULES, Tracer  # noqa: E402

import waringtk.cli  # noqa: E402


class WrapOnImport(importlib.abc.MetaPathFinder):
    """Finds waringtk modules as the normal path finder does and has the
    tracer wrap each one right after it is executed."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, short = fullname.rpartition(".")
        if package != "waringtk" or short not in MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_wrap(module):
            exec_module(module)
            tracer.install((short,))

        spec.loader.exec_module = exec_and_wrap
        return spec


def main() -> int:
    tracer = Tracer()
    start_s = []

    def on_entry():
        start_s.append(time.monotonic() - float(os.environ["BENCH_SPAWN_T0"]))
        tracer.install(tuple(m for m in MODULES if f"waringtk.{m}" in sys.modules))
        sys.meta_path.insert(0, WrapOnImport(tracer))

    tracer.on_cli_entry = on_entry
    tracer.install(("cli",))
    sys.argv[0] = "waringtk"
    try:
        waringtk.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        raw = tracer.raw()
        raw["start_s"] = start_s
        record = {"raw": raw, "spans": tracer.span_records([])}
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
