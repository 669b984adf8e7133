"""Run one earbench CLI command with every layer traced.

Usage: PERFBENCH_TRACE_DIR=<dir> python3 perfbench/traced_cli.py <earbench args>

Behaves like `python3 -m earbench.cli <args>` and writes spans-<pid>.jsonl
files, one per process, into the trace directory.
"""

import os
import sys

import tracing


def main() -> int:
    tracer = tracing.install(os.environ["PERFBENCH_TRACE_DIR"])
    from earbench import cli

    return tracer.call("cli.main", cli.main, (sys.argv[1:],), {})


if __name__ == "__main__":
    sys.exit(main())
