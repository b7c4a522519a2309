"""Traced stand-in for ``python -m leafcoh.cli``, used by the traced cli-cold run.

Usage: PERFBENCH_SPANS=<file> PYTHONPATH=src python3 perfbench/clishim.py <leafcoh args>

Installs the span tracer on every leafcoh module, runs ``leafcoh.cli.main``
on the given arguments exactly as the ``-m`` entry point does, and writes
the recorded spans and counts to the file named by PERFBENCH_SPANS.
"""

import os
import sys

from tracer import Tracer

import leafcoh.cli

if __name__ == "__main__":
    main = leafcoh.cli.main
    tracer = Tracer()
    tracer.install()
    tracer.job = 0
    try:
        code = main(sys.argv[1:])
    finally:
        tracer.job = None
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
