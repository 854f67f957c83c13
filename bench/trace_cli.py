"""The CLI with the layer tracer installed, for traced cold requests.

    python3 bench/trace_cli.py --op 'x^3*D^2 - 1' --mode slopes

Times ``import ltdirac``, wraps the layers, runs the CLI on the given
arguments and writes its trace to stderr as one JSON line starting with
``BENCH-TRACE `` before the process exits.  The CLI's own stdout,
stderr and exit code are unchanged.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import ltdirac.cli  # noqa: E402

import_s = perf_counter() - start

import tracer  # noqa: E402

recorder = tracer.Recorder()
recorder.job = 0
installation = tracer.Installation(recorder)
installation.apply()
try:
    code = ltdirac.cli.main(sys.argv[1:])
finally:
    installation.remove()
    snapshot = recorder.snapshot()
    snapshot["import_s"] = import_s
    sys.stdout.flush()
    print("BENCH-TRACE " + json.dumps(snapshot), file=sys.stderr, flush=True)
sys.exit(code)
