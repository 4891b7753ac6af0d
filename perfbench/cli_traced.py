"""Run the rdematel CLI with spans recorded, then write them as JSON.

Usage: python perfbench/cli_traced.py <spans.json> <rdematel CLI arguments...>
The exit code is the CLI's own.
"""

import json
import sys
import time

from tracing import Tracer

start = time.perf_counter()
import rdematel.cli  # noqa: E402

import_s = time.perf_counter() - start

out_path, sys.argv = sys.argv[1], ["rdematel", *sys.argv[2:]]
tracer = Tracer()
tracer.install()
code = 0
try:
    rdematel.cli.main()
except SystemExit as exc:
    code = exc.code
finally:
    tracer.uninstall()
    with open(out_path, "w") as f:
        json.dump({"import_s": import_s, "module": rdematel.cli.__file__, "spans": tracer.spans, "absent": tracer.absent}, f)
sys.exit(code)
