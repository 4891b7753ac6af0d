"""Start the benchmark's child processes and report each one's exit code, wall time and peak RSS.

A child's ru_maxrss also counts the peak memory of the process it was
spawned from, so a child of perfbench/run.py, which grows past the CLI's
own peak while it runs the large workloads in-process, would report that
process's size instead of its own. This process stays small, so the peak
it passes on is below any child's.

Protocol: one JSON line per child on stdin, [argv, log path]; one JSON line
back on stdout, [exit code, wall seconds, peak RSS in MiB]. The child
writes its output to the log and inherits this process's environment and
working directory. Exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    argv, log = json.loads(line)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0]), flush=True)
