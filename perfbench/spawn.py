"""Run one command and report its wall time and peak resident memory.

    python3 perfbench/spawn.py PROGRAM [ARG ...]

The command inherits stdin, stdout and stderr.  When it has ended, one JSON
line {"returncode", "wall_s", "peak_rss_kb"} is written to stderr.  Linux
counts the memory of the process that spawns a command toward that command's
peak RSS, so the benchmark, which holds report sets and samples, spawns
through this small process instead of directly.  Workers that the command
waits for are included in its peak.
"""

import json
import os
import subprocess
import sys
import time

start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
wall_s = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
sys.stderr.write(json.dumps({"returncode": proc.returncode, "wall_s": wall_s,
                             "peak_rss_kb": usage.ru_maxrss}) + "\n")
