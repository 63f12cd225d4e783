"""Spawns the program's processes for ``run.py`` and reports their costs.

A child's peak RSS as ``os.wait4`` reports it includes the peak of the
process that spawned it (the address space it replaced at exec).  The
benchmark process grows while it checks outputs, so it hands every spawn
to this small process, started before that growth, and reads back one
JSON line per request:

    request:  {"argv": [...], "stdout": path, "stderr": path, "timeout": s}
    reply:    {"wall": s, "cpu": s, "rss_kb": n, "status": wait status}

The loop ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                                     "rss_kb": ru.ru_maxrss, "status": status}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
