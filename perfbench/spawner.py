"""Start the benchmark's child processes and report each one's wall time and peak RSS.

A child's ru_maxrss includes the memory of the process it was cloned from,
up to its exec. The benchmark process holds the workload's arrays, so it
starts this small process first and has it start every child instead.

Protocol: one JSON request per line on stdin, {"argv": [...], "cwd": ...,
"stderr": path}; one JSON answer per line on stdout, {"wall_s": ...,
"rss_mb": ..., "code": ...}. The process ends at the end of its input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
