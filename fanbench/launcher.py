"""Start benchmark children and report each one's exit code, time and peak RSS.

Linux carries the high-water RSS of the address space a process had
before exec into the peak that wait4 reports for it, and a forked or
vforked child starts from its parent's. So a child's reported peak is at
least its parent's peak at spawn time. run.py grows while it generates
inputs and checks outputs; it starts this small process first and spawns
every measured child through it, so each peak is the child's own (floor:
this process, about 10 MB, below any fanlex child).

Protocol: one JSON request per stdin line, {"argv", "cwd", "timeout"};
one JSON reply per stdout line, {"code", "wall", "maxrss_kb"}. The
child's stdout and stderr go to .child.stdout/.child.stderr in its cwd.
Children inherit this process's environment and CPU affinity.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list, cwd: str, timeout: float) -> dict:
    with open(os.path.join(cwd, ".child.stdout"), "wb") as out, \
            open(os.path.join(cwd, ".child.stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
