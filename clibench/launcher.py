"""Starts the benchmark's child processes, one at a time.

    python launcher.py        (started by run.py; requests on stdin)

Each request is one JSON line `{"argv": [...], "log": PATH, "timeout": S}`.
The launcher spawns `python <argv>` with stdout and stderr to PATH, waits
for it with `os.wait4`, and answers with one JSON line: exit code, wall
time, the spawn and reap instants on `time.perf_counter` (the monotonic
clock every process on the machine shares), user + sys CPU and peak RSS.
A child still running after `timeout` seconds is killed. The launcher
exits at the end of its input, and on SIGTERM after killing and reaping
its child.

Why a separate process: `posix_spawn` shares the parent's memory until
exec, and at exec Linux counts the parent's peak RSS into the child's
`ru_maxrss`. Spawned from the runner, which holds numpy, jsonschema and
the parsed reports, every child's peak RSS would read at least the
runner's. This launcher imports only the standard library, so the floor
it leaves is its own small footprint, which it reports when it starts.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def _vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run(argv, log: str, timeout: int) -> dict:
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, os.environ,
                             file_actions=actions)
    finally:
        os.close(fd)
    signal.alarm(max(1, timeout))
    try:
        _, status, ru = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
    t1 = time.perf_counter()
    return {"rc": os.waitstatus_to_exitcode(status), "wall": t1 - t0,
            "spawned": t0, "reaped": t1, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(json.dumps({"floor_mb": _vm_hwm_mb()}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["log"], req["timeout"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
