"""Start the measured processes from a small interpreter.

Linux charges a process the peak RSS of the address space it exec'd
from, so a CLI started by the benchmark itself, which by then holds
whole stores in memory, would report the benchmark's peak instead of
its own.  The benchmark therefore starts this script before it grows
and has it start and reap every measured process.  Requests and results
are JSON lines on stdin and stdout.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Placeholder argument replaced by the process's launch time.
LAUNCH = "@launch"


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv: list[str], cwd: str, env: dict[str, str],
        timeout: float) -> dict:
    """Run one process to exit in its own process group.

    CPU time and peak RSS come from ``wait4``, which covers the process
    and every child it waited for (pool and queue workers).  The group
    is killed after ``timeout`` and once the process has exited, so no
    worker outlives its run.
    """
    with open(Path(cwd, "stdout.txt"), "wb") as out, \
            open(Path(cwd, "stderr.txt"), "wb") as err:
        launch = time.perf_counter()
        proc = subprocess.Popen(
            [repr(launch) if a == LAUNCH else a for a in argv], cwd=cwd,
            env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - launch
        finally:
            timer.cancel()
            _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "launch": launch, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


class Launcher:
    """Client side: a running launcher process, stopped on ``close``."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd, env: dict[str, str],
            timeout: float) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env,
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process died")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps(run(**json.loads(request))), flush=True)
