"""Launcher named by ``BENCHMARK.json``, and the package's one entry
point: puts the checkout and its ``src/`` on the import path — for the
benchmark and, through ``PYTHONPATH``, for the ``python -m repro``
children — then runs :mod:`benchmarks.e2e.cli` in a forked child and
does not exit before every process that child left behind has ended.

Run from anywhere: ``python3 benchmarks/e2e/run.py --workload exec_bulk
--seed 1 --seconds 15 --trace 0``.
"""

import ctypes
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``prctl`` option: orphaned descendants are re-parented to this
#: process instead of to pid 1, so it can wait for them.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds an orphan gets to end by itself before it is killed.
ORPHAN_GRACE_S = 10.0


def adopt_orphans() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit("benchmark: prctl(PR_SET_CHILD_SUBREAPER) failed: "
                 + os.strerror(ctypes.get_errno()))


def children() -> list[int]:
    """Pids whose parent is this process, from ``/proc/<pid>/stat``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue    # ended while we were listing
            # "pid (comm) state ppid ..."; comm may hold spaces and ')'
            if int(stat.rpartition(")")[2].split()[1]) == me:
                found.append(int(entry))
    return found


def reap(grace: float) -> None:
    """Wait until this process has no child left; whatever still runs
    after ``grace`` seconds is killed, and so is what it orphans."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for child in children():
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.005)


def stop(signum, frame):
    """SIGTERM, SIGINT and SIGHUP unwind like an exception, once: the
    benchmark's ``finally`` blocks stop its children and remove its
    temporary files, the launcher's wait for what is left."""
    ignore_signals()
    raise SystemExit(128 + signum)


def ignore_signals() -> None:
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, signal.SIG_IGN)


def supervise(benchmark: int) -> int:
    """Exit status of the forked ``benchmark`` process, returned once
    every descendant has ended.  The benchmark stops and joins what it
    starts itself (CLI children, the server, the parallel backend's
    workers), but ``multiprocessing``'s resource tracker ends only
    *after* its parent: without a subreaper it outlives the run as an
    orphan (here, under a pid 1 that reaps late, as a zombie)."""
    status = 1
    try:
        status = os.waitstatus_to_exitcode(os.waitpid(benchmark, 0)[1])
    except SystemExit:
        os.kill(benchmark, signal.SIGTERM)      # it unwinds as we do
        raise
    finally:
        ignore_signals()
        reap(ORPHAN_GRACE_S)
    return status if status >= 0 else 1


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {src / 'repro'}"
                 " is missing")
    sys.path[:0] = [str(ROOT), str(src)]
    os.environ["PYTHONPATH"] = str(src)
    adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    benchmark = os.fork()
    if benchmark:
        return supervise(benchmark)
    from benchmarks.e2e.cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
