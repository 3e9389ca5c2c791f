"""One worker process that runs calls under a per-call deadline.

The scipy matcher behind ``crispedge.evalbench`` can run for minutes on some
crisp maps and cannot be interrupted from Python, so each call runs in a
spawned worker. A call that misses its deadline counts as failed: the worker
is killed, waited for, and replaced before the next call. ``close`` stops the
worker and multiprocessing's resource tracker, which spawning starts and which
would otherwise outlive the benchmark, and waits for both.
"""

import ctypes
import multiprocessing
import os
import resource
import signal
import traceback
from multiprocessing import resource_tracker

START_TIMEOUT_S = 60.0
PR_SET_PDEATHSIG = 1


def peak_rss_kb():
    """This process's peak resident set in KiB. VmHWM starts afresh at exec,
    unlike ru_maxrss, which keeps the parent's size at fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _die_with_parent(parent_pid):
    """Have the kernel kill this worker when the process that started it
    ends, even one killed mid-run, so a stalled call cannot outlive it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        return
    if os.getppid() != parent_pid:   # the parent ended before prctl took hold
        os._exit(1)


def _serve(conn, parent_pid):
    _die_with_parent(parent_pid)
    # the jobs live in mirrors, which imports crispedge; importing it before
    # reporting ready puts a replacement worker's start-up inside the stall
    import mirrors  # noqa: F401

    conn.send(("ready", None, peak_rss_kb()))
    while True:
        job = conn.recv()
        if job is None:
            return
        fn, args = job
        try:
            result = fn(*args)
        except Exception:  # reported to the parent, which fails the run
            conn.send(("error", traceback.format_exc(), peak_rss_kb()))
        else:
            conn.send(("ok", result, peak_rss_kb()))


class WorkerError(RuntimeError):
    """A call raised inside the worker, or the worker died."""


class DeadlineWorker:
    def __init__(self, deadline_s):
        self.deadline_s = deadline_s
        self.peak_rss_kb = 0   # largest peak any worker reported
        self._ctx = multiprocessing.get_context("spawn")
        self._proc = None
        self._conn = None

    def start(self):
        parent, child = self._ctx.Pipe()
        self._proc = self._ctx.Process(target=_serve, args=(child, os.getpid()),
                                       daemon=True)
        self._proc.start()
        child.close()
        self._conn = parent
        if not parent.poll(START_TIMEOUT_S):
            self._kill()
            raise WorkerError("worker did not start")
        self._recv()

    def call(self, fn, *args):
        """Run ``fn(*args)`` in the worker. Returns (True, result), or
        (False, None) when the deadline passed; the stalled worker is then
        already replaced, so each stall costs the deadline plus one start."""
        if self._proc is None:
            self.start()
        self._conn.send((fn, args))
        if self._conn.poll(self.deadline_s):
            return True, self._recv()
        self._kill()
        self.start()
        return False, None

    def _recv(self):
        try:
            status, value, peak = self._conn.recv()
        except EOFError:
            self._kill()
            raise WorkerError("worker exited") from None
        self.peak_rss_kb = max(self.peak_rss_kb, peak)
        if status == "error":
            raise WorkerError(value)
        return value

    def _kill(self):
        self._proc.kill()
        self._proc.join()
        self._conn.close()
        self._proc = self._conn = None

    def close(self):
        if self._proc is not None:
            try:
                self._conn.send(None)
            except OSError:   # the worker has already gone
                pass
            self._proc.join(10.0)
            if self._proc.is_alive():
                self._kill()
            else:
                self._conn.close()
                self._proc = self._conn = None
        # closing its pipe ends the tracker; _stop then waits for it to exit
        resource_tracker._resource_tracker._stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
