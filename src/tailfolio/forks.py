"""os.fork plumbing shared by the annealer's cost worker (anneal) and the
table codec's parts (modelfile): how many CPUs a split may use, a child
that never returns into its parent's frames, and reaping."""

from __future__ import annotations

import os
import signal
import threading


def fork_cpus(*needs: str) -> int:
    """CPUs this process may run on, for work split across os.fork children;
    1 where os.fork, os.sched_getaffinity or an os function named in needs
    is missing (Windows, macOS), and while another Python thread runs: fork
    copies only the calling thread, so a lock another thread held would stay
    held in the child."""
    if threading.active_count() > 1 or not all(
            hasattr(os, name) for name in ("fork", "sched_getaffinity", *needs)):
        return 1
    return len(os.sched_getaffinity(0))


def fork_child(work) -> int:
    """Fork a child that runs work() and leaves through os._exit however
    work ends, so that it never unwinds into the caller's frames, runs
    atexit handlers or flushes the parent's buffers; the child's pid."""
    pid = os.fork()
    if pid == 0:
        try:
            work()
        finally:
            os._exit(0)
    return pid


def reap(pids, kill=False) -> None:
    """Wait for every child in pids, killing each first when kill is set;
    one already gone, as under SIGCHLD ignored, is passed over."""
    for pid in pids:
        try:
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass
