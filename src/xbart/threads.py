"""Independent tasks run on the calling thread plus a pool made for one call.

Predict evaluates its retained draws this way, and a fit's set-up its
per-column sorts.  Each task writes only its own part of an output that the
caller allocated, so the result does not depend on which thread ran which
task.  Threads contend for the interpreter lock at every numpy call, and only
the part of a call that runs without it overlaps; that part grows with the
rows, so each caller runs one thread below a row count of its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def _thread_count(tasks: int) -> int:
    """Threads a call may use: one per allowed core, at most one per task."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return min(cores, tasks)


def run_tasks(work, tasks: int, threaded: bool) -> None:
    """Call ``work(k)`` for every ``k`` in ``range(tasks)``.

    Unless ``threaded``, the caller runs every task itself, in order.
    Otherwise the tasks go out in order, one at a time under a lock, to one
    thread per allowed core (``os.cpu_count()`` where the platform has no
    affinity mask), at most one per task: the caller, and the helpers of a
    `ThreadPoolExecutor` made and shut down inside the call.  The caller
    takes tasks too, so the pool is one thread short of the count, and at one
    thread no pool is made.  Every thread has stopped when the call returns,
    and an exception raised in a task, on any thread, reaches the caller
    unchanged; a thread stops taking tasks at its first exception.
    """
    helpers = _thread_count(tasks) - 1 if threaded else 0
    if helpers < 1:
        for k in range(tasks):
            work(k)
        return
    todo = iter(range(tasks))
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            work(k)

    with ThreadPoolExecutor(helpers) as pool:
        running = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for helper in running:
            helper.result()
