"""Map a function over independent jobs on every CPU this process may use.

``fork_map(fn, jobs, min_jobs)`` cuts the jobs into contiguous chunks,
one per usable CPU.  This process runs the first chunk; one forked
worker per other chunk runs its own and sends the results back, pickled,
through a pipe.  Each job is the same computation on the same bytes
wherever it runs, so the results do not depend on the worker count.  A
chunk whose worker raised, died or wrote a short result is run again
here, in order, when the caller reaches it, so errors are the ones a
sequential run raises.  ``fn`` must therefore be deterministic and
fork-safe, and side effects of its calls stay in the process that made
them: batch-norm running statistics, for example, see only this
process's share of the jobs.  Fewer than ``min_jobs`` jobs, processes
with more than one thread (a worker could inherit a lock another thread
holds), the workers themselves (no nested forks) and platforms without
``fork`` stay in-process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from typing import Callable, Iterator, Sequence

_MISSING = object()  # a result no worker delivered
_in_worker = False  # set in forked workers, so they never fork again


def _chunks(n: int, min_jobs: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) bounds over n jobs, one per usable CPU where forking is safe."""
    if (n < max(min_jobs, 2) or _in_worker or threading.active_count() > 1
            or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))):
        return [(0, n)]
    k = min(len(os.sched_getaffinity(0)), n)
    edges = [n * c // k for c in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _spawn(fn: Callable, jobs: Sequence) -> tuple[int, int]:
    """Fork a worker that writes the pickled results of ``jobs`` to a pipe: (pid, read end)."""
    global _in_worker
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _in_worker = True
        code = 1
        try:
            os.close(r)
            view = memoryview(pickle.dumps([fn(job) for job in jobs], pickle.HIGHEST_PROTOCOL))
            while view:
                view = view[os.write(w, view):]
            code = 0
        finally:
            os._exit(code)  # never return into the caller, whatever was raised
    os.close(w)
    return pid, r


def fork_map(fn: Callable, jobs: Sequence, min_jobs: int) -> Iterator:
    """``fn(job)`` for each job, in order, computed across the usable CPUs.

    Every worker has been reaped when this returns.  Chunk 0 runs here
    and stops at its first exception; the returned iterator computes
    each result that no process delivered when it reaches it.
    """
    results = [_MISSING] * len(jobs)
    workers = []  # (pid, read end, lo, hi) of each worker not yet reaped, in chunk order
    try:
        chunks = _chunks(len(jobs), min_jobs)
        for lo, hi in chunks[1:]:
            try:
                workers.append((*_spawn(fn, jobs[lo:hi]), lo, hi))
            except OSError:
                break
        try:
            for j in range(*chunks[0]) if workers else ():
                results[j] = fn(jobs[j])
        except Exception:
            pass  # the iterator re-runs this job in order and raises there
        while workers:
            pid, r, lo, hi = workers[0]
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            os.close(r)
            if status == 0:
                with contextlib.suppress(Exception):  # a short pickle fails to load
                    chunk = pickle.loads(data)
                    if len(chunk) == hi - lo:
                        results[lo:hi] = chunk
    finally:
        if workers:  # left only when this process was interrupted
            import signal  # here, so importing rowgate imports nothing new
        for pid, r, _, _ in workers:
            os.close(r)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return (fn(job) if res is _MISSING else res for res, job in zip(results, jobs))
