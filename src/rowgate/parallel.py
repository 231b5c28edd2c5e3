"""Map a function over independent jobs on every CPU this process may use.

``fork_map(fn, jobs, min_jobs)`` cuts the jobs into contiguous chunks,
one per usable CPU.  This process runs the first chunk, and one worker
process per other chunk runs its own and sends the results back,
pickled, through a pipe.  Workers are forked at the first call that
needs them and kept for later calls.  When ``fn`` pickles, it is sent
with each chunk to a kept worker, together with the caller's ``no_grad``
flag and numpy error state, so a second call forks nothing; ``fn``
should then carry what it reads (a model, say), since module state in a
worker is that of the fork.  A ``fn`` that does not pickle, such as a
closure over the caller's tensors, runs in a worker forked for the call,
which inherits everything and exits when done.

Each job is the same computation on the same bytes wherever it runs, so
the results do not depend on the worker count.  A chunk whose worker
raised, died or sent a short reply is run again here, in order, when the
caller reaches it, so errors are the ones a sequential run raises.
``fn`` must therefore be deterministic and fork-safe, and side effects
of its calls stay in the process that made them: batch-norm running
statistics, for example, see only this process's share of the jobs.
Fewer than ``min_jobs`` jobs, processes with more than one thread (a
worker could inherit a lock another thread holds), the workers
themselves and this process while it runs its own chunk beside them (no
nested forks: every CPU is already busy) and platforms without ``fork``
stay in-process.

Only the process that forked a worker talks to it.  ``shutdown()``
closes each worker's command pipe and reaps it, and runs at exit; a
worker also exits when its parent dies, at the end of its command pipe.
A dead worker is reaped and replaced at the next call, and a worker
whose reply was left unread is killed before the call returns or raises.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import struct
import threading
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import tensor

_MISSING = object()  # a result no worker delivered
_LENGTH = struct.Struct("<Q")  # the header of every message on a pipe
_in_worker = False  # set in forked workers, and here while chunk 0 runs beside them


class _Worker:
    """A worker's pid, the read end of the pipe it writes results to and the
    write end of the pipe it reads chunks from (None if forked for one call)."""

    __slots__ = ("pid", "replies", "commands")

    def __init__(self, pid: int, replies: int, commands: Optional[int] = None):
        self.pid, self.replies, self.commands = pid, replies, commands


_workers: list[_Worker] = []  # kept workers, forked by process _owner
_owner = 0


def _chunks(n: int, min_jobs: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) bounds over n jobs, one per usable CPU where forking is safe."""
    if (n < max(min_jobs, 2) or _in_worker or threading.active_count() > 1
            or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))):
        return [(0, n)]
    k = min(len(os.sched_getaffinity(0)), n)
    edges = [n * c // k for c in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _send(fd: int, payload: bytes) -> None:
    """Write one message: its length, then the payload itself, uncopied."""
    for part in (_LENGTH.pack(len(payload)), payload):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> Optional[bytearray]:
    """Exactly n bytes, read into one buffer; None if the pipe ends first."""
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if k == 0:
            return None
        got += k
    return buf


def _recv(fd: int) -> Optional[bytearray]:
    """One message written by ``_send``; None if the writer died before finishing it."""
    header = _read(fd, _LENGTH.size)
    return None if header is None else _read(fd, _LENGTH.unpack(header)[0])


def _results(fn: Callable, jobs: Sequence) -> bytes:
    """The pickled list of ``fn(job)`` for each job; empty if one raised."""
    try:
        return pickle.dumps([fn(job) for job in jobs], pickle.HIGHEST_PROTOCOL)
    except Exception:
        return b""  # the caller runs the chunk again and raises there


def _serve(commands: int, replies: int) -> None:
    """Run each (fn, chunk) message pair from ``commands`` until it ends, replying on ``replies``."""
    while (fn := _recv(commands)) is not None and (chunk := _recv(commands)) is not None:
        try:
            fn = pickle.loads(fn)
            (grad_enabled, errstate), jobs = pickle.loads(chunk)
        except Exception:
            _send(replies, b"")
            continue
        del chunk
        tensor._grad_enabled = grad_enabled  # what a worker forked for the call inherits
        np.seterr(**errstate)
        _send(replies, _results(fn, jobs))


def _fork(fn: Optional[Callable] = None, jobs: Sequence = ()) -> _Worker:
    """Fork a worker that runs ``fn`` over ``jobs`` and exits, or, without ``fn``, one that is kept."""
    global _in_worker, _workers
    fds = os.pipe() + (os.pipe() if fn is None else ())  # results, then commands
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        _in_worker = True
        code = 1
        try:
            for fd in (fds[0], *fds[3:], *(fd for w in _workers for fd in (w.replies, w.commands))):
                os.close(fd)  # so that each kept worker sees its command pipe end with its parent
            _workers = []
            if fn is None:
                _serve(fds[2], fds[1])
            else:
                _send(fds[1], _results(fn, jobs))
            code = 0
        finally:
            os._exit(code)  # never return into the caller, whatever was raised
    os.close(fds[1])
    if fn is not None:
        return _Worker(pid, fds[0])
    os.close(fds[2])
    return _Worker(pid, fds[0], fds[3])


def _retire(worker: _Worker, kill: bool) -> None:
    """Close the pipes to ``worker`` and reap it, killed first if its reply may still be unread."""
    if kill:
        import signal  # here, so importing rowgate imports nothing new

        with contextlib.suppress(ProcessLookupError):
            os.kill(worker.pid, signal.SIGKILL)
    for fd in (worker.replies, worker.commands):
        if fd is not None:
            os.close(fd)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(worker.pid, 0)
    if worker in _workers:
        _workers.remove(worker)


def _pool(n: int) -> list[_Worker]:
    """Up to n live kept workers of this process, forking the missing ones."""
    global _workers, _owner
    if _owner != os.getpid():  # workers inherited through a fork belong to the parent
        for w in _workers:
            os.close(w.replies)
            os.close(w.commands)
        _workers, _owner = [], os.getpid()
        atexit.register(shutdown)  # once per process; one inherited from a parent finds nothing left
    for w in list(_workers):
        try:
            dead = os.waitpid(w.pid, os.WNOHANG)[0] != 0
        except ChildProcessError:
            dead = True
        if dead:
            _retire(w, kill=False)
    while len(_workers) < n:
        try:
            _workers.append(_fork())
        except OSError:
            break
    return _workers[:n]


def shutdown() -> None:
    """Close every kept worker's command pipe and reap it; each exits at the pipe's end."""
    global _workers
    workers, _workers = _workers, []
    for w in workers:
        os.close(w.commands)
    for w in workers:
        os.close(w.replies)
        if _owner == os.getpid():
            with contextlib.suppress(ChildProcessError):
                os.waitpid(w.pid, 0)


def _dispatch(fn: Callable, jobs: Sequence, chunks: list[tuple[int, int]], started: list) -> None:
    """Start each chunk in a worker, appending (worker, lo, hi) to ``started`` before it is sent."""
    try:
        fn_bytes = pickle.dumps(fn, pickle.HIGHEST_PROTOCOL)
    except Exception:  # not picklable: fork a worker for this call, which inherits fn
        for lo, hi in chunks:
            try:
                started.append((_fork(fn, jobs[lo:hi]), lo, hi))
            except OSError:
                break
        return
    state = (tensor._grad_enabled, np.geterr())
    for worker, (lo, hi) in zip(_pool(len(chunks)), chunks):
        try:
            chunk = pickle.dumps((state, jobs[lo:hi]), pickle.HIGHEST_PROTOCOL)
        except Exception:
            continue  # this chunk runs here, in order
        started.append((worker, lo, hi))
        with contextlib.suppress(OSError):  # a dead worker's reply ends early
            _send(worker.commands, fn_bytes)
            _send(worker.commands, chunk)


def _reply(worker: _Worker, count: int) -> tuple[Optional[list], bool]:
    """The results ``worker`` sent for ``count`` jobs (None if it sent none), and whether it is sound."""
    reply = _recv(worker.replies)
    if not reply:  # None if the worker died mid-reply, empty if a job raised there
        return None, reply is not None
    try:
        results = pickle.loads(reply)
    except Exception:
        return None, False
    return (results, True) if len(results) == count else (None, False)


def fork_map(fn: Callable, jobs: Sequence, min_jobs: int) -> Iterator:
    """``fn(job)`` for each job, in order, computed across the usable CPUs.

    When this returns, every worker forked for the call has been reaped
    and every kept worker is idle.  Chunk 0 runs here and stops at its
    first exception; the returned iterator computes each result that no
    process delivered when it reaches it.
    """
    global _in_worker
    results = [_MISSING] * len(jobs)
    started = []  # (worker, lo, hi) of each chunk whose reply is unread, in chunk order
    try:
        chunks = _chunks(len(jobs), min_jobs)
        if len(chunks) > 1:
            _dispatch(fn, jobs, chunks[1:], started)
        outer, _in_worker = _in_worker, True
        try:
            for j in range(*chunks[0]) if started else ():
                results[j] = fn(jobs[j])
        except Exception:
            pass  # the iterator re-runs this job in order and raises there
        finally:
            _in_worker = outer
        while started:
            worker, lo, hi = started[0]
            chunk, sound = _reply(worker, hi - lo)
            started.pop(0)
            if worker.commands is None or not sound:
                _retire(worker, kill=not sound)
            if chunk is not None:
                results[lo:hi] = chunk
    finally:
        for worker, _, _ in started:  # left only when this process was interrupted
            _retire(worker, kill=True)
    return (fn(job) if res is _MISSING else res for res, job in zip(results, jobs))
