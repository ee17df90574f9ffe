"""Share a list of independent tasks among forked worker processes.

``fork_map(fn, items, workers)`` is ``[fn(item) for item in items]``, run by
``workers`` processes: this process is worker 0 and forks the others, and
worker j runs items j, j + workers, ... The results are those of the serial
loop, in order, and so is the error: when items fail, the first in order is
raised, with its class and message (a child's error loses its ``__cause__``
and traceback through pickling). ``worker_count`` is the rule for how many
workers a batch of tasks gets; it gives 1 wherever forking is not safe or
does not pay.

The rules that keep this safe: a child pickles its share's outcomes into a
pipe only once the whole share is done, so its work never waits on a full
pipe while this process runs its own share; a child always leaves through
``os._exit``, so it never returns into the caller's stack or flushes
inherited buffers; this process closes every read end before it reaps the
children, so a child blocked on a full pipe fails instead of waiting; and
this process runs the share of any child that could not be forked, died,
or sent no readable pickle (a result or error that cannot be pickled makes
the child fail).
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from typing import Callable, Optional, Sequence


def worker_count(tasks: int, work: float, break_even: float) -> int:
    """How many processes should share ``tasks`` tasks of ``work`` in total:
    one per usable CPU, up to one per task, if this process can fork safely
    (a POSIX fork, and no other Python thread) and ``work`` reaches
    ``break_even``; else 1. BLAS's own threads are not Python threads; its
    pool is fork-safe."""
    if not hasattr(os, "fork") or threading.active_count() != 1 or tasks < 2:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, tasks) if work >= break_even else 1


def _attempts(fn: Callable, items: Sequence) -> list[tuple[bool, object]]:
    """``(True, fn(item))`` for each item up to the first that raises, which
    gives ``(False, its exception)`` and ends the list."""
    outcomes: list[tuple[bool, object]] = []
    for item in items:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:  # handed back to be raised in order
            outcomes.append((False, exc))
            break
    return outcomes


def _fork_worker(fn: Callable, items: Sequence, inherited: Sequence) -> tuple[int, object]:
    """Fork a child that pickles ``_attempts(fn, items)`` into a pipe and
    exits; the child's pid and the pipe's read end. The child first closes
    the ``inherited`` read ends of earlier children's pipes."""
    r, w = os.pipe()
    try:
        # Python 3.12 and later warn on a fork beside any native thread, such
        # as BLAS's pool, which is fork-safe; the child only computes and exits.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for reader in inherited:
                reader.close()
            with open(w, "wb") as out:
                pickle.dump(_attempts(fn, items), out, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)  # no atexit handler or inherited buffer runs here
    os.close(w)
    return pid, open(r, "rb")


def _delivered(reader) -> Optional[list]:
    """The outcomes a child pickled into ``reader``, or None for none."""
    try:
        return pickle.load(reader)
    except Exception:  # EOF or a broken stream: the child did not finish
        return None


def fork_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` run by ``workers`` processes, as the
    module docstring sets out; with one worker, that loop in this process."""
    if workers < 2:
        return [fn(item) for item in items]
    children: list[tuple[int, object]] = []
    try:
        for j in range(1, workers):
            try:
                children.append(_fork_worker(fn, items[j::workers], [r for _, r in children]))
            except OSError:  # no process to spare: this one runs the rest
                break
        own = _attempts(fn, items[0::workers])
        delivered = [_delivered(r) for _, r in children]
    finally:
        # closed first, so a child blocked on a full pipe fails instead of waiting
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
                pass
    shares = [own] + delivered + [None] * (workers - 1 - len(delivered))
    # a position after its worker's first failure stays None, so every
    # position before the first failure in order is filled
    outcomes: list = [None] * len(items)
    for j, share in enumerate(shares):
        if share is None:
            share = _attempts(fn, items[j::workers])
        for i, outcome in zip(range(j, len(items), workers), share):
            outcomes[i] = outcome
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results
