"""A bare fork pool, shared by the fold of ``ddmtest analyze`` and the test
stage of ``pipeline.analyze_collection``.

``map`` calls a function on every item, one worker per share of the items
by weight: this process runs one share and a forked child each other one.
A child inherits the imported package and the inputs instead of receiving
them, and sends its results back as one pickle down its own pipe.
``multiprocessing`` and ``concurrent.futures`` are never imported, and
``pickle`` only when a child is forked.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence

MAX_WORKERS = 8


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(items: int) -> int:
    """The worker count for ``items`` items: one per usable CPU, at most one
    per item and ``MAX_WORKERS``. A process with other threads must not
    fork, so it takes one worker, as it does where the platform cannot
    fork."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), items, MAX_WORKERS))


def deal(weights: Sequence[int], workers: int) -> list[list[int]]:
    """The indices of ``weights`` in ``workers`` shares, each share in index
    order: the heaviest item first, each to the share with the least weight
    so far, and of those to the one with the fewest items, so that no share
    is left empty while another holds two items."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(weights)), key=weights.__getitem__,
                    reverse=True):
        least = min(range(workers), key=lambda k: (loads[k], len(shares[k])))
        shares[least].append(i)
        loads[least] += weights[i]
    return [sorted(share) for share in shares]


def map(func: Callable[[int], object], weights: Sequence[int], workers: int,
        name: Callable[[int], str]) -> list:
    """``func(i)``, or the exception that call raised, for every index i of
    ``weights``, in index order.

    The items are dealt by weight to ``workers`` workers (``deal``): this
    process runs the first share and a forked child each other one, each
    share in index order. An item that raises ends its share: each later
    item of the share carries the same exception. A child that ends
    without sending its results gives each item of its share a
    ``ChildProcessError`` that says how it ended and names the worker as
    ``name(i)`` of the share's first item. No child outlives the call: on
    an error in this process the children are killed and reaped.
    """
    shares = deal(weights, workers)
    if len(shares) > 1:
        import pickle   # here, as a run with no child does not need it
    pids, ends = [], []         # each child's pid and its pipe's read end
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            ends.append(r)
            with open(w, "wb") as pipe:     # this process's copy closes
                pid = os.fork()
                if pid == 0:    # the child: run, send, and never return
                    status = 1
                    try:
                        pickle.dump(_run(func, share), pipe)
                        pipe.close()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        done = [_run(func, shares[0])]
        for share, r in zip(shares[1:], ends):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if status == 0:
                done.append(pickle.loads(data))
                continue
            how = (f"killed by signal {-status}" if status < 0
                   else f"exit status {status}")
            done.append([ChildProcessError(
                f"the worker {name(share[0])} died before sending its "
                f"results ({how})")] * len(share))
        results = [None] * len(weights)
        for share, share_results in zip(shares, done):
            for i, result in zip(share, share_results):
                results[i] = result
        return results
    finally:
        for r in ends:
            os.close(r)
        if pids:                # left only by an error in this process
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run(func: Callable[[int], object], share: list[int]) -> list:
    """``func(i)`` for each item of ``share``, up to the first that raises,
    whose exception stands for it and each later item."""
    results = []
    for i in share:
        try:
            results.append(func(i))
        except Exception as exc:    # raised again by the caller, in order
            return results + [exc] * (len(share) - len(results))
    return results
