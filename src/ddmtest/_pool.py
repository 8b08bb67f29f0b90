"""A bare fork pool, shared by the fold of ``ddmtest analyze`` and the test
stage of ``pipeline.analyze_tallies``.

The work is dealt into one share per worker. This process runs the first
share and a forked child each other one: the child inherits the imported
package and the inputs instead of receiving them, and sends its result back
as one pickle down its own pipe. ``multiprocessing`` and
``concurrent.futures`` are never imported, and ``pickle`` only when a child
is forked.
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


def run(func: Callable, shares: list[list[int]],
        name: Callable[[list[int]], str]) -> list:
    """``func(share)`` of every share, in share order, or the exception it
    raised: the first share in this process, each other one in a forked
    child that sends its result back as one pickle down its own pipe. A
    child that ends without sending it gives a ``ChildProcessError`` that
    says how it ended and names the worker as ``name(share)``. No child
    outlives the call: on an error in this process the children are killed
    and reaped.
    """
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
                        pickle.dump(_call(func, share), pipe)
                        pipe.close()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        results = [_call(func, shares[0])]
        for share, r in zip(shares[1:], ends):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if status == 0:
                results.append(pickle.loads(data))
                continue
            how = (f"killed by signal {-status}" if status < 0
                   else f"exit status {status}")
            results.append(ChildProcessError(
                f"the worker {name(share)} died before sending its results "
                f"({how})"))
        return results
    finally:
        for r in ends:
            os.close(r)
        if pids:                # left only by an error in this process
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _call(func: Callable, share: list[int]):
    try:
        return func(share)
    except Exception as exc:    # raised again by the caller, in share order
        return exc
