"""Permutation kernels behind the exact arrangement distributions.

The walk over all n! linear arrangements of a tree feeds
``itertools.permutations`` to numpy in chunks and sums the edge distances
of a whole chunk at once. It only cross-checks the closed-form null
probabilities, which ``ddmtest analyze`` uses without enumerating: the
command spends its time reading and cleaning the treebanks.
"""

from __future__ import annotations

import itertools

try:
    import numpy as np
except ImportError as exc:      # the "sim" extra; other modules import it here
    raise ImportError("enumeration and sampling need numpy: "
                      "pip install 'ddmtest[sim]'") from exc

_CHUNK = 100_000    # arrangements summed at once by distance_histogram


def _crossing_mask(posmat: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    lo = np.minimum(posmat[:, eu], posmat[:, ev])
    hi = np.maximum(posmat[:, eu], posmat[:, ev])
    mask = np.zeros(posmat.shape[0], bool)
    for i in range(len(eu)):
        for j in range(i + 1, len(eu)):
            mask |= (lo[:, i] < lo[:, j]) & (lo[:, j] < hi[:, i]) & (hi[:, i] < hi[:, j])
            mask |= (lo[:, j] < lo[:, i]) & (lo[:, i] < hi[:, j]) & (hi[:, j] < hi[:, i])
    return mask


def distance_histogram(eu: np.ndarray, ev: np.ndarray, n: int,
                       noncrossing: bool = False) -> np.ndarray:
    """Exact histogram of the distance sum over all n! arrangements.

    ``eu``/``ev`` are 0-based edge endpoints. With ``noncrossing`` only
    crossing-free arrangements are counted.
    """
    eu = np.asarray(eu, np.int64)
    ev = np.asarray(ev, np.int64)
    maxd = (n - 1) * (n - 1)     # n-1 edges, each at most n-1 long
    hist = np.zeros(maxd + 1, np.int64)
    perms = itertools.permutations(range(n))
    row = np.dtype((np.int64, (n,)))
    while True:
        batch = np.fromiter(itertools.islice(perms, _CHUNK), dtype=row, count=-1)
        if batch.size == 0:
            break
        posmat = batch.reshape(-1, n)
        d = np.zeros(posmat.shape[0], np.int64)
        for k in range(len(eu)):
            d += np.abs(posmat[:, eu[k]] - posmat[:, ev[k]])
        if noncrossing and len(eu) > 1:
            d = d[~_crossing_mask(posmat, eu, ev)]
        hist += np.bincount(d, minlength=maxd + 1)
    return hist


def sample_distance_sums(eu: np.ndarray, ev: np.ndarray, n: int, size: int,
                         rng: np.random.Generator,
                         chunk: int = 250_000) -> np.ndarray:
    """Distance sums of ``size`` independent uniform arrangements.

    Row-wise Fisher-Yates shuffles via ``Generator.permuted``, one chunk of
    arrangements at a time.
    """
    eu = np.asarray(eu, np.int64)
    ev = np.asarray(ev, np.int64)
    out = np.empty(size, np.int64)
    done = 0
    base = np.arange(n, dtype=np.int64)
    while done < size:
        b = min(chunk, size - done)
        posmat = rng.permuted(np.tile(base, (b, 1)), axis=1)
        d = np.zeros(b, np.int64)
        for k in range(len(eu)):
            d += np.abs(posmat[:, eu[k]] - posmat[:, ev[k]])
        out[done:done + b] = d
        done += b
    return out
