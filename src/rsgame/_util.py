"""Shared numeric helpers: stable log-sum-exp, whole and by segment,
concatenated index ranges, graph reachability and unit vectors."""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def logsumexp(a) -> float:
    """log(sum(exp(a))) over the whole array, shifted by its max, that
    tolerates -inf entries (empty mass)."""
    a = np.asarray(a, dtype=float).ravel()
    with np.errstate(all="ignore"):
        amax = a.max()
        shift = amax if np.isfinite(amax) else 0.0
        return float(shift + np.log(np.exp(a - shift).sum()))


def unit(m: int, k: int) -> np.ndarray:
    """The k-th unit vector of length m: pure action k as mixed weights."""
    e = np.zeros(m)
    e[k] = 1.0
    return e


def concat_ranges(lo, hi):
    """arange(lo[k], hi[k]) for every k, concatenated, and where each starts."""
    size = hi - lo
    start = np.cumsum(size) - size
    return np.repeat(lo - start, size) + np.arange(int(size.sum())), start


def reachable(lo, hi, succ, sources) -> np.ndarray:
    """Mask of the nodes reached from `sources` in the graph whose node k
    has the successors succ[lo[k]:hi[k]] (CSR), breadth first: each
    frontier holds every newly reached node once, so each edge is read at
    most once."""
    seen = np.zeros(len(lo), dtype=bool)
    seen[sources] = True
    frontier = np.flatnonzero(seen)
    slot = np.empty(len(lo), dtype=np.int64)
    while frontier.size:
        new = succ[concat_ranges(lo[frontier], hi[frontier])[0]]
        new = new[~seen[new]]
        # one occurrence of each node wins the slot write; keep only that one
        order = np.arange(new.size)
        slot[new] = order
        frontier = new[slot[new] == order]
        seen[frontier] = True
    return seen


def segment_logsumexp(vals, sizes):
    """log sum exp over consecutive segments of `vals` of the given sizes,
    each shifted by its max as logsumexp does. An empty segment, or one
    whose entries are all -inf, gives -inf: empty mass."""
    sizes = np.asarray(sizes)
    out = np.full(len(sizes), NEG_INF)
    full = sizes > 0
    if vals.size:
        start = (np.cumsum(sizes) - sizes)[full]
        with np.errstate(all="ignore"):
            amax = np.maximum.reduceat(vals, start)
            shift = np.where(np.isfinite(amax), amax, 0.0)
            total = np.add.reduceat(np.exp(vals - np.repeat(shift, sizes[full])), start)
            out[full] = shift + np.log(total)
    return out
