"""Shared numeric helpers: stable log-sum-exp, whole and by segment, and
concatenated index ranges."""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) that tolerates -inf entries (empty mass)."""
    a = np.asarray(a, dtype=float)
    scalar = axis is None
    if scalar:
        a = a.ravel()
        axis = 0
    with np.errstate(all="ignore"):
        amax = np.max(a, axis=axis, keepdims=True)
        amax_safe = np.where(np.isfinite(amax), amax, 0.0)
        s = np.sum(np.exp(a - amax_safe), axis=axis)
        res = np.squeeze(amax_safe, axis=axis) + np.log(s)
    return float(res) if scalar else res


def concat_ranges(lo, hi):
    """arange(lo[k], hi[k]) for every k, concatenated, and where each starts."""
    size = hi - lo
    start = np.cumsum(size) - size
    return np.repeat(lo - start, size) + np.arange(int(size.sum())), start


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
