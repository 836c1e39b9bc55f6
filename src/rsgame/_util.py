"""Shared numeric helpers: stable log-sum-exp, simplex tools, ordered maps."""

from __future__ import annotations

import concurrent.futures

import numpy as np

NEG_INF = float("-inf")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) that tolerates -inf entries (empty mass)."""
    a = np.asarray(a, dtype=float)
    scalar = axis is None
    if scalar:
        a = a.ravel()
        axis = 0
    # errstate is per thread (context-local), unlike warnings filters, so
    # map_ordered's worker threads may call this concurrently
    with np.errstate(all="ignore"):
        amax = np.max(a, axis=axis, keepdims=True)
        amax_safe = np.where(np.isfinite(amax), amax, 0.0)
        s = np.sum(np.exp(a - amax_safe), axis=axis)
        res = np.squeeze(amax_safe, axis=axis) + np.log(s)
    return float(res) if scalar else res


def map_ordered(fn, items, threads: int = 1):
    """Apply fn to items, returning results in input order.

    Thread count never changes the result; reductions downstream rely on
    this ordering for bit-stable output.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
