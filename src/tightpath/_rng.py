"""Deterministic keyed hashing used for every random decision in the package.

All randomness (edge coins, query priorities, new-start priorities, trial
seeds) is derived from a 64-bit master seed through one mixing function, so
that any run is reproducible from its seed alone and the lazy and explicit
hypergraph backends agree coin-for-coin.

The mixer is the splitmix64 finalizer. It is not cryptographic; it is chosen
because it vectorizes (the same arithmetic runs on numpy uint64 arrays and on
Python ints) while passing standard equidistribution tests, which is what the
query-bound search actually needs. Priorities are 64-bit values; ties are
broken by the canonical vertex tuple, so orderings are total even in the
astronomically unlikely event of a hash collision.

``chain64_np`` hashes in cache-sized slices of ``BLOCK`` = 2^15 elements: it
allocates its output and a single block of scratch, and runs every column
pass of the chain over one slice before moving on to the next.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Elements per slice of chain64_np: 2^15 uint64 values are 256 KB, so the
# output slice and the scratch block stay in a per-core L2 cache.
BLOCK = 1 << 15


def mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int, mod 2^64."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _M1) & MASK64
    x ^= x >> 27
    x = (x * _M2) & MASK64
    x ^= x >> 31
    return x


def chain64(key: int, values: Iterable[int]) -> int:
    """Hash a sequence of small non-negative ints under ``key``.

    The caller is responsible for canonical ordering (vertex sets must be
    sorted before hashing).
    """
    h = key & MASK64
    for v in values:
        h = mix64(h ^ ((v + 1) & MASK64))
    return h


def derive_key(seed: int, label: str) -> int:
    """Domain-separated subkey: distinct labels give independent streams."""
    h = mix64(operator.index(seed) & MASK64)
    for b in label.encode("utf-8"):
        h = mix64(h ^ (b + 1))
    return mix64(h ^ GOLDEN)


def coin_threshold(p: float) -> int:
    """Map a probability to the acceptance threshold on 64-bit hashes.

    A hash h is a success iff h < threshold; threshold/2^64 equals p up to
    one part in 2^64.
    """
    check_probability(p)
    return min(round(p * (1 << 64)), 1 << 64)


def check_probability(p: float) -> None:
    """Raise ValueError unless 0 <= p <= 1 (NaN included)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")


# numpy counterparts; identical arithmetic on uint64 arrays.

_NP_M1 = np.uint64(_M1)
_NP_M2 = np.uint64(_M2)
_NP_30 = np.uint64(30)
_NP_27 = np.uint64(27)
_NP_31 = np.uint64(31)


def _mix64_inplace(h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on the uint64 array ``h``, in place; ``tmp`` is
    scratch of the same shape. No temporaries are allocated."""
    np.right_shift(h, _NP_30, out=tmp)
    h ^= tmp
    h *= _NP_M1
    np.right_shift(h, _NP_27, out=tmp)
    h ^= tmp
    h *= _NP_M2
    np.right_shift(h, _NP_31, out=tmp)
    h ^= tmp
    return h


def mix64_np(x: np.ndarray) -> np.ndarray:
    h = x.astype(np.uint64, copy=True)
    return _mix64_inplace(h, np.empty_like(h))


def chain64_np(key, cols: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized chain64. ``key`` is an int or a broadcastable uint64 array;
    each element of ``cols`` is one coordinate column. The result is a fresh
    array of the broadcast shape; ``key`` and ``cols`` are only read.

    The hash runs over slices of the leading axis of about ``BLOCK`` elements
    each (at least one row), so every column pass over a slice stays in cache;
    the only allocations are the output and one block of scratch.
    """
    if not len(cols):
        raise ValueError("chain64_np needs at least one column")
    if isinstance(key, (int, np.integer)):
        key = np.uint64(int(key) & MASK64)
    shape = np.broadcast(key, *cols).shape
    h = np.empty(shape or (1,), dtype=np.uint64)
    step = max(1, BLOCK // max(1, math.prod(shape[1:])))
    tmp = np.empty((min(step, len(h)),) + h.shape[1:], dtype=np.uint64)

    def rows(a, lo):
        # a's rows of the block at lo; an input that broadcasts along the
        # leading axis (a scalar key, 1-D columns beside an (r, 1) key) is
        # used whole
        return a[lo : lo + step] if np.ndim(a) == h.ndim and len(a) > 1 else a

    for lo in range(0, len(h), step):
        hb = h[lo : lo + step]
        tb = tmp[: len(hb)]
        for i, c in enumerate(cols):
            # c + 1 wraps mod 2^64 whether c is signed or unsigned
            np.add(rows(c, lo), 1, out=tb, casting="unsafe")
            np.bitwise_xor(rows(key, lo) if i == 0 else hb, tb, out=hb)
            _mix64_inplace(hb, tb)
    return h.reshape(shape)


def coin_mask_np(hashes: np.ndarray, threshold: int) -> np.ndarray:
    """Boolean success mask for pre-hashed values under a coin threshold."""
    if threshold <= 0:
        return np.zeros(hashes.shape, dtype=bool)
    if threshold > MASK64:
        return np.ones(hashes.shape, dtype=bool)
    return hashes < np.uint64(threshold)
