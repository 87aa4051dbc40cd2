"""Keyed-hash primitives: determinism, scalar/numpy agreement, coin behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath._rng import (
    BLOCK,
    MASK64,
    _mix64_inplace,
    chain64,
    chain64_np,
    coin_mask_np,
    coin_threshold,
    derive_key,
    mix64,
)


def test_mix64_range_and_determinism():
    for x in (0, 1, 7, MASK64, 123456789):
        h = mix64(x)
        assert 0 <= h <= MASK64
        assert h == mix64(x)


def test_mix64_distinct_on_small_inputs():
    outs = {mix64(x) for x in range(10_000)}
    assert len(outs) == 10_000


@given(st.integers(0, MASK64))
def test_mix64_scalar_matches_numpy(x):
    h = np.array([x], dtype=np.uint64)
    assert mix64(x) == int(_mix64_inplace(h, np.empty_like(h))[0])


@given(st.integers(0, MASK64), st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
@settings(deadline=None)
def test_chain64_scalar_matches_numpy(key, values):
    cols = [np.array([v], dtype=np.uint64) for v in values]
    assert chain64(key, values) == int(chain64_np(key, cols)[0])


def test_chain64_np_contract():
    """Multi-row int64 columns, a 2-D broadcast uint64 key (as the Monte-Carlo
    estimator passes), and inputs that come back unmodified."""
    rng = np.random.default_rng(3)
    cols = [rng.integers(0, 10**6, size=40) for _ in range(3)]
    keys = np.array([[derive_key(s, "test")] for s in range(4)], dtype=np.uint64)
    cols_before, keys_before = [c.copy() for c in cols], keys.copy()
    rows = [tuple(int(v) for v in row) for row in zip(*cols)]
    h = chain64_np(int(keys[0, 0]), cols)
    assert h.dtype == np.uint64 and h.shape == (40,)
    assert [int(v) for v in h] == [chain64(int(keys[0, 0]), row) for row in rows]
    hk = chain64_np(keys, cols)
    assert hk.shape == (4, 40)
    for r in range(4):
        assert [int(v) for v in hk[r]] == [chain64(int(keys[r, 0]), row) for row in rows]
    assert all((c == b).all() for c, b in zip(cols, cols_before))
    assert (keys == keys_before).all()


def test_chain64_np_blocks_agree_with_scalar_chain64():
    """Row counts just around one and two blocks, int32/int64/uint64 columns,
    a scalar key and a 2-D (r, 1) key spanning several blocks, and size 0."""
    rng = np.random.default_rng(5)
    key = derive_key(9, "test")
    for rows in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 0):
        values = [rng.integers(0, 2**31 - 1, size=rows) for _ in range(3)]
        expect = [chain64(key, row) for row in zip(*(v.tolist() for v in values))]
        for dtype in (np.int32, np.int64, np.uint64):
            cols = [v.astype(dtype) for v in values]
            before = [c.copy() for c in cols]
            h = chain64_np(key, cols)
            assert h.dtype == np.uint64 and h.shape == (rows,)
            assert h.tolist() == expect
            assert all(c.dtype == b.dtype and (c == b).all() for c, b in zip(cols, before))
    # 2-D key: BLOCK // 5 rows per slice, so 3 * BLOCK // 5 + 2 rows span 4 slices
    cols = [rng.integers(0, 1000, size=5).astype(dt) for dt in (np.int32, np.int64, np.uint64)]
    r = 3 * BLOCK // 5 + 2
    keys = np.array([[derive_key(s, "test")] for s in range(r)], dtype=np.uint64)
    keys_before = keys.copy()
    hk = chain64_np(keys, cols)
    assert hk.dtype == np.uint64 and hk.shape == (r, 5)
    rows5 = [[int(c[x]) for c in cols] for x in range(5)]
    assert hk.tolist() == [[chain64(int(k), row) for row in rows5] for k in keys[:, 0]]
    assert (chain64_np(keys, [c.reshape(1, 5) for c in cols]) == hk).all()
    assert (keys == keys_before).all()
    empty = chain64_np(keys[:0], cols)
    assert empty.dtype == np.uint64 and empty.shape == (0, 5)


def test_chain64_is_order_sensitive():
    key = derive_key(0, "test")
    assert chain64(key, (1, 2, 3)) != chain64(key, (3, 2, 1))


def test_chain64_np_rejects_empty():
    try:
        chain64_np(0, [])
    except ValueError:
        return
    raise AssertionError("expected ValueError")


def test_derive_key_separates_labels_and_seeds():
    assert derive_key(0, "sigma-j") != derive_key(0, "sigma-k")
    assert derive_key(0, "sigma-j") != derive_key(1, "sigma-j")
    assert derive_key(5, "edge-coin") == derive_key(5, "edge-coin")


def test_derive_key_takes_numpy_integer_seeds():
    assert derive_key(np.int64(5), "edge-coin") == derive_key(5, "edge-coin")
    assert derive_key(np.uint64(MASK64), "edge-coin") == derive_key(MASK64, "edge-coin")
    with pytest.raises(TypeError):
        derive_key(5.0, "edge-coin")


def test_coin_threshold_endpoints():
    assert coin_threshold(0.0) == 0
    assert coin_threshold(1.0) == 1 << 64
    assert coin_threshold(0.5) == 1 << 63
    try:
        coin_threshold(1.5)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_coin_mask_matches_scalar_comparison():
    hs = np.array([0, 1, 2**63 - 1, 2**63, MASK64], dtype=np.uint64)
    for p in (0.0, 0.25, 0.5, 1.0):
        th = coin_threshold(p)
        expect = np.array([int(h) < th for h in hs])
        assert (coin_mask_np(hs, th) == expect).all()


def test_coin_frequency_matches_p():
    # 10^4 hashes of distinct inputs; success rate within 3 sigma of p
    key = derive_key(42, "edge-coin")
    hs = chain64_np(key, [np.arange(10_000, dtype=np.uint64)])
    for p in (0.1, 0.5, 0.9):
        hits = int(coin_mask_np(hs, coin_threshold(p)).sum())
        sigma = (10_000 * p * (1 - p)) ** 0.5
        assert abs(hits - 10_000 * p) <= 3 * sigma
