import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decsaddle as ds
from decsaddle.data import ParseError, serialize_libsvm


def test_parse_basic():
    d = ds.parse_libsvm(io.StringIO("+1 1:0.5 3:-2\n"))
    assert d.N == 1 and d.d == 3
    assert d.labels[0] == 1.0
    assert np.array_equal(d.features, [[0.5, 0, -2]])


def test_parse_zero_label_remap():
    d = ds.parse_libsvm(io.StringIO("0 2:1\n"))
    assert d.labels[0] == -1.0


def test_parse_errors():
    with pytest.raises(ParseError):
        ds.parse_libsvm(io.StringIO("x 1:1\n"))
    with pytest.raises(ParseError):
        ds.parse_libsvm(io.StringIO("+1 2:1 2:3\n"))
    with pytest.raises(ParseError):
        ds.parse_libsvm(io.StringIO("+1 1:abc\n"))
    with pytest.raises(ParseError):
        ds.parse_libsvm(io.StringIO("3 1:1\n"))
    for text in ("+1 1:nan\n", "+1 1:0.5 2:-inf\n", "+1\n-1\n", ""):
        with pytest.raises(ParseError):
            ds.parse_libsvm(io.StringIO(text))
    # a 0-based or negative index is named as such, not as out of order
    for k in ("0", "-2"):
        message = f"line 1: feature index {k} below 1 (indices are 1-based)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ds.parse_libsvm(io.StringIO(f"+1 {k}:1.0\n"))


def test_parse_skips_blank_lines():
    d = ds.parse_libsvm(io.StringIO("\n+1 1:0.5\n  \n\n-1 2:2\n\n"))
    assert np.array_equal(d.labels, [1.0, -1.0])
    assert np.array_equal(d.features, [[0.5, 0.0], [0.0, 2.0]])


def test_synthesize_rejects_empty():
    with pytest.raises(ValueError, match="need N, d >= 1"):
        ds.synthesize(0, 3, 0)


def test_roundtrip():
    # a last feature that is zero in every row keeps d through the text
    d = ds.synthesize(20, 4, 0)
    zero_last = ds.Dataset(d.labels, np.hstack([d.features, np.zeros((20, 1))]))
    for ds_in in (d, zero_last):
        text = serialize_libsvm(ds_in)
        d2 = ds.parse_libsvm(io.StringIO(text))
        assert np.array_equal(ds_in.labels, d2.labels)
        assert np.array_equal(ds_in.features, d2.features)


def test_synthesize_deterministic():
    a = ds.synthesize(50, 5, 3)
    b = ds.synthesize(50, 5, 3)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.features, b.features)


def test_synthesize_shapes_and_balance():
    d = ds.synthesize(200, 10, 1)
    assert d.N == 200 and d.d == 10
    pos = np.sum(d.labels == 1.0)
    # labels near-balanced: separator is symmetric, 10% flips keep it so
    assert abs(pos - 100) <= 3 * np.sqrt(200 * 0.25)


def test_partition_exact_division():
    d = ds.synthesize(12, 3, 0)
    p = ds.partition(d, 3, 2, 0)
    assert p.shape == (3, 2, 2)
    assert (p < 12).all()


def test_partition_uneven():
    d = ds.synthesize(13, 3, 0)
    p = ds.partition(d, 3, 2, 0)
    sizes = (p < 13).sum(axis=-1)
    assert sorted(sizes.sum(axis=1)) == [4, 4, 5]
    assert (sizes.max(axis=1) - sizes.min(axis=1) <= 1).all()


@pytest.mark.parametrize("mode", ["shuffled", "sorted"])
@pytest.mark.parametrize("N, m, n", [(12, 3, 2), (13, 3, 2), (23, 3, 2), (61, 4, 2), (40, 7, 3)])
def test_partition_matches_the_round_robin_loop(mode, N, m, n):
    # reference: deal the ordered samples to nodes by slices, then each
    # node's samples to batches; every batch sorted, then padded with N
    d = ds.synthesize(N, 3, 1)
    p = ds.partition(d, m, n, 5, mode=mode)
    if mode == "shuffled":
        order = np.random.default_rng(np.random.SeedSequence([5, 0xBA7C])).permutation(N)
        per_node = [order[i::m] for i in range(m)]
    else:
        order = np.argsort(d.labels, kind="stable")
        bounds = [round(i * N / m) for i in range(m + 1)]
        per_node = [order[bounds[i]:bounds[i + 1]] for i in range(m)]
    batches = [[np.sort(node[j::n]) for j in range(n)] for node in per_node]
    assert p.shape == (m, n, max(b.size for row in batches for b in row))
    for i in range(m):
        for j, batch in enumerate(batches[i]):
            assert np.array_equal(p[i, j, : batch.size], batch)
            assert (p[i, j, batch.size :] == N).all()


def test_partition_rejects_too_few():
    d = ds.synthesize(5, 3, 0)
    with pytest.raises(ValueError):
        ds.partition(d, 3, 2, 0)


def test_partition_rejects_unknown_mode():
    d = ds.synthesize(12, 3, 0)
    with pytest.raises(ValueError, match="unknown partition mode 'random'"):
        ds.partition(d, 3, 2, 0, mode="random")


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_partition_disjoint_cover(m, n, seed):
    N = m * n + seed % 7
    d = ds.synthesize(N, 3, 0)
    p = ds.partition(d, m, n, seed)
    all_idx = p[p < N]
    assert len(all_idx) == N
    assert set(all_idx.tolist()) == set(range(N))
    # every batch sorted, its padding N at the end
    assert np.array_equal(p, np.sort(p, axis=-1))


def test_partition_sorted_mode_heterogeneous():
    d = ds.synthesize(40, 3, 0)
    p = ds.partition(d, 2, 1, 0, mode="sorted")
    means = d.labels[p[:, 0]].mean(axis=-1)
    assert means[0] < means[1]
