"""LIBSVM parsing, synthetic data generation, and node/batch partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Binary-labeled samples: labels (N,) in {-1, +1} and dense features
    (N, d), one sample per row."""

    labels: np.ndarray
    features: np.ndarray

    @property
    def N(self) -> int:
        return self.labels.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def parse_libsvm(stream) -> Dataset:
    """Parse LIBSVM text: "<label> <idx>:<val> ...", indices 1-based and
    strictly increasing per line, values finite; d is the largest index
    named, and a file that names none is refused.  0/1 labels are
    remapped to -1/+1."""
    labels, rows, cols, vals = [], [], [], []
    for lineno, line in enumerate(stream, start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            lab = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric label {parts[0]!r}")
        if lab not in (1.0, -1.0, 0.0):
            raise ParseError(f"line {lineno}: unknown label value {parts[0]!r}")
        prev = 0
        for tok in parts[1:]:
            try:
                k_str, v_str = tok.split(":", 1)
                k = int(k_str)
                v = float(v_str)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed feature token {tok!r}")
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}: non-finite feature value {tok!r}")
            if k < 1:
                raise ParseError(f"line {lineno}: feature index {k} below 1 "
                                 "(indices are 1-based)")
            if k <= prev:
                raise ParseError(
                    f"line {lineno}: feature index {k} not strictly increasing"
                )
            prev = k
            rows.append(len(labels))
            cols.append(k - 1)
            vals.append(v)
        labels.append(1.0 if lab == 1.0 else -1.0)
    if not cols:
        raise ParseError("no feature named in any line")
    features = np.zeros((len(labels), max(cols) + 1))
    features[rows, cols] = vals
    return Dataset(labels=np.array(labels, dtype=float), features=features)


def serialize_libsvm(ds: Dataset) -> str:
    """LIBSVM text of ds: each row's label, its nonzero features and its
    last feature, zero or not, so that parsing the text keeps d."""
    lines = []
    for lab, row in zip(ds.labels, ds.features):
        keep = row != 0.0
        keep[-1] = True
        toks = ["%+d" % int(lab)]
        toks += ["%d:%.17g" % (k + 1, row[k]) for k in np.flatnonzero(keep)]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """The random stream of one component under the config seed: the
    generator of SeedSequence([seed, tag]).  The tags in use are 0xDA7A
    (synthesize), 0xBA7C (partition), 0x5501 (the restart solver) and
    0x5502 (the variance-reduced solver)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def synthesize(N: int, d: int, seed: int) -> Dataset:
    """Gaussian features, labels from a random linear separator with 10% of
    labels flipped.  Deterministic per seed."""
    if N < 1 or d < 1:
        raise ValueError("need N, d >= 1")
    rng = rng_for(seed, 0xDA7A)
    A = rng.standard_normal((N, d))
    w = rng.standard_normal(d)
    labels = np.where(A @ w >= 0.0, 1.0, -1.0)
    flip = rng.random(N) < 0.1
    labels[flip] *= -1.0
    return Dataset(labels=labels, features=A)


def partition(ds: Dataset, m: int, n: int, seed: int, mode: str = "shuffled") -> np.ndarray:
    """Deal samples round-robin to m nodes, then round-robin to n batches
    within each node.  mode "sorted" orders by label and hands each node a
    contiguous block (heterogeneous nodes); "shuffled" permutes by seed.

    Returns the (m, n, B) integer array whose [i, j] holds the sample
    indices of batch j on node i, sorted; a batch shorter than B is padded
    at its end with N, the dataset's sample count."""
    N = ds.N
    if N < m * n:
        raise ValueError(f"need N >= m*n, got N={N}, m={m}, n={n}")
    pos = np.arange(N)
    if mode == "shuffled":
        rng = rng_for(seed, 0xBA7C)
        order = rng.permutation(N)
        # order[pos] goes to node pos % m, as its (pos // m)-th sample
        node, rank = pos % m, pos // m
    elif mode == "sorted":
        order = np.argsort(ds.labels, kind="stable")
        # contiguous label-sorted blocks, sizes differing by at most 1
        bounds = np.round(np.arange(m + 1) * N / m).astype(np.int64)
        node = np.searchsorted(bounds, pos, side="right") - 1
        rank = pos - bounds[node]
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    # a node's k-th sample goes to batch k % n, as its (k // n)-th entry
    index = np.full((m, n, int(rank.max()) // n + 1), N)
    index[node, rank % n, rank // n] = order
    return np.sort(index, axis=-1)
