"""Seeded input generators, written in NumPy only.

The benchmark makes every graph, feature matrix, label vector and
request trace here, from the ``--seed`` argument, and hands the program
only the finished arrays (through ``COOMatrix``/``prepare_adjacency``).
Nothing in ``repro.graphs`` or ``repro.bench`` is used, so a change to
the program's own generators cannot move a workload.

Each generator returns plain arrays: ``rows``/``cols`` edge lists
(no self loops, no duplicates, symmetric), and whatever per-vertex
arrays the workload needs. ``to_adjacency`` turns an edge list into the
program's attention-ready CSR (binary values, self loops added), which
is the one place the program touches the generated graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PlantedPartition:
    """A stochastic-block-model node-classification problem."""

    rows: np.ndarray
    cols: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray


def _symmetric_unique(n: int, src: np.ndarray, dst: np.ndarray):
    """Undirected simple edge list: both directions, no loops, no dups."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    both_r = np.concatenate([src, dst])
    both_c = np.concatenate([dst, src])
    keys = np.unique(both_r * n + both_c)
    return keys // n, keys % n


def planted_partition(
    n: int,
    num_classes: int,
    feature_dim: int,
    mean_degree: float,
    rng: np.random.Generator,
    homophily: float = 0.8,
    noise: float = 2.0,
    train_fraction: float = 0.5,
) -> PlantedPartition:
    """Planted-partition graph with noisy class-prototype features.

    Every vertex draws ``mean_degree / 2`` out-edges; each one goes to a
    vertex of the same class with probability ``homophily`` and to a
    uniform vertex otherwise. Symmetrising gives a mean degree close to
    ``mean_degree``. Features are a class prototype (standard normal per
    class) plus Gaussian noise of standard deviation ``noise``, so the
    neighbourhood average carries more signal than a vertex alone.
    """
    labels = rng.integers(0, num_classes, n)
    per_vertex = max(1, int(round(mean_degree / 2)))
    src = np.repeat(np.arange(n), per_vertex)
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=num_classes)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    same = rng.random(src.size) < homophily
    # Same-class partner: a uniform member of the source's class.
    cls = labels[src]
    pick = starts[cls] + (rng.random(src.size) * counts[cls]).astype(np.int64)
    dst = np.where(same, order[pick], rng.integers(0, n, src.size))
    rows, cols = _symmetric_unique(n, src, dst)

    prototypes = rng.normal(0.0, 1.0, (num_classes, feature_dim))
    features = prototypes[labels] + noise * rng.normal(
        0.0, 1.0, (n, feature_dim)
    )
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: int(train_fraction * n)]] = True
    return PlantedPartition(
        rows=rows,
        cols=cols,
        features=features.astype(np.float32),
        labels=labels.astype(np.int64),
        train_mask=train_mask,
        test_mask=~train_mask,
    )


def power_law_graph(
    n: int, mean_degree: float, exponent: float, rng: np.random.Generator
):
    """Chung-Lu graph whose expected degrees follow a power law.

    Vertex ``i`` gets weight ``(i + 1) ** (-1 / (exponent - 1))``; both
    endpoints of each of ``n * mean_degree / 2`` edges are drawn in
    proportion to weight, so degrees are heavy-tailed with a few hubs.
    Vertex ids are shuffled so hubs are spread over the id range.
    """
    weight = (np.arange(n) + 1.0) ** (-1.0 / (exponent - 1.0))
    cdf = np.cumsum(weight)
    cdf /= cdf[-1]
    m = int(n * mean_degree / 2)
    perm = rng.permutation(n)
    src = perm[np.minimum(np.searchsorted(cdf, rng.random(m)), n - 1)]
    dst = perm[np.minimum(np.searchsorted(cdf, rng.random(m)), n - 1)]
    # A ring keeps every vertex connected to at least two others.
    ring = np.arange(n)
    src = np.concatenate([src, ring])
    dst = np.concatenate([dst, (ring + 1) % n])
    return _symmetric_unique(n, src, dst)


def in_degree_trace(
    n: int, cols: np.ndarray, length: int, rng: np.random.Generator
) -> np.ndarray:
    """Request ids drawn in proportion to in-degree plus one (hub-heavy)."""
    deg = np.bincount(cols, minlength=n).astype(np.float64) + 1.0
    cdf = np.cumsum(deg)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(length)), n - 1)


def to_adjacency(n: int, rows: np.ndarray, cols: np.ndarray):
    """The program's attention-ready CSR for an edge list (self loops on)."""
    from repro.graphs.prep import prepare_adjacency
    from repro.tensor.coo import COOMatrix

    coo = COOMatrix(rows, cols, np.ones(rows.size), shape=(n, n))
    return prepare_adjacency(coo)
