"""Non-neural featurization baselines: PCA by one eigendecomposition of
the sample covariance, and greedy correlation-based feature agglomeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PcaModel:
    mean: np.ndarray                 # (D,)
    components: np.ndarray           # (K, D), rows orthonormal
    explained_variance: np.ndarray   # (K,), nonincreasing

    def __post_init__(self):
        shapes = tuple(np.shape(a) for a in (self.mean, self.components, self.explained_variance))
        if len(shapes[1]) != 2 or shapes != ((shapes[1][1],), shapes[1], (shapes[1][0],)):
            raise ValueError(f"pca mean, components and variances have shapes {shapes}, "
                             "want (D,), (K, D) and (K,)")


def fit_pca(X: np.ndarray, k: int) -> PcaModel:
    """Leading k principal directions of the sample covariance.

    One symmetric eigendecomposition (LAPACK dsyevd), in descending
    eigenvalue order. Sign convention: the largest-magnitude coordinate of
    each component is positive.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a matrix with at least 2 rows")
    n, d = X.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    values, vectors = np.linalg.eigh(cov)
    components = vectors[:, ::-1][:, :k].T.copy()
    flip = components[np.arange(k), np.abs(components).argmax(axis=1)] < 0
    components[flip] *= -1.0
    return PcaModel(mean, components, np.maximum(values[::-1][:k], 0.0))


def transform_pca(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Coordinates of centered x on the principal directions."""
    x = np.asarray(x, dtype=np.float64)
    return (x - model.mean) @ model.components.T


@dataclass
class FaModel:
    clusters: tuple[tuple[int, ...], ...]  # disjoint, sorted, cover [0, D)
    dim: int

    def __post_init__(self):
        members = sorted(i for c in self.clusters for i in c)
        if self.dim < 1 or not all(self.clusters) or members != list(range(self.dim)):
            raise ValueError(f"fa clusters must be non-empty and partition [0, {self.dim})")

    @property
    def k(self) -> int:
        return len(self.clusters)


def _safe_corr(a: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|Pearson| of column a against each column of B; zero-variance -> 0."""
    a = a - a.mean()
    B = B - B.mean(axis=0)
    sa = np.sqrt((a * a).sum())
    sb = np.sqrt((B * B).sum(axis=0))
    num = a @ B
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where((sa > 0) & (sb > 0), num / (sa * sb), 0.0)
    return np.abs(corr)


def fit_fa(X: np.ndarray, k: int) -> FaModel:
    """Greedy agglomeration of the input slots down to k merged features.

    Repeatedly merges the two clusters whose representative columns (means
    of member slots) have the highest |Pearson correlation|; ties resolve
    to the lexicographically lowest cluster-index pair.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a matrix with at least 2 rows")
    n, d = X.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")

    clusters: list[list[int]] = [[j] for j in range(d)]
    reps = X.copy()  # column j is cluster j's representative

    # pairwise |corr|, upper triangle only; lower+diagonal poisoned so a
    # row-major argmax lands on the lowest (i, j) among ties
    m = d
    C = np.full((m, m), -1.0)
    for i in range(m):
        if i + 1 < m:
            C[i, i + 1 :] = _safe_corr(reps[:, i], reps[:, i + 1 :])

    while len(clusters) > k:
        flat = int(np.argmax(C))
        i, j = divmod(flat, C.shape[1])
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
        merged_rep = X[:, clusters[i]].mean(axis=1)
        reps = np.delete(reps, j, axis=1)
        reps[:, i] = merged_rep
        C = np.delete(np.delete(C, j, axis=0), j, axis=1)
        if i > 0:
            C[:i, i] = _safe_corr(merged_rep, reps[:, :i])
        if i + 1 < reps.shape[1]:
            C[i, i + 1 :] = _safe_corr(merged_rep, reps[:, i + 1 :])
    return FaModel(tuple(tuple(c) for c in clusters), d)


def transform_fa(model: FaModel, x: np.ndarray) -> np.ndarray:
    """Reduced features: mean of each cluster's member slots."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = np.atleast_2d(x)
    if rows.shape[1] != model.dim:
        raise ValueError(f"input has {rows.shape[1]} slots, model wants {model.dim}")
    out = np.column_stack([rows[:, c].mean(axis=1) for c in model.clusters])
    return out[0] if single else out
