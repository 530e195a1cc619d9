import numpy as np
import pytest

from opembed.reducers import (
    FaModel,
    fit_fa,
    fit_pca,
    transform_fa,
    transform_pca,
)


def eig_oracle(X, k):
    """Brute-force PCA reference: eigh on the sample covariance, sorted by
    descending eigenvalue, with the same sign convention as fit_pca."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (len(X) - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:k]
    comps = vecs[:, order].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    return mean, comps, np.maximum(vals[order], 0.0)


def test_pca_diagonal_line_closed_form(rng):
    t = rng.normal(size=200)
    X = np.outer(t, np.array([1.0, 1.0]) / np.sqrt(2))
    model = fit_pca(X, 2)
    assert np.allclose(model.components[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-9)
    assert np.isclose(model.explained_variance[0], t.var(ddof=1), atol=1e-9)
    assert np.isclose(model.explained_variance[1], 0.0, atol=1e-9)
    assert np.isclose(
        model.explained_variance.sum(), X.var(axis=0, ddof=1).sum(), atol=1e-9
    )


def test_pca_matches_eigendecomposition():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 4))
    model = fit_pca(X, 4)
    mean, comps, vars_ = eig_oracle(X, 4)
    assert np.allclose(model.mean, mean, atol=1e-12)
    assert np.allclose(model.components, comps, atol=1e-6)
    assert np.allclose(model.explained_variance, vars_, atol=1e-6)


def test_pca_matches_eigendecomposition_on_rank_deficient_fold():
    # a cross-validation fold's shape: 49 operators x 83 sparse slots, with
    # the last 23 slots never set, so the covariance has rank 48 of 83
    rng = np.random.default_rng(3)
    X = (rng.random((49, 83)) < 0.15).astype(np.float64)
    X[:, :10] = rng.normal(size=(49, 10))
    X[:, 60:] = 0.0
    assert np.linalg.matrix_rank(X - X.mean(axis=0)) == 48
    model = fit_pca(X, 32)
    mean, comps, vars_ = eig_oracle(X, 32)
    assert np.allclose(model.mean, mean, atol=1e-12)
    assert np.allclose(model.components, comps, atol=1e-9)
    assert np.allclose(model.explained_variance, vars_, atol=1e-9)
    assert np.allclose(model.components @ model.components.T, np.eye(32), atol=1e-9)


def test_pca_components_orthonormal_and_variances_sorted(rng):
    X = rng.normal(size=(40, 10)) * np.linspace(3, 0.5, 10)
    model = fit_pca(X, 10)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(10), atol=1e-6)
    assert (np.diff(model.explained_variance) <= 1e-9).all()


def test_pca_transform_of_mean_is_zero(rng):
    X = rng.normal(size=(30, 5))
    model = fit_pca(X, 3)
    assert np.allclose(transform_pca(model, model.mean), 0.0, atol=1e-12)


def test_pca_reconstruct_then_transform_is_idempotent(rng):
    X = rng.normal(size=(30, 6))
    model = fit_pca(X, 3)
    x = rng.normal(size=6)
    z = transform_pca(model, x)
    z2 = transform_pca(model, z @ model.components + model.mean)
    assert np.allclose(z, z2, atol=1e-9)


def test_pca_rank_k_data_reconstructs_exactly(rng):
    basis = np.linalg.qr(rng.normal(size=(8, 3)))[0].T
    Z = rng.normal(size=(50, 3))
    X = Z @ basis + rng.normal(size=8)
    model = fit_pca(X, 3)
    recon = transform_pca(model, X) @ model.components + model.mean
    assert np.abs(recon - X).max() < 1e-6


def test_pca_transform_is_affine(rng):
    X = rng.normal(size=(25, 4))
    model = fit_pca(X, 2)
    x, y = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.7, -1.3
    lhs = transform_pca(model, a * x + b * y)
    correction = (a + b - 1) * (model.mean @ model.components.T)
    rhs = a * transform_pca(model, x) + b * transform_pca(model, y) + correction
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_pca_input_validation(rng):
    X = rng.normal(size=(10, 4))
    with pytest.raises(ValueError):
        fit_pca(X, 5)
    with pytest.raises(ValueError):
        fit_pca(X, 0)
    with pytest.raises(ValueError):
        fit_pca(X[:1], 1)


def test_fa_merges_identical_columns_first(rng):
    base = rng.normal(size=12)
    X = np.column_stack([base, base, rng.normal(size=12)])
    model = fit_fa(X, 2)
    assert model.clusters == ((0, 1), (2,))


def test_fa_full_k_is_identity_partition(rng):
    X = rng.normal(size=(9, 4))
    model = fit_fa(X, 4)
    assert model.clusters == ((0,), (1,), (2,), (3,))


def greedy_replay(X, k):
    """Independent replay of the agglomeration rule: recompute every pairwise
    |Pearson| of cluster-mean columns each round, merge the best (lowest pair
    on ties)."""
    X = np.asarray(X, dtype=np.float64)
    clusters = [[j] for j in range(X.shape[1])]

    def corr(a, b):
        a = a - a.mean()
        b = b - b.mean()
        sa, sb = np.sqrt(a @ a), np.sqrt(b @ b)
        if sa == 0 or sb == 0:
            return 0.0
        return abs(float(a @ b) / (sa * sb))

    while len(clusters) > k:
        best, pair = -1.0, None
        for i in range(len(clusters)):
            ri = X[:, clusters[i]].mean(axis=1)
            for j in range(i + 1, len(clusters)):
                c = corr(ri, X[:, clusters[j]].mean(axis=1))
                if c > best:
                    best, pair = c, (i, j)
        i, j = pair
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return tuple(tuple(c) for c in clusters)


def test_fa_matches_greedy_replay_oracle():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 8))
        for k in (3, 5):
            assert fit_fa(X, k).clusters == greedy_replay(X, k)


def test_fa_partition_invariants(rng):
    X = rng.normal(size=(30, 12))
    model = fit_fa(X, 5)
    assert model.k == 5
    members = [s for c in model.clusters for s in c]
    assert sorted(members) == list(range(12))
    assert all(len(c) >= 1 for c in model.clusters)


def test_fa_transform_returns_cluster_means(rng):
    X = rng.normal(size=(15, 6))
    model = fit_fa(X, 3)
    x = np.empty(6)
    for value, cluster in zip((2.5, -1.0, 7.25), model.clusters):
        for s in cluster:
            x[s] = value
    assert np.array_equal(transform_fa(model, x), [2.5, -1.0, 7.25])


def test_fa_transform_batch_and_dim_check(rng):
    X = rng.normal(size=(15, 6))
    model = fit_fa(X, 3)
    rows = rng.normal(size=(4, 6))
    out = transform_fa(model, rows)
    assert out.shape == (4, 3)
    assert np.allclose(out[2], transform_fa(model, rows[2]))
    with pytest.raises(ValueError, match="slots"):
        transform_fa(model, np.zeros(7))


def test_fa_input_validation(rng):
    X = rng.normal(size=(10, 4))
    with pytest.raises(ValueError):
        fit_fa(X, 5)
    with pytest.raises(ValueError):
        fit_fa(X[:1], 2)


def test_fa_constant_column_correlates_with_nothing(rng):
    X = np.column_stack([np.full(10, 3.0), rng.normal(size=10), rng.normal(size=10)])
    model = fit_fa(X, 2)
    # the two varying columns merge before anything joins the constant one
    assert (0,) in model.clusters
