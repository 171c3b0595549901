import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decsaddle as ds
from decsaddle.topology import jacobi_eigh


def test_ring3_all_thirds():
    g = ds.build_ring(3)
    assert np.allclose(g.W, np.full((3, 3), 1.0 / 3.0), atol=0)


def test_ring4_circulant_row():
    g = ds.build_ring(4)
    assert np.allclose(g.W[0], [1 / 3, 1 / 3, 0, 1 / 3], atol=0)
    assert not g.W.flags.writeable


def test_ring4_spectrum():
    # circulant eigenvalues of I-W: 1 - (1 + 2 cos(2 pi k / m)) / 3
    g = ds.build_ring(4)
    spec = ds.spectral(g)
    expected = np.sort([1 - (1 + 2 * np.cos(2 * np.pi * k / 4)) / 3 for k in range(4)])
    assert np.allclose(spec.eigvals, expected, atol=1e-12)
    assert np.allclose(spec.eigvals, [0, 2 / 3, 2 / 3, 4 / 3], atol=1e-12)
    assert abs(spec.lambda_max - 4 / 3) < 1e-12
    assert abs(spec.kappa_g - 2.0) < 1e-12


def test_ring3_spectrum():
    spec = ds.spectral(ds.build_ring(3))
    assert np.allclose(spec.eigvals, [0, 1, 1], atol=1e-12)
    assert abs(spec.kappa_g - 1.0) < 1e-12


def test_ring_rejects_small():
    with pytest.raises(ValueError):
        ds.build_ring(2)


def test_torus33_rows():
    g = ds.build_torus(3, 3)
    for i in range(9):
        row = g.W[i]
        assert np.count_nonzero(row) == 5
        assert np.allclose(row[row > 0], 0.2, atol=0)
        assert abs(row.sum() - 1.0) < 1e-15


def test_torus45_lambda_max():
    # 2D circulant spectrum: 1 - (1 + 2cos(2 pi p / rows) + 2cos(2 pi q / cols)) / 5
    g = ds.build_torus(4, 5)
    spec = ds.spectral(g)
    expected = max(
        1 - (1 + 2 * np.cos(2 * np.pi * p / 4) + 2 * np.cos(2 * np.pi * q / 5)) / 5
        for p in range(4)
        for q in range(5)
    )
    assert abs(spec.lambda_max - expected) < 1e-10
    dense = np.sort(np.linalg.eigvalsh(np.eye(20) - g.W))
    assert np.allclose(spec.eigvals, dense, atol=1e-9)


@pytest.mark.parametrize("rows, cols", [(3, 3), (3, 5), (4, 6), (8, 8)])
def test_weights_equal_the_neighbour_loop(rows, cols):
    # the shifted identities give every entry exactly the weight that a
    # per-node loop over the neighbours writes
    m = rows * cols
    ring, torus = np.zeros((m, m)), np.zeros((m, m))
    for i in range(m):
        for j in (i - 1, i, i + 1):
            ring[i, j % m] += 1.0 / 3.0
        r, c = divmod(i, cols)
        for rr, cc in ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            torus[i, (rr % rows) * cols + cc % cols] += 1.0 / 5.0
    assert ds.build_ring(m).W.tobytes() == ring.tobytes()
    assert ds.build_torus(rows, cols).W.tobytes() == torus.tobytes()


def test_torus_rejects_small():
    with pytest.raises(ValueError):
        ds.build_torus(2, 5)


@pytest.mark.parametrize("dims", [(2,), (1,), (3, 2)])
def test_graph_refuses_an_axis_below_three(dims):
    with pytest.raises(ValueError, match="a torus axis needs >= 3 nodes"):
        ds.DecGraph(dims)


def test_single_node_graph():
    g = ds.DecGraph(())
    assert g.m == 1
    assert g.W.tobytes() == np.array([[1.0]]).tobytes()
    with pytest.raises(ValueError, match="single node"):
        ds.spectral(g)


@pytest.mark.parametrize("dims", [(4,), (8, 8), ()], ids=["ring4", "torus8x8", "single"])
@pytest.mark.parametrize("lead", [(2,), (2, 2)], ids=["pair", "pair-of-pairs"])
def test_bind_mix_is_the_dense_product(dims, lead):
    g = ds.DecGraph(dims)
    V = np.random.default_rng(5).standard_normal(lead + (g.m, 3))
    out = np.empty_like(V)
    assert ds.bind_mix(g, V.shape)(V, out) is out
    assert out.tobytes() == (g.W @ V).tobytes()
    assert ds.mix(g, V).tobytes() == out.tobytes()


def test_bind_mix_refuses_another_node_count():
    with pytest.raises(ValueError, match="expected 4 node blocks"):
        ds.bind_mix(ds.build_ring(4), (2, 5, 3))


def _circulant_spectrum(rows, cols):
    """Closed-form eigenvalues of I-W, ascending, for a ring of `rows`
    nodes (cols = 1, weights 1/3) or a rows x cols torus (weights 1/5)."""
    p = 2 * np.pi * np.arange(rows)[:, None] / rows
    q = 2 * np.pi * np.arange(cols)[None, :] / cols
    if cols == 1:
        lam = 1 - (1 + 2 * np.cos(p)) / 3
    else:
        lam = 1 - (1 + 2 * np.cos(p) + 2 * np.cos(q)) / 5
    return np.sort(lam.ravel())


@pytest.mark.parametrize(
    "rows, cols", [(m, 1) for m in range(3, 31)] + [(8, 8)],
    ids=[f"ring{m}" for m in range(3, 31)] + ["torus8x8"],
)
def test_spectral_matches_circulant_closed_form(rows, cols):
    g = ds.build_ring(rows) if cols == 1 else ds.build_torus(rows, cols)
    spec = ds.spectral(g)
    assert np.allclose(spec.eigvals, _circulant_spectrum(rows, cols), rtol=0, atol=1e-12)
    V = spec.eigvecs
    assert np.allclose(V.T @ V, np.eye(g.m), rtol=0, atol=1e-12)
    assert np.allclose(V @ np.diag(spec.eigvals) @ V.T, np.eye(g.m) - g.W, rtol=0, atol=1e-12)


def test_jacobi_matches_dense_eigh():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(2, 12))
        A = rng.standard_normal((m, m))
        A = A + A.T
        lam, V = jacobi_eigh(A)
        ref = np.sort(np.linalg.eigvalsh(A))
        assert np.allclose(lam, ref, atol=1e-9)
        assert np.allclose(V @ np.diag(lam) @ V.T, A, atol=1e-9)


@given(st.integers(min_value=3, max_value=30))
@settings(max_examples=20, deadline=None)
def test_ring_invariants(m):
    g = ds.build_ring(m)
    assert np.max(np.abs(g.W.sum(axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(g.W, g.W.T)
    spec = ds.spectral(g)
    assert spec.kappa_g >= 1.0
    assert abs(spec.eigvals[0]) <= 1e-10
    # orthonormal eigenvectors, reconstruction matches I-W
    assert np.allclose(spec.eigvecs.T @ spec.eigvecs, np.eye(m), atol=1e-10)
    recon = spec.eigvecs @ np.diag(spec.eigvals) @ spec.eigvecs.T
    assert np.allclose(recon, np.eye(m) - g.W, atol=1e-9)


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_mix_preserves_mean(m, d, seed):
    g = ds.build_ring(m)
    V = np.random.default_rng(seed).standard_normal((m, d))
    out = ds.mix(g, V)
    assert np.allclose(out.mean(axis=0), V.mean(axis=0), atol=1e-12)


def test_mix_constant_blocks():
    g = ds.build_ring(5)
    v = np.array([2.0, -1.0])
    V = np.tile(v, (5, 1))
    assert np.allclose(ds.mix(g, V), V, atol=1e-15)


def test_mix_ring3_basis():
    g = ds.build_ring(3)
    V = np.eye(3)
    out = ds.mix(g, V)
    assert np.allclose(out, np.full((3, 3), 1 / 3), atol=1e-15)


def test_mix_zero():
    g = ds.build_ring(3)
    assert np.allclose(ds.mix(g, np.zeros((3, 2))), 0.0, atol=0)


def test_mix_dim_mismatch():
    g = ds.build_ring(3)
    with pytest.raises(ValueError):
        ds.mix(g, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        ds.mix(g, np.zeros((2, 4, 2)))


def test_mix_stacked_blocks():
    # a (2, m, d) payload mixes block by block, bit for bit
    g = ds.build_torus(3, 4)
    V = np.random.default_rng(3).standard_normal((2, 12, 5))
    out = ds.mix(g, V)
    assert np.array_equal(out[0], ds.mix(g, V[0]))
    assert np.array_equal(out[1], ds.mix(g, V[1]))


def test_pinv_norm_kernel_and_zero():
    g = ds.build_ring(4)
    spec = ds.spectral(g)
    V = np.tile(np.array([1.0, 2.0]), (4, 1))
    assert ds.pinv_weighted_sqnorm(spec, V) < 1e-18
    assert ds.pinv_weighted_sqnorm(spec, np.zeros((4, 2))) == 0.0


def test_pinv_norm_rejects_another_node_count():
    spec = ds.spectral(ds.build_ring(4))
    with pytest.raises(ValueError, match="node-block count"):
        ds.pinv_weighted_sqnorm(spec, np.zeros((5, 2)))


def test_pinv_norm_range_identity():
    # V = (I-W) u  =>  pinv norm of V equals u^T (I-W) u
    g = ds.build_ring(5)
    spec = ds.spectral(g)
    rng = np.random.default_rng(1)
    L = np.eye(5) - g.W
    for _ in range(10):
        u = rng.standard_normal((5, 3))
        V = L @ u
        expected = float(np.sum(u * (L @ u)))
        assert abs(ds.pinv_weighted_sqnorm(spec, V) - expected) < 1e-9 * (1 + expected)


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_pinv_norm_kernel_invariance(m, seed):
    g = ds.build_ring(m)
    spec = ds.spectral(g)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((m, 3))
    c = rng.standard_normal(3)
    a = ds.pinv_weighted_sqnorm(spec, V)
    b = ds.pinv_weighted_sqnorm(spec, V + c)
    assert abs(a - b) <= 1e-9 * (1 + abs(a))
