import numpy as np
import pytest

from nhskin.errors import BuildError
from nhskin.model import builtin_2d, builtin_hatano_nelson, builtin_nh_ssh
from nhskin.realspace import (
    OBC,
    PBC,
    Coupled,
    add_onsite_disorder,
    build,
    export_matrix_csv,
    from_matrix,
)


def test_hn_obc_matrix_n4():
    op = build(builtin_hatano_nelson(0.5, 1.0), [4], OBC)
    ref = np.array(
        [
            [0, 0.5, 0, 0],
            [1.0, 0, 0.5, 0],
            [0, 1.0, 0, 0.5],
            [0, 0, 1.0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(op.matrix, ref, atol=0)


def test_pbc_corner_entries():
    op = build(builtin_hatano_nelson(0.5, 1.0), [6], PBC)
    assert op.matrix[5, 0] == 0.5  # row n, column n+1 wraps with the +1 hopping
    assert op.matrix[0, 5] == 1.0


def test_pbc_plane_wave_is_eigenvector():
    # the ring must reproduce the Bloch dispersion exactly, which pins the
    # orientation of the wrapped corner hoppings
    jl, jr, N = 0.5, 1.0, 8
    op = build(builtin_hatano_nelson(jl, jr), [N], PBC)
    for m in range(N):
        k = 2 * np.pi * m / N
        v = np.exp(1j * k * np.arange(N))
        ek = jl * np.exp(1j * k) + jr * np.exp(-1j * k)
        np.testing.assert_allclose(op.matrix @ v, ek * v, atol=1e-12)


def test_coupled_interpolates_obc_pbc():
    m = builtin_hatano_nelson(0.5, 1.0)
    h_obc = build(m, [10], OBC).matrix
    h_pbc = build(m, [10], PBC).matrix
    np.testing.assert_allclose(build(m, [10], Coupled(0.0)).matrix, h_obc, atol=0)
    np.testing.assert_allclose(build(m, [10], Coupled(1.0)).matrix, h_pbc, atol=0)
    h_eps = build(m, [10], Coupled(1e-3)).matrix
    np.testing.assert_allclose(h_eps, h_obc + 1e-3 * (h_pbc - h_obc), atol=1e-18)


def test_nh_ssh_obc_two_cells():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [2], OBC)
    ref = np.array(
        [
            [0, 0.9, 0, 0],
            [0.3, 0, 1.0, 0],
            [0, 1.0, 0, 0.9],
            [0, 0, 0.3, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(op.matrix, ref, atol=1e-15)


def test_2d_build_places_bonds():
    op = build(builtin_2d(0.5, 1.0, 0.2), [4, 3], OBC)
    assert op.n == 12
    im = op.index_map
    r = im.row((1, 1), 0)
    assert op.matrix[r, im.row((2, 1), 0)] == 0.5  # +x
    assert op.matrix[r, im.row((1, 0), 0)] == 0.5  # -y
    assert op.matrix[r, im.row((0, 1), 0)] == 1.0  # -x
    assert op.matrix[r, im.row((1, 2), 0)] == 1.0  # +y
    assert op.matrix[r, im.row((2, 2), 0)] == 0.2  # diagonal
    # open boundary: no wrap of the +x bond from the last column
    edge = im.row((3, 1), 0)
    assert op.matrix[edge, im.row((0, 1), 0)] == 0


def test_mixed_boundary_axes():
    op = build(builtin_2d(0.5, 1.0, 0.2), [3, 3], ("pbc", "obc"))
    im = op.index_map
    assert op.matrix[im.row((2, 1), 0), im.row((0, 1), 0)] == 0.5  # x wraps
    assert op.matrix[im.row((1, 2), 0), im.row((1, 0), 0)] == 0  # y does not


def test_build_rejects_tiny_or_overreaching_lattices():
    m = builtin_hatano_nelson(0.5, 1.0)
    with pytest.raises(BuildError):
        build(m, [1], OBC)
    with pytest.raises(BuildError):
        build(builtin_2d(0.5, 1.0, 0.2), [2, 1], OBC)


def test_disorder_is_seeded_and_diagonal():
    op = build(builtin_hatano_nelson(0.5, 1.0), [20], OBC)
    d1 = add_onsite_disorder(op, 0.1, seed=11)
    d2 = add_onsite_disorder(op, 0.1, seed=11)
    d3 = add_onsite_disorder(op, 0.1, seed=12)
    np.testing.assert_allclose(d1.matrix, d2.matrix, atol=0)
    assert not np.allclose(d1.matrix, d3.matrix)
    diff = d1.matrix - op.matrix
    assert np.all(diff == np.diag(np.diag(diff)))
    assert np.abs(np.diag(diff)).max() <= 0.1


def test_from_matrix_checks_shape():
    with pytest.raises(BuildError):
        from_matrix(np.zeros((3, 4)))
    op = from_matrix(np.eye(6), bands=2)
    assert op.index_map.sizes == (3,)


def test_matrix_csv_has_all_nonzeros(tmp_path):
    op = build(builtin_hatano_nelson(0.5, 1.0), [5], OBC)
    path = tmp_path / "h.csv"
    export_matrix_csv(op, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) - 1 == np.count_nonzero(op.matrix)
