import numpy as np
import pytest

from nhskin.errors import BuildError
from nhskin.model import (
    HoppingTerm,
    LatticeModel,
    builtin_2d,
    builtin_hatano_nelson,
    builtin_nh_ssh,
)
from nhskin.realspace import (
    OBC,
    PBC,
    Coupled,
    build,
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

    def row(*cell):  # one band: the row is the C-order cell index
        return np.ravel_multi_index(cell, (4, 3))

    r = row(1, 1)
    assert op.matrix[r, row(2, 1)] == 0.5  # +x
    assert op.matrix[r, row(1, 0)] == 0.5  # -y
    assert op.matrix[r, row(0, 1)] == 1.0  # -x
    assert op.matrix[r, row(1, 2)] == 1.0  # +y
    assert op.matrix[r, row(2, 2)] == 0.2  # diagonal
    # open boundary: no wrap of the +x bond from the last column
    assert op.matrix[row(3, 1), row(0, 1)] == 0


def test_mixed_boundary_axes():
    op = build(builtin_2d(0.5, 1.0, 0.2), [3, 3], ("pbc", "obc"))

    def row(*cell):
        return np.ravel_multi_index(cell, (3, 3))

    assert op.matrix[row(2, 1), row(0, 1)] == 0.5  # x wraps
    assert op.matrix[row(1, 2), row(1, 0)] == 0  # y does not


def test_build_rejects_tiny_or_overreaching_lattices():
    m = builtin_hatano_nelson(0.5, 1.0)
    with pytest.raises(BuildError):
        build(m, [1], OBC)
    with pytest.raises(BuildError):
        build(builtin_2d(0.5, 1.0, 0.2), [2, 1], OBC)


def test_from_matrix_checks_shape():
    with pytest.raises(BuildError):
        from_matrix(np.zeros((3, 4)))


# hoppings 1.0, 0.8, 0.3 and 0.192 e^{0.7i} at offsets +1, -1, +2 and -2
COMPLEX_CHAIN = LatticeModel(
    1,
    1,
    tuple(
        HoppingTerm((o,), [[a]])
        for o, a in zip((1, -1, 2, -2), (1.0, 0.8, 0.3, 0.192 * np.exp(0.7j)))
    ),
)


@pytest.mark.parametrize("boundary", [OBC, PBC, Coupled(1e-3)], ids=["obc", "pbc", "coupled"])
@pytest.mark.parametrize(
    "model",
    [builtin_hatano_nelson(0.5, 1.0), builtin_nh_ssh(0.6, 1.0, 0.2), builtin_2d(0.5, 1.0, 0.2)],
    ids=["hatano-nelson", "nh-ssh", "asym2d"],
)
def test_real_models_assemble_real_matrices(model, boundary):
    sizes = [5] * model.dimension
    H = build(model, sizes, boundary).matrix
    assert H.dtype == np.float64
    # an imaginary on-site term forces the complex assembly; the built-ins
    # have no diagonal, so its real part must be H to the bit
    onsite = HoppingTerm((0,) * model.dimension, 1j * np.eye(model.bands))
    ref = build(LatticeModel(model.dimension, model.bands, model.terms + (onsite,)), sizes, boundary)
    assert ref.matrix.dtype == np.complex128
    np.testing.assert_array_equal(H, ref.matrix.real)
    np.testing.assert_array_equal(ref.matrix.imag, np.eye(len(H)))


@pytest.mark.parametrize(
    "model, boundary",
    [
        (builtin_hatano_nelson(0.5, 1.0), Coupled(1e-3j)),
        (builtin_2d(0.5, 1.0, 0.2), (OBC, Coupled(0.1 + 0.1j))),
        (COMPLEX_CHAIN, OBC),
        (COMPLEX_CHAIN, PBC),
    ],
    ids=["complex-epsilon", "complex-epsilon-one-axis", "complex-chain-obc", "complex-chain-pbc"],
)
def test_complex_amplitudes_or_wraps_assemble_complex_matrices(model, boundary):
    assert build(model, [5] * model.dimension, boundary).matrix.dtype == np.complex128


def test_from_matrix_stays_complex():
    assert from_matrix(np.eye(3)).matrix.dtype == np.complex128
