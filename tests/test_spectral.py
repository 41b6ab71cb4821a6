import numpy as np
import pytest

import nhskin.spectral
from nhskin.model import builtin_2d, builtin_hatano_nelson, builtin_nh_ssh
from nhskin.realspace import OBC, PBC, Coupled, build, from_matrix
from nhskin.spectral import (
    dense_spectrum,
    eig_biorthogonal,
    ep_diagnostic,
    export_spectrum_csv,
    gauge_log_scales,
    hausdorff_distance,
    non_normality,
)


def hn_closed_form(jl, jr, n):
    m = np.arange(1, n + 1)
    return np.sort(2 * np.sqrt(jl * jr) * np.cos(m * np.pi / (n + 1)))


def test_hn_obc_closed_form_tight():
    # the rescaled eigensolve keeps the asymmetric chain accurate far beyond
    # what the raw dense solve manages at this size
    op = build(builtin_hatano_nelson(0.5, 1.0), [120], OBC)
    ev = dense_spectrum(op)
    assert np.abs(ev.imag).max() < 1e-10
    np.testing.assert_allclose(np.sort(ev.real), hn_closed_form(0.5, 1.0, 120), atol=1e-10)


def test_eigenvalue_ordering():
    ev = dense_spectrum(build(builtin_hatano_nelson(0.5, 1.0), [18], PBC))
    key = np.lexsort((ev.imag, ev.real))
    assert np.all(key == np.arange(len(ev)))


def test_hermitian_left_equals_right():
    sy = eig_biorthogonal(build(builtin_hatano_nelson(1.0, 1.0), [24], OBC))
    assert sy.biorth_residual < 1e-10
    assert not sy.ep_flag
    np.testing.assert_allclose(sy.left, sy.right, atol=1e-8)


def test_biorthogonality_and_completeness():
    op = build(builtin_hatano_nelson(0.5, 1.0), [40], OBC)
    sy = eig_biorthogonal(op)
    gram = sy.left.conj().T @ sy.right
    np.testing.assert_allclose(gram, np.eye(40), atol=1e-8)
    np.testing.assert_allclose(sy.right @ sy.left.conj().T, np.eye(40), atol=1e-7)


def test_eigenpair_residuals():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [15], OBC)
    sy = eig_biorthogonal(op)
    H = op.matrix
    for i in range(sy.n):
        e, R, L = sy.pair(i)
        assert np.linalg.norm(H @ R - e * R) < 1e-9
        # left vectors are only biorthonormalized, not unit-norm
        assert np.linalg.norm(L.conj() @ H - e * L.conj()) < 1e-9 * max(1.0, np.linalg.norm(L))


def test_right_vectors_pile_opposite_to_left():
    op = build(builtin_hatano_nelson(0.5, 1.0), [40], OBC)
    sy = eig_biorthogonal(op)
    x = np.arange(40)
    for i in (0, 13, 27, 39):
        r = np.abs(sy.right[:, i]) ** 2
        l = np.abs(sy.left[:, i]) ** 2
        assert (x * r).sum() / r.sum() > 30  # right vectors at the right end
        assert (x * l).sum() / l.sum() < 10  # left vectors mirror them


def test_phase_convention_largest_component_real():
    sy = eig_biorthogonal(build(builtin_hatano_nelson(0.5, 1.0), [17], OBC))
    for i in range(sy.n):
        v = sy.right[:, i]
        top = v[np.argmax(np.abs(v))]
        assert abs(top.imag) < 1e-12 * abs(top)
        assert top.real > 0


def test_gauge_symmetrizes_open_chain():
    H = build(builtin_hatano_nelson(0.5, 1.0), [30], OBC).matrix
    ell = gauge_log_scales(H)
    assert ell.any()
    d = np.exp(ell - ell.max())
    Hb = H * (d[None, :] / d[:, None])
    np.testing.assert_allclose(np.abs(Hb), np.abs(Hb.T), atol=1e-12)


def test_gauge_refuses_flux_ring():
    H = build(builtin_hatano_nelson(0.5, 1.0), [12], PBC).matrix
    assert not gauge_log_scales(H).any()  # wrapped chain carries net flux


def test_non_normality_values():
    herm = build(builtin_hatano_nelson(1.0, 1.0), [10], OBC)
    assert non_normality(herm) < 1e-12
    two = build(builtin_hatano_nelson(0.5, 1.0), [2], OBC)
    assert non_normality(two) == pytest.approx(np.sqrt(2) * 0.75, abs=1e-12)


def test_ep_diagnostic_on_jordan_block():
    op = build(builtin_hatano_nelson(0.0, 1.0), [10], OBC)
    diag = ep_diagnostic(op)
    assert diag["defect_estimate"] == 9
    sy = eig_biorthogonal(op)
    assert sy.ep_flag
    np.testing.assert_allclose(sy.eigenvalues, 0, atol=1e-8)


def test_healthy_system_not_flagged():
    sy = eig_biorthogonal(build(builtin_nh_ssh(0.6, 1.0, 0.3), [12], OBC))
    assert not sy.ep_flag
    assert ep_diagnostic(build(builtin_nh_ssh(0.6, 1.0, 0.3), [12], OBC))["defect_estimate"] == 0


def test_hausdorff_distance_known_sets():
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 1.0, 1.0 + 2.0j])
    assert hausdorff_distance(a, a) == 0
    assert hausdorff_distance(a, b) == pytest.approx(2.0)


def test_min_pair_gap_matches_spectrum():
    sy = eig_biorthogonal(build(builtin_hatano_nelson(0.5, 1.0), [12], OBC))
    ev = sy.eigenvalues
    gaps = [abs(ev[i] - ev[j]) for i in range(12) for j in range(12) if i != j]
    assert sy.min_pair_gap == pytest.approx(min(gaps), rel=1e-12)


def test_spectrum_csv(tmp_path):
    op = build(builtin_hatano_nelson(0.5, 1.0), [8], OBC)
    sy = eig_biorthogonal(op)
    path = tmp_path / "spec.csv"
    export_spectrum_csv(path, sy)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("index,re_e,im_e,kappa")
    assert len(lines) == 9
    with_profiles = tmp_path / "spec_profiles.csv"
    export_spectrum_csv(with_profiles, sy, profiles=True)
    assert len(with_profiles.read_text().strip().splitlines()[0].split(",")) == 4 + 8


def test_dense_spectrum_accepts_plain_arrays():
    ev = dense_spectrum(from_matrix(np.diag([3.0, 1.0, 2.0])))
    np.testing.assert_allclose(ev, [1.0, 2.0, 3.0], atol=0)


@pytest.mark.parametrize("jl, n", [(0.3, 460), (0.5, 1000)])
def test_gauged_open_chain_takes_eigh(jl, n):
    # max|l| reaches 138 and 173 here: the Hermiticity tolerance must grow
    # with the gauge range or these fall back to the general solver
    sy = eig_biorthogonal(build(builtin_hatano_nelson(jl, 1.0), [n], OBC))
    assert sy.solver == "eigh"
    assert np.all(sy.eigenvalues.imag == 0)
    np.testing.assert_allclose(sy.eigenvalues.real, hn_closed_form(jl, 1.0, n), atol=1e-10)


def test_nh_ssh_takes_eigh_and_keeps_its_zero_pair():
    sy = eig_biorthogonal(build(builtin_nh_ssh(0.5, 1.0, 0.3), [225], OBC))
    assert sy.solver == "eigh"
    assert np.sort(np.abs(sy.eigenvalues))[1] < 1e-8


def test_complex_hermitian_matrix_takes_eigh():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    H = A + A.conj().T
    op = from_matrix(H)
    sy = eig_biorthogonal(op)
    assert sy.solver == "eigh"
    want = np.linalg.eigvalsh(H)
    np.testing.assert_allclose(sy.eigenvalues.real, want, atol=1e-12)
    np.testing.assert_allclose(dense_spectrum(op).real, want, atol=1e-12)
    np.testing.assert_allclose(sy.left, sy.right, atol=1e-12)


@pytest.mark.parametrize(
    "op, solver",
    [
        (build(builtin_hatano_nelson(0.0, 1.0), [10], OBC), "eig+adjoint"),  # criterion 13
        (build(builtin_hatano_nelson(0.5, 1.0), [40], PBC), "eig"),
        (build(builtin_hatano_nelson(0.5, 1.0), [40], Coupled(1e-3)), "eig"),
        (build(builtin_2d(0.5, 1.0, 0.2), [10, 10], OBC), "eig"),
    ],
    ids=["jordan-block", "hn-ring", "coupled-ring", "asym2d"],
)
def test_non_hermitian_after_gauge_takes_eig(op, solver):
    assert eig_biorthogonal(op).solver == solver


@pytest.mark.parametrize(
    "op",
    [
        build(builtin_hatano_nelson(0.5, 1.0), [30], OBC),
        build(builtin_hatano_nelson(0.5, 1.0), [30], PBC),
        # real H_b with an all-real spectrum: the real eig returns real
        # vectors, and the adjoint path must still fill complex left vectors
        build(builtin_hatano_nelson(0.0, 1.0), [10], OBC),
    ],
    ids=["eigh", "eig", "jordan-block"],
)
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_results_stay_complex_on_both_paths(op):
    assert dense_spectrum(op).dtype == complex
    sy = eig_biorthogonal(op)
    assert {sy.eigenvalues.dtype, sy.right.dtype, sy.left.dtype} == {np.dtype(complex)}


@pytest.mark.parametrize("jl, n", [(0.5, 40), (0.3, 90)])
def test_hn_ring_matches_closed_form_in_conjugate_pairs(jl, n):
    # the ring keeps flux, so it takes the general eig; H is real, so the
    # solve runs in real arithmetic and complex eigenvalues come in exact
    # conjugate pairs
    ev = dense_spectrum(build(builtin_hatano_nelson(jl, 1.0), [n], PBC))
    k = 2 * np.pi * np.arange(n) / n
    assert hausdorff_distance(ev, jl * np.exp(1j * k) + np.exp(-1j * k)) < 1e-12
    np.testing.assert_array_equal(np.sort_complex(ev), np.sort_complex(ev.conj()))


@pytest.mark.parametrize(
    "model, cells",
    [(builtin_hatano_nelson(0.3, 1.0), 450), (builtin_nh_ssh(0.6, 1.0, 0.2), 195)],
    ids=["hn450", "nh-ssh195"],
)
def test_biorth_residual_is_small_on_both_paths(monkeypatch, model, cells):
    # sizes of the benchmark's open-chain spectra; in the physical basis the
    # residual of the nh-ssh chain reads about 0.1 on eig and 1e12 on eigh
    op = build(model, [cells], OBC)
    fast = eig_biorthogonal(op)
    # the same solve with no matrix taken as Hermitian
    gauged = nhskin.spectral._gauged
    monkeypatch.setattr(nhskin.spectral, "_gauged", lambda H: gauged(H)[:2] + (None,))
    general = eig_biorthogonal(op)
    assert (fast.solver, general.solver) == ("eigh", "eig")
    assert fast.biorth_residual < 1e-10
    assert general.biorth_residual < 1e-10
    assert fast.ep_flag == general.ep_flag
