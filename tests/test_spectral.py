from collections import deque

import numpy as np
import pytest

import nhskin.spectral
from nhskin.errors import EigensolverError
from nhskin.model import (
    HoppingTerm,
    LatticeModel,
    builtin_2d,
    builtin_hatano_nelson,
    builtin_nh_ssh,
)
from nhskin.realspace import OBC, PBC, Coupled, build, from_matrix
from nhskin.spectral import (
    dense_spectrum,
    eig_biorthogonal,
    ep_diagnostic,
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


def _gauged_residual(H):
    """max |L_b^H V_b - I| over a solve's gauged vectors, where the physical
    column-norm ratios cannot amplify rounding."""
    _, Vb, Lb, _, _ = nhskin.spectral._gauged_eig(nhskin.spectral._as_matrix(H))
    return float(np.max(np.abs(Lb.conj().T @ Vb - np.eye(len(Vb)))))


def test_hermitian_left_equals_right():
    op = build(builtin_hatano_nelson(1.0, 1.0), [24], OBC)
    sy = eig_biorthogonal(op)
    assert _gauged_residual(op) < 1e-10
    assert not sy.ep_flag
    np.testing.assert_allclose(sy.left, sy.right, atol=1e-8)


def test_biorthogonality_and_completeness():
    op = build(builtin_hatano_nelson(0.5, 1.0), [40], OBC)
    sy = eig_biorthogonal(op)
    gram = sy.left.conj().T @ sy.right
    np.testing.assert_allclose(gram, np.eye(40), atol=1e-8)
    np.testing.assert_allclose(sy.right @ sy.left.conj().T, np.eye(40), atol=1e-7)


@pytest.mark.parametrize(
    "op",
    [
        build(builtin_nh_ssh(0.6, 1.0, 0.3), [15], OBC),
        build(builtin_2d(0.5, 1.0, 0.2), [10, 10], OBC),
        build(builtin_hatano_nelson(0.5, 1.0), [40], PBC),
        build(builtin_hatano_nelson(0.5, 1.0), [40], Coupled(1e-3)),
    ],
    ids=["nh-ssh", "asym2d", "hn-ring", "coupled-ring"],
)
def test_eigenpair_residuals(op):
    sy = eig_biorthogonal(op)
    H = op.matrix
    for i in range(sy.n):
        e, R, L = sy.eigenvalues[i], sy.right[:, i], sy.left[:, i]
        assert np.linalg.norm(H @ R - e * R) < 1e-9
        # left vectors are only biorthonormalized, not unit-norm
        assert np.linalg.norm(L.conj() @ H - e * L.conj()) < 1e-9 * max(1.0, np.linalg.norm(L))
        assert abs(np.vdot(L, R) - 1) < 1e-9


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


def _gauge(H):
    """gauge_log_scales of a dense matrix, on the pattern part a solve derives."""
    pattern = nhskin.spectral._pattern(H)
    return gauge_log_scales(len(H), pattern, H[pattern[0], pattern[1]])


def test_gauge_symmetrizes_open_chain():
    H = build(builtin_hatano_nelson(0.5, 1.0), [30], OBC).matrix
    ell = _gauge(H)
    assert ell.any()
    d = np.exp(ell - ell.max())
    Hb = H * (d[None, :] / d[:, None])
    np.testing.assert_allclose(np.abs(Hb), np.abs(Hb.T), atol=1e-12)


def test_gauge_refuses_flux_ring():
    H = build(builtin_hatano_nelson(0.5, 1.0), [12], PBC).matrix
    assert not _gauge(H).any()  # wrapped chain carries net flux


@pytest.mark.parametrize("solve", [dense_spectrum, eig_biorthogonal, ep_diagnostic])
def test_one_bond_list_per_solve(monkeypatch, solve):
    # the gauge reads the solve's bond list instead of building its own
    calls = []
    entries = nhskin.spectral._entries
    monkeypatch.setattr(nhskin.spectral, "_entries", lambda H: calls.append(1) or entries(H))
    solve(build(builtin_hatano_nelson(0.5, 1.0), [30], OBC))
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "model, cells",
    [
        (builtin_nh_ssh(0.6, 1.0, 0.3), 12),
        (builtin_hatano_nelson(0.5, 1.0), 100),
        (builtin_hatano_nelson(0.3, 1.0), 450),
        (builtin_nh_ssh(0.6, 1.0, 0.2), 195),
    ],
    ids=["nh-ssh12", "hn100", "hn450", "nh-ssh195"],
)
def test_healthy_system_not_flagged(model, cells):
    # distinct eigenvalues and a residual of 1e-15: the exponential
    # non-normality of the physical basis is the skin effect, not an EP
    op = build(model, [cells], OBC)
    sy = eig_biorthogonal(op)
    assert not sy.ep_flag
    assert ep_diagnostic(op) == {"kappa_V": 1.0, "defect_estimate": 0}


def test_hausdorff_distance_known_sets():
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 1.0, 1.0 + 2.0j])
    assert hausdorff_distance(a, a) == 0
    assert hausdorff_distance(a, b) == pytest.approx(2.0)


def test_spectrum_csv(tmp_path):
    # obc_spectrum.csv holds the system's eigenvalues and conditions under the CLI's header,
    # each float written so that it reads back to the same bits
    from nhskin.cli import main

    HN = ["--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0"]
    assert main(["spectrum", *HN, "-N", "8", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "obc_spectrum.csv").read_text().splitlines()
    header, *rows = (line.split(",") for line in lines)
    assert header == ["index", "re_e", "im_e", "kappa_i"]
    sy = eig_biorthogonal(build(builtin_hatano_nelson(0.5, 1.0), [8], OBC))
    w, kappa = sy.eigenvalues, sy.conditions
    assert [[int(r[0]), complex(float(r[1]), float(r[2])), float(r[3])] for r in rows] == [
        [i, e, k] for i, (e, k) in enumerate(zip(w.tolist(), kappa.tolist()))
    ]


def test_dense_spectrum_accepts_plain_arrays():
    ev = dense_spectrum(from_matrix(np.diag([3.0, 1.0, 2.0])))
    np.testing.assert_allclose(ev, [1.0, 2.0, 3.0], atol=0)


ONSITE = 0.25  # a uniform on-site energy: a diagonal keeps a chain off the chiral path


@pytest.mark.parametrize("jl, n", [(0.3, 460), (0.5, 1000)])
def test_gauged_open_chain_takes_eigh(jl, n):
    # max|l| reaches 138 and 173 here: the Hermiticity tolerance must grow
    # with the gauge range or these fall back to the general solver
    H = build(builtin_hatano_nelson(jl, 1.0), [n], OBC).matrix + ONSITE * np.eye(n)
    sy = eig_biorthogonal(H)
    assert sy.solver == "eigh"
    assert np.all(sy.eigenvalues.imag == 0)
    np.testing.assert_allclose(sy.eigenvalues.real, hn_closed_form(jl, 1.0, n) + ONSITE, atol=1e-10)


@pytest.mark.parametrize("jl, n", [(0.3, 460), (0.5, 1000)])
def test_gauged_open_chain_takes_chiral(jl, n):
    sy = eig_biorthogonal(build(builtin_hatano_nelson(jl, 1.0), [n], OBC))
    assert sy.solver == "chiral"
    assert np.all(sy.eigenvalues.imag == 0)
    np.testing.assert_allclose(sy.eigenvalues.real, hn_closed_form(jl, 1.0, n), atol=1e-10)


def test_nh_ssh_takes_eigh_and_keeps_its_zero_pair():
    H = build(builtin_nh_ssh(0.5, 1.0, 0.3), [225], OBC).matrix + ONSITE * np.eye(450)
    sy = eig_biorthogonal(H)
    assert sy.solver == "eigh"
    assert np.sort(np.abs(sy.eigenvalues - ONSITE))[1] < 1e-8


def test_nh_ssh_takes_chiral_and_keeps_its_zero_pair():
    sy = eig_biorthogonal(build(builtin_nh_ssh(0.5, 1.0, 0.3), [225], OBC))
    assert sy.solver == "chiral"
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
    "op",
    [
        build(builtin_hatano_nelson(0.0, 1.0), [10], OBC),  # criterion 13
        build(builtin_hatano_nelson(0.5, 1.0), [40], PBC),
        build(builtin_hatano_nelson(0.5, 1.0), [40], Coupled(1e-3)),
        build(builtin_2d(0.5, 1.0, 0.2), [10, 10], OBC),
    ],
    ids=["jordan-block", "hn-ring", "coupled-ring", "asym2d"],
)
def test_non_hermitian_after_gauge_takes_eig(op):
    assert eig_biorthogonal(op).solver == "eig"


# hoppings 1.0, 0.8, 0.3 and 0.192 e^{0.7i} at offsets +1, -1, +2 and -2: its
# magnitude gauge exists, but H_b stays complex and non-Hermitian
COMPLEX_CHAIN = LatticeModel(
    1,
    1,
    tuple(
        HoppingTerm((o,), [[a]])
        for o, a in zip((1, -1, 2, -2), (1.0, 0.8, 0.3, 0.192 * np.exp(0.7j)))
    ),
)


@pytest.mark.parametrize(
    "op, vectors",
    [
        (build(builtin_hatano_nelson(0.5, 1.0), [30], OBC).matrix + ONSITE * np.eye(30), float),
        (build(builtin_hatano_nelson(0.5, 1.0), [30], PBC), complex),
        # real H_b with an all-real spectrum: the real eig returns real vectors
        (build(builtin_hatano_nelson(0.0, 1.0), [10], OBC), float),
        (build(builtin_hatano_nelson(0.5, 1.0), [30], OBC), float),
        (build(builtin_nh_ssh(0.6, 1.0, 0.2), [15], OBC), float),
        (build(COMPLEX_CHAIN, [30], OBC), complex),
    ],
    ids=["eigh", "eig", "jordan-block", "chiral", "chiral-nh-ssh", "complex-chain"],
)
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_results_stay_complex_on_both_paths(op, vectors):
    # eigenvalues are always complex; the vectors keep the solver's dtype
    assert dense_spectrum(op).dtype == complex
    sy = eig_biorthogonal(op)
    assert sy.eigenvalues.dtype == complex
    assert sy.right.dtype == sy.left.dtype == np.dtype(vectors)
    # columns are contiguous, so each state is one contiguous row of .T
    assert sy.right.flags.f_contiguous and sy.left.flags.f_contiguous


HN_ONSITE = LatticeModel(
    1, 1, (HoppingTerm((1,), [[0.5]]), HoppingTerm((-1,), [[1.0]]), HoppingTerm((0,), [[ONSITE]]))
)


@pytest.mark.parametrize(
    "op, solver",
    [
        (build(builtin_nh_ssh(0.6, 1.0, 0.2), [15], OBC), "chiral"),
        (build(HN_ONSITE, [30], OBC), "eigh"),
        (build(builtin_hatano_nelson(0.5, 1.0), [30], PBC), "eig"),
    ],
    ids=["chiral", "eigh", "eig"],
)
def test_bare_real_matrix_is_solved_as_its_operator(op, solver):
    M = op.matrix
    assert M.dtype == float and nhskin.spectral._as_matrix(M) is M  # no copy
    bare, wrapped = eig_biorthogonal(M), eig_biorthogonal(op)
    assert bare.solver == wrapped.solver == solver
    for field in ("eigenvalues", "right", "left"):
        a, b = getattr(bare, field), getattr(wrapped, field)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    # any other dtype is promoted to the float64 or complex128 it holds
    for dtype, promoted in ((np.float32, float), (int, float), (bool, float), (np.complex64, complex)):
        assert nhskin.spectral._as_matrix(M.astype(dtype)).dtype == promoted


def _raise(*args):
    raise AssertionError("an exceptional-point measure on a Hermitian path")


@pytest.mark.parametrize(
    "op, solver",
    [
        (build(builtin_hatano_nelson(0.3, 1.0), [423], OBC), "chiral"),
        (build(HN_ONSITE, [30], OBC), "eigh"),
    ],
    ids=["chiral", "eigh"],
)
def test_hermitian_paths_compute_no_ep_measure(monkeypatch, op, solver):
    # a Hermitian H_b is diagonalizable, so it has no exceptional point, and
    # its left vectors are its right ones
    for name in ("_left_vectors", "_conditioning"):
        monkeypatch.setattr(nhskin.spectral, name, _raise)
    sy = eig_biorthogonal(op)
    assert sy.solver == solver and sy.ep_flag is False


def test_eig_path_takes_each_ep_measure_once(monkeypatch):
    calls = []
    for name in ("_left_vectors", "_conditioning"):
        f = getattr(nhskin.spectral, name)
        monkeypatch.setattr(nhskin.spectral, name, lambda *a, f=f, n=name: calls.append(n) or f(*a))
    sy = eig_biorthogonal(build(builtin_hatano_nelson(0.0, 1.0), [10], OBC))  # a Jordan block
    assert sy.solver == "eig" and sy.ep_flag is True
    assert sy.ep_flag is True  # a second read takes no second measure
    assert sorted(calls) == ["_conditioning", "_left_vectors"]


@pytest.mark.parametrize(
    "op, solver, defect",
    [
        (build(builtin_hatano_nelson(0.3, 1.0), [423], OBC), "chiral", 0),
        (build(HN_ONSITE, [30], OBC), "eigh", 0),
        (build(builtin_hatano_nelson(0.0, 1.0), [10], OBC), "eig", 9),  # a Jordan block
    ],
    ids=["chiral", "eigh", "eig"],
)
def test_ep_diagnostic_reads_the_gauged_vectors_of_one_system(monkeypatch, op, solver, defect):
    # Vb is unitary off the eig path, so only eig takes its singular values
    seen = []
    f = nhskin.spectral._conditioning
    monkeypatch.setattr(nhskin.spectral, "_conditioning", lambda Vb: seen.append(Vb) or f(Vb))
    assert ep_diagnostic(op)["defect_estimate"] == defect
    assert len(seen) == (solver == "eig")
    for Vb in seen:
        _assert_same(Vb, eig_biorthogonal(op).Vb)


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
    # residual of the nh-ssh chain reads about 0.1 on eig and 1e12 on the
    # Hermitian paths
    op = build(model, [cells], OBC)
    fast, fast_residual = eig_biorthogonal(op), _gauged_residual(op)
    # the same solve with no matrix taken as Hermitian
    monkeypatch.setattr(nhskin.spectral, "_hermitian_part", lambda *args: None)
    general = eig_biorthogonal(op)
    assert (fast.solver, general.solver) == ("chiral", "eig")
    assert fast_residual < 1e-10
    assert _gauged_residual(op) < 1e-10
    assert fast.ep_flag == general.ep_flag


# The dense n x n gauge and Hermitian test that the bond-list code replaced,
# kept as oracles: the bond-list code must reproduce them bit for bit.


def _dense_gauge(H):
    A = np.abs(H).astype(float)
    np.fill_diagonal(A, 0.0)
    n = len(A)
    if not A.any():
        return np.zeros(n)
    l = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    sym = A + A.T
    adj = [np.nonzero(sym[i])[0] for i in range(n)]
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if seen[j]:
                    continue
                if A[i, j] > 0 and A[j, i] > 0:
                    l[j] = l[i] + 0.5 * (np.log(A[j, i]) - np.log(A[i, j]))
                else:
                    l[j] = l[i]
                seen[j] = True
                queue.append(j)
    ii, jj = np.nonzero(A)
    two_sided = A[jj, ii] > 0
    dl = l[jj] - l[ii]
    want = np.where(
        two_sided,
        0.5 * (np.log(np.where(two_sided, A[jj, ii], 1.0)) - np.log(A[ii, jj])),
        dl,
    )
    if np.any(np.abs(dl - want) > nhskin.spectral.FLUX_TOL):
        return np.zeros(n)
    scaled_log_max = float(np.max(np.log(A[ii, jj]) + dl))
    blowup = np.log(A.max()) + np.log(nhskin.spectral.BLOWUP)
    if not np.isfinite(scaled_log_max) or scaled_log_max > blowup:
        return np.zeros(n)
    return l - l.mean()


def _dense_gauged(H, pattern=None):
    """(M, scales, hermitian, odd) as `spectral._gauged` returns it, from dense
    passes (pattern is not read)."""
    if not np.all(np.isfinite(H)):
        raise EigensolverError("matrix has non-finite entries")
    l = _dense_gauge(H)
    if l.any():
        d = np.exp(l)
        Hb = H * (d[None, :] / d[:, None])
    else:
        Hb, d = H, None
    tol = 4 * np.finfo(float).eps * (1 + np.abs(l).max(initial=0.0)) * np.abs(Hb).max(initial=0.0)
    Hh = Hb.conj().T
    if np.abs(Hb - Hh).max(initial=0.0) > tol:
        return (Hb if Hb.imag.any() else Hb.real), _frexp(d), False, None
    Hh = 0.5 * (Hb + Hh)
    return (Hh if Hh.imag.any() else Hh.real), _frexp(d), True, _dense_sublattice(H)


def _frexp(d):
    return None if d is None else np.frexp(d)


def _dense_sublattice(H):
    """The odd sublattice of a two-colouring of H's bond graph, each
    component's first site even, or None for a diagonal entry or an odd
    cycle: breadth-first over dense rows."""
    A = (H != 0) | (H.T != 0)
    if A.diagonal().any():
        return None
    colour = np.full(len(A), -1)
    for root in range(len(A)):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(A[u]):
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
    return colour == 1


def _random_sparse(seed):
    """A small matrix of one of seven kinds, chosen by the seed."""
    rng = np.random.default_rng(seed)
    kind, n = seed % 7, int(rng.integers(1, 14))
    H = np.zeros((n, n), dtype=complex)
    if kind == 0:  # random directed bonds, many one-sided, with flux
        m = rng.random((n, n)) < 0.3
        H[m] = rng.normal(size=m.sum()) * np.exp(rng.uniform(-3, 3, size=m.sum()))
    elif kind == 1:  # a random tree of real two-sided bonds: gaugeable
        for v in range(1, n):
            u, t = int(rng.integers(0, v)), rng.uniform(0.2, 2) * rng.choice([-1, 1])
            H[u, v], H[v, u] = t * rng.uniform(0.1, 3), t / rng.uniform(0.1, 3)
        H[np.diag_indices(n)] = rng.normal(size=n)
    elif kind == 2:  # a tree of complex hoppings, conjugate up to the gauge
        for v in range(1, n):
            u, z = int(rng.integers(0, v)), rng.normal() + 1j * rng.normal()
            r = np.exp(rng.uniform(-2, 2))
            H[u, v], H[v, u] = z * r, np.conj(z) / r
        H[np.diag_indices(n)] = rng.normal(size=n)
    elif kind == 3:  # an asymmetric ring: net flux unless it is a single bond
        for v in range(n):
            w = (v + 1) % n
            if w != v:
                H[v, w] += rng.uniform(0.2, 2)
                H[w, v] += rng.uniform(0.2, 2)
    elif kind == 4:  # two disconnected chains with some one-sided bonds
        for v in range(1, n):
            if v != n // 2:
                H[v - 1, v] = rng.uniform(0.5, 2)
                if rng.random() < 0.7:
                    H[v, v - 1] = rng.uniform(0.5, 2)
    elif kind == 5:  # diagonal only, real or complex
        H[np.diag_indices(n)] = rng.normal(size=n) + (1j * rng.normal(size=n) if seed % 2 else 0)
    else:  # a gaugeable chain plus a one-sided corner entry below the tolerance
        for v in range(1, n):
            H[v - 1, v] = rng.uniform(0.5, 2)
            H[v, v - 1] = 0.25 * H[v - 1, v]
        if n > 2:
            H[0, n - 1] = 1e-18
    return H


def _assert_same(a, b):
    np.testing.assert_array_equal(a, b, strict=True)  # strict: dtypes too


def _assert_matches_dense_oracles(monkeypatch, H):
    """Bond-list and dense paths give bit-identical results; returns the
    solver taken and whether a gauge was found."""
    ours = (_gauge(H), dense_spectrum(H), eig_biorthogonal(H))
    with monkeypatch.context() as m:
        m.setattr(nhskin.spectral, "_gauged", _dense_gauged)
        oracle = (_dense_gauge(H), dense_spectrum(H), eig_biorthogonal(H))
        w, Vb, Lb, _, solver = nhskin.spectral._gauged_eig(H)
    if solver == "eig":  # Lb^H = Vb^-1 wherever ep_flag is clear, and never nan
        residual = float(np.max(np.abs(Lb.conj().T @ Vb - np.eye(len(w)))))
        assert np.isfinite(Lb).all() and (ours[2].ep_flag or residual <= 1e-8)
    _assert_same(ours[0], oracle[0])
    _assert_same(ours[1], oracle[1])
    odd, want = nhskin.spectral._gauged(H)[3], _dense_gauged(H)[3]
    assert (odd is None) == (want is None)
    if odd is not None:
        _assert_same(odd, want)
    sy, ref = ours[2], oracle[2]
    for field in ("eigenvalues", "right", "left"):
        _assert_same(getattr(sy, field), getattr(ref, field))
    for field in ("solver", "ep_flag"):
        assert getattr(sy, field) == getattr(ref, field), field
    return sy.solver, ours[0].any()


def test_bond_list_matches_dense_oracles_on_random_sparse_matrices(monkeypatch):
    seen = []
    for seed in range(420):
        seen.append(_assert_matches_dense_oracles(monkeypatch, _random_sparse(seed)))
    solvers = [solver for solver, _ in seen]
    # all three solver paths, and gauged and ungauged matrices, are well covered
    assert min(solvers.count("eigh"), solvers.count("eig")) > 100
    assert solvers.count("chiral") > 40
    assert 100 < sum(gauged for _, gauged in seen) < 320


@pytest.mark.parametrize(
    "op",
    [
        build(builtin_hatano_nelson(0.3, 1.0), [423], OBC),
        build(builtin_hatano_nelson(0.0, 1.0), [10], OBC),
        build(builtin_nh_ssh(0.6, 1.0, 0.2), [195], OBC),
        build(builtin_nh_ssh(0.3, 1.0, 0.1), [100], OBC),
        build(builtin_2d(0.5, 1.0, 0.2), [12, 12], OBC),
        build(builtin_hatano_nelson(0.5, 1.0), [40], PBC),
        build(builtin_hatano_nelson(0.5, 1.0), [40], Coupled(1e-3)),
    ],
    ids=["hn423", "jordan-block", "nh-ssh195", "nh-ssh-zero-pair", "asym2d-12x12", "hn-ring",
         "coupled-ring"],
)
def test_bond_list_matches_dense_oracles_on_models(monkeypatch, op):
    _assert_matches_dense_oracles(monkeypatch, op.matrix)


def test_one_sided_entry_below_tolerance_is_mirrored_exactly():
    # a Hermitian chain with complex hoppings and one corner entry without a
    # partner, far below 4 eps max|H|: it is taken as Hermitian, and the
    # matrix solved is (H + H^H)/2 to the bit (an even ring: two sublattices)
    H = np.zeros((6, 6), dtype=complex)
    for v in range(1, 6):
        H[v - 1, v], H[v, v - 1] = 1j, -1j
    H[0, 5] = 1e-18 + 2e-18j
    M, d, hermitian, odd = nhskin.spectral._gauged(H)
    assert hermitian and d is None
    _assert_same(M, 0.5 * (H + H.conj().T))
    assert M[0, 5] == np.conj(M[5, 0]) == 0.5 * H[0, 5]
    _assert_same(odd, np.arange(6) % 2 == 1)
    assert eig_biorthogonal(from_matrix(H)).solver == "chiral"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("where", [(2, 2), (1, 3)], ids=["diagonal", "one-sided"])
def test_non_finite_entries_raise(value, where):
    H = build(builtin_hatano_nelson(0.5, 1.0), [6], OBC).matrix
    H = H.astype(np.result_type(H, value))  # complex for an inf j entry
    H[where] = value
    for solve in (dense_spectrum, eig_biorthogonal, ep_diagnostic):
        with pytest.raises(EigensolverError, match="non-finite"):
            solve(H)


def test_chiral_path_keeps_an_exactly_repeated_zero_pair():
    # a gauged Y of three asymmetric bonds: sites 0, 2, 3 couple only to
    # site 1, so two of the four eigenvalues are the exact zeros of the
    # SVD path (p - q = 2)
    H = np.zeros((4, 4))
    for v, (t, u) in zip((0, 2, 3), [(1.0, 0.5), (0.8, 0.3), (1.2, 0.6)]):
        H[v, 1], H[1, v] = t, u
    sy = eig_biorthogonal(H)
    assert sy.solver == "chiral"
    assert np.unique(sy.eigenvalues).size == sy.n - 1


# The chiral path: a Hermitian H_b that only couples two sublattices is
# solved from the SVD of its off-diagonal block.


def _random_bipartite(seed):
    """(physical, Hermitian) forms of a random matrix whose bonds only join
    sites of opposite colour: real for even seeds, complex for odd ones,
    with n = 1 and 2 first, and under a random imaginary gauge D H D^-1 for
    two seeds in three."""
    rng = np.random.default_rng(seed)
    n = seed + 1 if seed < 2 else int(rng.integers(3, 16))
    colour = np.arange(n) % 2 == 1 if n < 3 else rng.random(n) < rng.uniform(0.2, 0.8)
    H = np.zeros((n, n), dtype=complex if seed % 2 else float)
    for u in range(n):
        for v in range(u + 1, n):
            if colour[u] != colour[v] and (n == 2 or rng.random() < 0.5):
                t = rng.normal() + (1j * rng.normal() if seed % 2 else 0)
                H[u, v], H[v, u] = t, np.conj(t)
    if seed % 3:
        d = np.exp(rng.uniform(-1, 1, size=n))
        return H * (d[:, None] / d[None, :]), H
    return H, H


def test_chiral_path_matches_eigh_on_random_bipartite_matrices():
    unequal = isolated = 0
    for seed in range(60):
        Hp, H = _random_bipartite(seed)
        n = len(H)
        odd = nhskin.spectral._gauged(Hp)[3]
        unequal += 2 * odd.sum() != n
        isolated += not np.all(H.any(axis=0))
        sy = eig_biorthogonal(Hp)
        assert sy.solver == "chiral", seed
        want = np.linalg.eigvalsh(H)
        np.testing.assert_allclose(sy.eigenvalues.real, want, atol=1e-13, err_msg=str(seed))
        np.testing.assert_allclose(dense_spectrum(Hp).real, want, atol=1e-13, err_msg=str(seed))
        w, R, L = sy.eigenvalues, sy.right, sy.left
        np.testing.assert_allclose(Hp @ R, R * w, atol=1e-12, err_msg=str(seed))
        np.testing.assert_allclose(L.conj().T @ Hp, w[:, None] * L.conj().T, atol=1e-12)
        np.testing.assert_allclose(L.conj().T @ R, np.eye(n), atol=1e-12, err_msg=str(seed))
        assert not sy.ep_flag and ep_diagnostic(Hp)["kappa_V"] == 1.0
        # the gauged vectors assembled from the SVD are orthonormal, as eigh's
        _, Vb, Lb, _, _ = nhskin.spectral._gauged_eig(Hp)
        assert Lb is Vb and _gauged_residual(Hp) < 1e-14, seed
    assert unequal > 20 and isolated > 10


def test_chiral_spectrum_is_exactly_symmetric_with_positive_zeros():
    for seed in range(60):
        w = dense_spectrum(_random_bipartite(seed)[0]).real
        _assert_same(w, -w[::-1])
        assert not np.signbit(w[w == 0]).any()
    # an exact zero singular value of B as well as a longer side
    M = np.zeros((5, 5))
    M[0, 2] = M[2, 0] = 1.0
    odd = np.array([False, False, True, True, False])
    for vectors in (False, True):
        w = nhskin.spectral._chiral_eig(M, odd, vectors)[0]
        _assert_same(w, np.array([-1.0, 0.0, 0.0, 0.0, 1.0]))
        assert not np.signbit(w[1:]).any()


@pytest.mark.parametrize(
    "H, solver",
    [
        (build(builtin_hatano_nelson(1.0, 1.0), [31], PBC).matrix, "eigh"),
        (build(builtin_hatano_nelson(1.0, 1.0), [30], PBC).matrix, "chiral"),
        (build(builtin_nh_ssh(0.6, 1.0, 0.2), [20], OBC).matrix + 0.1 * np.eye(40), "eigh"),
        (build(builtin_2d(0.5, 1.0, 0.0), [6, 8], OBC).matrix, "chiral"),
    ],
    ids=["odd-ring", "even-ring", "onsite", "square-lattice"],
)
def test_only_two_sublattice_hermitian_matrices_take_chiral(H, solver):
    # rings with flux and asym2d keep eig: test_non_hermitian_after_gauge_takes_eig
    assert eig_biorthogonal(H).solver == solver
    assert nhskin.spectral._gauged_eig(H, vectors=False)[4] == solver


def test_nh_ssh_zero_pair_matches_high_precision_svd():
    # the gauged nh-ssh chain is [[0, B], [B^T, 0]] on its (A, B) sites with
    # B_ij = sign(H_ij) sqrt(H_ij H_ji) exactly; the smallest singular value
    # of B, 8.62e-11 here, is the zero pair's |E|.  eigh's two values are
    # 5e-6 apart in relative terms, the SVD's are an exact +- pair
    import mpmath

    H = build(builtin_nh_ssh(0.6, 1.0, 0.2), [40], OBC).matrix.real
    B = mpmath.matrix(40, 40)
    with mpmath.workdps(80):
        for i, j in zip(*np.nonzero(H[0::2, 1::2])):
            h, g = H[2 * i, 2 * j + 1], H[2 * j + 1, 2 * i]
            B[i, j] = mpmath.sign(h) * mpmath.sqrt(mpmath.mpf(h) * mpmath.mpf(g))
        sigma = float(min(mpmath.svd_r(B, compute_uv=False)))
    for w in (eig_biorthogonal(H).eigenvalues.real, dense_spectrum(H).real):
        assert w[39] == -w[40]
        assert w[40] == pytest.approx(sigma, rel=2e-6)


@pytest.mark.parametrize(
    "op, solver",
    [
        (build(builtin_hatano_nelson(0.3, 1.0), [423], OBC), "chiral"),
        (build(builtin_nh_ssh(0.6, 1.0, 0.2), [75], OBC), "chiral"),
        (build(builtin_hatano_nelson(0.5, 1.0), [201], OBC), "chiral"),  # odd: a null vector
        (build(builtin_hatano_nelson(0.5, 1.0), [60], OBC).matrix + ONSITE * np.eye(60), "eigh"),
        (build(COMPLEX_CHAIN, [60], OBC), "eig"),
        (build(builtin_hatano_nelson(0.5, 1.0), [40], Coupled(1e-3)), "eig"),
    ],
    ids=["chiral-hn", "chiral-nh-ssh", "chiral-odd", "eigh", "eig-complex-chain", "eig-coupled"],
)
def test_eigen_conditions_match_the_biorthogonal_system(op, solver):
    # kappa_i from the gauged vectors is ||L_i|| ||R_i|| of the physical ones
    sy = eig_biorthogonal(op)
    w, kappa = sy.eigenvalues, sy.conditions
    assert sy.solver == solver
    norms = np.linalg.norm(sy.left, axis=0) * np.linalg.norm(sy.right, axis=0)
    np.testing.assert_allclose(kappa, norms, rtol=1e-14)
    # a values-only solve rounds some eigenvalues differently off the eig path
    ev = dense_spectrum(op)
    if solver == "eig":
        np.testing.assert_array_equal(w, ev)
    np.testing.assert_allclose(w, ev, rtol=0, atol=1e-13)


def test_pairs_with_no_dual_read_infinite_kappa():
    # a pair with |<Lb_i|Vb_i>| <= 1e-12 has no dual: every pair of a Jordan
    # block, and the pairs past kappa = 1e12 of the flux chain at N = 80
    # (hoppings 0.5, 1.0, 0.2 and 0.1 at offsets +1, -1, +2 and -2); the
    # unit-norm left vector kept for such a pair would read kappa_i = 1
    sy = eig_biorthogonal(build(builtin_hatano_nelson(0.0, 1.0), [10], OBC))
    assert sy.solver == "eig" and np.all(sy.conditions == np.inf)
    flux = LatticeModel(
        1, 1, tuple(HoppingTerm((o,), [[a]]) for o, a in zip((1, -1, 2, -2), (0.5, 1.0, 0.2, 0.1)))
    )
    sy = eig_biorthogonal(build(flux, [80], OBC))
    assert sy.solver == "eig" and np.isinf(sy.conditions).any()
    assert sy.conditions.min() > 2


def _hn_kappa(jl, n):
    """kappa of each eigenvalue of the n-site open chain H[i, i+1] = jl,
    H[i+1, i] = 1 (or its transpose), ascending, in mpmath: the vectors are
    r^(+-i) sin(k_m i) with r^2 = 1/jl and E = 2 sqrt(jl) cos k_m,
    k_m = m pi/(n + 1)."""
    import mpmath

    with mpmath.workdps(40):
        r2 = 1 / mpmath.mpf(jl)
        out = []
        for m in range(n, 0, -1):  # ascending E
            s2 = [mpmath.sin(m * mpmath.pi * i / (n + 1)) ** 2 for i in range(1, n + 1)]
            right = mpmath.fsum(r2**i * x for i, x in enumerate(s2))
            left = mpmath.fsum(r2**-i * x for i, x in enumerate(s2))
            out.append(mpmath.sqrt(right * left) / mpmath.fsum(s2))
        return out


@pytest.mark.parametrize("jl, n", [(1e-30, 21), (1e-30, 20), (1e-60, 11), (1e-32, 21), (0.01, 201)])
def test_steep_chain_kappa_matches_high_precision(jl, n):
    # each kappa_i is finite below the float range and inf above it, never
    # nan (the odd chains' null vector included), and raises no warning; the
    # norms of physical vectors overflow from about kappa = 1e154
    import warnings

    import mpmath

    op = build(builtin_hatano_nelson(jl, 1.0), [n], OBC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = eig_biorthogonal(op).conditions
    for k, ref in zip(kappa, _hn_kappa(jl, n)):
        if ref > np.finfo(float).max:
            assert k == np.inf
        else:
            assert k == pytest.approx(float(ref), rel=1e-10)
    assert not np.isnan(kappa).any()


def _log2_norms_cases():
    """(V, d): d spans e^-700 .. e^700 and columns sit at its low end, its
    high end, in the middle or across it, with exact zeros elsewhere, so that
    a sum of squares scaled to the largest d^+-1 underflows, or does not."""
    rng = np.random.default_rng(3)
    n = 12
    d = np.exp(np.linspace(-700.0, 700.0, n))
    V = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    for c, (lo, hi) in enumerate([(0, 2), (10, 12), (5, 7), (0, 12), (0, 1), (11, 12)]):
        V[:lo, c] = V[hi:, c] = 0.0
    return [(V, d), (V.real.copy(), d), (V, np.ones(n))]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("case", range(3))
def test_log2_norms_match_high_precision(case, sign):
    import mpmath

    V, d = _log2_norms_cases()[case]
    m, e = nhskin.spectral._log2_norms(V, np.abs(V) ** 2, np.frexp(d), sign)
    scale = [mpmath.mpf(s) ** sign for s in d]
    for c in range(V.shape[1]):
        ref = mpmath.sqrt(mpmath.fsum((mpmath.mpf(abs(v)) * s) ** 2 for v, s in zip(V[:, c], scale)))
        assert float(mpmath.mpf(m[c]) * mpmath.mpf(2) ** int(e[c]) / ref) == pytest.approx(1.0, rel=1e-15)


def _right_vector_case(case):
    """(V, (f, x), columns): unit columns V under the scales D = diag(f 2^x),
    and the columns to check.  The _log2_norms cases, and HN(0.01, 1) at 400
    sites with an on-site 100 at site 0, whose bound state (the last column)
    sits 2^1325 below the chain's largest scale."""
    if case < 3:
        V, d = _log2_norms_cases()[case]
        return V / np.linalg.norm(V, axis=0), np.frexp(d), range(V.shape[1])
    H = build(builtin_hatano_nelson(0.01, 1.0), [400], OBC).matrix
    H[0, 0] = 100.0
    sy = eig_biorthogonal(H)
    return sy.Vb, sy.scales, [0, 200, 399]


@pytest.mark.parametrize("case", range(4), ids=["complex", "real", "no-gauge", "bound-state"])
def test_right_vectors_match_high_precision(case):
    # unit right vectors D v_i / ||D v_i||, largest entry real and positive:
    # the columns far below the largest scale are the ones _log2_norms
    # rescales, where 2^(x - e_i) itself leaves the float range
    import warnings

    import mpmath

    V, (f, x), columns = _right_vector_case(case)
    system = nhskin.spectral.BiorthogonalSystem(np.zeros(V.shape[1], complex), V, V, (f, x), "eig")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = system.right
    assert R.dtype == V.dtype and R.flags.f_contiguous
    for c in columns:
        d = [mpmath.ldexp(mpmath.mpf(float(fi)), int(xi)) for fi, xi in zip(f, x)]
        r = [mpmath.mpc(complex(v)) * di for v, di in zip(V[:, c], d)]
        lead = max(r, key=abs)
        scale = mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in r)) * lead / abs(lead)
        ref = np.array([complex(z / scale) for z in r])
        np.testing.assert_allclose(R[:, c], ref, rtol=0, atol=1e-15)


def test_chiral_solve_walks_one_spanning_tree(monkeypatch):
    # the gauge's tree sums and the two-colouring share one traversal
    calls = []
    tree = nhskin.spectral._spanning_tree
    monkeypatch.setattr(
        nhskin.spectral, "_spanning_tree", lambda *args: calls.append(1) or tree(*args)
    )
    for solve in (dense_spectrum, eig_biorthogonal, lambda op: eig_biorthogonal(op).conditions):
        calls.clear()
        solve(build(builtin_hatano_nelson(0.5, 1.0), [30], OBC))
        assert len(calls) == 1
    assert eig_biorthogonal(build(builtin_hatano_nelson(0.5, 1.0), [30], OBC)).solver == "chiral"


def test_family_spectra_equal_dense_spectrum_per_member():
    H0 = build(builtin_nh_ssh(0.6, 1.0, 0.2), [12], OBC).matrix
    W = build(builtin_nh_ssh(0.6, 1.0, 0.2), [12], PBC).matrix - H0
    epsilons = [0.0, 1e-300, 1e-8, 0.5, 3.0]
    got = nhskin.spectral.family_spectra(H0, W, epsilons)
    for eps, e in zip(epsilons, got):
        _assert_same(e, dense_spectrum(H0 + eps * W))


@pytest.mark.parametrize("n", [312, 400, 600, 650, 700, 1000])
def test_steep_chain_solves_past_the_float_range_of_its_gauge(n):
    # HN(0.01, 1): the gauge's log scales reach +-1.15 (n - 1), so exp(l)
    # overflows from n = 618 and the physical left vectors leave the float
    # range from n = 312; the gauged entries h d_j / d_i stay bounded, and
    # so do the unit right vectors, which never read the left ones
    import warnings

    op = build(builtin_hatano_nelson(0.01, 1.0), [n], OBC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = dense_spectrum(op)
        sy = eig_biorthogonal(op)
        w, kappa, right = sy.eigenvalues, sy.conditions, sy.right
        with pytest.raises(EigensolverError, match="float range"):
            sy.left
    want = hn_closed_form(0.01, 1.0, n)
    assert np.abs(ev - want).max() < 1e-12 and np.abs(w - want).max() < 1e-12
    assert not np.isnan(kappa).any()
    if n >= 600:
        assert np.all(kappa == np.inf)  # every kappa_i is above e^700 here
    assert np.isfinite(right).all()
    np.testing.assert_allclose(np.linalg.norm(right, axis=0), 1.0, rtol=1e-14)


def test_split_scales_match_frexp_of_exp_where_it_is_a_float():
    import mpmath

    l = np.linspace(-700.0, 700.0, 9)
    f, x = nhskin.spectral._split_scales(l)
    _assert_same(f, np.frexp(np.exp(l))[0])
    _assert_same(x, np.frexp(np.exp(l))[1])
    l = np.linspace(-1200.0, 1200.0, 9)
    f, x = nhskin.spectral._split_scales(l)
    assert np.all((0.5 <= f) & (f < 1))
    for fi, xi, li in zip(f, x, l):
        ref = mpmath.exp(mpmath.mpf(li))
        assert float(mpmath.mpf(fi) * mpmath.mpf(2) ** int(xi) / ref) == pytest.approx(1, rel=1e-13)


def test_hermitian_test_refuses_non_finite_entries():
    hb = np.array([1.0, np.nan, 1.0, 1.0])
    assert nhskin.spectral._hermitian_part(hb, np.array([2, 3, 0, 1]), 1.0) is None
