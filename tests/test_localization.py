import dataclasses

import numpy as np
import pytest

import nhskin.localization
from nhskin.errors import EPVicinityError
from nhskin.localization import (
    EDGE_FRACTION,
    EDGE_REGION,
    PR_SCALE,
    biorthogonal_density,
    classify_spectrum,
    density_profile,
    participation_ratio,
)
from nhskin.model import HoppingTerm, LatticeModel, builtin_hatano_nelson, builtin_nh_ssh
from nhskin.realspace import OBC, build
from nhskin.spectral import eig_biorthogonal


def imap(n):
    return build(builtin_hatano_nelson(0.5, 1.0), [n], OBC).index_map


def test_density_profile_point_and_uniform():
    im = imap(10)
    delta = np.zeros(10, complex)
    delta[3] = 2.0
    p = density_profile(delta, im)
    assert participation_ratio(p) == pytest.approx(1.0)
    # profile is normalized, so the amplitude scale drops out
    assert p[3] == pytest.approx(1.0)
    assert p.sum() == pytest.approx(1.0)
    uni = np.ones(10, complex)
    assert participation_ratio(density_profile(uni, im)) == pytest.approx(10.0)


def test_density_profile_sums_orbitals_per_cell():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [6], OBC)
    v = np.arange(1.0, 13.0)
    p = density_profile(v, op.index_map)
    assert len(p) == 6
    # cell 0 holds |1|^2 + |2|^2 of the total sum-of-squares
    assert p[0] == pytest.approx(5.0 / float(np.sum(v**2)))


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        density_profile(np.zeros(10), imap(10))


def test_biorthogonal_refuses_orthogonal_pair():
    im = imap(4)
    L = np.array([1, 0, 0, 0], complex)
    R = np.array([0, 0, 0, 1], complex)
    with pytest.raises(EPVicinityError):
        biorthogonal_density(L, R, im)


def test_biorthogonal_weights_sum_to_one():
    op = build(builtin_hatano_nelson(0.5, 1.0), [20], OBC)
    sy = eig_biorthogonal(op)
    p = biorthogonal_density(sy.left[:, 3], sy.right[:, 3], op.index_map)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)


def test_hermitian_chain_is_all_bulk():
    op = build(builtin_hatano_nelson(1.0, 1.0), [40], OBC)
    cls = classify_spectrum(eig_biorthogonal(op), op)
    assert set(cls.label) == {"bulk"}
    assert set(cls.side) == {""}


def test_skin_chain_is_all_skin_right():
    op = build(builtin_hatano_nelson(0.5, 1.0), [40], OBC)
    cls = classify_spectrum(eig_biorthogonal(op), op)
    assert set(cls.label) == {"skin"} and set(cls.side) == {"right"}


def test_topological_pair_detected_and_sided():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [40], OBC)
    sy = eig_biorthogonal(op)
    cls = classify_spectrum(sy, op)
    order = np.argsort(np.abs(sy.eigenvalues))
    for i in order[:2]:
        assert cls.label[i] == "topological_boundary"
        r = np.abs(sy.right[:, i]) ** 2
        assert r[: len(r) // 2].sum() > 0.99  # right vector on the left end
    assert set(cls.label[order[2:]]) == {"skin"}


def test_topological_states_single_sublattice():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [10], OBC)
    sy = eig_biorthogonal(op)
    i = int(np.argmin(np.abs(sy.eigenvalues)))
    r = sy.right[:, i]
    w_a = (np.abs(r[0::2]) ** 2).sum()
    w_b = (np.abs(r[1::2]) ** 2).sum()
    assert max(w_a, w_b) / (w_a + w_b) > 0.999


def test_classification_stable_under_small_threshold_shift():
    # every verdict clears the cutoffs it reads by more than 1e-3, so a
    # shift of either cutoff by 1e-3 changes no label
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [40], OBC)
    cls = classify_spectrum(eig_biorthogonal(op), op)
    assert (np.abs(cls.edge_fraction - EDGE_FRACTION) > 1e-3).all()
    accumulated = cls.edge_fraction > EDGE_FRACTION
    assert (np.abs(cls.pr_scaled[accumulated] - PR_SCALE) > 1e-3).all()


def _per_state_reference(Lb, Vb, R, op):
    """The per-state classifier as a plain loop body: numpy.vdot norms,
    numpy.add.at cell sums and 1-D reductions, with the right weights from
    the physical R and the biorthogonal ones from the gauged Lb, Vb."""
    n = op.index_map.n_cells
    cells = np.repeat(np.arange(n), op.index_map.bands)  # rows are cell-major
    right = np.zeros(n)
    np.add.at(right, cells, np.abs(R) ** 2)
    right /= np.vdot(R, R).real
    bio = np.zeros(n, dtype=np.result_type(Lb, Vb))
    np.add.at(bio, cells, np.conj(Lb) * Vb)
    bio /= np.vdot(Lb, Vb)

    def edges(w):
        ne = max(1, int(np.ceil(EDGE_REGION * n)))
        a = np.abs(w)
        return a[:ne].sum() / a.sum(), a[-ne:].sum() / a.sum()

    lf, rf = edges(right)
    p = np.abs(bio) / np.abs(bio).sum()
    edge, pr = max(lf, rf), 1.0 / np.sum(p**2)
    if edge > EDGE_FRACTION and pr > PR_SCALE * n:
        label, side = "skin", "right" if rf >= lf else "left"
    elif edge > EDGE_FRACTION:
        blf, brf = edges(bio)
        side = "both" if abs(brf - blf) <= 1e-12 else "right" if brf > blf else "left"
        label = "topological_boundary"
    else:
        label, side = "bulk", ""
    return label, side, edge, pr / n


SKIN_RIGHT, SKIN_LEFT, BULK = ("skin", "right"), ("skin", "left"), ("bulk", "")
BOTH = ("topological_boundary", "both")


@pytest.mark.parametrize(
    "model, cells, kinds",
    [
        (builtin_hatano_nelson(0.5, 1.0), 50, {SKIN_RIGHT}),
        (builtin_hatano_nelson(0.5, 1.0), 100, {SKIN_RIGHT}),
        (builtin_nh_ssh(0.6, 1.0, 0.3), 40, {SKIN_LEFT, BOTH}),
        (builtin_hatano_nelson(1.0, 1.0), 30, {BULK}),
        (builtin_nh_ssh(0.6, 1.0, 0.2), 30, {SKIN_LEFT, BOTH, BULK}),
        (builtin_nh_ssh(1.2, 1.0, 0.3), 40, {SKIN_LEFT, BULK}),
    ],
    ids=["hn50", "hn100", "nh-ssh40", "hermitian30", "nh-ssh30", "nh-ssh-trivial40"],
)
def test_batched_classifier_equals_per_state_reference(model, cells, kinds):
    # the criterion 04/06 systems, an all-bulk chain and two nh-SSH chains
    # with skin/left and bulk states: same arithmetic, so every column must
    # equal the reference's exactly
    op = build(model, [cells], OBC)
    sy = eig_biorthogonal(op)
    cls = classify_spectrum(sy, op)
    ref = [_per_state_reference(sy.Lb[:, i], sy.Vb[:, i], sy.right[:, i], op) for i in range(sy.n)]
    label, side, edge, pr_scaled = map(np.array, zip(*ref))
    assert set(zip(label.tolist(), side.tolist())) == kinds
    for got, want in zip((cls.label, cls.side, cls.edge_fraction, cls.pr_scaled),
                         (label, side, edge, pr_scaled)):
        np.testing.assert_array_equal(got, want)
    profiles = [density_profile(sy.right[:, i], op) for i in range(sy.n)]
    np.testing.assert_array_equal(cls.profiles, np.array(profiles))


def test_classifier_reads_the_solver_vectors_without_copies(monkeypatch):
    # the biorthogonal weights come from the gauged vectors, the right ones
    # from the unit right vectors, and no physical left vector is built
    op = build(builtin_hatano_nelson(0.5, 1.0), [50], OBC)
    sy = eig_biorthogonal(op)
    seen = []
    for name in ("_right_weights", "_bio_weights"):
        f = getattr(nhskin.localization, name)
        monkeypatch.setattr(nhskin.localization, name, lambda *a, f=f: seen.append(a[:-1]) or f(*a))
    classify_spectrum(sy, op)
    [(Rt,), (Lt, Vt)] = seen
    assert Lt.dtype == Vt.dtype == Rt.dtype == np.float64
    assert np.shares_memory(Lt, sy.Lb) and np.shares_memory(Vt, sy.Vb)
    assert np.shares_memory(Rt, sy.right) and "left" not in vars(sy)


@pytest.mark.parametrize(
    "model, cells, tied",
    [
        (builtin_hatano_nelson(0.5, 1.0), 50, 0),
        (builtin_hatano_nelson(0.5, 1.0), 100, 0),
        (builtin_nh_ssh(0.6, 1.0, 0.3), 40, 2),
        (builtin_nh_ssh(0.6, 1.0, 0.2), 30, 2),
    ],
    ids=["hn50", "hn100", "nh-ssh40", "nh-ssh30"],
)
def test_real_and_complex_vectors_classify_alike(model, cells, tied):
    # the criterion 04/06 systems and the CI's nh-SSH chain, whose zero pair
    # must keep its tied side "both" in either arithmetic
    op = build(model, [cells], OBC)
    sy = eig_biorthogonal(op)
    as_complex = dataclasses.replace(sy, Vb=sy.Vb.astype(complex), Lb=sy.Lb.astype(complex))
    real, cplx = classify_spectrum(sy, op), classify_spectrum(as_complex, op)
    np.testing.assert_array_equal(real.label, cplx.label)
    np.testing.assert_array_equal(real.side, cplx.side)
    np.testing.assert_allclose(real.edge_fraction, cplx.edge_fraction, rtol=1e-14, atol=0)
    np.testing.assert_allclose(real.pr_scaled, cplx.pr_scaled, rtol=1e-14, atol=0)
    assert np.count_nonzero(real.side == "both") == tied


def test_batched_classifier_refuses_any_ep_pair():
    op = build(builtin_hatano_nelson(0.5, 1.0), [20], OBC)
    sy = eig_biorthogonal(op)
    Lb = sy.Lb.copy()
    Lb[:, 7] = 0.0  # one pair with <L|R> = 0 among healthy ones
    with pytest.raises(EPVicinityError):
        classify_spectrum(dataclasses.replace(sy, Lb=Lb), op)


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
    "model, cells",
    [
        (builtin_hatano_nelson(0.5, 1.0), 150),
        (builtin_hatano_nelson(0.3, 1.0), 60),
        (builtin_nh_ssh(0.6, 1.0, 0.2), 40),
        (builtin_nh_ssh(0.6, 1.0, 0.3), 75),
        (COMPLEX_CHAIN, 60),
    ],
    ids=["hn150", "hn-steeper60", "nh-ssh40", "nh-ssh75", "complex60"],
)
def test_weights_match_the_physical_vector_formula(model, cells):
    # the physical vectors multiplied out as D Vb and D^-1 Lb, normalized by
    # numpy.linalg.norm, give the same right and biorthogonal weights
    op = build(model, [cells], OBC)
    sy = eig_biorthogonal(op)
    d = np.ldexp(*sy.scales)[:, None]
    R, L = sy.Vb * d, sy.Lb / d
    norms = np.linalg.norm(R, axis=0)
    R, L = R / norms, L * norms
    imap = op.index_map
    right, bio = (nhskin.localization._right_weights(R.T, imap),
                  nhskin.localization._bio_weights(L.T, R.T, imap))
    np.testing.assert_allclose(right, nhskin.localization._right_weights(sy.right.T, imap),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(bio, nhskin.localization._bio_weights(sy.Lb.T, sy.Vb.T, imap),
                               rtol=0, atol=1e-15)
