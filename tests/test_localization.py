import dataclasses

import numpy as np
import pytest

from nhskin.errors import EPVicinityError
from nhskin.localization import (
    Thresholds,
    biorthogonal_density,
    classify_spectrum,
    classify_state,
    decay_fit,
    density_profile,
    export_profiles_csv,
    participation_ratio,
)
from nhskin.model import builtin_hatano_nelson, builtin_nh_ssh
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
    assert p.weights[3] == pytest.approx(1.0)
    assert p.weights.sum() == pytest.approx(1.0)
    uni = np.ones(10, complex)
    assert participation_ratio(density_profile(uni, im)) == pytest.approx(10.0)


def test_density_profile_sums_orbitals_per_cell():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [6], OBC)
    v = np.arange(1.0, 13.0)
    p = density_profile(v, op.index_map)
    assert p.n_cells == 6
    # cell 0 holds |1|^2 + |2|^2 of the total sum-of-squares
    assert p.weights[0] == pytest.approx(5.0 / float(np.sum(v**2)))


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
    assert p.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_decay_fit_recovers_rate():
    im = imap(40)
    v = np.exp(-np.log(2.0) * np.arange(40) / 2.0)  # density decays at ln 2 per site
    p = density_profile(v.astype(complex), im)
    fit = decay_fit(p, (5, 35))
    assert fit["rate"] == pytest.approx(-np.log(2.0), rel=1e-10)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_window_validation():
    p = density_profile(np.ones(10, complex), imap(10))
    with pytest.raises(ValueError):
        decay_fit(p, (2, 5))
    with pytest.raises(ValueError):
        decay_fit(p, (-1, 8))


def test_hermitian_chain_is_all_bulk():
    op = build(builtin_hatano_nelson(1.0, 1.0), [40], OBC)
    cls = classify_spectrum(eig_biorthogonal(op), op)
    assert {c.label for c in cls} == {"bulk"}
    assert all(c.side is None for c in cls)


def test_skin_chain_is_all_skin_right():
    op = build(builtin_hatano_nelson(0.5, 1.0), [40], OBC)
    cls = classify_spectrum(eig_biorthogonal(op), op)
    assert all(c.label == "skin" and c.side == "right" for c in cls)


def test_topological_pair_detected_and_sided():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [40], OBC)
    sy = eig_biorthogonal(op)
    cls = classify_spectrum(sy, op)
    order = np.argsort(np.abs(sy.eigenvalues))
    for i in order[:2]:
        assert cls[i].label == "topological_boundary"
        r = np.abs(sy.right[:, i]) ** 2
        assert r[: len(r) // 2].sum() > 0.99  # right vector on the left end
    assert all(cls[i].label == "skin" for i in order[2:])


def test_topological_states_single_sublattice():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [10], OBC)
    sy = eig_biorthogonal(op)
    i = int(np.argmin(np.abs(sy.eigenvalues)))
    r = sy.right[:, i]
    w_a = (np.abs(r[0::2]) ** 2).sum()
    w_b = (np.abs(r[1::2]) ** 2).sum()
    assert max(w_a, w_b) / (w_a + w_b) > 0.999


def test_classification_stable_under_small_threshold_shift():
    op = build(builtin_nh_ssh(0.6, 1.0, 0.3), [40], OBC)
    sy = eig_biorthogonal(op)
    base = [c.label for c in classify_spectrum(sy, op)]
    for d in (-1e-3, 1e-3):
        th = Thresholds(edge_fraction=0.5 + d, pr_scale=0.2 + d, edge_region=0.1)
        assert [c.label for c in classify_spectrum(sy, op, th)] == base


def test_classify_state_metrics_present():
    op = build(builtin_hatano_nelson(0.5, 1.0), [20], OBC)
    sy = eig_biorthogonal(op)
    c = classify_state(sy.left[:, 0], sy.right[:, 0], op.index_map)
    assert set(c.metrics) == {
        "right_edge_fraction",
        "biorthogonal_participation_ratio_scaled",
    }
    assert 0 <= c.metrics["right_edge_fraction"] <= 1


def test_profiles_csv(tmp_path):
    op = build(builtin_hatano_nelson(0.5, 1.0), [6], OBC)
    sy = eig_biorthogonal(op)
    profs = [density_profile(sy.right[:, i], op.index_map) for i in range(3)]
    path = tmp_path / "profiles.csv"
    export_profiles_csv(path, profs, labels=["a", "b", "c"])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 6
    assert lines[1].endswith(",a")


def _per_state_reference(L, R, op, th=Thresholds()):
    """The per-state classifier as a plain loop body: numpy.vdot norms,
    numpy.add.at cell sums and 1-D reductions."""
    cells, n = op.index_map.cell_index_of_rows(), op.index_map.n_cells
    right = np.zeros(n)
    np.add.at(right, cells, np.abs(R) ** 2)
    right /= np.vdot(R, R).real
    bio = np.zeros(n, dtype=complex)
    np.add.at(bio, cells, np.conj(L) * R)
    bio /= np.vdot(L, R)

    def edges(w):
        ne = max(1, int(np.ceil(th.edge_region * n)))
        a = np.abs(w)
        return a[:ne].sum() / a.sum(), a[-ne:].sum() / a.sum()

    lf, rf = edges(right)
    p = np.abs(bio) / np.abs(bio).sum()
    edge, pr = max(lf, rf), 1.0 / np.sum(p**2)
    if edge > th.edge_fraction and pr > th.pr_scale * n:
        label, side = "skin", "right" if rf >= lf else "left"
    elif edge > th.edge_fraction:
        blf, brf = edges(bio)
        label, side = "topological_boundary", "right" if brf >= blf else "left"
    else:
        label, side = "bulk", None
    return label, side, {
        "right_edge_fraction": edge,
        "biorthogonal_participation_ratio_scaled": pr / n,
    }


@pytest.mark.parametrize(
    "model, cells",
    [
        (builtin_hatano_nelson(0.5, 1.0), 50),
        (builtin_hatano_nelson(0.5, 1.0), 100),
        (builtin_nh_ssh(0.6, 1.0, 0.3), 40),
        (builtin_hatano_nelson(1.0, 1.0), 30),
    ],
    ids=["hn50", "hn100", "nh-ssh40", "hermitian30"],
)
def test_batched_classifier_equals_per_state_reference(model, cells):
    # the criterion 04/06 systems plus an all-bulk chain: same arithmetic,
    # so labels, sides and metrics must agree exactly
    op = build(model, [cells], OBC)
    sy = eig_biorthogonal(op)
    batch = classify_spectrum(sy, op)
    for i, c in enumerate(batch):
        ref = _per_state_reference(sy.left[:, i].copy(), sy.right[:, i].copy(), op)
        assert (c.label, c.side, c.metrics) == ref
        assert classify_state(sy.left[:, i], sy.right[:, i], op.index_map) == c


def test_batched_classifier_refuses_any_ep_pair():
    op = build(builtin_hatano_nelson(0.5, 1.0), [20], OBC)
    sy = eig_biorthogonal(op)
    left = sy.left.copy()
    left[:, 7] = 0.0  # one pair with <L|R> = 0 among healthy ones
    with pytest.raises(EPVicinityError):
        classify_spectrum(dataclasses.replace(sy, left=left), op)
