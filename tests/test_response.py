import numpy as np
import pytest

from nhskin.errors import AmbiguousTargetError, SingularProbeError, StepSizeError
from nhskin.model import HoppingTerm, LatticeModel, builtin_hatano_nelson, builtin_nh_ssh
from nhskin.realspace import OBC, PBC, Coupled, build, from_matrix
from nhskin.response import (
    amplification_log_ratio,
    boundary_crossover,
    funnel_model,
    reciprocity_test,
    sensor_sweep,
    susceptibility,
    time_evolve,
)
from nhskin.spectral import dense_spectrum, hausdorff_distance


def test_susceptibility_two_site_hand_values():
    op = build(builtin_hatano_nelson(0.5, 1.0), [2], OBC)
    s = susceptibility(op, 2.0)
    ref = -1j / 3.5 * np.array([[2.0, 0.5], [1.0, 2.0]])
    np.testing.assert_allclose(s.chi, ref, atol=1e-14)
    assert s.asymmetry == pytest.approx(0.5 / 3.5, abs=1e-14)


def test_resolvent_identity():
    op = build(builtin_hatano_nelson(0.5, 1.0), [25], OBC)
    for w in (2.1, 0.4 + 0.3j, -1.9 - 0.1j):
        s = susceptibility(op, w)
        A = w * np.eye(25) - op.matrix
        kappa = np.linalg.cond(A)
        assert np.abs(A @ (1j * s.chi) - np.eye(25)).max() < 1e-8 * kappa


def test_probe_on_eigenvalue_is_singular():
    op = build(builtin_hatano_nelson(1.0, 1.0), [5], OBC)
    w = dense_spectrum(op)[2]
    with pytest.raises(SingularProbeError):
        susceptibility(op, w)


def test_reciprocity_verdicts():
    omegas = [3.0, 2.0 + 1.0j]
    herm = build(builtin_hatano_nelson(1.0, 1.0), [12], OBC)
    rows = reciprocity_test(herm, omegas)
    assert all(r["reciprocal"] for r in rows)
    assert max(r["asymmetry"] for r in rows) < 1e-12
    skin = build(builtin_hatano_nelson(0.5, 1.0), [12], OBC)
    assert not any(r["reciprocal"] for r in reciprocity_test(skin, omegas))


def test_reciprocity_takes_the_operator_norm_once(monkeypatch):
    op = build(builtin_hatano_nelson(0.5, 1.0), [12], OBC)
    omegas = [3.0, 2.0 + 1.0j, -2.5 + 0.2j]
    expected = [susceptibility(op, w).asymmetry for w in omegas]
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(a[1:]) or norm(*a, **kw))
    rows = reciprocity_test(op, omegas)
    assert calls == [(2,)]
    assert [r["asymmetry"] for r in rows] == expected


def test_diagonal_gain_loss_is_reciprocal():
    # non-Hermitian but reciprocal: no direction is preferred
    op = from_matrix(np.diag([0.3 + 0.2j, -0.1j, 1.0, 0.5 - 0.7j]))
    rows = reciprocity_test(op, [2.0 + 0.5j])
    assert rows[0]["reciprocal"]


def test_amplification_matches_direct_ratio():
    op = build(builtin_hatano_nelson(0.5, 1.0), [20], OBC)
    s = susceptibility(op, 0.0)
    direct = np.log(np.abs(s.chi[19, 0] / s.chi[0, 19]))
    assert direct == pytest.approx(19 * np.log(2.0), rel=1e-9)
    assert amplification_log_ratio(op, 0.0) == pytest.approx(direct, rel=1e-9)


def test_amplification_survives_singular_resolvent():
    # odd length: omega = 0 is an eigenvalue and the susceptibility itself
    # is unavailable, but the gain ratio stays finite
    op = build(builtin_hatano_nelson(0.5, 1.0), [5], OBC)
    with pytest.raises(SingularProbeError):
        susceptibility(op, 0.0)
    assert amplification_log_ratio(op, 0.0) == pytest.approx(4 * np.log(2.0), rel=1e-9)


def test_time_evolve_zero_hamiltonian():
    op = from_matrix(np.zeros((8, 8)))
    psi0 = np.zeros(8, complex)
    psi0[2] = 1.0
    traj = time_evolve(op, psi0, 1.0, 0.1)
    np.testing.assert_allclose(traj.states - traj.states[0], 0.0, atol=1e-14)
    np.testing.assert_allclose(traj.log_growth, 0.0, atol=1e-14)


def test_hermitian_evolution_is_norm_preserving():
    op = build(builtin_hatano_nelson(1.0, 1.0), [20], OBC)
    psi0 = np.zeros(20, complex)
    psi0[3] = 1.0
    traj = time_evolve(op, psi0, 5.0, 0.05)
    steps = np.diff(traj.log_growth)
    assert np.abs(np.exp(steps) - 1.0).max() < 1e-9
    assert np.all(np.diff(traj.times) > 0)
    np.testing.assert_allclose(np.linalg.norm(traj.states, axis=1), 1.0, atol=1e-12)


def _expm_steps(H, psi0, t_max, dt):
    """Reference for `time_evolve`: the same renormalized stepping, with the
    propagator from scipy's scaling-and-squaring Pade `expm`."""
    from scipy.linalg import expm

    U = expm(-1j * H * dt)
    psi = psi0 / np.linalg.norm(psi0)
    states, logg = [psi], [0.0]
    for _ in range(int(round(t_max / dt))):
        psi = U @ psi
        nrm = np.linalg.norm(psi)
        psi = psi / nrm
        states.append(psi)
        logg.append(logg[-1] + np.log(nrm))
    return np.array(states), np.array(logg)


def _oracle_cases():
    for jl in (0.3, 0.45, 0.5, 1.5):
        for dt in (0.05, 0.1):
            yield funnel_model(jl, 1.0, 30), 5, 40.0, dt
    yield build(builtin_nh_ssh(0.6, 1.0, 0.3), [20], OBC), 0, 10.0, 0.1
    yield build(builtin_hatano_nelson(0.5, 1.0), [40], Coupled(1e-3)), 3, 10.0, 0.1
    rng = np.random.default_rng(14)
    for _ in range(120):
        n = int(rng.integers(1, 25))
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dt = rng.uniform(0.01, 0.499) / np.linalg.norm(H, 2)
        yield from_matrix(H), int(rng.integers(n)), 20 * dt, dt


def test_taylor_propagator_matches_expm_stepping():
    for op, site, t_max, dt in _oracle_cases():
        psi0 = np.zeros(op.n, complex)
        psi0[site] = 1.0
        traj = time_evolve(op, psi0, t_max, dt)
        states, logg = _expm_steps(op.matrix, psi0, t_max, dt)
        assert np.abs(traj.states - states).max() < 1e-12
        assert np.abs(traj.log_growth - logg).max() < 1e-12


def test_step_size_guard():
    op = build(builtin_hatano_nelson(1.0, 1.0), [10], OBC)
    with pytest.raises(StepSizeError):
        time_evolve(op, np.ones(10, complex), 1.0, 0.3)


@pytest.mark.parametrize(
    "t_max, dt",
    [
        (1.0, 0.0),
        (1.0, -0.05),
        (1.0, np.nan),
        (1.0, np.inf),
        (-1.0, 0.05),
        (np.inf, 0.05),
        (np.nan, 0.05),
    ],
)
def test_time_evolve_refuses_bad_steps(t_max, dt):
    op = build(builtin_hatano_nelson(1.0, 1.0), [10], OBC)
    with pytest.raises(ValueError):
        time_evolve(op, np.ones(10, complex), t_max, dt)


def test_funnel_model_shape_and_interface():
    op = funnel_model(0.5, 1.0, 6)
    h = op.matrix
    assert h.shape == (12, 12)
    assert h[0, 1] == 0.5 and h[1, 0] == 1.0  # left half
    assert h[10, 11] == 1.0 and h[11, 10] == 0.5  # right half mirrored
    assert h[5, 6] == h[6, 5] == 0.75  # interface carries the average


def test_funnel_requires_asymmetry():
    with pytest.raises(ValueError):
        funnel_model(1.0, 1.0, 30)


def test_funnel_eigenstates_concentrate_at_interface():
    op = funnel_model(0.5, 1.0, 30)
    _, v = np.linalg.eig(op.matrix)
    third = slice(20, 40)
    mass = (np.abs(v[third, :]) ** 2).sum(axis=0) / (np.abs(v) ** 2).sum(axis=0)
    assert mass.min() > 0.9


def test_anti_funnel_pushes_mass_outward():
    op = funnel_model(1.0, 0.5, 30)
    _, v = np.linalg.eig(op.matrix)
    third = slice(20, 40)
    mass = (np.abs(v[third, :]) ** 2).sum(axis=0) / (np.abs(v) ** 2).sum(axis=0)
    assert np.mean(mass) < 0.3


def test_sensor_zero_coupling_zero_shift():
    rows = sensor_sweep(builtin_nh_ssh(0.6, 1.0, 0.3), 0.0, [10, 14])
    assert all(r["delta_E"] == 0 for r in rows)


def test_sensor_rejects_sizes_off_the_cell_grid():
    with pytest.raises(ValueError):
        sensor_sweep(builtin_nh_ssh(0.6, 1.0, 0.3), 1e-4, [11])


def test_sensor_ambiguous_on_degenerate_spectrum():
    # two decoupled identical chains: every eigenvalue is doubly degenerate
    amp = lambda a: np.array([[a, 0.0], [0.0, a]])
    twin = LatticeModel(
        dimension=1,
        bands=2,
        terms=[
            HoppingTerm(offset=(1,), amplitude=amp(0.5)),
            HoppingTerm(offset=(-1,), amplitude=amp(1.0)),
        ],
    )
    with pytest.raises(AmbiguousTargetError):
        sensor_sweep(twin, 1e-4, [12])


def test_hermitian_control_sweep_runs():
    rows = sensor_sweep(builtin_nh_ssh(0.6, 1.0, 0.0), 1e-4, [10, 14, 18, 22])
    assert [r["N"] for r in rows] == [10, 14, 18, 22]
    assert all(r["delta_E"] >= 0 for r in rows)


def test_crossover_endpoints():
    m = builtin_hatano_nelson(0.5, 1.0)
    rows = boundary_crossover(m, 30, [1.0])
    obc = dense_spectrum(build(m, [30], OBC))
    pbc = dense_spectrum(build(m, [30], PBC))
    assert rows[0]["distance"] == pytest.approx(hausdorff_distance(pbc, obc), abs=1e-12)
    assert rows[0]["max_imag"] == pytest.approx(np.abs(pbc.imag).max(), abs=1e-12)
    tiny = boundary_crossover(m, 30, [1e-16])[0]
    assert tiny["distance"] < 1e-8


def test_crossover_distance_monotone_in_epsilon():
    m = builtin_hatano_nelson(0.5, 1.0)
    rows = boundary_crossover(m, 24, [1e-12, 1e-6, 1e-2, 1.0])
    d = [r["distance"] for r in rows]
    assert all(np.diff(d) >= -1e-9)


# A crossover solves its rings as one family: H0 + eps W from one assembly,
# with one pattern part (bond list and spanning tree) for every member whose
# nonzeros match.  Each row must equal the row of a separate build and solve.

FAMILY_EPS = np.concatenate([np.logspace(-16, 0, 25), [5e-324, 1e-310, 1e20]])


def _complex_chain(tmp_path):
    # hoppings 1.0, 0.8, 0.3 and 0.192 e^{0.7i} at offsets +1, -1, +2, -2
    import json

    from nhskin.model import load_model

    amps = (1.0, 0.8, 0.3, 0.192 * np.exp(0.7j))
    terms = [
        {"offset": [o], "amplitude": [[{"re": complex(a).real, "im": complex(a).imag}]]}
        for o, a in zip((1, -1, 2, -2), amps)
    ]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dimension": 1, "bands": 1, "terms": terms}))
    return load_model(str(path))


FAMILIES = {
    "hn69": (lambda tmp: builtin_hatano_nelson(0.37, 1.0), 69),
    "hn88": (lambda tmp: builtin_hatano_nelson(0.63, 1.0), 88),
    "reciprocal30-chiral": (lambda tmp: builtin_hatano_nelson(1.0, 1.0), 30),
    "reciprocal31-eigh": (lambda tmp: builtin_hatano_nelson(1.0, 1.0), 31),
    "nh-ssh20": (lambda tmp: builtin_nh_ssh(0.6, 1.0, 0.2), 20),
    "complex-file30": (_complex_chain, 30),
    "complex-file3": (_complex_chain, 3),
    "hn2": (lambda tmp: builtin_hatano_nelson(0.5, 1.0), 2),
    "hn3": (lambda tmp: builtin_hatano_nelson(0.5, 1.0), 3),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_crossover_rows_equal_a_build_per_member(tmp_path, family):
    from nhskin.realspace import _assemble

    make, N = FAMILIES[family]
    model = make(tmp_path)
    H0 = build(model, [N], OBC).matrix
    W = _assemble(model, (N,), np.ones(1), inner=0.0)
    e_obc = dense_spectrum(build(model, [N], OBC))
    want = []
    for eps in FAMILY_EPS:
        H = build(model, [N], Coupled(float(eps))).matrix
        # the member is the built matrix bit for bit
        assert (H0 + float(eps) * W).dtype == H.dtype
        assert (H0 + float(eps) * W).tobytes() == H.tobytes(), eps
        e = dense_spectrum(H)
        want.append(
            {
                "epsilon": float(eps),
                "distance": hausdorff_distance(e, e_obc),
                "max_imag": float(np.max(np.abs(e.imag))),
            }
        )
    assert boundary_crossover(model, N, FAMILY_EPS) == want


def test_reciprocal_families_take_both_hermitian_paths():
    import nhskin.spectral

    for N, solver in ((30, "chiral"), (31, "eigh")):
        H = build(builtin_hatano_nelson(1.0, 1.0), [N], Coupled(0.3)).matrix
        assert nhskin.spectral._gauged_eig(H, vectors=False)[4] == solver


def test_crossover_derives_two_pattern_parts(monkeypatch):
    # the open chain's and the family's, shared by all 25 rings
    import nhskin.spectral

    calls = []
    pattern = nhskin.spectral._pattern
    monkeypatch.setattr(nhskin.spectral, "_pattern", lambda H: calls.append(1) or pattern(H))
    boundary_crossover(builtin_hatano_nelson(0.5, 1.0), 40, np.logspace(-16, 0, 25))
    assert len(calls) == 2
    # a member whose wrap bond underflows (0.37 x 5e-324 == 0) derives its own
    calls.clear()
    boundary_crossover(builtin_hatano_nelson(0.37, 1.0), 40, [1e-3, 5e-324, 0.0])
    assert len(calls) == 4


def test_sensor_matches_a_build_per_size():
    model = builtin_nh_ssh(0.6, 1.0, 0.3)
    rows = sensor_sweep(model, 1e-4, [10, 14, 18])
    for row in rows:
        cells = row["N"] // 2
        e_obc = dense_spectrum(build(model, [cells], OBC))
        ref = e_obc[np.argmin(np.abs(e_obc))]
        e_c = dense_spectrum(build(model, [cells], Coupled(1e-4)))
        assert row["delta_E"] == float(abs(e_c[np.argmin(np.abs(e_c - ref))] - ref))
