import subprocess
import sys

import numpy as np
import pytest

from nhskin.errors import DegenerateCharPolyError, SamplingError
from nhskin.model import HoppingTerm, LatticeModel, builtin_hatano_nelson, builtin_nh_ssh
from nhskin.nonbloch import GBZSample, beta_roots, export_gbz_csv, gbz_curve, gbz_membership
from nhskin.realspace import OBC, build
from nhskin.spectral import dense_spectrum


def test_hn_roots_at_zero_energy():
    roots = beta_roots(builtin_hatano_nelson(0.5, 1.0), 0.0)
    # 0.5 b^2 + 1 = 0 up to sign
    np.testing.assert_allclose(sorted(np.abs(roots)), [np.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(roots[0], -1j * np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(roots[1], 1j * np.sqrt(2), atol=1e-12)


def test_root_product_is_hopping_ratio():
    # Vieta on the cleared quadratic: the two roots multiply to J_R/J_L
    m = builtin_hatano_nelson(0.5, 1.0)
    for e in (0.0, 0.3, 1.0 + 0.4j, -2.7):
        roots = beta_roots(m, e)
        assert np.prod(roots) == pytest.approx(2.0, abs=1e-10)


def test_array_of_energies_gives_the_scalar_rows():
    energies = np.array([0.0, 0.3, 1.0 + 0.4j, -2.7, 0.5 - 0.05j])
    for m in (builtin_hatano_nelson(0.5, 1.0), builtin_nh_ssh(0.6, 1.0, 0.3)):
        rows = beta_roots(m, energies)
        assert rows.shape == (len(energies), 2)
        for E, row in zip(energies, rows):
            np.testing.assert_array_equal(row, beta_roots(m, E))


def test_one_way_hopping_has_no_roots():
    with pytest.raises(DegenerateCharPolyError):
        beta_roots(builtin_hatano_nelson(0.0, 1.0), 0.3)


def test_membership_inside_and_outside_band():
    m = builtin_hatano_nelson(0.5, 1.0)
    half_width = 2 * np.sqrt(0.5)
    assert gbz_membership(m, 0.7)["member"]
    assert gbz_membership(m, -0.99 * half_width)["member"]
    assert not gbz_membership(m, 1.01 * half_width)["member"]
    assert not gbz_membership(m, 0.5 + 0.2j)["member"]


def test_membership_residual_grows_off_curve():
    m = builtin_hatano_nelson(0.5, 1.0)
    r0 = gbz_membership(m, 0.5)["residual"]
    r1 = gbz_membership(m, 0.5 + 0.05j)["residual"]
    r2 = gbz_membership(m, 0.5 + 0.2j)["residual"]
    assert r0 < 1e-12 < r1 < r2


def test_hermitian_curve_is_bloch_circle():
    samples = gbz_curve(builtin_hatano_nelson(1.0, 1.0), N_seed=120)
    mods = np.array([abs(s.beta) for s in samples])
    assert np.abs(mods - 1).max() < 1e-6
    assert {s.side for s in samples} == {"bloch"}


def test_hn_curve_radius_and_side():
    samples = gbz_curve(builtin_hatano_nelson(0.5, 1.0), N_seed=100)
    assert len(samples) == 200  # both roots of the degenerate pair per theta sample
    mods = np.array([abs(s.beta) for s in samples])
    np.testing.assert_allclose(mods, np.sqrt(2.0), atol=1e-8)
    assert {s.side for s in samples} == {"right"}
    for s in samples[:5]:
        assert isinstance(s, GBZSample)
        assert s.modulus_residual < 1e-6


def test_curve_energies_stay_near_obc_spectrum():
    samples = gbz_curve(builtin_hatano_nelson(0.5, 1.0), N_seed=100)
    ref = dense_spectrum(build(builtin_hatano_nelson(0.5, 1.0), [100], OBC))
    d = [np.abs(ref - s.energy).min() for s in samples]
    assert max(d) < 0.05


def chain(amplitudes):
    """One-band chain with the given hoppings at offsets +1, -1, +2, -2."""
    offsets = (1, -1, 2, -2)
    return LatticeModel(1, 1, tuple(HoppingTerm((o,), [[a]]) for o, a in zip(offsets, amplitudes)))


# the next-nearest-neighbour cycles of FLUX_CHAIN carry imaginary flux;
# COMPLEX_CHAIN has |t_1|^2 |t_-2| = |t_-1|^2 |t_2| and a complex t_-2
FLUX_CHAIN = chain([0.5, 1.0, 0.2, 0.1])
COMPLEX_CHAIN = chain([1.0, 0.8, 0.3, 0.192 * np.exp(0.7j)])


def test_refined_seeds_are_kept():
    # every resultant root of this chain lands on the zone after its Newton step
    samples = gbz_curve(COMPLEX_CHAIN, N_seed=50)
    assert len(samples) == 100
    assert max(s.modulus_residual for s in samples) < 1e-10


@pytest.mark.parametrize("model", [FLUX_CHAIN, COMPLEX_CHAIN], ids=["flux", "complex"])
def test_longer_range_chains_give_a_curve_at_every_size(model):
    for N_seed in (50, 100, 200, 400):
        samples = gbz_curve(model, N_seed=N_seed)
        assert len(samples) >= N_seed
        assert max(s.modulus_residual for s in samples) < 1e-10
    # the finite chain's spectrum lies within O(1/N) of the curve
    energies = np.array([s.energy for s in samples])
    dense = dense_spectrum(build(model, [40], OBC))
    assert np.abs(dense[:, None] - energies[None, :]).min(axis=1).max() < 0.05


def test_hn_energies_are_the_finite_chain_eigenvalues():
    N, jl, jr = 37, 0.5, 1.0
    samples = gbz_curve(builtin_hatano_nelson(jl, jr), N_seed=N)
    exact = 2 * np.sqrt(jl * jr) * np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
    got = np.sort([s.energy.real for s in samples])
    np.testing.assert_allclose(got, np.sort(np.repeat(exact, 2)), atol=1e-12)
    assert max(abs(s.energy.imag) for s in samples) < 1e-12


def test_nh_ssh_double_roots_are_polished_and_take_both_energies():
    # the resultant of this chiral chain is a perfect square; the Newton
    # step restores the digits its double roots lose, and the two copies of
    # each take the two energies +E and -E they share
    samples = gbz_curve(builtin_nh_ssh(0.6, 1.0, 0.2), N_seed=30)
    assert len(samples) == 120
    beta = np.array([s.beta for s in samples])
    energy = np.array([s.energy for s in samples])
    np.testing.assert_allclose(np.abs(beta), np.sqrt(0.4 / 0.8), rtol=0, atol=1e-10)
    pairs = np.round(np.stack([beta.real, beta.imag, energy.real], axis=1), 9)
    assert len(np.unique(pairs, axis=0)) == 120
    np.testing.assert_allclose(np.sort(energy.real), -np.sort(energy.real)[::-1], atol=1e-12)


def test_curve_refuses_an_empty_theta_grid_and_a_flat_band():
    with pytest.raises(SamplingError):
        gbz_curve(builtin_hatano_nelson(0.5, 1.0), N_seed=0)
    # a flat band is shared by f(beta, .) and f(beta e^{i theta}, .) at every
    # beta, so the resultant vanishes identically
    flat = LatticeModel(1, 2, (
        HoppingTerm((0,), [[0.0, 0.0], [0.0, 0.3]]),
        HoppingTerm((1,), [[0.5, 0.0], [0.0, 0.0]]),
        HoppingTerm((-1,), [[1.0, 0.0], [0.0, 0.0]]),
    ))
    with pytest.raises(SamplingError):
        gbz_curve(flat, N_seed=20)


def test_gbz_command_leaves_scipy_optimize_and_linalg_unloaded(tmp_path):
    args = ["gbz", "--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2",
            "-N", "20", "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from nhskin.cli import main\n"
        f"assert main({args!r}) == 0\n"
        "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False False"


def test_nh_ssh_roots_on_spectrum_degenerate():
    m = builtin_nh_ssh(0.6, 1.0, 0.3)
    ev = dense_spectrum(build(m, [30], OBC))
    bulk = ev[np.argsort(np.abs(ev))[6]]  # away from the end-state pair
    roots = beta_roots(m, bulk)
    assert len(roots) == 2
    # chain is flux-free, so the bulk spectrum is real and the two roots
    # share the fixed modulus sqrt((t1-gamma)/(t1+gamma))
    r = np.sqrt((0.6 - 0.3) / (0.6 + 0.3))
    np.testing.assert_allclose(np.abs(roots), r, atol=1e-8)


def test_end_state_energy_not_a_bulk_member():
    m = builtin_nh_ssh(0.6, 1.0, 0.3)
    assert not gbz_membership(m, 0.0)["member"]  # mid-gap
    assert gbz_membership(m, 1.0)["member"]  # inside a band


def test_membership_verdicts_across_the_plane():
    # the open-boundary set of this chain is the real segment
    # |E| <= 2 sqrt(J_L J_R); sample on and off it
    m = builtin_hatano_nelson(0.5, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        if rng.uniform() < 0.5:
            e = complex(rng.uniform(-1.3, 1.3))
            assert gbz_membership(m, e)["member"]
        else:
            e = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
            assert not gbz_membership(m, e)["member"]


def test_gbz_csv(tmp_path):
    samples = gbz_curve(builtin_hatano_nelson(0.5, 1.0), N_seed=50)
    path = tmp_path / "gbz.csv"
    export_gbz_csv(path, samples)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_beta,im_beta,re_e,im_e,residual,side"
    assert len(lines) == len(samples) + 1
