import numpy as np
import pytest

from nhskin.errors import DegenerateCharPolyError
from nhskin.model import builtin_hatano_nelson, builtin_nh_ssh
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
    assert len(samples) == 200  # two degenerate roots per refined seed
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
