import numpy as np
import pytest

from nhskin.errors import GapClosedError
from nhskin.localization import classify_spectrum
from nhskin.model import HoppingTerm, LatticeModel, builtin_hatano_nelson, builtin_nh_ssh
from nhskin.realspace import OBC, build
from nhskin.spectral import eig_biorthogonal
from nhskin.topology import (
    predict_skin_side,
    winding_map,
    winding_number,
)


def test_hn_winding_signs():
    assert winding_number(builtin_hatano_nelson(0.5, 1.0), 0.0).w == -1
    assert winding_number(builtin_hatano_nelson(1.0, 0.5), 0.0).w == 1


def test_raw_integral_close_to_integer():
    res = winding_number(builtin_hatano_nelson(0.5, 1.0), 0.2 + 0.1j)
    assert abs(res.raw_integral - res.w) < 1e-4


def test_base_outside_loop_winds_zero():
    # ellipse semiaxes are 1.5 (real) and 0.5 (imag): 3.0 and 1j lie outside
    assert winding_number(builtin_hatano_nelson(0.5, 1.0), 3.0).w == 0
    assert winding_number(builtin_hatano_nelson(0.5, 1.0), 1.0j).w == 0
    assert winding_number(builtin_hatano_nelson(0.5, 1.0), 0.3j).w == -1


@pytest.mark.parametrize("e_b", [0.0, 0.5, -0.5, 1.0, -1.0])
def test_gap_closing_raises(e_b):
    # every point of [-2, 2] lies on the Hermitian band; a k-sampled gap
    # test misses the crossings between its samples at all but E_B = 0
    with pytest.raises(GapClosedError):
        winding_number(builtin_hatano_nelson(1.0, 1.0), e_b)


def test_flat_band_closes_the_gap():
    # a decoupled orbital at 0.2 is a flat band: det[E_B - H(beta)] vanishes
    # for every beta at E_B = 0.2, next to a Hatano-Nelson band
    m = LatticeModel(1, 2, (
        HoppingTerm((0,), [[0.2, 0.0], [0.0, 0.0]]),
        HoppingTerm((1,), [[0.0, 0.0], [0.0, 0.5]]),
        HoppingTerm((-1,), [[0.0, 0.0], [0.0, 1.0]]),
    ))
    with pytest.raises(GapClosedError):
        winding_number(m, 0.2)
    assert winding_number(m, 0.0).w == -1


def test_winding_constant_inside_loop():
    # homotopy invariance: any base point inside the PBC ellipse gives the
    # same integer
    m = builtin_hatano_nelson(0.5, 1.0)
    for t in np.linspace(0, 2 * np.pi, 20, endpoint=False):
        e_b = 0.8 * np.cos(t) + 0.3j * np.sin(t)
        assert winding_number(m, e_b).w == -1


def test_swapping_hoppings_flips_sign():
    rng = np.random.default_rng(3)
    for _ in range(6):
        e_b = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.3, 0.3)
        a = winding_number(builtin_hatano_nelson(0.4, 1.1), e_b).w
        b = winding_number(builtin_hatano_nelson(1.1, 0.4), e_b).w
        assert a == -b == -1


def test_nh_ssh_winding_midgap_and_in_band():
    # at mid-gap the two chiral determinant factors wind oppositely and
    # cancel; a base point inside a band loop sees the net non-reciprocity
    m = builtin_nh_ssh(0.6, 1.0, 0.3)
    assert winding_number(m, 0.0).w == 0
    assert winding_number(m, 1.0).w == 1
    assert winding_number(m, -1.0).w == 1
    assert predict_skin_side(winding_number(m, 1.0)) == "left"


def test_predict_skin_side():
    assert predict_skin_side(-1) == "right"
    assert predict_skin_side(2) == "left"
    assert predict_skin_side(0) is None
    assert predict_skin_side(winding_number(builtin_hatano_nelson(0.5, 1.0), 0.0)) == "right"


def test_winding_agrees_with_localization_side():
    # the sign of w at a mid-spectrum base point predicts which edge the
    # right eigenvectors pile on; hopping ratio >= 1.5 keeps the decay
    # length well under the classifier's 10% edge window at N=30
    rng = np.random.default_rng(42)
    for _ in range(10):
        weak = rng.uniform(0.3, 1.0)
        strong = weak * rng.uniform(1.5, 2.5)
        jl, jr = (weak, strong) if rng.random() < 0.5 else (strong, weak)
        m = builtin_hatano_nelson(jl, jr)
        w = winding_number(m, 0.0).w
        op = build(m, [30], OBC)
        cls = classify_spectrum(eig_biorthogonal(op), op)
        sides = cls.side[cls.label == "skin"].tolist()
        assert len(sides) > 15
        majority = max(set(sides), key=sides.count)
        assert predict_skin_side(w) == majority


def map_rows(model, re_range, im_range, resolution):
    """The map's columns as rows (Re E_B, Im E_B, w), w blank where the gap closes."""
    columns = winding_map(model, re_range, im_range, resolution=resolution)
    assert len({len(c) for c in columns}) == 1
    return [
        (re, im, "" if np.isnan(w) else int(w)) for re, im, w in zip(*(c.tolist() for c in columns))
    ]


def test_winding_map_blanks_closed_gaps():
    re, im, w = winding_map(builtin_hatano_nelson(1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5), resolution=5)
    assert len(re) == len(im) == len(w) == 25
    closed = np.isnan(w)
    assert closed.any()  # real-axis base points touch the Hermitian band
    assert (w[~closed] == np.round(w[~closed])).all()


def test_winding_map_hn_interior():
    rows = map_rows(builtin_hatano_nelson(0.5, 1.0), (-0.5, 0.5), (-0.2, 0.2), 3)
    assert all(r[2] == -1 for r in rows)


def test_winding_map_counts_bisected_points():
    # the points an earlier k-grid phase sum had to bisect are the open ones
    # whose nearest characteristic root lies within 0.01 of |beta| = 1
    def near_band(model, re_range, im_range, resolution):
        return sum(
            winding_number(model, complex(re, im)).root_margin < 0.01
            for re, im, w in map_rows(model, re_range, im_range, resolution)
            if w != ""
        )

    m = builtin_nh_ssh(0.6, 1.0, 0.2)
    assert near_band(m, (-1.7, 1.7), (-0.4, 0.4), 12) > 0
    assert near_band(m, (-0.2, 0.2), (-0.2, 0.2), 3) == 0
    # exactly the five real-axis base points touch the Hermitian band
    rows = map_rows(builtin_hatano_nelson(1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5), 5)
    assert [r[:2] for r in rows if r[2] == ""] == [(x, 0.0) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]


# (model, E_B, w, raw_integral, k_used) recorded with an earlier
# implementation that counted the phase of det[H(k) - E_B] on a k-grid it
# bisected near the bands; k_used is the grid it ended with, so the last four
# points lie close to a band
RECORDED = [
    (builtin_hatano_nelson(0.5, 1.0), 0.0, -1, -1.0, 257),
    (builtin_hatano_nelson(1.0, 0.5), 0.0, 1, 1.0, 257),
    (builtin_hatano_nelson(0.5, 1.0), 0.2 + 0.1j, -1, -1.0, 257),
    (builtin_hatano_nelson(0.5, 1.0), 3.0, 0, 1.766974823035287e-17, 257),
    (builtin_hatano_nelson(0.5, 1.0), 1.0j, 0, 3.533949646070574e-17, 257),
    (builtin_hatano_nelson(0.5, 1.0), 0.3j, -1, -1.0, 257),
    (builtin_nh_ssh(0.6, 1.0, 0.3), 0.0, 0, 3.5781240166464566e-16, 257),
    (builtin_nh_ssh(0.6, 1.0, 0.3), 1.0, 1, 1.0, 257),
    (builtin_nh_ssh(0.6, 1.0, 0.3), -1.0, 1, 1.0, 257),
    (builtin_hatano_nelson(0.5, 1.0), 1.5 + 0.0125j, 0, 1.0601848938211722e-16, 261),
    (builtin_hatano_nelson(0.5, 1.0), 1.4875 + 0.05j, -1, -1.0, 258),
    (builtin_nh_ssh(0.6, 1.0, 0.2), 1.08 + 0.18j, 1, 0.9999999999999999, 259),
    (builtin_nh_ssh(0.6, 1.0, 0.2), 0.46 - 0.145j, 1, 1.0, 260),
]


@pytest.mark.parametrize("model, e_b, w, raw, k_used", RECORDED)
def test_winding_number_matches_recorded_values(model, e_b, w, raw, k_used):
    res = winding_number(model, e_b)
    assert (res.w, res.E_B) == (w, complex(e_b))
    assert res.raw_integral == pytest.approx(raw, abs=1e-15)
    assert res.root_margin > 1e-6
    # only the points the bisection had to refine lie within 0.01 of closing the gap
    assert (res.root_margin < 0.01) == (k_used > 257)


def reference_map(model, re_range, im_range, resolution):
    """The map as one winding_number call per base point."""
    rows = []
    for re in np.linspace(*re_range, resolution):
        for im in np.linspace(*im_range, resolution):
            try:
                rows.append((float(re), float(im), winding_number(model, complex(re, im)).w))
            except GapClosedError:
                rows.append((float(re), float(im), ""))
    return rows


def phase_sum_winding(kind, params, E_B):
    """Winding of det[H(k) - E_B] and the least band distance for each base
    point, from closed-form bands and the phase on 8192 k; numpy only."""
    ks = np.linspace(-np.pi, np.pi, 8193)
    if kind == "hn":
        jl, jr = params
        bands = (jl * np.exp(1j * ks) + jr * np.exp(-1j * ks))[:, None]
    else:
        t1, t2, g = params
        root = np.sqrt((t1 + g + t2 * np.exp(-1j * ks)) * (t1 - g + t2 * np.exp(1j * ks)))
        bands = np.stack([root, -root], axis=1)
    diff = bands[None] - np.asarray(E_B)[:, None, None]
    det = diff.prod(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):  # base points on a band sample
        w = np.angle(det[:, 1:] / det[:, :-1]).sum(axis=1) / (2 * np.pi)
    return np.rint(w), np.abs(diff).min(axis=(1, 2))


BUILD = {"hn": builtin_hatano_nelson, "ssh": builtin_nh_ssh}
MAP_CASES = pytest.mark.parametrize(
    "kind, params, re_range, im_range, resolution",
    [
        ("hn", (0.5, 1.0), (-2.0, 2.0), (-2.0, 2.0), 7),
        # Hermitian: the real-axis row touches the band and stays blank
        ("hn", (1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5), 5),
        # the window crosses both band loops
        ("ssh", (0.6, 1.0, 0.2), (-1.7, 1.7), (-0.4, 0.4), 12),
        # 144 points near the edge of the band loop
        ("hn", (0.5, 1.0), (1.4, 1.6), (-0.1, 0.1), 12),
        # one-way hopping, span (-1, 0): the leading coefficient vanishes at E_B = 0
        ("hn", (0.0, 1.0), (-2.0, 2.0), (-2.0, 2.0), 9),
        # t1 = gamma, span (0, 1): the trailing coefficient vanishes at E_B = +-1
        ("ssh", (0.5, 1.0, 0.5), (-2.0, 2.0), (-2.0, 2.0), 9),
    ],
    ids=["hn", "hn-hermitian", "nh-ssh-bisected", "hn-many-chunks", "hn-one-way", "nh-ssh-one-way"],
)


@MAP_CASES
def test_winding_map_equals_per_point_loop(kind, params, re_range, im_range, resolution):
    model = BUILD[kind](*params)
    rows = map_rows(model, re_range, im_range, resolution)
    assert rows == reference_map(model, re_range, im_range, resolution)


@MAP_CASES
def test_winding_map_agrees_with_phase_sum(kind, params, re_range, im_range, resolution):
    rows = map_rows(BUILD[kind](*params), re_range, im_range, resolution)
    w, dist = phase_sum_winding(kind, params, [complex(re, im) for re, im, _ in rows])
    far = dist > 0.02
    assert far.sum() > resolution
    assert [r[2] for r, f in zip(rows, far) if f] == list(w[far].astype(int))
    assert not far[[r[2] == "" for r in rows]].any()  # blanks lie on a band
