import json
from pathlib import Path

import numpy as np
import pytest

from nhskin.errors import ModelFormatError
from nhskin.model import (
    CharPoly,
    HoppingTerm,
    LatticeModel,
    _char_roots,
    _quadratic_moduli,
    bloch_samples,
    builtin_2d,
    builtin_hatano_nelson,
    builtin_nh_ssh,
    char_poly,
    load_model,
    model_from_dict,
)


def bloch(model, k):
    """Reference Bloch matrix H(k) = sum_Delta A_Delta e^{i k.Delta}, one k at a time."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    H = np.zeros((model.bands, model.bands), dtype=complex)
    for t in model.terms:
        H += t.amplitude * np.exp(1j * float(np.dot(kv, t.offset)))
    return H


def nonbloch(model, beta):
    """Reference analytic continuation H(beta) = sum_Delta A_Delta prod_i beta_i^Delta_i."""
    bv = np.atleast_1d(np.asarray(beta, dtype=complex))
    H = np.zeros((model.bands, model.bands), dtype=complex)
    for t in model.terms:
        H += t.amplitude * np.prod(bv ** np.array(t.offset))
    return H


def test_hn_bloch_values():
    m = builtin_hatano_nelson(0.5, 1.0)
    h0, h1 = bloch_samples(m, [0.0, np.pi / 2])[:, 0, 0]
    assert h0 == pytest.approx(1.5)
    assert h1 == pytest.approx(-0.5j)


def test_hn_dispersion_formula():
    jl, jr = 0.7, 1.3
    m = builtin_hatano_nelson(jl, jr)
    ks = np.linspace(-np.pi, np.pi, 257)
    e = bloch_samples(m, ks)[:, 0, 0]
    ref = (jl + jr) * np.cos(ks) + 1j * (jl - jr) * np.sin(ks)
    np.testing.assert_allclose(e, ref, atol=1e-14)


def test_hermitian_hn_is_cosine_band():
    m = builtin_hatano_nelson(1.0, 1.0)
    ks = np.array([0.0, 0.3, 2.0])
    assert bloch_samples(m, ks)[:, 0, 0] == pytest.approx(2 * np.cos(ks))


def test_nh_ssh_bloch_entries():
    m = builtin_nh_ssh(1.0, 1.0, 0.5)
    ks = (0.0, 0.7, -1.9)
    for k, h in zip(ks, bloch_samples(m, ks)):
        assert h[0, 1] == pytest.approx(1.5 + np.exp(-1j * k))
        assert h[1, 0] == pytest.approx(0.5 + np.exp(1j * k))
        assert h[0, 0] == h[1, 1] == 0
        # determinant of an off-diagonal 2x2 is minus the factor product
        assert np.linalg.det(h) == pytest.approx(-(1.5 + np.exp(-1j * k)) * (0.5 + np.exp(1j * k)))


def test_nh_ssh_hermitian_at_gamma_zero():
    m = builtin_nh_ssh(1.0, 1.0, 0.0)
    for h in bloch_samples(m, [0.1, 1.2]):
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)


def test_builtin_2d_offsets():
    m = builtin_2d(0.5, 1.0, 0.2)
    amps = {t.offset: t.amplitude[0, 0] for t in m.terms}
    assert amps[(1, 0)] == 0.5 and amps[(0, -1)] == 0.5
    assert amps[(-1, 0)] == 1.0 and amps[(0, 1)] == 1.0
    for off in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert amps[off] == 0.2
    assert len(amps) == 8


def test_duplicate_offsets_merge():
    t = [
        HoppingTerm(offset=(1,), amplitude=np.array([[0.25]])),
        HoppingTerm(offset=(1,), amplitude=np.array([[0.25]])),
        HoppingTerm(offset=(-1,), amplitude=np.array([[1.0]])),
    ]
    m = LatticeModel(dimension=1, bands=1, terms=t)
    assert len(m.terms) == 2
    assert bloch_samples(m, [0.0])[0, 0, 0] == pytest.approx(1.5)


def test_all_zero_model_rejected():
    t = [HoppingTerm(offset=(1,), amplitude=np.array([[0.0]]))]
    with pytest.raises(ModelFormatError):
        LatticeModel(dimension=1, bands=1, terms=t)


def test_amplitude_shape_must_match_bands():
    with pytest.raises(ModelFormatError):
        LatticeModel(
            dimension=1,
            bands=2,
            terms=[HoppingTerm(offset=(1,), amplitude=np.array([[1.0]]))],
        )


def test_nonbloch_at_unit_beta_matches_bloch():
    m = builtin_nh_ssh(0.6, 1.0, 0.3)
    ks = (0.0, 0.9)
    for k, h in zip(ks, bloch_samples(m, ks)):
        np.testing.assert_allclose(nonbloch(m, [np.exp(1j * k)]), h, atol=1e-14)


def test_bloch_samples_batches_match_single():
    m = builtin_nh_ssh(0.6, 1.0, 0.3)
    ks = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    batch = bloch_samples(m, ks)
    for i, k in enumerate(ks):
        np.testing.assert_allclose(batch[i], bloch(m, k), atol=1e-14)


def test_char_poly_hn_coefficients():
    m = builtin_hatano_nelson(0.5, 1.0)
    cp = char_poly(m)
    # rows are powers of E, columns beta^-1, beta^0, beta^1
    assert cp.lo == (-1,)
    np.testing.assert_array_equal(cp.coeffs, [[-1.0, 0.0, -0.5], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(cp.at(2.0 + 1.0j), [-1.0, 2.0 + 1.0j, -0.5], atol=1e-15)


@pytest.mark.parametrize(
    "model",
    [
        builtin_hatano_nelson(0.5, 1.0),
        builtin_nh_ssh(0.6, 1.0, 0.3),
        builtin_2d(0.5, 1.0, 0.2),
    ],
)
def test_char_poly_evaluates_to_determinant(model):
    rng = np.random.default_rng(7)
    E = 0.37 - 0.21j
    cp = char_poly(model)
    C = cp.at(E)
    for _ in range(5):
        beta = np.exp(rng.normal(size=model.dimension) + 1j * rng.uniform(0, 2 * np.pi, model.dimension))
        value = C
        for v in reversed(range(model.dimension)):
            value = value @ beta[v] ** (np.arange(C.shape[v]) + cp.lo[v])
        direct = np.linalg.det(E * np.eye(model.bands) - nonbloch(model, beta))
        assert complex(value) == pytest.approx(direct, abs=1e-10)


def test_char_poly_is_a_charpoly_instance():
    cp = char_poly(builtin_2d(0.5, 1.0, 0.2))
    assert isinstance(cp, CharPoly)
    assert cp.coeffs.shape == (2, 3, 3)  # E^0..E^1, beta_x^-1..1, beta_y^-1..1
    assert cp.span(1) == (-1, 1)
    assert cp.at([0.1, 0.2, 0.3]).shape == (3, 3, 3)


def test_char_poly_span_is_exact_for_longer_range():
    m = LatticeModel(
        dimension=1,
        bands=1,
        terms=(HoppingTerm((2,), [[0.3]]), HoppingTerm((-2,), [[0.7]])),
    )
    cp = char_poly(m)
    assert cp.span(0) == (-2, 2)
    np.testing.assert_allclose(cp.at(0.5), [-0.7, 0.0, 0.5, 0.0, -0.3], atol=1e-15)


def test_char_roots_encode_vanishing_end_coefficients():
    # rows of sum_j c_j x^j: a vanishing leading coefficient is a root at inf,
    # a vanishing trailing one a root at exactly 0, an all-vanishing row nan
    c = np.array([
        [2.0, -3.0, 1.0],      # (x - 1)(x - 2)
        [2.0, 1.0, 1e-14],     # 1 + x/2 = 0 and inf
        [1e-13, -3.0, 1.0],    # 0 and 3
        [0.0, 5.0, 0.0],       # 0 and inf
        [0.0, 0.0, 0.0],
    ], dtype=complex)
    roots = _char_roots(c)
    assert roots.shape == (5, 2)
    np.testing.assert_allclose(np.sort_complex(roots[0]), [1.0, 2.0], atol=1e-14)
    assert roots[1, 1] == np.inf and roots[1, 0] == pytest.approx(-2.0)
    assert roots[2, 1] == 0 and roots[2, 0] == pytest.approx(3.0)
    assert list(roots[3]) == [0, np.inf]
    assert np.isnan(roots[4]).all()
    # a batch without vanishing ends is one companion solve, row for row the same
    np.testing.assert_array_equal(_char_roots(c[:1]), roots[:1])
    # a constant has no finite root: one at inf, nan where it vanishes
    const = _char_roots(np.array([[3.0], [0.0]]))
    assert const.shape == (2, 1) and const[0, 0] == np.inf and np.isnan(const[1, 0])


def test_quadratic_moduli_match_char_roots():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
    c *= 10.0 ** rng.uniform(-3, 3, size=(500, 1))
    got = np.stack(_quadratic_moduli(*c.T), axis=-1)
    ref = np.sort(np.abs(_char_roots(c)), axis=-1)
    assert np.max(np.abs(got - ref) / ref) < 1e-13
    # the batch shape is kept, so an amoeba's (columns, phases) block passes as is
    small, large = _quadratic_moduli(*np.moveaxis(c.reshape(20, 25, 3), -1, 0))
    assert small.shape == large.shape == (20, 25)


def test_quadratic_moduli_keep_the_small_root_under_cancellation():
    # 1 + 1e8 x + x^2: the naive (-b + sqrt(b^2 - 4ac)) / 2a gives 0 or a few
    # digits of the small root -1e-8 - 1e-24
    small, large = _quadratic_moduli(*np.array([1.0, 1e8, 1.0], dtype=complex))
    assert abs(small - (1e-8 + 1e-24)) <= 1e-15 * (1e-8 + 1e-24)
    assert abs(large - 1e8) <= 1e-15 * 1e8


def test_quadratic_moduli_double_root():
    # (x - 1.5 - 0.5i)^2: the discriminant is exactly zero
    r = 1.5 + 0.5j
    moduli = _quadratic_moduli(*np.array([r * r, -2 * r, 1.0]))
    np.testing.assert_allclose(moduli, [abs(r), abs(r)], rtol=1e-15)


def test_quadratic_moduli_encode_vanishing_end_coefficients():
    # the same rows as test_char_roots_encode_vanishing_end_coefficients,
    # mixed with ordinary rows so only some rows take the general solver
    c = np.array([
        [2.0, -3.0, 1.0],
        [2.0, 1.0, 1e-14],     # vanishing leading: inf
        [1e-13, -3.0, 1.0],    # vanishing trailing: 0
        [0.0, 5.0, 0.0],       # both
        [0.0, 0.0, 0.0],       # every coefficient: nan
        [1.0, 0.0, -4.0],
    ], dtype=complex)
    got = np.stack(_quadratic_moduli(*c.T), axis=-1)
    ref = np.sort(np.abs(_char_roots(c)), axis=-1)
    np.testing.assert_array_equal(got[1:5], ref[1:5])
    np.testing.assert_allclose(got[[0, 5]], ref[[0, 5]], rtol=1e-15)
    assert got[1, 1] == np.inf and got[2, 0] == 0 and got[3].tolist() == [0, np.inf]
    assert np.isnan(got[4]).all()


# the README's example model file: Hatano-Nelson with J_L = 0.5, J_R = 1.0
README_MODEL = """{
  "dimension": 1,
  "bands": 1,
  "terms": [
    {"offset": [1],  "amplitude": [[{"re": 0.5, "im": 0.0}]]},
    {"offset": [-1], "amplitude": [[{"re": 1.0, "im": 0.0}]]}
  ],
  "name": "my-chain"
}
"""


def test_json_round_trip(tmp_path):
    doc = json.loads(README_MODEL)
    doc["terms"][0]["amplitude"][0][0]["im"] = 0.25
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    assert (m.dimension, m.bands, m.name) == (1, 1, "my-chain")
    assert [t.offset for t in m.terms] == [(-1,), (1,)]  # sorted by offset
    assert [complex(t.amplitude[0, 0]) for t in m.terms] == [1.0, 0.5 + 0.25j]


def test_json_schema_shape():
    # the README documents the schema the loader reads
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == json.loads(README_MODEL)
    assert model_from_dict(json.loads(block)).terms == builtin_hatano_nelson(0.5, 1.0).terms


def test_loader_reports_term_index():
    doc = json.loads(README_MODEL)
    doc["terms"][1]["offset"] = [1, 2]
    with pytest.raises(ModelFormatError, match=r"terms\[1\]"):
        model_from_dict(doc)


def test_loader_rejects_bad_dimension():
    # JSON true and false are Python bools, an int subclass: true would load as 1
    # a dimension outside 1, 2 is named as such, before the offsets are read
    not_int, not_1_2 = "dimension must be an integer", "dimension must be 1 or 2"
    for value, error in ((3, not_1_2), (0, not_1_2), (True, not_int), (False, not_int)):
        doc = json.loads(README_MODEL)
        doc["dimension"] = value
        with pytest.raises(ModelFormatError, match=error):
            model_from_dict(doc)


def test_loader_rejects_non_integer_bands():
    for value in (1.5, "1", True, False):
        doc = json.loads(README_MODEL)
        doc["bands"] = value
        with pytest.raises(ModelFormatError, match="bands must be an integer"):
            model_from_dict(doc)


def test_loader_rejects_non_integer_offsets():
    # an offset [true] would load as (1,), [false] as the on-site (0,)
    for value in (0.5, "1", True, False):
        doc = json.loads(README_MODEL)
        doc["terms"][0]["offset"] = [value]
        with pytest.raises(ModelFormatError, match=r"terms\[0\]\.offset"):
            model_from_dict(doc)


def test_loader_rejects_ragged_amplitude():
    doc = json.loads(README_MODEL)
    doc["terms"][0]["amplitude"][0] = []
    with pytest.raises(ModelFormatError, match=r"terms\[0\]"):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "huge-int"]
)
def test_loader_rejects_non_finite_amplitude(value):
    doc = json.loads(README_MODEL)
    doc["terms"][1]["amplitude"][0][0]["im"] = value
    with pytest.raises(ModelFormatError, match="finite"):
        model_from_dict(doc)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize(
    "value",
    [None, "x", "0.5", True, False, [1], {}],
    ids=["null", "string", "numeric-string", "true", "false", "list", "object"],
)
def test_loader_rejects_non_numeric_amplitude(part, value):
    doc = json.loads(README_MODEL)
    doc["terms"][1]["amplitude"][0][0][part] = value
    with pytest.raises(ModelFormatError, match=r"terms\[1\]\.amplitude\[0\]\[0\]"):
        model_from_dict(doc)
