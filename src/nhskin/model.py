"""Tight-binding lattice models as Laurent-polynomial matrix functions.

A model is a finite list of hopping terms: an integer unit-cell offset Delta
together with a BxB amplitude matrix A_Delta (the coefficient of
c^dag_n c_{n+Delta}).  The Bloch matrix is H(k) = sum_Delta A_Delta e^{i k.Delta}
and its analytic continuation replaces e^{ik_i} by a general nonzero complex
beta_i.  Sign convention is fixed so the asymmetric-hopping chain built by
``builtin_hatano_nelson`` has dispersion (J_L+J_R) cos k + i (J_L-J_R) sin k.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ModelFormatError

Offset = Tuple[int, ...]


@dataclass(frozen=True)
class HoppingTerm:
    """One hopping term: unit-cell displacement plus BxB amplitude block."""

    offset: Offset
    amplitude: np.ndarray

    def __post_init__(self):
        off = tuple(int(x) for x in self.offset)
        amp = np.array(self.amplitude, dtype=complex)
        if amp.ndim != 2 or amp.shape[0] != amp.shape[1]:
            raise ModelFormatError(f"amplitude for offset {off} must be a square matrix")
        if not np.isfinite(amp).all():
            raise ModelFormatError(f"amplitude for offset {off} must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "amplitude", amp)

    @property
    def bands(self) -> int:
        return self.amplitude.shape[0]


@dataclass(frozen=True)
class LatticeModel:
    """Immutable lattice model; duplicate offsets are merged by summation."""

    dimension: int
    bands: int
    terms: Tuple[HoppingTerm, ...]
    name: Optional[str] = None

    def __post_init__(self):
        d, B = int(self.dimension), int(self.bands)
        if d not in (1, 2):
            raise ModelFormatError(f"dimension must be 1 or 2, got {d}")
        if B < 1:
            raise ModelFormatError(f"bands must be >= 1, got {B}")
        merged: Dict[Offset, np.ndarray] = {}
        for i, t in enumerate(self.terms):
            if not isinstance(t, HoppingTerm):
                t = HoppingTerm(*t)
            if len(t.offset) != d:
                raise ModelFormatError(
                    f"terms[{i}]: offset length {len(t.offset)} != dimension {d}"
                )
            if t.bands != B:
                raise ModelFormatError(
                    f"terms[{i}]: amplitude is {t.bands}x{t.bands}, expected {B}x{B}"
                )
            if t.offset in merged:
                merged[t.offset] = merged[t.offset] + t.amplitude
            else:
                merged[t.offset] = np.array(t.amplitude)
        clean = tuple(
            HoppingTerm(off, amp) for off, amp in sorted(merged.items())
        )
        if not clean or all(np.all(t.amplitude == 0) for t in clean):
            raise ModelFormatError("model has no nonzero hopping term")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "bands", B)
        object.__setattr__(self, "terms", clean)


# ------------------------------------------------------------------ built-ins


def builtin_hatano_nelson(J_L: float, J_R: float) -> LatticeModel:
    """Single-band chain with asymmetric nearest-neighbour hopping.

    J_L multiplies the +1 offset (hop to the left on the bra side), J_R the
    -1 offset.  J_L = J_R is simply the Hermitian chain.
    """
    return LatticeModel(
        dimension=1,
        bands=1,
        terms=(
            HoppingTerm((1,), [[J_L]]),
            HoppingTerm((-1,), [[J_R]]),
        ),
        name="hatano-nelson",
    )


def builtin_nh_ssh(t1: float, t2: float, gamma: float) -> LatticeModel:
    """Two-band chain: asymmetric intra-cell bond t1 +/- gamma, Hermitian
    inter-cell bond t2 connecting B_n with A_{n+1}."""
    return LatticeModel(
        dimension=1,
        bands=2,
        terms=(
            HoppingTerm((0,), [[0.0, t1 + gamma], [t1 - gamma, 0.0]]),
            HoppingTerm((1,), [[0.0, 0.0], [t2, 0.0]]),
            HoppingTerm((-1,), [[0.0, t2], [0.0, 0.0]]),
        ),
        name="nh-ssh",
    )


def builtin_2d(J_L: float, J_R: float, tp: float) -> LatticeModel:
    """Single-band square lattice: opposite hopping asymmetry along x and y
    (J_L at (+1,0) and (0,-1); J_R at (-1,0) and (0,+1)) plus symmetric
    diagonal hopping tp on all four diagonals."""
    terms = [
        HoppingTerm((1, 0), [[J_L]]),
        HoppingTerm((0, -1), [[J_L]]),
        HoppingTerm((-1, 0), [[J_R]]),
        HoppingTerm((0, 1), [[J_R]]),
    ]
    for off in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        terms.append(HoppingTerm(off, [[tp]]))
    return LatticeModel(dimension=2, bands=1, terms=tuple(terms), name="asym2d")


# ------------------------------------------------------------------ evaluation


def bloch(model: LatticeModel, k) -> np.ndarray:
    """Bloch matrix H(k) = sum_Delta A_Delta e^{i k.Delta}; 2pi-periodic."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.shape != (model.dimension,):
        raise ValueError(
            f"k has shape {kv.shape}, model dimension is {model.dimension}"
        )
    H = np.zeros((model.bands, model.bands), dtype=complex)
    for t in model.terms:
        H += t.amplitude * np.exp(1j * float(np.dot(kv, t.offset)))
    return H


def nonbloch(model: LatticeModel, beta) -> np.ndarray:
    """Analytic continuation H(beta) = sum_Delta A_Delta prod_i beta_i^Delta_i."""
    bv = np.atleast_1d(np.asarray(beta, dtype=complex))
    if bv.shape != (model.dimension,):
        raise ValueError(
            f"beta has shape {bv.shape}, model dimension is {model.dimension}"
        )
    if np.any(bv == 0):
        raise ValueError("beta components must be nonzero (negative powers occur)")
    H = np.zeros((model.bands, model.bands), dtype=complex)
    for t in model.terms:
        H += t.amplitude * np.prod(bv ** np.array(t.offset))
    return H


def bloch_samples(model: LatticeModel, ks: np.ndarray) -> np.ndarray:
    """Vectorized Bloch matrices, shape (len(ks), B, B); ks is (n, d)."""
    ks = np.asarray(ks, dtype=float).reshape(-1, model.dimension)
    out = np.zeros((ks.shape[0], model.bands, model.bands), dtype=complex)
    for t in model.terms:
        phase = np.exp(1j * ks @ np.asarray(t.offset, dtype=float))
        out += phase[:, None, None] * t.amplitude
    return out


# -------------------------------------------------- characteristic polynomial


@dataclass(frozen=True)
class CharPoly:
    """det[E - H(beta)] as a dense coefficient tensor.

    coeffs[k, j_1, ..., j_d] is the coefficient of
    E^k beta_1^(j_1 + lo_1) ... beta_d^(j_d + lo_d); k runs over 0..B.  The
    tensor is as tight as its nonzero entries, so the outermost slices along
    each beta axis hold a nonzero coefficient.
    """

    coeffs: np.ndarray
    lo: Offset

    def span(self, var: int) -> Tuple[int, int]:
        """Exact (lowest, highest) exponent of beta_var over all energies."""
        axes = tuple(a for a in range(self.coeffs.ndim) if a != var + 1)
        nz = np.flatnonzero(np.any(self.coeffs, axis=axes))
        return self.lo[var] + int(nz[0]), self.lo[var] + int(nz[-1])

    def at(self, E) -> np.ndarray:
        """Beta-coefficient tensor at energy E, shape E.shape + beta axes.

        E is a scalar or an array of energies; entry [..., j] multiplies
        beta^(j + lo) as in `coeffs`.
        """
        E = np.asarray(E, dtype=complex)
        E = E.reshape(E.shape + (1,) * (self.coeffs.ndim - 1))
        out = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:  # Horner in E
            out = out * E + c
        return out


# end coefficients of a characteristic polynomial this small relative to its
# largest coefficient count as vanishing
_REL_COEFF_TOL = 1e-12


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of sum_j coeffs[..., j] x^j per leading index: eigenvalues of companion
    matrices in numpy.roots' layout.  The leading coefficient must be nonzero."""
    deg = coeffs.shape[-1] - 1
    comp = np.zeros(coeffs.shape[:-1] + (deg, deg), dtype=complex)
    comp[..., 1:, :-1] = np.eye(deg - 1)
    comp[..., 0, :] = -coeffs[..., deg - 1 :: -1] / coeffs[..., deg, None]
    return np.linalg.eigvals(comp)


def _vanishing(*mags: np.ndarray) -> List[np.ndarray]:
    """Masks of the coefficient magnitudes mags[j] within _REL_COEFF_TOL of
    the largest mags[j] of their row, one mask per j."""
    tol = _REL_COEFF_TOL * functools.reduce(np.maximum, mags)  # fast for short rows
    return [m <= tol for m in mags]


def _char_roots(coeffs: np.ndarray) -> np.ndarray:
    """The n = coeffs.shape[-1] - 1 roots of sum_j coeffs[..., j] x^j per leading index.

    A coefficient within _REL_COEFF_TOL of its row's largest vanishes.  Each
    vanishing leading one is a root at inf, each vanishing trailing one a root
    at exactly 0, and a row that vanishes entirely is nan; a constant (n = 0)
    is one root at inf, or nan.  Only rows with a vanishing end are trimmed and
    grouped.  Private, so traces charge the companion solve to the caller.
    """
    small = np.stack(_vanishing(*np.moveaxis(np.abs(coeffs), -1, 0)), axis=-1)
    n = coeffs.shape[-1] - 1
    if n == 0:
        return np.where(small, np.nan, np.inf).astype(complex)
    if not (small[..., 0] | small[..., -1]).any():
        del small  # held through the solve, it raises the peak RSS of an amoeba
        return _companion_roots(coeffs)
    c, small = coeffs.reshape(-1, n + 1), small.reshape(-1, n + 1)
    roots = np.full(c.shape[:1] + (n,), np.nan, dtype=complex)
    top, bot = small[:, ::-1].cumprod(axis=1).sum(axis=1), small.cumprod(axis=1).sum(axis=1)
    e = small[:, 0] | small[:, -1]
    for t, b in {(0, 0), *zip(top[e], bot[e])}:
        rows, d = (top == t) & (bot == b), n - t - b  # d < 0 where the row vanishes entirely
        if d >= 0 and rows.any():
            if d:
                roots[rows, :d] = _companion_roots(c[rows, b : n + 1 - t])
            roots[rows, d:] = [0.0] * b + [np.inf] * t
    return roots.reshape(coeffs.shape[:-1] + (n,))


def _quadratic_moduli(c: np.ndarray, b: np.ndarray, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger root modulus of c + b x + a x^2, per entry.

    q = -(b + s) / 2 where s = +-sqrt(b^2 - 4ac) takes the sign with
    Re(conj(b) s) >= 0, so b and s never cancel; the moduli are |q| / |a| and
    |c| / |q|.  Rows with a vanishing end coefficient take the moduli of their
    `_char_roots`, so a root at inf is inf, one at 0 is 0 and a row that
    vanishes entirely is nan in both.  Only the amoeba calls this: its ~10^5
    rows per energy are where a companion solve is slow, while the 1D callers
    (`beta_roots`, `topology._windings`, `gbz_curve`'s resultant) solve a few
    thousand rows per call, well under 10 ms, and keep the companion solve;
    the benchmark's `nonbloch.companion_solves` reads theirs.
    """
    mc, ma = np.abs(c), np.abs(a)
    small_c, _, small_a = _vanishing(mc, np.abs(b), ma)
    ends = small_c | small_a
    s = np.sqrt(b * b - 4 * a * c)
    mq = np.abs(b + np.where((b.conj() * s).real < 0, -s, s)) * 0.5
    with np.errstate(divide="ignore", invalid="ignore"):  # only in rows with a vanishing end
        m1, m2 = mq / ma, mc / mq
    if ends.any():
        m1[ends], m2[ends] = np.abs(_char_roots(np.stack((c[ends], b[ends], a[ends]), axis=-1))).T
    return np.minimum(m1, m2), np.maximum(m1, m2)


def _poly_mul(a: Dict[Offset, complex], b: Dict[Offset, complex]) -> Dict[Offset, complex]:
    out: Dict[Offset, complex] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def char_poly(model: LatticeModel) -> CharPoly:
    """Expand det[E - H(beta)] once, with E as the first exponent axis."""
    B, d = model.bands, model.dimension
    # entry (i, j) of E*I - H as a dict over exponent keys (E power, *offset)
    entries = [[{} for _ in range(B)] for _ in range(B)]
    for t in model.terms:
        for i, j in zip(*np.nonzero(t.amplitude)):
            entries[i][j][(0, *t.offset)] = -t.amplitude[i, j]
    for i in range(B):
        entries[i][i][(1,) + (0,) * d] = 1.0

    def det(rows, cols) -> Dict[Offset, complex]:
        if len(rows) == 1:
            return dict(entries[rows[0]][cols[0]])
        acc: Dict[Offset, complex] = {}
        r0 = rows[0]
        for pos, c in enumerate(cols):
            e = entries[r0][c]
            if not e:
                continue
            minor = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            sign = -1.0 if pos % 2 else 1.0
            for key, v in _poly_mul(e, minor).items():
                acc[key] = acc.get(key, 0.0) + sign * v
        return acc

    # the E^B beta^0 coefficient is 1, so at least one entry survives
    terms = {e: c for e, c in det(tuple(range(B)), tuple(range(B))).items() if c != 0}
    keys = np.array(list(terms))[:, 1:]
    lo = tuple(int(x) for x in keys.min(axis=0))
    coeffs = np.zeros((B + 1, *(keys.max(axis=0) - lo + 1)), dtype=complex)
    for (k, *e), c in terms.items():
        coeffs[(k, *np.subtract(e, lo))] = c
    return CharPoly(coeffs=coeffs, lo=lo)


# ------------------------------------------------------------------ JSON form


def model_to_dict(model: LatticeModel) -> dict:
    doc = {
        "dimension": model.dimension,
        "bands": model.bands,
        "terms": [
            {
                "offset": list(t.offset),
                "amplitude": [
                    [{"re": float(v.real), "im": float(v.imag)} for v in row]
                    for row in t.amplitude
                ],
            }
            for t in model.terms
        ],
    }
    if model.name is not None:
        doc["name"] = model.name
    return doc


def model_from_dict(doc: dict) -> LatticeModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    for key in ("dimension", "bands", "terms"):
        if key not in doc:
            raise ModelFormatError(f"missing required field {key!r}")
    d = doc["dimension"]
    B = doc["bands"]
    if not isinstance(d, int) or not isinstance(B, int):
        raise ModelFormatError("dimension and bands must be integers")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ModelFormatError("terms must be a non-empty list")
    terms = []
    for i, t in enumerate(raw_terms):
        where = f"terms[{i}]"
        if not isinstance(t, dict) or "offset" not in t or "amplitude" not in t:
            raise ModelFormatError(f"{where}: needs offset and amplitude")
        off = t["offset"]
        if (
            not isinstance(off, list)
            or len(off) != d
            or not all(isinstance(x, int) for x in off)
        ):
            raise ModelFormatError(f"{where}.offset: expected {d} integers")
        amp = t["amplitude"]
        if not isinstance(amp, list) or len(amp) != B:
            raise ModelFormatError(f"{where}.amplitude: expected {B}x{B} matrix")
        rows = []
        for r, row in enumerate(amp):
            if not isinstance(row, list) or len(row) != B:
                raise ModelFormatError(f"{where}.amplitude[{r}]: expected {B} entries")
            vals = []
            for c, cell in enumerate(row):
                if not isinstance(cell, dict) or "re" not in cell or "im" not in cell:
                    raise ModelFormatError(
                        f"{where}.amplitude[{r}][{c}]: expected {{re, im}}"
                    )
                vals.append(complex(float(cell["re"]), float(cell["im"])))
            rows.append(vals)
        terms.append(HoppingTerm(tuple(off), rows))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ModelFormatError("name must be a string when present")
    try:
        return LatticeModel(dimension=d, bands=B, terms=tuple(terms), name=name)
    except ModelFormatError:
        raise
    except Exception as exc:  # defensive: wrap stray construction errors
        raise ModelFormatError(str(exc)) from exc


def load_model(path) -> LatticeModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(doc)


def save_model(model: LatticeModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
