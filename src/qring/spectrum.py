"""Forward spectral solver for one point singularity on a circle.

The eigenvalue condition in each sector is the vanishing of one real
function of the wavenumber,

    G(k) = [bI + sin(xi) cos(kl)]
           + [(cos(xi) - aR) + (cos(xi) + aR)(k L0)^2] sin(kl)/(2 k L0)

for E = k^2 > 0; the E = -kappa^2 < 0 condition is the same expression
continued through k -> -i kappa (trigonometric -> hyperbolic), and the
E = 0 condition is the common k -> 0 limit.  G depends only on the
spectral triple (xi, Re alpha, Im beta), and linearly: on the engine's jets
u = (cos kh, sin(kh)/k, k sin kh), h = l/2, it is the fixed quadratic form
u^T A u with A = sum_i c_i A_i, c = (bI, sin xi, cos xi, aR)
(secular_forms, secular_form), in all three sectors.  The shared engine
(qring.engine) evaluates it with its derivatives and brackets every
positive root in the cells between the points k l = n pi.  The levels at
E <= 0 are the engine's: the ordered eigenvalues of Q(kappa) on
(psi(0), psi(l)) (bound_form).  A positive level found in a bracket is
simple; one known exactly, on a cell end or at a split point, takes the null
dimension of the 2x2 boundary matrix (U - I) V + i L0 (U + I) D on the
regularized basis (cos kx, sin(kx)/k), one form for all three sectors
(regular_matrix).  A doubly degenerate level requires all four entries to
vanish, which happens only for Im alpha = Re beta = 0, Im beta != 0.

Units: hbar^2/2m = 1, so energies are k^2 (or -kappa^2) with k in 1/length.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .engine import (
    ZERO_MODE_TOL,
    basis_jets,
    bound_and_zero_states,
    bound_states,
    boundary_matrix,
    cell_brackets,
    index_form,
    null_dims,
    null_space,
    secular,
    solve_brackets,
    zero_modes,
)
from .errors import InternalInvariant, NotSusyCase, RankMismatch
from .u2 import (
    SIGMA1,
    CharacteristicMatrix,
    Geometry,
    SpectralTriple,
    spectral_triple,
    to_matrix,
    triple_to_matrix,
)

LOCUS_TOL = 1e-10


def _as_triple(u) -> SpectralTriple:
    if isinstance(u, SpectralTriple):
        return u
    if isinstance(u, CharacteristicMatrix):
        return spectral_triple(u)
    raise TypeError(f"expected SpectralTriple or CharacteristicMatrix, got {type(u)!r}")


# ---------------------------------------------------------------------------
# secular functions


def secular_forms(geom: Geometry) -> np.ndarray:
    """The four 3x3 matrices A_i with G = u^T (sum_i c_i A_i) u, c = (bI, sin xi, cos xi, aR).

    u = (cos kh, sin(kh)/k, k sin kh) with h = l/2 are the engine's jets;
    the identities 1 = c^2 + st, cos kl = c^2 - st, sin(kl)/k = 2cs and
    k sin kl = 2ct turn each term of G into a fixed quadratic form.  They
    hold at k -> -i kappa too.
    """
    p, m = 0.5 / geom.l0, 0.5 * geom.l0
    return np.array(
        [
            [[1.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]],
            [[0.0, p, m], [p, 0.0, 0.0], [m, 0.0, 0.0]],
            [[0.0, -p, m], [-p, 0.0, 0.0], [m, 0.0, 0.0]],
        ]
    )


def secular_form(triple, geom: Geometry) -> np.ndarray:
    """The real symmetric A = sum_i c_i A_i of secular_forms, G = u^T A u.

    Built from cos xi -+ aR and bI +- sin xi, each formed first: near their
    cancellation that sum is exact, where summing c_i A_i is not.
    """
    t = _as_triple(triple)
    sin_xi, cos_xi = math.sin(t.xi), math.cos(t.xi)
    lo, hi = 0.5 * (cos_xi - t.alpha_r) / geom.l0, 0.5 * (cos_xi + t.alpha_r) * geom.l0
    odd = 0.5 * (t.beta_i - sin_xi)
    return np.array([[t.beta_i + sin_xi, lo, hi], [lo, 0.0, odd], [hi, odd, 0.0]])


def _secular(triple, geom: Geometry, hyperbolic: bool = False):
    """engine.secular on this triple's form: G, or e^{-kappa l} G if ``hyperbolic``."""
    return secular(secular_form(triple, geom), geom.l, hyperbolic)


def _scalar(out):
    return out if out.shape else float(out)


def secular_positive(triple: SpectralTriple, geom: Geometry, k):
    """Real secular function whose positive roots are the eigen-wavenumbers.

    Continuous through k = 0, where its value is the zero-mode condition.
    Accepts scalar or array k.
    """
    return _scalar(_secular(triple, geom)(k, 0)[0])


def secular_positive_deriv(triple: SpectralTriple, geom: Geometry, k):
    """d/dk of the positive-sector secular function."""
    return _scalar(_secular(triple, geom)(k, 1)[1])


def secular_negative(triple: SpectralTriple, geom: Geometry, kappa):
    """Secular function of the negative sector (E = -kappa^2), kappa > 0.

    e^{kappa l} times the scaled value the solver scans; it leaves float
    range for deep levels (kappa l beyond about 709), where it returns
    +-inf with the sign of the scaled value.
    """
    kappa = np.asarray(kappa, dtype=float)
    with np.errstate(over="ignore"):
        return _scalar(np.exp(kappa * geom.l) * _secular(triple, geom, True)(kappa, 0)[0])


def secular_negative_deriv(triple: SpectralTriple, geom: Geometry, kappa):
    """d/dkappa of secular_negative, with the same +-inf beyond float range."""
    kappa = np.asarray(kappa, dtype=float)
    q, dq = _secular(triple, geom, True)(kappa, 1)
    with np.errstate(over="ignore"):
        return _scalar(np.exp(kappa * geom.l) * (dq + geom.l * q))


def bound_form(triple, geom: Geometry):
    """engine.index_form of the circle: one loop edge of length l on (psi(0), psi(l))."""
    return index_form([triple_to_matrix(_as_triple(triple))], geom.l0, geom.l, [1, 0])


def zero_mode_exists(triple: SpectralTriple, geom: Geometry, tol: float = ZERO_MODE_TOL) -> bool:
    """Whether an E = 0 eigenstate exists: a branch of Q(0) within ``tol`` of zero (engine.zero_modes)."""
    return zero_modes(bound_form(triple, geom), tol) > 0


# ---------------------------------------------------------------------------
# the boundary matrix


def regular_matrix(u: CharacteristicMatrix, geom: Geometry, k, hyperbolic: bool = False):
    """Boundary matrix and envelope on the regularized basis (cos kx, sin(kx)/k).

    (U - I) V + i L0 (U + I) D with V, D the values and outward derivatives
    of the basis at x = 0 (row 1) and x = l (row 2); its null vectors are
    the coefficients (A, B) of psi = A cos kx + B sin(kx)/k.  k = 0 gives
    the zero-mode matrix of psi = A + B x, and ``hyperbolic`` evaluates at
    k -> -i kappa (psi = A cosh kx + B sinh(kx)/k) with the whole matrix
    times e^{-kappa l}, floored at 1e-300 so a separated joint keeps its
    row.  Vectorized over k: array k gives stacked (..., 2, 2) results.
    """
    c, s, t = basis_jets(k, geom.l, hyperbolic)[0]
    w = np.maximum(np.exp(-np.asarray(k, dtype=float) * geom.l), 1e-300) if hyperbolic else np.ones_like(c)
    zero = np.zeros_like(c)
    vals = np.stack([np.stack([w, zero], -1), np.stack([c, s], -1)], -2)
    ders = np.stack([np.stack([zero, w], -1), np.stack([t, -c], -1)], -2)
    return boundary_matrix(to_matrix(u), geom.l0, vals, ders)


# ---------------------------------------------------------------------------
# levels and spectra


SECTORS = ("negative", "zero", "positive")


@dataclass(frozen=True)
class Level:
    """One energy level: sector, wavenumber (k, kappa, or 0), energy, multiplicity."""

    sector: str
    wavenumber: float
    energy: float
    multiplicity: int

    def __post_init__(self):
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        if self.multiplicity not in (1, 2):
            raise ValueError(f"multiplicity must be 1 or 2, got {self.multiplicity}")


class Spectrum:
    """Levels in ascending energy order, with the spectral triple they came from.

    Held as four arrays, checked vectorized: sector codes (indices into
    SECTORS), wavenumbers, energies and multiplicities.  ``levels``, the same
    levels as a tuple of Level, is built on first use; iteration, ``==``,
    ``hash`` and ``repr`` go through it.  ``max_negative`` is 2 for one
    singularity; a pair of singularities can bind up to two levels each.
    """

    def __init__(self, levels, provenance: SpectralTriple | None = None, max_negative: int = 2):
        levels = vars(self)["levels"] = tuple(levels)  # the cached property, filled
        rows = [(SECTORS.index(lv.sector), lv.wavenumber, lv.energy, lv.multiplicity) for lv in levels]
        self._set(*np.array(rows, dtype=float).reshape(-1, 4).T, provenance, max_negative)

    @classmethod
    def from_arrays(cls, sectors, wavenumbers, multiplicities, provenance=None, max_negative: int = 2):
        """The levels given as arrays of sector codes, wavenumbers and multiplicities.
        Each energy is Python's k ** 2 (negated in the negative sector), as the
        Levels of positive_levels hold it: NumPy's ks ** 2 is k * k, an ulp off for some k."""
        sectors, wavenumbers = np.asarray(sectors, dtype=int), np.asarray(wavenumbers, dtype=float)
        energies = np.array([k**2 for k in wavenumbers.tolist()])
        np.negative(energies, out=energies, where=sectors == 0)
        spec = cls.__new__(cls)
        spec._set(sectors, wavenumbers, energies, multiplicities, provenance, max_negative)
        return spec

    @classmethod
    def from_sectors(cls, bound, zero: int, positive, provenance=None, max_negative: int = 2):
        """from_arrays of a solver's levels: ``bound`` (deepest first) and ``positive``
        (ascending) as (wavenumbers, multiplicities), ``zero`` the zero modes' multiplicity."""
        (kb, mb), (kp, mp), nz = bound, positive, int(zero > 0)
        ks, mults = np.concatenate((kb, np.zeros(nz), kp)), np.concatenate((mb, np.full(nz, zero), mp))
        return cls.from_arrays(np.repeat([0, 1, 2], (kb.size, nz, kp.size)), ks, mults, provenance, max_negative)

    def _set(self, sectors, wavenumbers, energies, multiplicities, provenance, max_negative):
        s, m = np.asarray(sectors, dtype=int), np.asarray(multiplicities, dtype=int)
        vars(self).update(_sectors=s, _wavenumbers=wavenumbers, _energies=energies, _multiplicities=m)
        vars(self).update(provenance=provenance, max_negative=max_negative)
        if not np.all((s >= 0) & (s <= 2) & ((m == 1) | (m == 2))):
            raise ValueError("sector codes must be 0, 1 or 2 and multiplicities 1 or 2")
        if np.any(energies[1:] <= energies[:-1]):
            raise InternalInvariant("spectrum energies are not strictly increasing")
        if np.count_nonzero(s == 0) > max_negative:
            raise InternalInvariant(f"more than {max_negative} negative levels")
        if np.count_nonzero(s == 1) > 1:
            raise InternalInvariant("more than one zero level")

    @cached_property
    def levels(self) -> tuple[Level, ...]:
        return tuple(Level(*row) for row in self.rows())

    def rows(self):
        """(sector, wavenumber, energy, multiplicity) of each level, as Python values read off the arrays."""
        sectors = [SECTORS[s] for s in self._sectors.tolist()]
        return zip(sectors, self._wavenumbers.tolist(), self._energies.tolist(), self._multiplicities.tolist())

    def __setattr__(self, name, value):  # immutable, as its hash requires
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _key(self):
        return self.levels, self.provenance, self.max_negative

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Spectrum(levels={self.levels!r}, provenance={self.provenance!r}, max_negative={self.max_negative!r})"

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return self._sectors.size

    def energies(self) -> np.ndarray:
        return self._energies.copy()

    def multiplicities(self) -> np.ndarray:
        return self._multiplicities.copy()

    def positive_wavenumbers(self) -> np.ndarray:
        return self._wavenumbers[self._sectors == 2]

    def negative_wavenumbers(self) -> np.ndarray:
        return self._wavenumbers[self._sectors == 0]

    def has_zero_mode(self) -> bool:
        return bool(np.any(self._sectors == 1))


def positive_brackets(triple, geom: Geometry, count: int, *, q=None):
    """(A, slots): the triple's secular form and engine.cell_brackets on it,
    the brackets that positive_levels refines and the fit's check reads.
    ``q`` is the triple's bound_form, passed by a caller that built it."""
    t = _as_triple(triple)
    return _positive_slots(t, geom, count, zero_modes(bound_form(t, geom) if q is None else q))


def _positive_slots(t: SpectralTriple, geom: Geometry, count: int, zero_order: int):
    """positive_brackets, for a caller that knows the zero modes' multiplicity."""
    rep = triple_to_matrix(t)
    dims = lambda ks: null_dims(*regular_matrix(rep, geom, ks))
    form = secular_form(t, geom)
    return form, cell_brackets(form, geom.l, count, dims, zero_order)


def positive_levels(triple: SpectralTriple, geom: Geometry, count: int, *, q=None) -> list[Level]:
    """The lowest ``count`` positive levels, each from its own slot
    (positive_brackets), refined from the cell quadratic's starts
    (engine.solve_brackets).  ``q`` as for positive_brackets."""
    ks, mults = solve_brackets(*positive_brackets(triple, geom, count, q=q), geom.l, count)
    return [Level("positive", k, k**2, m) for k, m in zip(ks.tolist(), mults.tolist())]


def negative_levels(triple: SpectralTriple, geom: Geometry, *, q=None) -> list[Level]:
    """All negative-energy levels (at most two), deepest first (engine.bound_states).
    ``q`` is the triple's bound_form, passed by a caller that built it."""
    ks, mults = bound_states(bound_form(triple, geom) if q is None else q)
    return [Level("negative", k, -(k**2), m) for k, m in zip(ks.tolist(), mults.tolist())]


def full_spectrum(u, geom: Geometry, count: int = 20) -> Spectrum:
    """Negative, zero, and the lowest ``count`` positive levels of u's spectral triple, ascending.

    Q (bound_form) is built once, and one reading of its branches at
    kappa = 0 gives the bound states, each refined from its Robin depth, and
    the zero modes (engine.bound_and_zero_states), whose order starts the
    positive cells.  Their roots are refined from the cell quadratic's
    starts.  The levels pass to the Spectrum as arrays.
    """
    t = _as_triple(u)
    ks, mults, zero = bound_and_zero_states(bound_form(t, geom))
    positive = solve_brackets(*_positive_slots(t, geom, count, zero), geom.l, count)
    return Spectrum.from_sectors((ks, mults), zero, positive, provenance=t)


# ---------------------------------------------------------------------------
# degeneracy analysis


@dataclass(frozen=True)
class DegeneracyReport:
    """Where, if anywhere, this boundary matrix produces doubly degenerate levels."""

    locus: bool
    full_doublet_sign: int | None
    levels: tuple[Level, ...]
    description: str


def degeneracy_at(u: CharacteristicMatrix, geom: Geometry, tol: float = LOCUS_TOL) -> DegeneracyReport:
    """Analytic degeneracy report.

    Double degeneracy requires Im alpha = Re beta = 0 with Im beta != 0
    (otherwise some entry of the boundary matrix stays nonzero).  On that
    locus, a degenerate positive level must satisfy

        bI cos kl = -sin xi,   bI k L0 sin kl = -(cos xi - aR),
        bI sin kl = -(cos xi + aR) k L0,

    which forces (k L0)^2 (cos xi + aR) = cos xi - aR and hence at most one
    k, except at the exchange matrix and its negative where every positive
    level is a doublet.  A bound-state doublet solves the same conditions at
    k -> -i kappa, which have a solution for every kappa and L0; a zero-mode
    doublet additionally requires xi = arccot(l / 2 L0).
    """
    a_i, b_r, b_i = u.alpha.imag, u.beta.real, u.beta.imag
    on_locus = abs(a_i) < tol and abs(b_r) < tol and abs(b_i) > tol
    if not on_locus:
        return DegeneracyReport(False, None, (), "off the degeneracy locus; all levels simple")

    mat = to_matrix(u)
    for sign in (+1, -1):
        if np.abs(mat - sign * SIGMA1).max() < tol:
            return DegeneracyReport(
                True, sign, (), "every positive level is a doublet"
            )

    xi, a_r = u.xi, u.alpha.real
    c_plus = math.cos(xi) + a_r
    c_minus = math.cos(xi) - a_r
    check_tol = 1e-8
    found: list[Level] = []
    if abs(c_plus) > tol:
        ratio = c_minus / c_plus
        if abs(ratio) > tol:  # a positive (ratio > 0) or a bound-state doublet at k -> -i kappa
            k, sg = math.sqrt(abs(ratio)) / geom.l0, math.copysign(1.0, ratio)
            kl = k * geom.l
            cs, sn = (math.cos(kl), math.sin(kl)) if sg > 0 else (math.cosh(kl), math.sinh(kl))
            residuals = (
                abs(b_i * cs + math.sin(xi)),
                abs(b_i * k * geom.l0 * sn + sg * c_minus),
                abs(b_i * sn + c_plus * k * geom.l0),
            )
            if max(residuals) < check_tol:
                found.append(Level("positive" if sg > 0 else "negative", k, sg * k**2, 2))
        elif abs(xi - math.atan2(2.0 * geom.l0, geom.l)) < check_tol:  # xi = arccot(l / 2 L0)
            if abs(b_i + math.sin(xi)) < check_tol and abs(c_minus) < check_tol:
                found.append(Level("zero", 0.0, 0.0, 2))
    desc = (
        f"on the degeneracy locus; {len(found)} degenerate level(s) predicted"
        if found
        else "on the degeneracy locus but the level conditions have no solution"
    )
    return DegeneracyReport(True, None, tuple(found), desc)


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass(frozen=True)
class Eigenfunction:
    """One normalized eigenfunction, stored through its expansion coefficients.

    positive sector:  psi(x) = a exp(i k x) + b exp(-i k x)
    negative sector:  psi(x) = a exp(kappa x) + b exp(-kappa x)
    zero sector:      psi(x) = a + b x
    """

    sector: str
    wavenumber: float
    a: complex
    b: complex
    length: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.sector == "positive":
            out = self.a * np.exp(1j * self.wavenumber * x) + self.b * np.exp(
                -1j * self.wavenumber * x
            )
        elif self.sector == "negative":
            out = self.a * np.exp(self.wavenumber * x) + self.b * np.exp(-self.wavenumber * x)
        else:
            out = self.a + self.b * x
        out = np.asarray(out)
        return out if out.shape else complex(out)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.sector == "positive":
            out = 1j * self.wavenumber * (
                self.a * np.exp(1j * self.wavenumber * x)
                - self.b * np.exp(-1j * self.wavenumber * x)
            )
        elif self.sector == "negative":
            out = self.wavenumber * (
                self.a * np.exp(self.wavenumber * x) - self.b * np.exp(-self.wavenumber * x)
            )
        else:
            out = self.b * np.ones_like(x, dtype=complex)
        out = np.asarray(out)
        return out if out.shape else complex(out)

    @property
    def energy(self) -> float:
        if self.sector == "positive":
            return self.wavenumber**2
        if self.sector == "negative":
            return -(self.wavenumber**2)
        return 0.0


def _exp_integral(q: complex, l: float) -> complex:
    """integral_0^l exp(q x) dx."""
    if abs(q) * l < 1e-12:
        return complex(l)
    return (np.exp(q * l) - 1.0) / q


def _mu(sector: str, wavenumber: float) -> complex:
    return 1j * wavenumber if sector == "positive" else complex(wavenumber)


def eigenfunction_inner(f: Eigenfunction, g: Eigenfunction) -> complex:
    """L^2(0, l) inner product <f, g>, antilinear in the first argument."""
    l = f.length
    if f.sector == "zero" or g.sector == "zero":

        def moments(h):
            if h.sector == "zero":
                return ((h.a, 0), (h.b, 1))
            m = _mu(h.sector, h.wavenumber)
            return ((h.a, m), (h.b, -m))

        total = 0.0j
        for cf, pf in moments(f):
            for cg, pg in moments(g):
                if isinstance(pf, int) and isinstance(pg, int):
                    n = pf + pg
                    total += np.conj(cf) * cg * l ** (n + 1) / (n + 1)
                elif isinstance(pf, int):
                    total += np.conj(cf) * cg * _poly_exp_integral(pf, pg, l)
                elif isinstance(pg, int):
                    total += np.conj(cf) * cg * np.conj(_poly_exp_integral(pg, pf, l))
                else:
                    total += np.conj(cf) * cg * _exp_integral(np.conj(pf) + pg, l)
        return complex(total)

    mf, mg = _mu(f.sector, f.wavenumber), _mu(g.sector, g.wavenumber)
    total = 0.0j
    for cf, sf in ((f.a, 1), (f.b, -1)):
        for cg, sg in ((g.a, 1), (g.b, -1)):
            total += np.conj(cf) * cg * _exp_integral(np.conj(sf * mf) + sg * mg, l)
    return complex(total)


def _poly_exp_integral(power: int, q: complex, l: float) -> complex:
    """integral_0^l x^power exp(q x) dx for power in {0, 1}."""
    if power == 0:
        return _exp_integral(q, l)
    if abs(q) * l < 1e-12:
        return complex(l * l / 2.0)
    el = np.exp(q * l)
    return (l * el - (el - 1.0) / q) / q


def _boundary_vectors(f: Eigenfunction) -> tuple[np.ndarray, np.ndarray]:
    l = f.length
    psi = np.array([f(0.0), f(l)], dtype=complex)
    dpsi = np.array([f.derivative(0.0), -f.derivative(l)], dtype=complex)
    return psi, dpsi


def boundary_residual(u: CharacteristicMatrix, geom: Geometry, f: Eigenfunction) -> float:
    """Norm of (U - I) Psi + i L0 (U + I) Psi' for a normalized eigenfunction."""
    uu = to_matrix(u)
    psi, dpsi = _boundary_vectors(f)
    r = (uu - np.eye(2)) @ psi + 1j * geom.l0 * (uu + np.eye(2)) @ dpsi
    return float(np.linalg.norm(r))


def _plane_wave_null(u: CharacteristicMatrix, geom: Geometry, sector: str, k: float):
    """Null dimension and right singular vectors (a, b) at one level, the most null last.

    The coefficients are those of Eigenfunction.  The positive and zero
    sectors convert the null vectors (A, B) of regular_matrix through
    (A, B) = (a + b, i k (a - b)), resp. (a, b) = (A, B) at k = 0.  In the
    negative sector the conversion would cancel cosh against sinh and lose
    the part of psi below e^{-kappa l}, so there the matrix is built on the
    bounded basis (e^{kappa (x - l)}, e^{-kappa x}) instead.
    """
    if sector == "negative":
        e = math.exp(-k * geom.l)
        vals = np.array([[e, 1.0], [1.0, e]])
        ders = k * np.array([[e, -1.0], [-1.0, e]])
        dim, vecs = null_space(*boundary_matrix(to_matrix(u), geom.l0, vals, ders))
        return dim, vecs * np.array([e, 1.0])
    dim, vecs = null_space(*regular_matrix(u, geom, k))
    if sector == "positive":
        vecs = 0.5 * (vecs[:, :1] + np.array([-1j, 1j]) / k * vecs[:, 1:])
    return dim, vecs


def eigenfunction(u: CharacteristicMatrix, geom: Geometry, level: Level) -> list[Eigenfunction]:
    """Orthonormal eigenfunctions spanning one level (list length = multiplicity)."""
    null_dim, vecs = _plane_wave_null(u, geom, level.sector, level.wavenumber)
    if null_dim != level.multiplicity:
        raise RankMismatch(
            f"null space dimension {null_dim} != multiplicity {level.multiplicity} "
            f"at {level.sector} wavenumber {level.wavenumber}"
        )
    raw = [
        Eigenfunction(level.sector, level.wavenumber, complex(a), complex(b), geom.l)
        for a, b in vecs[len(vecs) - level.multiplicity:][::-1]
    ]
    out: list[Eigenfunction] = []
    for f in raw:
        for g in out:  # Gram-Schmidt against already accepted members
            corr = eigenfunction_inner(g, f)
            f = Eigenfunction(f.sector, f.wavenumber, f.a - corr * g.a, f.b - corr * g.b, f.length)
        norm = math.sqrt(max(eigenfunction_inner(f, f).real, 0.0))
        if not norm >= 1e-12:  # also nan, once e^{2 kappa l} leaves float range
            raise RankMismatch("null vectors could not be orthonormalized")
        f = Eigenfunction(f.sector, f.wavenumber, f.a / norm, f.b / norm, f.length)
        out.append(f)
    for f in out:
        res = boundary_residual(u, geom, f)
        if not res <= 1e-8 * (1.0 + level.wavenumber * geom.l0):
            raise InternalInvariant(
                f"eigenfunction boundary residual {res:.3e} at {level.sector} "
                f"wavenumber {level.wavenumber}"
            )
    return out


def probability_current(f: Eigenfunction, x) -> float | np.ndarray:
    """Probability current Im(conj(psi) psi') in units hbar/m = 1."""
    psi = np.asarray(f(x))
    dpsi = np.asarray(f.derivative(x))
    out = (np.conj(psi) * dpsi).imag
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# supersymmetry and scale independence checks


@dataclass(frozen=True)
class SusyDoubletCheck:
    k: float
    bc_residual: float
    span_residual: float
    energy_residual: float


@dataclass(frozen=True)
class SusyReport:
    epsilon: int
    doublets: tuple[SusyDoubletCheck, ...]
    zero_mode_derivative_norm: float | None
    ground_state_annihilated: bool | None
    passed: bool


def verify_susy_pairing(u: CharacteristicMatrix, geom: Geometry, n_levels: int) -> SusyReport:
    """Check the supercharge action on the fully degenerate singularities.

    The derivative of each doublet member must satisfy the same twisted
    periodicity psi(l) = eps psi(0), psi'(l) = eps psi'(0) and stay in the
    doublet's span at the same energy; for the untwisted case the unique
    zero mode must be annihilated.
    """
    mat = to_matrix(u)
    if np.abs(mat - SIGMA1).max() < LOCUS_TOL:
        eps = 1
    elif np.abs(mat + SIGMA1).max() < LOCUS_TOL:
        eps = -1
    else:
        raise NotSusyCase("supersymmetry pairing is defined only for the exchange matrix and its negative")

    spec = full_spectrum(u, geom, n_levels)
    zero_norm: float | None = None
    if eps == 1:
        zl = next(lv for lv in spec if lv.sector == "zero")
        (f0,) = eigenfunction(u, geom, zl)
        zero_norm = abs(f0.b) * math.sqrt(geom.l)  # derivative of a + b x has norm |b| sqrt(l)

    checks: list[SusyDoubletCheck] = []
    for lv in spec:
        if lv.sector != "positive":
            continue
        fs = eigenfunction(u, geom, lv)
        if lv.multiplicity != 2:
            raise InternalInvariant("positive level of a supersymmetric case is not a doublet")
        k = lv.wavenumber
        worst_bc = worst_span = worst_energy = 0.0
        for f in fs:
            d = Eigenfunction("positive", k, 1j * k * f.a, -1j * k * f.b, f.length)
            dnorm = math.sqrt(eigenfunction_inner(d, d).real)
            bc = max(
                abs(d(geom.l) - eps * d(0.0)),
                abs(d.derivative(geom.l) - eps * d.derivative(0.0)),
            ) / dnorm
            coeffs = [eigenfunction_inner(g, d) for g in fs]
            ra = d.a - sum(c * g.a for c, g in zip(coeffs, fs))
            rb = d.b - sum(c * g.b for c, g in zip(coeffs, fs))
            rem = Eigenfunction("positive", k, ra, rb, f.length)
            span = math.sqrt(max(eigenfunction_inner(rem, rem).real, 0.0)) / dnorm
            worst_bc = max(worst_bc, bc)
            worst_span = max(worst_span, span)
            # the in-span part is a plane wave at the same k, so the relative
            # energy defect is carried entirely by the remainder
            worst_energy = max(worst_energy, span)
            if dnorm < 1e-10:
                raise InternalInvariant("doublet member annihilated by the supercharge")
        checks.append(SusyDoubletCheck(k, worst_bc, worst_span, worst_energy))

    ground_annihilated = None if eps == 1 else False
    passed = all(c.bc_residual < 1e-8 and c.span_residual < 1e-8 for c in checks)
    if eps == 1:
        passed = passed and zero_norm is not None and zero_norm < 1e-10
    return SusyReport(eps, tuple(checks), zero_norm, ground_annihilated, passed)


def scale_independence_check(
    u: CharacteristicMatrix, geom: Geometry, n_levels: int, tol: float = 1e-8
) -> bool:
    """Whether the plane-wave mixing (A : B) is wavenumber independent.

    The eigen-wavenumbers fall into at most two residue families of k l
    modulo 2 pi; within each family the mixing ratio of a scale independent
    system is a single point of the projective line.  Doublets put no
    constraint (their null space is the whole plane) and are skipped.
    """
    t = spectral_triple(u)
    levels = positive_levels(t, geom, n_levels)
    singlets = [lv for lv in levels if lv.multiplicity == 1]
    if not singlets:
        return True
    zs = np.array([np.exp(1j * lv.wavenumber * geom.l) for lv in singlets])
    vecs = []
    for lv in singlets:
        v = _plane_wave_null(u, geom, "positive", lv.wavenumber)[1][-1]
        vecs.append(v / np.linalg.norm(v))
    center0 = zs[0]
    dists = np.abs(zs - center0)
    if dists.max() < 1e-6:
        families = [list(range(len(zs)))]
    else:
        center1 = zs[int(np.argmax(dists))]
        families = [[], []]
        for i, z in enumerate(zs):
            families[0 if abs(z - center0) <= abs(z - center1) else 1].append(i)
    for fam in families:
        if len(fam) < 2:
            continue
        v0 = vecs[fam[0]]
        for i in fam[1:]:
            v = vecs[i]
            cross = abs(v0[0] * v[1] - v0[1] * v[0])
            if cross > tol:
                return False
    return True
