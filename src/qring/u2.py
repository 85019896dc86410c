"""Boundary conditions for a particle on a circle with one point singularity.

The singularity at x = 0 (equivalently x = l) is encoded by a unitary 2x2
matrix U acting on the boundary values: with Psi = (psi(+0), psi(l-0)) and
Psi' = (psi'(+0), -psi'(l-0)),

    (U - I) Psi + i L0 (U + I) Psi' = 0,

where L0 > 0 is a fixed reference length.  Every U is written as

    U = exp(i xi) [[alpha, beta], [-conj(beta), conj(alpha)]],

with xi in [0, pi) and |alpha|^2 + |beta|^2 = 1.  Only (xi, Re alpha,
Im beta) affect the spectrum; the remaining two parameters move eigenstates
around without moving levels.  This module holds the parametrization, the
spectrum-preserving maps, and the subfamily predicates.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitary, NotUnitary

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
COT_INF_THRESHOLD = 1e14


@dataclass(frozen=True)
class CharacteristicMatrix:
    """The (xi, alpha, beta) datum of one point singularity."""

    xi: float
    alpha: complex
    beta: complex

    def __post_init__(self):
        if not (0.0 <= self.xi < math.pi):
            raise ValueError(f"xi must lie in [0, pi), got {self.xi}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def alpha_r(self) -> float:
        return self.alpha.real

    @property
    def alpha_i(self) -> float:
        return self.alpha.imag

    @property
    def beta_r(self) -> float:
        return self.beta.real

    @property
    def beta_i(self) -> float:
        return self.beta.imag

    def matrix(self) -> np.ndarray:
        return to_matrix(self)


@dataclass(frozen=True)
class SpectralTriple:
    """The subset (xi, Re alpha, Im beta) of parameters that fixes the spectrum."""

    xi: float
    alpha_r: float
    beta_i: float

    def __post_init__(self):
        if not (0.0 <= self.xi < math.pi):
            raise ValueError(f"xi must lie in [0, pi), got {self.xi}")
        if self.alpha_r**2 + self.beta_i**2 > 1.0 + 1e-12:
            raise ValueError(
                f"(alpha_r, beta_i) = ({self.alpha_r}, {self.beta_i}) lies outside the unit disc"
            )


@dataclass(frozen=True)
class Geometry:
    """Circumference l and the reference length L0 entering the boundary condition."""

    l: float
    l0: float

    def __post_init__(self):
        for name, value in (("l", self.l), ("l0", self.l0)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SubfamilyReport:
    """Membership flags for the distinguished subfamilies of boundary matrices.

    ``length_left``/``length_right`` are the two Robin lengths of a separated
    (current-blocking) singularity; ``math.inf`` encodes a Neumann side.  The
    assignment of the two values to "left" and "right" is conventional:
    swapping them describes the same physics with the two sides of the
    singularity interchanged.
    """

    parity: bool
    time_reversal: bool
    space_time: bool
    separated: bool
    scale_independent: bool
    smooth: bool
    isospectral: bool
    semi_isospectral: bool
    self_dual: bool
    susy_plus: bool
    susy_minus: bool
    length_left: float | None = None
    length_right: float | None = None
    beta_phase: float | None = None

    def __post_init__(self):
        # implication lattice; violations mean inconsistent tolerances upstream
        if self.smooth and not self.scale_independent:
            raise ValueError("smooth members must be scale independent")
        if (self.susy_plus or self.susy_minus) and not self.scale_independent:
            raise ValueError("the supersymmetric pair is scale independent")
        if self.self_dual and not (self.parity and self.separated):
            raise ValueError("self-dual members are parity invariant and separated")


def _as_2x2(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    return a


def unitarity_defect(m) -> float:
    """Max-norm of m^dagger m - I."""
    a = _as_2x2(m)
    return float(np.abs(a.conj().T @ a - np.eye(2)).max())


def from_matrix(m, tol: float = UNITARY_TOL) -> CharacteristicMatrix:
    """Extract (xi, alpha, beta) from a unitary 2x2 matrix.

    The determinant fixes xi only modulo pi; the representative with
    xi in [0, pi) is chosen and the leftover sign is absorbed into
    (alpha, beta).
    """
    a = _as_2x2(m)
    defect = unitarity_defect(a)
    if defect > tol:
        raise NonUnitary(f"matrix is not unitary: max |m^H m - I| = {defect:.3e} > {tol:.1e}")
    xi = 0.5 * cmath.phase(np.linalg.det(a))
    if xi < 0.0:
        xi += math.pi
    if xi >= math.pi:  # a tiny negative phase can round back up to pi exactly
        xi -= math.pi
    v = np.exp(-1j * xi) * a
    alpha = (v[0, 0] + np.conj(v[1, 1])) / 2.0
    beta = (v[0, 1] - np.conj(v[1, 0])) / 2.0
    scale = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return CharacteristicMatrix(xi, complex(alpha / scale), complex(beta / scale))


def to_matrix(u: CharacteristicMatrix) -> np.ndarray:
    """Rebuild the unitary matrix from its (xi, alpha, beta) parameters."""
    return np.exp(1j * u.xi) * np.array(
        [[u.alpha, u.beta], [-np.conj(u.beta), np.conj(u.alpha)]], dtype=complex
    )


def spectral_triple(u: CharacteristicMatrix) -> SpectralTriple:
    """Project onto the three parameters that determine the spectrum."""
    return SpectralTriple(u.xi, u.alpha.real, u.beta.imag)


def triple_to_matrix(t: SpectralTriple) -> CharacteristicMatrix:
    """A representative boundary matrix realizing a given spectral triple.

    On the boundary of the disc the representative is unique (alpha and beta
    are forced real resp. imaginary); inside, the slack is placed in Im alpha.
    A slack below NORM_TOL, which CharacteristicMatrix accepts, counts as the
    boundary.
    """
    slack = 1.0 - t.alpha_r**2 - t.beta_i**2
    alpha_i = 0.0 if slack < NORM_TOL else math.sqrt(slack)
    return CharacteristicMatrix(t.xi, complex(t.alpha_r, alpha_i), complex(0.0, t.beta_i))


def parity_map(u: CharacteristicMatrix) -> CharacteristicMatrix:
    """Space reflection x -> l - x: conjugation of U by the exchange matrix."""
    return CharacteristicMatrix(u.xi, np.conj(u.alpha), -np.conj(u.beta))


def time_reversal_map(u: CharacteristicMatrix) -> CharacteristicMatrix:
    """Complex conjugation of states: transposes the boundary matrix."""
    return CharacteristicMatrix(u.xi, u.alpha, -np.conj(u.beta))


def pt_map(u: CharacteristicMatrix) -> CharacteristicMatrix:
    """Combined space-time reflection."""
    return CharacteristicMatrix(u.xi, np.conj(u.alpha), u.beta)


def p_theta_map(u: CharacteristicMatrix, theta: float) -> CharacteristicMatrix:
    """One-parameter family generated by parity.

    Rotates (Re beta + i Im alpha) by theta while leaving the spectral
    triple untouched bit for bit; composition adds angles modulo 2 pi.
    """
    w = complex(u.beta.real, u.alpha.imag) * cmath.exp(1j * theta)
    return CharacteristicMatrix(
        u.xi, complex(u.alpha.real, w.imag), complex(w.real, u.beta.imag)
    )


def induced_map(u: CharacteristicMatrix, m, n, tol: float = UNITARY_TOL) -> CharacteristicMatrix:
    """Boundary matrix induced by a transformation acting as M on Psi and N on Psi'.

    Returns [M(I+U) - N(I-U)] [M(I+U) + N(I-U)]^{-1} when that combination is
    unitary; raises NotUnitary otherwise (the transformation is then not a
    generalized symmetry for this U).
    """
    mm, nn = _as_2x2(m), _as_2x2(n)
    uu = to_matrix(u)
    eye = np.eye(2)
    denom = mm @ (eye + uu) + nn @ (eye - uu)
    cond = np.linalg.cond(denom)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"M(I+U) + N(I-U) is numerically singular (cond = {cond:.3e})")
    w = (mm @ (eye + uu) - nn @ (eye - uu)) @ np.linalg.inv(denom)
    defect = unitarity_defect(w)
    if defect > tol:
        raise NotUnitary(
            f"induced matrix is not unitary (defect {defect:.3e}); "
            "the transformation is not a generalized symmetry here"
        )
    return from_matrix(w, tol=tol)


def _cot_length(l0: float, half_angle: float) -> float:
    s = math.sin(half_angle)
    c = math.cos(half_angle)
    if s == 0.0 or abs(c / s) > COT_INF_THRESHOLD:
        return math.inf
    return l0 * c / s


def separated_lengths(u: CharacteristicMatrix, geom: Geometry) -> tuple[float, float]:
    """Robin lengths (L1, L2) = L0 cot((xi +- arccos Re alpha)/2) of a separated U.

    Values with |cot| beyond the overflow threshold are reported as inf
    (a Neumann side).  The +/- assignment to the two sides is conventional.
    """
    phi = math.acos(min(1.0, max(-1.0, u.alpha.real)))
    return (
        _cot_length(geom.l0, 0.5 * (u.xi + phi)),
        _cot_length(geom.l0, 0.5 * (u.xi - phi)),
    )


def classify(u: CharacteristicMatrix, geom: Geometry, tol: float = 1e-10) -> SubfamilyReport:
    """Evaluate every subfamily predicate for one boundary matrix.

    Flags, in terms of the parameters: parity invariance needs
    Im alpha = Re beta = 0; time reversal needs Re beta = 0; space-time
    needs Im alpha = 0.  The separated family has beta = 0; the scale
    independent one has (xi = pi/2 and Re alpha = 0) or U = +-I; smooth
    members form the flux circle alpha = 0, |beta| = 1 inside it; the
    isospectral family has xi = 0 and Im beta = 0, and its generalization
    only requires sin xi = +-Im beta.
    """
    a_r, a_i = u.alpha.real, u.alpha.imag
    b_r, b_i = u.beta.real, u.beta.imag
    mat = to_matrix(u)
    is_plus_id = bool(np.abs(mat - np.eye(2)).max() < tol)
    is_minus_id = bool(np.abs(mat + np.eye(2)).max() < tol)

    separated = abs(u.beta) < tol
    on_sphere = abs(u.xi - math.pi / 2) < tol and abs(a_r) < tol
    scale_independent = on_sphere or is_plus_id or is_minus_id
    # the smooth circle is the one-parameter flux family alpha = 0, |beta| = 1;
    # the two isolated scale independent points +-I are boxes, not smooth
    smooth = on_sphere and abs(a_i) < tol

    lengths: tuple[float, float] | None = None
    if separated:
        lengths = separated_lengths(u, geom)

    return SubfamilyReport(
        parity=bool(abs(a_i) < tol and abs(b_r) < tol),
        time_reversal=bool(abs(b_r) < tol),
        space_time=bool(abs(a_i) < tol),
        separated=bool(separated),
        scale_independent=bool(scale_independent),
        smooth=bool(smooth),
        isospectral=bool(abs(u.xi) < tol and abs(b_i) < tol),
        semi_isospectral=bool(min(abs(math.sin(u.xi) - b_i), abs(math.sin(u.xi) + b_i)) < tol),
        self_dual=bool(separated and abs(a_i) < tol),
        susy_plus=bool(np.abs(mat - SIGMA1).max() < tol),
        susy_minus=bool(np.abs(mat + SIGMA1).max() < tol),
        length_left=None if lengths is None else float(lengths[0]),
        length_right=None if lengths is None else float(lengths[1]),
        beta_phase=cmath.phase(u.beta) if abs(u.beta) > tol else None,
    )


def smooth_flux(u: CharacteristicMatrix) -> float:
    """Flux angle theta of a smooth member: psi(0) = exp(i theta) psi(l).

    Defined for U with alpha = 0, |beta| = 1, xi = pi/2; the exchange matrix
    (beta = -i) is the flux-free circle.
    """
    return (cmath.phase(u.beta) + math.pi / 2) % (2 * math.pi)


def haar_random(rng: np.random.Generator) -> CharacteristicMatrix:
    """Draw a Haar-distributed boundary matrix."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return from_matrix(q @ np.diag(d / np.abs(d)))


def su2_random(rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed special unitary 2x2 matrix."""
    m = to_matrix(haar_random(rng))
    d = np.linalg.det(m)
    return m * cmath.exp(-0.5j * cmath.phase(d))
