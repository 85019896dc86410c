"""Recovery of (xi, Re alpha, Im beta) from a finite spectrum prefix.

The positive spectrum falls into three regimes.  If every root satisfies
sin(k l) = 0 exactly, then xi = Im beta = 0 and the nonpositive sector
fixes Re alpha (case I).  If cos(k l) approaches one limiting value, the
boundary matrix obeys Re alpha = -cos(xi) and the secular condition becomes
linear in (Im beta / sin xi, cot xi) at every root (case II).  Otherwise
sin(k_n l) tends to zero without vanishing, and the root expansion

    k_n l = pi n + c1/n + c3/n^3 + ...      (no 1/n^2 term)

has parity-dependent coefficients that encode the parameters (case III).

An independent fit, which uses no tail asymptotics, cross-checks all
three regimes.  The secular function is linear in
c = (Im beta, sin xi, cos xi, Re alpha), so its weighted values at the data
are the rows of one N x 4 matrix Phi, built once per prefix from the
engine's secular evaluator, and Phi c = 0 at the true triple.  The fit is
one null-space solve: c is the last right singular vector of the
column-scaled Phi.  Corner rule: the four corners (+-exchange, (0, +-1, 0))
leave a null space of two dimensions and are probed outright first.  Chart
rule: flipping the sign of c is the seam (xi, aR, bI) -> (xi + pi, -aR, -bI),
so the sign is chosen with xi in [0, pi), and within 1e-12 of pi the xi = 0
chart is taken.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Ambiguous,
    DegenerateTail,
    Inconsistent,
    NoConvergence,
    NoisyTail,
    QringError,
)
from .engine import secular
from .spectrum import negative_levels, positive_levels, secular_forms, zero_mode_exists
from .u2 import Geometry, SpectralTriple

CASE_I_SIN_TOL = 1e-9
CLASSIFY_MIN_LEVELS = 16       # positive levels classify_case needs


@dataclass(frozen=True)
class SpectrumPrefix:
    """The data handed to the inverse problem: positive wavenumbers plus nonpositive info."""

    positive_k: tuple[float, ...]
    has_zero_mode: bool
    negative_kappa: tuple[float, ...]
    geometry: Geometry

    def __post_init__(self):
        ks = self.positive_k
        if any(k <= 0 for k in ks):
            raise ValueError("positive wavenumbers must be strictly positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("positive wavenumbers must be strictly increasing")
        if len(self.negative_kappa) > 2:
            raise ValueError("at most two negative levels can exist")


def prefix_from_spectrum(spec, geom: Geometry) -> SpectrumPrefix:
    """Collapse a forward-solver spectrum into inversion input (multiplicities dropped)."""
    return SpectrumPrefix(
        tuple(float(k) for k in spec.positive_wavenumbers()),
        spec.has_zero_mode(),
        tuple(float(k) for k in spec.negative_wavenumbers()),
        geom,
    )


@dataclass(frozen=True)
class CaseLabel:
    """Which of the three inversion regimes the data belongs to."""

    case: str  # "I", "II", or "III"; "ambiguous" when classify_case raised
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Tail coefficients of the case-III root expansion, split by parity of n."""

    c1_plus: float
    c1_minus: float
    c3_plus: float
    c3_minus: float
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if abs(self.c1_plus) < 1e-14 and abs(self.c1_minus) < 1e-14:
            raise Inconsistent("both leading tail coefficients vanish; data is not case III")


def classify_case(prefix: SpectrumPrefix, tol_sin: float = CASE_I_SIN_TOL) -> CaseLabel:
    """Decide between the three inversion regimes from the root statistics.

    Raises Ambiguous when the tail statistics straddle the regime
    boundaries (including lattices with missing integers, which signal a
    degenerate doublet spectrum rather than case I).
    """
    ks = np.asarray(prefix.positive_k)
    if ks.size < CLASSIFY_MIN_LEVELS:
        raise ValueError(f"need at least {CLASSIFY_MIN_LEVELS} positive levels to classify")
    l = prefix.geometry.l
    kl = ks * l
    sin_kl = np.sin(kl)
    cos_kl = np.cos(kl)

    if np.abs(sin_kl).max() < tol_sin:
        n = np.rint(kl / math.pi).astype(int)
        consecutive = bool(np.all(n == np.arange(1, len(n) + 1)))
        if consecutive:
            return CaseLabel("I", {"max_abs_sin": float(np.abs(sin_kl).max())})
        raise Ambiguous(
            "all roots sit on the sin(k l) = 0 lattice but integers are missing; "
            "this is a degenerate (doublet) spectrum, not case I"
        )

    tail = slice(max(len(ks) - max(8, len(ks) // 4), 0), len(ks))
    n_tail = np.rint(kl[tail] / math.pi).astype(int)
    cos_tail = cos_kl[tail]
    even = cos_tail[n_tail % 2 == 0]
    odd = cos_tail[n_tail % 2 == 1]
    diag = {
        "cos_spread": float(cos_tail.max() - cos_tail.min()),
        "cos_mean": float(cos_tail.mean()),
        "cos_even_mean": float(even.mean()) if even.size else math.nan,
        "cos_odd_mean": float(odd.mean()) if odd.size else math.nan,
        "tail_abs_sin_mean": float(np.abs(sin_kl[tail]).mean()),
    }
    if diag["cos_spread"] < 0.5:
        # a single limiting value of cos(k l): case II, unless it sits on the
        # sin(k l) -> 0 lattice where cases II and III become indistinguishable
        if 1.0 - abs(diag["cos_mean"]) < 0.05:
            raise Ambiguous("cos(k l) converges onto the boundary between cases II and III")
        return CaseLabel("II", diag)
    if even.size and odd.size and even.mean() > 0.5 and odd.mean() < -0.5:
        return CaseLabel("III", diag)
    raise Ambiguous(f"tail statistics fit no regime cleanly: {diag}")


def recover_case_I(prefix: SpectrumPrefix) -> SpectralTriple:
    """Case I: xi = Im beta = 0; the nonpositive sector determines Re alpha."""
    if prefix.has_zero_mode and prefix.negative_kappa:
        raise Inconsistent("case I cannot have both a zero mode and a negative level")
    if len(prefix.negative_kappa) > 1:
        raise Inconsistent("case I admits at most one negative level")
    if prefix.has_zero_mode:
        return SpectralTriple(0.0, 1.0, 0.0)
    if not prefix.negative_kappa:
        return SpectralTriple(0.0, -1.0, 0.0)
    kl0 = prefix.negative_kappa[0] * prefix.geometry.l0
    return SpectralTriple(0.0, (1.0 - kl0**2) / (1.0 + kl0**2), 0.0)


def recover_case_II(prefix: SpectrumPrefix, tol_sin: float = CASE_I_SIN_TOL) -> SpectralTriple:
    """Case II: Re alpha = -cos xi.

    Every root satisfies  (bI/sin xi) + cos(k l) + cot(xi) sin(k l)/(k L0) = 0,
    which is linear in the two unknowns (bI/sin xi, cot xi); they are solved
    in least squares over all roots (for exact case-II data the system is
    consistent, so this reproduces the textbook tail-limit procedure to
    machine precision).
    """
    ks = np.asarray(prefix.positive_k)
    l, l0 = prefix.geometry.l, prefix.geometry.l0
    kl = ks * l
    sin_kl, cos_kl = np.sin(kl), np.cos(kl)
    if np.abs(sin_kl).max() < tol_sin:
        raise DegenerateTail("no root with nonvanishing sin(k l); cot(xi) is undetermined")
    design = np.column_stack([np.ones_like(ks), sin_kl / (ks * l0)])
    sol, *_ = np.linalg.lstsq(design, -cos_kl, rcond=None)
    ratio, cot_xi = float(sol[0]), float(sol[1])
    xi = math.atan2(1.0, cot_xi)  # in (0, pi)
    sin_xi = math.sin(xi)
    return SpectralTriple(xi, -math.cos(xi), ratio * sin_xi)


def estimate_c_coeffs(
    prefix: SpectrumPrefix, residual_tol: float = 1e-3
) -> AsymptoticCoeffs:
    """Leading tail coefficients of the case-III root expansion.

    For each parity the deviations eps_n = k_n l - pi n are fit on the tail
    half of the data to c1/n + c3/n^3 + c4/n^4 + c5/n^5 (there is no 1/n^2
    term).  The fit residual must stay below ``residual_tol`` relative to
    the leading coefficient scale; otherwise the tail is too noisy.
    """
    ks = np.asarray(prefix.positive_k)
    if ks.size < 32:
        raise ValueError("need at least 32 positive levels for tail extraction")
    l, l0 = prefix.geometry.l, prefix.geometry.l0
    kl = ks * l
    n = np.rint(kl / math.pi).astype(int)
    eps = kl - math.pi * n

    c1: dict[int, float] = {}
    c3: dict[int, float] = {}
    worst_resid = 0.0
    for parity in (0, 1):
        mask = (n % 2 == parity) & (n >= max(4, n.max() // 2))
        npar, epar = n[mask].astype(float), eps[mask]
        if npar.size < 6:
            mask = (n % 2 == parity) & (n >= 4)
            npar, epar = n[mask].astype(float), eps[mask]
        if npar.size < 4:
            raise NoisyTail(f"too few parity-{parity} roots in the tail")
        x = 1.0 / npar
        design = np.column_stack([x, x**3, x**4, x**5])
        coef, *_ = np.linalg.lstsq(design, epar, rcond=None)
        resid = np.abs(design @ coef - epar).max()
        worst_resid = max(worst_resid, resid)
        c1[parity], c3[parity] = float(coef[0]), float(coef[1])

    scale = max(abs(c1[0]), abs(c1[1]), 1e-30)
    if worst_resid > residual_tol * scale:
        raise NoisyTail(
            f"tail fit residual {worst_resid:.3e} exceeds {residual_tol:.1e} x {scale:.3e}"
        )

    a1 = -(math.pi / 2.0) * (c1[0] - c1[1])
    a2 = -(math.pi / 2.0) * (c1[0] + c1[1])
    # invert  c3 = (-c1/pi^2) a3 + c1^3/6 + (c1^2/2 pi) a2 - c1^2/pi
    # on the branch with larger |c1|
    branch = 0 if abs(c1[0]) >= abs(c1[1]) else 1
    cb1, cb3 = c1[branch], c3[branch]
    if abs(cb1) < 1e-14:
        raise Inconsistent("leading tail coefficient vanishes on both branches")
    a3 = -(math.pi**2 / cb1) * (
        cb3 - cb1**3 / 6.0 - a2 * cb1**2 / (2.0 * math.pi) + cb1**2 / math.pi
    )
    return AsymptoticCoeffs(c1[0], c1[1], c3[0], c3[1], a1, a2, a3)


def solve_a_coefficients(prefix: SpectrumPrefix) -> tuple[float, float, float]:
    """(a1, a2, a3) from the case-III master equation, solved exactly.

    Every case-III root satisfies

        a1 / (k l) + a2 cos(k l) / (k l) + [a3 / (k l)^2 + 1] sin(k l) = 0,

    which is linear in the three coefficients; the overdetermined system
    over all roots is solved in least squares.  This is the same relation
    whose n -> infinity limits define the tail coefficients, but without
    series truncation, so it stays accurate arbitrarily close to the
    case-II boundary where the coefficients blow up.
    """
    ks = np.asarray(prefix.positive_k)
    kl = ks * prefix.geometry.l
    design = np.column_stack([1.0 / kl, np.cos(kl) / kl, np.sin(kl) / kl**2])
    sol, *_ = np.linalg.lstsq(design, -np.sin(kl), rcond=None)
    return float(sol[0]), float(sol[1]), float(sol[2])


def recover_case_III(
    coeffs: AsymptoticCoeffs, geom: Geometry, tol: float = 1e-6
) -> SpectralTriple:
    """Map the tail coefficients (a1, a2, a3) back to (xi, Re alpha, Im beta)."""
    rho = geom.l0 / geom.l
    a1, a2, a3 = coeffs.a1, coeffs.a2, coeffs.a3
    if abs(a3 + 1.0 / rho**2) < tol * (1.0 + abs(a3)):
        # cos xi = 0 branch
        if abs(a2) < 1e-12:
            raise Inconsistent("a2 vanishes on the cos(xi) = 0 branch; Re alpha is undetermined")
        alpha_r = 2.0 / (rho * a2)
        beta_i = a1 / a2
        if alpha_r**2 + beta_i**2 > 1.0 + 1e-9:
            raise Inconsistent(
                f"recovered boundary-of-disc parameters ({alpha_r}, {beta_i}) "
                "violate the parameter-space constraint"
            )
        r = math.hypot(alpha_r, beta_i)
        if r > 1.0:
            alpha_r, beta_i = alpha_r / r, beta_i / r
        return SpectralTriple(math.pi / 2.0, alpha_r, beta_i)

    num = rho * a2
    den = 1.0 + rho**2 * a3
    xi = math.atan2(num, den) % math.pi
    alpha_r = math.cos(xi) * (1.0 - rho**2 * a3) / (1.0 + rho**2 * a3)
    if abs(a2) > 1e-12:
        beta_i = (a1 / a2) * math.sin(xi)
    else:
        # sin(xi) -> 0 limit: fall back to the defining relation of a1
        beta_i = a1 * (math.cos(xi) + alpha_r) / (2.0 / rho)
    if alpha_r**2 + beta_i**2 > 1.0 + 1e-9:
        raise Inconsistent(
            f"recovered parameters ({alpha_r}, {beta_i}) leave the allowed disc"
        )
    r = math.hypot(alpha_r, beta_i)
    if r > 1.0:
        alpha_r, beta_i = alpha_r / r, beta_i / r
    return SpectralTriple(xi, alpha_r, beta_i)


# ---------------------------------------------------------------------------
# independent least-squares oracle


@dataclass(frozen=True)
class FitResult:
    """The fit's triple and its evidence.

    ``starts_used`` is 0 for a corner probe and 1 for the null-space solve;
    ``singular_values`` are the four singular values of the column-scaled
    rows (empty for a corner), whose gap between the last two shows how
    sharply the data fix the null vector.
    """

    triple: SpectralTriple
    residual: float
    starts_used: int
    forward_consistent: bool
    singular_values: tuple[float, ...] = ()


def _fit_rows(prefix: SpectrumPrefix) -> np.ndarray:
    """Weighted N x 4 rows Phi: the secular value of datum j is Phi[j] . c,
    c = (bI, sin xi, cos xi, aR).

    Positive rows are divided by 1 + k L0; bound states give the
    e^{-kappa l}-scaled rows times 2 / (1 + kappa L0), so that no deep level
    dominates the hyperbolic envelope.
    """
    geom = prefix.geometry
    forms = secular_forms(geom)

    def rows(x, hyperbolic):
        return np.stack([secular(a, geom.l, hyperbolic)(x)[0] for a in forms], axis=-1)

    ks = np.asarray(prefix.positive_k)
    kappas = np.asarray(prefix.negative_kappa, dtype=float)
    blocks = [rows(ks, False) / (1.0 + ks * geom.l0)[:, None]]
    if prefix.has_zero_mode:
        blocks.append(rows([0.0], False))
    blocks.append(rows(kappas, True) * (2.0 / (1.0 + kappas * geom.l0))[:, None])
    return np.vstack(blocks)


def _coefficients(t: SpectralTriple) -> np.ndarray:
    """c = (bI, sin xi, cos xi, aR): the triple as the fit rows see it."""
    return np.array([t.beta_i, math.sin(t.xi), math.cos(t.xi), t.alpha_r])


def _forward_consistent(t: SpectralTriple, prefix: SpectrumPrefix, n_check: int = 30) -> bool:
    """Does the candidate reproduce the data prefix, with nothing extra or missing?"""
    geom = prefix.geometry
    n_check = min(n_check, len(prefix.positive_k))
    try:
        pred = positive_levels(t, geom, n_check)
    except QringError:
        return False
    data = np.asarray(prefix.positive_k[:n_check])
    pred_k = np.array([lv.wavenumber for lv in pred])
    if np.abs(pred_k - data).max() * geom.l > 1e-6:
        return False
    if zero_mode_exists(t, geom, tol=1e-8) != prefix.has_zero_mode:
        return False
    try:
        pred_neg = negative_levels(t, geom)
    except QringError:
        return False
    if len(pred_neg) != len(prefix.negative_kappa):
        return False
    for lv, kappa in zip(sorted(pred_neg, key=lambda v: v.wavenumber), sorted(prefix.negative_kappa)):
        if abs(lv.wavenumber - kappa) * geom.l > 1e-6:
            return False
    return True


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first use.

    No qring code calls it any more: the fit is a null-space solve.  The
    name stays because the benchmark's trace of ``invert`` wraps it.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


# the isolated corners of the parameter space: the only triples whose rows
# leave a null space of two or more dimensions (a doublet spectrum at
# +-exchange; no nonpositive row fixes aR at (0, -1, 0) and (0, 1, 0))
_CORNERS = (
    SpectralTriple(math.pi / 2, 0.0, -1.0),
    SpectralTriple(math.pi / 2, 0.0, 1.0),
    SpectralTriple(0.0, 1.0, 0.0),
    SpectralTriple(0.0, -1.0, 0.0),
)


def fit_parameters(prefix: SpectrumPrefix, residual_target: float = 1e-8) -> FitResult:
    """The triple whose c = (bI, sin xi, cos xi, aR) the fit rows annihilate.

    The weighted secular values at the data are the rows Phi times c, so
    c is the last right singular vector of the column-scaled Phi,
    normalized to sin^2 xi + cos^2 xi = 1.  Its sign is the chart: flipping
    c maps (xi, aR, bI) to (xi + pi, -aR, -bI), and the sign is chosen
    with xi in [0, pi), taking the xi = 0 chart within 1e-12 of pi.
    (aR, bI) is clamped onto the unit disc.  The four corners, where the
    null space has more than one dimension, are probed outright first.
    A candidate must keep its residual within 1e3 x ``residual_target``
    and reproduce the data prefix when run forward; otherwise
    NoConvergence is raised.
    """
    rows = _fit_rows(prefix)
    for t in _CORNERS:
        residual = float(np.linalg.norm(rows @ _coefficients(t)))
        if residual < residual_target and _forward_consistent(t, prefix):
            return FitResult(t, residual, 0, True)

    scale = np.linalg.norm(rows, axis=0)
    scale[scale == 0.0] = 1.0
    _, sv, vt = np.linalg.svd(rows / scale, full_matrices=False)
    b_i, sin_xi, cos_xi, a_r = vt[-1] / scale
    if sin_xi < 0.0 or (sin_xi == 0.0 and cos_xi < 0.0):
        b_i, sin_xi, cos_xi, a_r = -b_i, -sin_xi, -cos_xi, -a_r
    norm = math.hypot(sin_xi, cos_xi)
    if norm == 0.0:
        raise NoConvergence("the fit rows leave sin xi and cos xi undetermined")
    xi = abs(math.atan2(sin_xi, cos_xi))  # in [0, pi); abs turns -0.0 into 0.0
    if xi > math.pi - 1e-12:
        b_i, a_r, xi = -b_i, -a_r, 0.0
    radius = max(math.hypot(a_r, b_i) / norm, 1.0)
    triple = SpectralTriple(xi, a_r / (norm * radius), b_i / (norm * radius))
    residual = float(np.linalg.norm(rows @ _coefficients(triple)))
    if residual <= 1e3 * residual_target and _forward_consistent(triple, prefix):
        return FitResult(triple, residual, 1, True, tuple(float(s) for s in sv))
    raise NoConvergence(
        f"the null-space solve left residual {residual:.1e} (target {residual_target:.1e}) "
        "or a spectrum that does not reproduce the data"
    )


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of the full inversion: the analytic path, the fit path, and the verdict."""

    triple: SpectralTriple
    case: str
    asymptotic_triple: SpectralTriple | None
    fit_triple: SpectralTriple | None
    fit_residual: float | None
    warnings: tuple[str, ...]
    case_diagnostics: dict = field(default_factory=dict)  # classify_case's tail statistics


def _triple_distance(a: SpectralTriple, b: SpectralTriple) -> float:
    """Max-norm distance of two triples, modulo the chart seam.

    xi is defined modulo pi: (xi, aR, bI) just below pi is the same boundary
    matrix as (xi - pi, -aR, -bI) just above 0, so a near-pi triple is also
    compared through that image.
    """
    shift = -math.pi if a.xi >= math.pi / 2 else math.pi
    return min(
        max(abs(a.xi + d - b.xi), abs(sign * a.alpha_r - b.alpha_r), abs(sign * a.beta_i - b.beta_i))
        for d, sign in ((0.0, 1.0), (shift, -1.0))
    )


def recover_parameters(prefix: SpectrumPrefix) -> RecoveryResult:
    """Full inversion: classify, run the per-case recovery, cross-check with the fit.

    When the classification is ambiguous (regime-boundary data) the fit
    alone decides.  The two routes are compared modulo the chart seam at
    xi = pi; when they agree, the analytic value is returned, in its own
    chart.  A disagreement beyond 1e-3 is reported as a warning and the fit
    value is returned.
    """
    notes: list[str] = []
    asym: SpectralTriple | None = None
    label = CaseLabel("ambiguous")
    try:
        label = classify_case(prefix)
        if label.case == "I":
            asym = recover_case_I(prefix)
        elif label.case == "II":
            asym = recover_case_II(prefix)
        else:
            cc = estimate_c_coeffs(prefix)
            # the tail limits identify the coefficients; the master equation
            # they derive from then pins (a1, a2, a3) without truncation error
            a1, a2, a3 = solve_a_coefficients(prefix)
            cc = dataclasses.replace(cc, a1=a1, a2=a2, a3=a3)
            asym = recover_case_III(cc, prefix.geometry)
    except (Ambiguous, DegenerateTail, NoisyTail, Inconsistent) as exc:
        notes.append(f"analytic path unavailable: {exc}")

    fit: FitResult | None = None
    try:
        fit = fit_parameters(prefix)
    except NoConvergence as exc:
        notes.append(f"fit path unavailable: {exc}")

    if asym is not None and fit is not None:
        if _triple_distance(asym, fit.triple) > 1e-3:
            notes.append(
                "analytic and fit recoveries disagree beyond 1e-3; returning the fit value"
            )
            final = fit.triple
        else:
            final = asym
    elif asym is not None:
        final = asym
    elif fit is not None:
        final = fit.triple
    else:
        raise NoConvergence("both recovery routes failed: " + "; ".join(notes))

    return RecoveryResult(
        final,
        label.case,
        asym,
        None if fit is None else fit.triple,
        None if fit is None else fit.residual,
        tuple(notes),
        label.diagnostics,
    )
