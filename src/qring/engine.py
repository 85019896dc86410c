"""Root finding and the rank rule shared by the one- and two-singularity solvers.

In every energy sector a level is a root of one real secular function: up to
a constant phase and a positive factor, the determinant of the boundary
matrix (U - I) V + i L0 (U + I) D, where V and D hold the values and the
outward derivatives of the regularized basis (cos kx, sin(kx)/k) at the
joints.  The basis stays regular through k = 0, and k -> -i kappa continues
it into the negative sector.  For one singularity and for two, that function
is a fixed real quadratic form u^T A u on the jets
u = (cos kh, sin(kh)/k, k sin kh), h = l/2 (basis_jets); the solvers supply
A and their boundary matrices, and this module

* evaluates the form and its first two k-derivatives from one jets call
  (secular), e^{-kappa l}-scaled in the negative sector;
* scans k > 0 window by window (positive_roots), checking the number of
  roots found against their asymptotic density and rescanning finer on a
  deficit;
* scans ln kappa on a grid of fixed size (negative_roots), so the cost of
  the negative sector does not depend on the geometry;
* reads multiplicities off the boundary matrices of a whole window at once
  (null_dims).

Every scanner takes the secular function as one callable g(x, n) returning
the stacked values [f, f', ..., f^(n)] at x (n <= 2), as secular builds it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScanExhausted

SCAN_STEPS_PER_PI = 8          # positive-sector grid spacing pi/(8 l)
ROOT_XTOL_FACTOR = 1e-13       # |dk| * l target for refined roots
ROOT_VALUE_TOL = 1e-10         # |f| below this (times the local magnitude) counts as a touching root
RANK_TOL = 1e-8                # singular-value threshold on the row-equilibrated boundary matrix
NEGATIVE_GRID_POINTS = 641     # 32 per decade over 20 decades
SERIES_KH = 0.1                # below this k h the sin(kh)/k jets come from their Taylor series


@dataclass(frozen=True)
class Root:
    x: float
    touching: bool  # located as a zero-value extremum rather than a sign change


def refine(g, lo, hi, flo, xtol):
    """Bracket-safeguarded Newton (rtsafe), vectorized over brackets.

    Each [lo[i], hi[i]] must hold a sign change of f, with flo = f(lo), and
    g(x, 1) returns (f, f') at x in one call.  A Newton step is taken when
    it lands inside the current bracket and at most halves the previous
    step, otherwise the bracket is bisected.  A
    root is done once its Newton step falls below xtol (or a few ulps), or
    its bracket closes; a last step that only rounding noise pushed outside
    the bracket is dropped rather than replaced by a bisection.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    side = np.sign(flo)
    x = 0.5 * (lo + hi)
    tol = np.maximum(xtol, 4.0 * np.spacing(np.abs(hi)))
    last = hi - lo
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(100):  # bisection alone narrows any float bracket to tol within 100 halvings
        fx, dfx = g(x, 1)
        left = np.sign(fx) == side
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = -fx / dfx
        ok = (x + newton > lo) & (x + newton < hi) & (np.abs(newton) <= 0.5 * last)
        small = ~(np.abs(newton) >= tol)  # also fx == dfx == 0
        step = np.where(ok, newton, np.where(small, 0.0, 0.5 * (lo + hi) - x))
        x = np.where(done, x, x + step)
        last = np.abs(step)
        done |= small | (last < tol)
        if done.all():
            break
    return x


def scan_roots(g, xs, xtol, touch_radius=None, vertex_margin=math.inf, noise_floor=0.0) -> list[Root]:
    """All roots of a smooth real function between the points of the grid ``xs``.

    Sign changes are refined by refine on (f, f').  Every derivative sign
    change is refined on (f', f'') to its extremum: one sitting on zero is a
    touching (even-order) root, and one that dips across zero in a cell
    without a sign change hides a pair of closely spaced simple roots that
    the grid could not separate.  All thresholds compare against the
    neighboring sample magnitudes, so the scan is insensitive to how fast
    the function's envelope grows along the axis.

    ``vertex_margin`` < inf skips extrema whose cell-edge quadratic
    prediction sits further above zero than that multiple of the local
    magnitude; use it only for functions whose dips are locally parabolic
    (cell-edge extrapolation badly underestimates spike-like dips).

    Cells whose ends both lie below ``noise_floor`` carry no sign
    information and are skipped (the zero-mode condition can make the
    function vanish to high order at the origin).

    Crossings closer than ``touch_radius`` to a touching root are absorbed
    into it: within the rounding plateau of a quadratic zero (|f| below the
    evaluation noise over a sqrt(eps)-wide span) sign changes carry no
    information, so such satellites are artifacts, not levels.
    """
    if touch_radius is None:
        touch_radius = 4 * xtol
    fv, dv = g(xs, 1)
    quiet = np.abs(fv) < noise_floor
    quiet_cell = quiet[:-1] & quiet[1:]

    roots: list[Root] = []

    sign = np.sign(fv)
    exact = fv == 0.0
    for i in np.nonzero(exact & ~(np.r_[True, quiet_cell] & np.r_[quiet_cell, True]))[0]:
        roots.append(Root(float(xs[i]), touching=False))

    flips = np.nonzero((sign[:-1] * sign[1:] < 0) & ~exact[:-1] & ~exact[1:] & ~quiet_cell)[0]
    if flips.size:
        refined = refine(g, xs[flips], xs[flips + 1], fv[flips], xtol)
        roots.extend(Root(float(x), touching=False) for x in refined)

    # derivative sign changes: candidate touching roots / hidden pairs
    dflips = np.nonzero((np.sign(dv[:-1]) * np.sign(dv[1:]) < 0) & ~quiet_cell)[0]
    if dflips.size and math.isfinite(vertex_margin):
        curvature = (dv[dflips + 1] - dv[dflips]) / (xs[dflips + 1] - xs[dflips])
        safe = np.where(curvature == 0.0, 1.0, curvature)
        vertex = fv[dflips] - np.where(curvature == 0.0, 0.0, dv[dflips] ** 2 / (2.0 * safe))
        local = np.maximum(np.abs(fv[dflips]), np.abs(fv[dflips + 1]))
        suspicious = vertex * np.sign(fv[dflips]) < vertex_margin * local
        dflips = dflips[suspicious]
    if dflips.size:
        ext = refine(lambda x, n: g(x, n + 1)[1:], xs[dflips], xs[dflips + 1], dv[dflips], xtol)
        val = g(ext, 0)[0]
        fa, fb = fv[dflips], fv[dflips + 1]
        touching = np.abs(val) < ROOT_VALUE_TOL * np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1e-300)
        roots.extend(Root(float(x), touching=True) for x in ext[touching])
        # a dip across zero in a cell whose ends share a sign hides a pair of
        # simple roots; in a cell with a sign change its one crossing is
        # already among the refined sign changes
        pair = ~touching & (sign[dflips] * sign[dflips + 1] > 0) & (np.sign(val) * sign[dflips] < 0)
        if pair.any():
            e = ext[pair]
            sides = refine(g, np.r_[xs[dflips[pair]], e], np.r_[e, xs[dflips[pair] + 1]],
                           np.r_[fa[pair], val[pair]], xtol)
            roots.extend(Root(float(x), touching=False) for x in sides)

    roots.sort(key=lambda r: r.x)
    deduped: list[Root] = []
    for r in roots:
        if deduped:
            last = deduped[-1]
            radius = touch_radius if (r.touching or last.touching) else 4 * xtol
            if abs(r.x - last.x) < radius:
                if r.touching and not last.touching:
                    deduped[-1] = r
                continue
        deduped.append(r)
    return deduped


def scan_window_counted(
    g,
    x_lo,
    x_hi,
    step,
    xtol,
    touch_radius,
    vertex_margin,
    density,
    count_slack=3.0,
    max_refinements=5,
) -> list[Root]:
    """Uniform scan of [x_lo, x_hi] with eigenvalue-count verification.

    Asymptotically the roots (weighted by multiplicity, touching roots
    counting twice) fill the axis with uniform density, so a deficit
    against that count means the grid straddled a root pair too narrow to
    leave a local signature; the window is then rescanned at a finer step
    until the count closes or the refinement budget runs out.
    """

    def scan(step):
        xs = np.linspace(x_lo, x_hi, max(int(math.ceil((x_hi - x_lo) / step)) + 1, 8))
        return scan_roots(g, xs, xtol, touch_radius, vertex_margin)

    roots = scan(step)
    expected = (x_hi - x_lo) * density
    for _ in range(max_refinements):
        weight = sum(2 if r.touching else 1 for r in roots)
        if weight >= expected - count_slack:
            break
        step /= 4.0
        roots = scan(step)
    return roots


def sweep(g, grid, xtol, noise_floor) -> list[Root]:
    """Roots of f between the points of a grid, by sign changes alone.

    Cells whose ends both lie below the rounding floor carry no sign
    information and are skipped.
    """
    vals = g(grid, 0)[0]
    loud = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) >= noise_floor
    roots = [Root(float(x), touching=False) for x in grid[:-1][loud & (vals[:-1] == 0.0)]]
    flips = np.nonzero(loud & (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))[0]
    if flips.size:
        refined = refine(g, grid[flips], grid[flips + 1], vals[flips], xtol)
        roots.extend(Root(float(x), touching=False) for x in refined)
    return roots


def positive_roots(g, l, count, multiplicity, noise_floor, touch_radius, vertex_margin):
    """The lowest ``count`` accepted roots k > 0, as (Root, multiplicity) pairs.

    A geometric prefix resolves roots below the first grid step; windows of
    pi (count + 8) / l follow, each scanned on a pi/(8 l) grid with count
    verification.  ``multiplicity(ks)`` returns one integer per root of a
    window, 0 rejecting it.  Raises ScanExhausted when fewer than ``count``
    roots are accepted below k l = 4 pi (count + 8).
    """
    step = math.pi / (SCAN_STEPS_PER_PI * l)
    xtol = ROOT_XTOL_FACTOR / l
    cap = 4.0 * math.pi * (count + 8) / l
    found: list[tuple[Root, int]] = []

    def accept(roots):
        kept: list[Root] = []
        for r in roots:
            prev = kept[-1].x if kept else (found[-1][0].x if found else -math.inf)
            if abs(r.x - prev) >= 1e-8 / l:
                kept.append(r)
        mults = multiplicity(np.array([r.x for r in kept]))
        found.extend((r, int(m)) for r, m in zip(kept, mults) if m > 0)

    # the uniform grid starts one step in; a tiny first root can hide below it
    accept(sweep(g, np.geomspace(step * 1e-4, step, 48), xtol, noise_floor))
    lo = step
    window = math.pi * (count + 8) / l
    while len(found) < count:
        if lo >= cap:
            raise ScanExhausted(f"found {len(found)} of {count} positive levels below k l = {cap * l:.1f}")
        hi = min(lo + window, cap)
        accept(scan_window_counted(g, lo, hi, step, xtol, touch_radius, vertex_margin, l / math.pi))
        lo = hi + step * 1e-3
    return found[:count]


def negative_roots(g, l, kappa_lo, kappa_max, noise_floor) -> list[Root]:
    """All roots of the negative-sector secular function on [kappa_lo, kappa_max].

    One scan, with the dip test for hidden pairs, on a geometric grid of
    NEGATIVE_GRID_POINTS points whatever the geometry: at least 32 per
    decade while kappa_max / kappa_lo stays below 1e20.  ``g`` should
    evaluate the e^{-kappa l}-scaled secular function, which stays in float range
    however deep the level.  Below kappa_lo the solvers cannot tell a level
    from the zero mode's rounding noise.
    """
    grid = np.geomspace(kappa_lo, kappa_max, NEGATIVE_GRID_POINTS)
    return scan_roots(g, grid, ROOT_XTOL_FACTOR / l, 4e-7 / l, math.inf, noise_floor)


def _sinc_jets(sign):
    """Taylor coefficients in x of sin(x)/x (sign -1) or sinh(x)/x (+1) and of
    its first two derivatives, to float precision below SERIES_KH."""
    coef = np.array([0.0 if n % 2 else sign ** (n // 2) / math.factorial(n + 1) for n in range(16)])
    return [np.polynomial.polynomial.polyder(coef, n) for n in range(3)]


_SINC_JETS = {False: _sinc_jets(-1.0), True: _sinc_jets(1.0)}


def basis_jets(k, h, hyperbolic: bool, order: int = 2):
    """Rows u, u', u'' of u = (cos kh, sin(kh)/k, k sin kh) and its k-derivatives.

    ``hyperbolic`` takes the continuation k -> -i kappa at k = kappa,
    u = (cosh kh, sinh(kh)/k, -k sinh kh), with every row times e^{-kh} so
    that no entry overflows however deep the level.  Below k h = SERIES_KH
    sin(kh)/k and its derivatives come from their Taylor series, where the
    closed forms cancel, so every entry is exact through k = 0.  Only the
    rows up to ``order`` are built.  Shape (order + 1, 3) + k.shape.
    """
    shape = np.shape(k)
    k = np.asarray(k, dtype=float).reshape(-1)
    th = k * h
    if hyperbolic:
        cs, sn, sg = 0.5 * (1.0 + np.exp(-2.0 * th)), -0.5 * np.expm1(-2.0 * th), 1.0
    else:
        cs, sn, sg = np.cos(th), np.sin(th), -1.0
    small = th < SERIES_KH
    series = small.any()
    kd = np.where(small, 1.0, k) if series else k
    # k s(k) = sin kh, differentiated: k s^(n) + n s^(n-1) = (d/dk)^n sin kh
    s = [sn / kd]
    for top in (h * cs, sg * h * h * sn)[:order]:
        s.append((top - len(s) * s[-1]) / kd)
    if series:
        x = th[small]
        scale = h * np.exp(-x) if hyperbolic else h
        for n, jet in enumerate(s):
            jet[small] = scale * h**n * np.polynomial.polynomial.polyval(x, _SINC_JETS[hyperbolic][n])
    out = np.empty((order + 1, 3, k.size))
    k2 = k * k
    out[0, 0], out[0, 1], out[0, 2] = cs, s[0], -sg * k2 * s[0]
    if order >= 1:
        out[1, 0], out[1, 1], out[1, 2] = sg * h * sn, s[1], -sg * (2.0 * k * s[0] + k2 * s[1])
    if order >= 2:
        out[2, 0], out[2, 1], out[2, 2] = sg * h * h * cs, s[2], -sg * (2.0 * s[0] + 4.0 * k * s[1] + k2 * s[2])
    return out.reshape((order + 1, 3) + shape)


def secular(form, l, hyperbolic: bool = False):
    """The secular function Q = u^T A u on the jets u(k; l/2), as one callable.

    g(k, n) returns [Q, Q', ..., Q^(n)] (n <= 2) from a single basis_jets
    call.  ``hyperbolic`` evaluates at k -> -i kappa and returns the
    derivatives of e^{-kappa l} Q instead: the row scaling of the jets
    carries that factor, which keeps deep levels in float range and leaves
    roots and signs alone.
    """
    form = np.asarray(form, dtype=float)
    w = l if hyperbolic else 0.0

    def g(k, n=0):
        shape = np.shape(k)
        u = basis_jets(np.reshape(k, -1), l / 2.0, hyperbolic, n)
        q = np.einsum("aij,ij->aj", u, form @ u[0])  # u^T A u, u'^T A u, u''^T A u
        if n >= 2:
            q[2] = 2.0 * (q[2] + np.einsum("ij,ij->j", u[1], form @ u[1])) - 4.0 * w * q[1] + w * w * q[0]
        if n >= 1:
            q[1] = 2.0 * q[1] - w * q[0]
        return q.reshape((n + 1,) + shape)

    return g


def boundary_matrix(umat, l0, vals, ders):
    """(U - I) V + i L0 (U + I) D and its entrywise envelope |U - I| |V| + L0 |U + I| |D|.

    V and D (stackable, shape (..., n, n)) hold the values and the outward
    derivatives of the basis functions (columns) at the joints (rows).  The
    envelope bounds every entry without cancellation and sets the scale of
    the rank rule.
    """
    eye = np.eye(umat.shape[-1])
    minus = umat - eye
    plus = 1j * l0 * (umat + eye)
    return minus @ vals + plus @ ders, np.abs(minus) @ np.abs(vals) + np.abs(plus) @ np.abs(ders)


def _equilibrated(mats, envs):
    # each row over the largest entry of its envelope row: a joint whose rows
    # are scaled down (deep hyperbolic entries) keeps its say in the rank
    return mats / np.maximum(envs.max(axis=-1, keepdims=True), np.finfo(float).tiny)


def null_dims(mats, envs):
    """Null dimension of each boundary matrix of a stack: the number of singular
    values of the row-equilibrated matrix below RANK_TOL."""
    s = np.linalg.svd(_equilibrated(mats, envs), compute_uv=False)
    return np.sum(s < RANK_TOL, axis=-1)


def null_space(mat, env):
    """(null dimension, vectors) of one boundary matrix by the rule of null_dims.

    The vectors are the rows of the returned array, ordered by decreasing
    singular value, so the null space is spanned by the last ones.
    """
    _, s, vh = np.linalg.svd(_equilibrated(mat, env))
    return int(np.sum(s < RANK_TOL)), vh.conj()
