"""Root finding and the rank rule shared by the one- and two-singularity solvers.

In every energy sector a level is a root of one real secular function: up to
a constant phase and a positive factor, the determinant of the boundary
matrix (U - I) V + i L0 (U + I) D, where V and D hold the values and the
outward derivatives of the regularized basis (cos kx, sin(kx)/k) at the
joints.  The basis stays regular through k = 0, and k -> -i kappa continues
it into the negative sector.  For one singularity and for two, that function
is a fixed real quadratic form G = u^T A u on the jets
u = (cos kh, sin(kh)/k, k sin kh), h = l/2 (basis_jets); the solvers supply
A and their boundary matrices, and this module

* evaluates the form and its first two k-derivatives from one jets call
  (secular), e^{-kappa l}-scaled in the negative sector;
* brackets every positive root in the cells between the points k l = n pi
  (cell_brackets), then refines all brackets in one vectorized call, each
  from the root of its cell's quadratic in tan(kl/2) (cell_starts,
  solve_brackets), or tests data against them (slots_hold);
* decides the levels at E <= 0 from the ordered eigenvalues of one matrix
  Q(kappa) on the boundary values: the bound states and the zero modes from
  one reading of them at kappa = 0 (index_form, bound_and_zero_states);
* reads the multiplicity of an exact positive root off its boundary matrix
  (null_dims); a bracketed root is simple.

refine takes the secular function as one callable g(x, n) returning
[f, f', ..., f^(n)] at x (n <= 2), as secular builds it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InternalInvariant

ROOT_XTOL_FACTOR = 1e-13       # |dk| * l target for refined roots
ROOT_VALUE_TOL = 1e-10         # |f| at a cell's split point below this (times the ends' magnitude) may be a doublet
END_LEVEL_TOL = 1e-12          # an end value below this times max |A_ij| is a level on the end
RANK_TOL = 1e-8                # singular-value threshold on the row-equilibrated boundary matrix
SERIES_KH = 0.1                # below this k h the sin(kh)/k jets come from their Taylor series
EIGENPHASE_PI_TOL = 1e-14      # 2 |cos(theta/2)| at or below this: an eigenphase of pi, a Dirichlet direction
ZERO_MODE_TOL = 1e-14          # |mu_j(0)| at or below this, times the form's band max(1, L/L0): a zero mode


def refine(g, lo, hi, flo, x, xtol):
    """Bracket-safeguarded Newton (rtsafe), vectorized over brackets.

    Each [lo[i], hi[i]] must hold a sign change of f, with flo = f(lo), and
    g(x, 1) returns (f, f') at x in one call.  The iteration starts at the
    caller's x[i] in [lo[i], hi[i]]: cell_starts for the positive cells,
    the Robin depth for the bound states.  A Newton step is taken when it
    lands inside the current bracket and at most halves the previous step,
    otherwise the bracket is bisected.  A root is done once its Newton step
    falls below xtol (or a few ulps), or its bracket closes; a last step
    that only rounding noise pushed outside the bracket is dropped rather
    than replaced by a bisection.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    side = np.sign(flo)
    x = np.array(x, dtype=float)
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


def zero_taylor(form, l, order):
    """The coefficient of k^(2 order) in G = u^T A u at k = 0 (order <= 2), from
    the jets' Taylor rows (1, h, 0), (-h^2/2, -h^3/6, h), (h^4/24, h^5/120, -h^3/6)."""
    h = 0.5 * l
    rows = np.array([[1.0, h, 0.0], [-h**2 / 2, -h**3 / 6, h], [h**4 / 24, h**5 / 120, -h**3 / 6]])
    return float(sum(rows[i] @ form @ rows[order - i] for i in range(order + 1)))


def cell_starts(form, l, lo, hi):
    """Starts for refine in brackets [lo, hi] that each lie in one cell of G = u^T A u.

    In cell n, k l in (n pi, (n + 1) pi), G = cos^2(kl/2) (A00 + 2 b T + a T^2)
    with T = tan(kl/2), b(k) = A01/k + A02 k and a(k) = A11/k^2 + 2 A12 + A22 k^2,
    whose coefficients change slowly with k.  Frozen at the start, the
    quadratic's root T whose kl/2 = atan T + ceil(n/2) pi lies in the
    bracket is the next start; two such passes from the midpoint place most
    starts within a few digits of their roots.  A bracket where no root of
    the frozen quadratic lies keeps its start, the midpoint at first.
    """
    x = 0.5 * (lo + hi)
    turn = np.ceil(0.5 * np.floor(x * (l / math.pi))) * math.pi
    c = form[0, 0]
    for _ in range(2):
        with np.errstate(divide="ignore", invalid="ignore"):
            b = form[0, 1] / x + form[0, 2] * x
            a = form[1, 1] / x**2 + 2.0 * form[1, 2] + form[2, 2] * x**2
            q = -(b + np.copysign(np.sqrt(b * b - a * c), b))  # nan without a real root
            t = np.stack((q / a, c / q))
        k = (2.0 / l) * (np.arctan(t) + turn)
        inside = (k > lo) & (k < hi)
        x = np.where(inside[0], k[0], np.where(inside[1], k[1], x))
    return x


def cell_brackets(form, l, count, dims, zero_order):
    """One slot per root k > 0 of G = u^T A u, for at least the lowest ``count``,
    as (exact, exact multiplicities, lo, hi, side): the roots known exactly,
    and brackets [lo, hi] that hold one simple root each, with G of sign
    ``side`` just above lo.

    With T = tan(kl/2), G = cos^2(kl/2) (A00 + 2 (A01/k + A02 k) T + a(k) T^2),
    a(k) = A11/k^2 + 2 A12 + A22 k^2: the ends of cell n, k l in
    (n pi, (n + 1) pi), take the values A00 (n even) and a(k) (n odd).  A
    cell holds at most two roots, one per eigenvalue branch of the
    Dirichlet-to-Neumann matrix plus the vertex's Robin part (Friedlander),
    split by the zero of phi = a(k) sin^2(kl/2) - A00 cos^2(kl/2), where T is
    the geometric mean of the two roots in T (split_brackets): proven for one
    singularity, checked for two.  An end value within END_LEVEL_TOL of zero
    is a root; its cell holds at most one more, and the sign next to it is
    that of the derivative of G whose order is its multiplicity.  Cell 0 starts
    from the coefficient of G in k^2 of order ``zero_order``, the zero mode's
    multiplicity.  ``dims(ks)`` gives the boundary matrices' null dimensions,
    read only at exact roots: a bracket, across which G changes sign in a
    cell of at most two roots, holds one simple root.  Doublets (on the ends
    at +-exchange) can need 2 count + 2 cells.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    for cells in (count + 2, 2 * count + 2):
        slots = _cells(form, l, cells, dims, zero_order)
        if slots[0].size + slots[2].size >= count:
            return slots
    raise InternalInvariant(f"{slots[0].size + slots[2].size} levels in {cells} cells; {count} requested")


def _multiplicities(dims, ks):
    return np.maximum(dims(ks), 1) if ks.size else np.empty(0, dtype=int)


def _cells(form, l, cells, dims, zero_order):
    """The slots of cell_brackets in the first ``cells`` cells and on their ends."""
    g = secular(form, l)
    n = np.arange(cells + 1)
    k = n * math.pi / l
    with np.errstate(divide="ignore", invalid="ignore"):
        a = form[1, 1] / k**2 + 2.0 * form[1, 2] + form[2, 2] * k**2
    value = np.where(n % 2 == 1, a, form[0, 0])
    phi = np.where(n % 2 == 1, a, -form[0, 0])
    value[0], phi[0] = zero_taylor(form, l, zero_order), form[1, 1] * (0.5 * l) ** 2 - form[0, 0]
    on_end = np.abs(value) <= END_LEVEL_TOL * np.abs(form).max()
    on_end[0] = zero_order > 0
    # the sign of G just above (right) and just below (left) each end
    right = np.sign(value)
    left = right.copy()
    ends = np.nonzero(on_end[1:])[0] + 1
    end_mults = _multiplicities(dims, k[ends])
    if ends.size:
        order = np.minimum(end_mults, 2)
        right[ends] = np.sign(g(k[ends], 2)[order, np.arange(ends.size)])
        left[ends] = np.where(order % 2, -right[ends], right[ends])

    lo, hi, s_lo, s_hi = k[:-1], k[1:], right[:-1], left[1:]
    split = ~(on_end[:-1] | on_end[1:]) & (s_lo * s_hi > 0) & (phi[:-1] * phi[1:] < 0)
    mid = np.full(cells, np.nan)
    if form[1, 1] == 0.0 and form[2, 2] == 0.0 and split.any():
        # a(k) = 2 A12 is constant: tan^2(kl/2) = A00 / a at the split
        theta = 2.0 * math.atan(math.sqrt(form[0, 0] / (2.0 * form[1, 2]))) / l
        mid[split] = np.where(n[:-1][split] % 2 == 0, lo[split] + theta, hi[split] - theta)
    elif split.any():
        phi_form = np.diag([-form[0, 0], 0.0, 0.0]) + np.pad(form[1:, 1:], ((1, 0), (1, 0)))
        lo_s, hi_s = lo[split], hi[split]  # phi's quadratic is G's with A00 -> -A00, A01 = A02 = 0
        start = cell_starts(phi_form, l, lo_s, hi_s)
        mid[split] = refine(secular(phi_form, l), lo_s, hi_s, phi[:-1][split], start, ROOT_XTOL_FACTOR / l)
    scale = np.maximum(np.abs(value[:-1]), np.abs(value[1:]))
    exact, exact_mults, *brackets = split_brackets(g, lo, hi, s_lo, s_hi, mid, scale, dims)
    return (np.concatenate((k[ends], exact)), np.concatenate((end_mults, exact_mults)), *brackets)


def split_brackets(g, lo, hi, s_lo, s_hi, mid, scale, dims):
    """The slots of cells (lo, hi) that hold at most two roots of g, as cell_brackets' tuple.

    Ends of opposite sign (``s_lo``, ``s_hi``: just inside) bracket one simple root.
    Ends of one sign hold two if g changes sign at the split point ``mid``
    (nan: none), a doublet there if |g(mid)| < ROOT_VALUE_TOL ``scale`` with
    a two-dimensional null space (``dims``), or none.
    """
    one = s_lo * s_hi < 0
    split = (s_lo * s_hi > 0) & ~np.isnan(mid)
    lo_s, hi_s, s_s, mid = lo[split], hi[split], s_lo[split], mid[split]
    g_mid = g(mid, 0)[0]
    doublet = np.abs(g_mid) < ROOT_VALUE_TOL * scale[split]
    doublet[doublet] = _multiplicities(dims, mid[doublet]) == 2
    two = ~doublet & (np.sign(g_mid) * s_s < 0)
    lo, hi = np.concatenate((lo[one], lo_s[two], mid[two])), np.concatenate((hi[one], mid[two], hi_s[two]))
    side = np.concatenate((s_lo[one], s_s[two], np.sign(g_mid[two])))
    return mid[doublet], np.full(doublet.sum(), 2), lo, hi, side


def solve_brackets(form, slots, l, count):
    """The lowest ``count`` roots of G = u^T A u in the slots of cell_brackets,
    ascending, as (positions, multiplicities): every bracket refined in one
    call, each from its cell_starts.  Exact roots keep the multiplicities of
    their slots; a bracket holds one simple root."""
    ks, mults, lo, hi, side = slots
    if lo.size:  # none where every level is exact: Dirichlet, Neumann, pinned U, +-exchange
        start = cell_starts(form, l, lo, hi)
        ks = np.concatenate((ks, refine(secular(form, l), lo, hi, side, start, ROOT_XTOL_FACTOR / l)))
        mults = np.concatenate((mults, np.ones(lo.size, dtype=int)))
    order = np.argsort(ks)[:count]
    return ks[order], mults[order]


def slots_hold(g, slots, data, delta):
    """Whether datum i lies in the i-th lowest slot for every i, without refining a root.

    An exact root holds a datum within ``delta`` of it.  A bracket, whose one
    root is within ``delta`` of the datum exactly when g changes sign on
    [datum - delta, datum + delta] within the bracket, is read off the signs
    of g at the ends of that span: one evaluation for all data.
    """
    exact, _, lo, hi, side = slots
    lo, hi, side = np.concatenate((exact, lo)), np.concatenate((exact, hi)), np.concatenate((np.zeros_like(exact), side))
    order = np.argsort(0.5 * (lo + hi))[: len(data)]
    lo, hi, side = lo[order], hi[order], side[order]
    a, b = np.maximum(lo, np.subtract(data, delta)), np.minimum(hi, np.add(data, delta))
    if not (a <= b).all():
        return False
    f_a, f_b = np.sign(g(np.concatenate((a, b)), 0)[0]).reshape(2, -1)
    f_a, f_b = np.where(a == lo, side, f_a), np.where(b == hi, -side, f_b)
    return bool(np.all((f_a * side >= 0) & (f_b * side <= 0)))


def eigenphases(u) -> tuple[np.ndarray, np.ndarray]:
    """U's eigenphases xi -+ phi, cos phi = aR, and its eigenvectors as columns:
    those of W = (e^{-i xi} U - aR) / i for -+ sin phi."""
    w = np.array([[u.alpha.imag, -1j * u.beta], [1j * u.beta.conjugate(), -u.alpha.imag]])
    phi = math.atan2(math.hypot(u.alpha.imag, abs(u.beta)), u.alpha.real)
    return u.xi + np.array([-phi, phi]), np.linalg.eigh(w)[1]


def index_form(vertices, l0, length, ends):
    """Q(kappa) = H + K(kappa) on the boundary values, as (h, X, length, band).

    Each vertex condition U acts on two consecutive boundary values.  H is its
    Robin part, -tan(theta/2)/L0 on U's eigenvectors over its eigenphases
    theta; an eigenphase of pi (2 |cos(theta/2)| <= EIGENPHASE_PI_TOL) is a
    Dirichlet direction and is left out, so Q acts on the columns of the
    block-diagonal B of the other eigenvectors.  K is the edges'
    Dirichlet-to-Neumann matrix: boundary value i is joined to ``ends[i]`` by
    an edge of ``length``, and on the ends (a, b) of one edge
    K = t I + o (a - b)(a - b)^T, t = kappa tanh(kappa L/2), o = kappa / sinh(kappa L).
    So Q = diag(h) + t I + 2 o X X^dagger, X = B^dagger E, E holding one
    column (e_a - e_b)/sqrt 2 per edge.  Q increases with kappa, and by
    Friedlander's index formula the number of its negative eigenvalues is
    the number of bound states deeper than -kappa^2.  A zero mode's mu_j(0)
    lies within ``band`` times ZERO_MODE_TOL of zero: a few ulps on an
    eigenphase move h = -tan(theta/2)/L0 by about eps/L0, so mu by eps L/L0.
    """
    e = np.array([[(i == a) - (i == z) for a, z in enumerate(ends) if a < z] for i in range(len(ends))]) * math.sqrt(0.5)
    h, x = [], []
    for i, u in enumerate(vertices):  # B is block-diagonal: X is U's free eigenvectors against E's rows
        theta, v = eigenphases(u)
        free = 2.0 * np.abs(np.cos(0.5 * theta)) > EIGENPHASE_PI_TOL
        h.append(-np.tan(0.5 * theta[free]) / l0)
        x.append(v[:, free].conj().T @ e[2 * i : 2 * i + 2])
    return np.concatenate(h), np.vstack(x), length, max(1.0, length / l0)


def _edge(kappa, length):
    """t = kappa tanh(kappa L/2), o = kappa / sinh(kappa L) and their kappa-derivatives
    at one kappa >= 0, from e^{-kappa L}: nothing overflows however deep."""
    x = kappa * length
    if x == 0.0:
        return 0.0, 1.0 / length, 0.0, 0.0
    e, em = math.exp(-x), -math.expm1(-x)
    th, csch = em / (1.0 + e), 2.0 * e / (em * (1.0 + e))  # tanh(x/2), 1/sinh x
    do = -x / 3.0 if x < 1e-3 else (1.0 - x * (1.0 + e * e) / (em * (1.0 + e))) * csch  # (x / sinh x)'
    return kappa * th, kappa * csch, th + 0.5 * x * (1.0 - th * th), do


def _two_branches(h1, h2, g11, g22, g12, det_g, length, kappa):
    """(mu_1, mu_2, mu_1', mu_2') of a two-dimensional Q at one kappa, in closed form (branches)."""
    t, o, dt, do = _edge(kappa, length)
    dd = dt + do
    s1, s2 = 1.0 / (abs(h1) + t + o), 1.0 / (abs(h2) + t + o)
    w = 2.0 * g12 * math.sqrt(s1 * s2)
    a, b, c = s1 * (h1 + t + 2.0 * o * g11), s2 * (h2 + t + 2.0 * o * g22), w * o
    da, db = s1 * (dt + 2.0 * do * g11 - dd * a), s2 * (dt + 2.0 * do * g22 - dd * b)
    dc = w * (do - 0.5 * o * dd * (s1 + s2))
    mean, half = 0.5 * (a + b), 0.5 * (a - b)
    rad = math.hypot(half, c)
    big = mean + math.copysign(rad, mean)
    det = s1 * s2 * ((h1 + t) * (h2 + t) + 2.0 * o * ((h1 + t) * g22 + (h2 + t) * g11) + 4.0 * o * o * det_g)
    small = det / big if big else 0.0
    drad = (0.5 * half * (da - db) + c * dc) / rad if rad else 0.0
    lo, hi = (small, big) if mean >= 0.0 else (big, small)
    return lo, hi, 0.5 * (da + db) - drad, 0.5 * (da + db) + drad


def branches(form, kappa, n=0):
    """The ordered eigenvalues mu_j(kappa) of S Q(kappa) S, and their derivatives.

    S = diag(|h| + d)^-1/2, d = t + o = kappa coth(kappa L), is Q's Jacobi
    scaling: it keeps Q's inertia, so mu_j changes sign where the j-th
    eigenvalue of Q does, and brings the entries to order one however large
    |h|.  Each mu_j has at most one root.

    Two branches come in closed form: mean +- rad for the larger in
    magnitude, det / that for the other, with
    det Q = (h1 + t)(h2 + t) + 2 o ((h1 + t) G22 + (h2 + t) G11) + 4 o^2 det G,
    G = X X^dagger, whose det is exact (0 for one edge).  More branches come
    from eigh, each value recomputed as the Rayleigh quotient
    sum_i h_i |u_i|^2 + t |u|^2 + 2 o |X^dagger u|^2, u = S v.  Either way the
    terms that cancel near E = 0, where K(0) is singular, are kept apart, so
    a state there is found to the rounding of h.  Derivatives: Hellmann-Feynman,
    u^dagger Q' u - d' mu |u|^2.  Shape (n + 1, len(kappa), r), n <= 1.
    """
    h, x, length, _ = form
    kappa = np.asarray(kappa, dtype=float).reshape(-1).tolist()
    if h.size == 2:
        gram = x @ x.conj().T
        det_g = abs(np.linalg.det(x)) ** 2 if x.shape[1] == 2 else 0.0
        consts = (*h.tolist(), gram[0, 0].real, gram[1, 1].real, abs(gram[0, 1]), det_g, length)
        return np.array([_two_branches(*consts, k) for k in kappa]).reshape(-1, 2, 2).transpose(1, 0, 2)[: n + 1]
    if not h.size:
        return np.zeros((n + 1, len(kappa), 0))
    t, o, dt, do = np.array([_edge(k, length) for k in kappa]).T
    sig = 1.0 / np.sqrt(np.abs(h) + (t + o)[:, None])
    q = (2.0 * o)[:, None, None] * (x @ x.conj().T)
    q[:, np.arange(h.size), np.arange(h.size)] += h + t[:, None]
    u = sig[:, :, None] * np.linalg.eigh(sig[:, :, None] * q * sig[:, None, :])[1]
    xu = x.conj().T @ u
    u2, xu2 = u.real**2 + u.imag**2, np.sum(xu.real**2 + xu.imag**2, axis=1)
    norm = u2.sum(1)
    mu = h @ u2 + t[:, None] * norm + 2.0 * o[:, None] * xu2
    dmu = (dt[:, None] - (dt + do)[:, None] * mu) * norm + 2.0 * do[:, None] * xu2
    return np.stack((mu, dmu))[: n + 1]


def zero_modes(form, tol: float = ZERO_MODE_TOL) -> int:
    """The multiplicity of E = 0: the number of |mu_j(0)| within ``tol`` times the form's band of zero."""
    return int(np.sum(np.abs(branches(form, [0.0])[0, 0]) <= tol * form[3]))


def bound_states(form):
    """The bound states of Q, deepest first, as (wavenumbers, multiplicities) (bound_and_zero_states)."""
    return bound_and_zero_states(form)[:2]


def bound_and_zero_states(form):
    """The levels of Q at E <= 0 from one evaluation of its branches at
    kappa = 0: the bound states, deepest first, as (wavenumbers,
    multiplicities), and the multiplicity of E = 0, as zero_modes gives it
    at ZERO_MODE_TOL.  The solvers call it once per solve.

    There are as many bound states as mu_j(0) below the zero modes' band,
    and the j-th deepest is the one root of mu_j.  By Weyl's inequalities
    the j-th eigenvalue of Q lies between h_(j) + t and h_(j) + t + 2 o,
    h_(j) the j-th smallest h, and
    kappa - 1/L < t <= t + 2 o = kappa coth(kappa L/2) < kappa + 2/L, so
    mu_j < 0 at kappa = -h_(j) - 3/L and > 0 at -h_(j) + 2/L: a bracket of
    width 5/L per root, all refined in one call, each from its Robin depth
    -h_(j) clipped into the bracket (the root once K(kappa) ~ kappa I, at
    kappa L >> 1).  Roots of mu_j and mu_j+1 that agree to the refiner's
    tolerance (each within it of its own root) are one doublet.
    """
    h, _, length, band = form
    mu0, band = branches(form, [0.0])[0, 0], ZERO_MODE_TOL * band
    zero, js = int(np.sum(np.abs(mu0) <= band)), np.nonzero(mu0 < -band)[0]
    if not js.size:
        return np.empty(0), np.empty(0, dtype=int), zero
    depth, xtol = -np.sort(h)[js], ROOT_XTOL_FACTOR / length
    # descending, as the roots are
    lo, hi = np.maximum(depth - 3.0 / length, 0.0), np.maximum(depth, 0.0) + 2.0 / length
    g = lambda x, n: branches(form, x, n)[:, np.arange(js.size), js]
    ks = np.sort(refine(g, lo, hi, -np.ones(js.size), np.clip(depth, lo, hi), xtol))[::-1]
    # each root is within refine's tolerance of its own: two within twice that are one doublet
    double = ks[:-1] - ks[1:] <= 2.0 * np.maximum(xtol, 4.0 * np.spacing(hi[:-1]))
    if np.any(double[1:] & double[:-1]):
        raise InternalInvariant(f"three bound states within the refiner's tolerance of {ks[0]}")
    keep = ~np.r_[False, double]
    return ks[keep], 1 + np.r_[double, False][keep], zero


def bound_states_hold(form, data, delta) -> bool:
    """Whether the bound states of Q lie one to one within ``delta`` of the data, without refining a root.

    Window i runs from datum i - delta to datum i + delta, cut at the
    midpoints between neighbouring data.  A branch has its root in a window
    exactly when it changes sign across it, so each window must hold one root
    (a doublet two) and the windows all of bound_states': the signs of every
    branch at the window ends, one evaluation for all data.
    """
    data = np.sort(np.asarray(data, dtype=float))
    mids = 0.5 * (data[1:] + data[:-1])
    points = np.r_[0.0, np.maximum(data - delta, np.r_[0.0, mids]), np.minimum(data + delta, np.r_[mids, data[-1:] + delta])]
    # at kappa = 0 a branch in the zero modes' band is no bound state
    floor = np.where(points == 0.0, -ZERO_MODE_TOL * form[3], 0.0)
    below = np.sum(branches(form, points)[0] < floor[:, None], axis=-1)
    held = below[1 : data.size + 1] - below[data.size + 1 :]
    return bool(np.all(held >= 1) and held.sum() == below[0])


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
