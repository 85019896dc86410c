"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run from the repository root:  python -m pytest perfbench -q
"""
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks as C  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import time_ops  # noqa: E402
from workloads import (  # noqa: E402
    OVERFLOW_KAPPA, SPECTRAL_WITNESS, levels_of, pair_witnesses, parse_kernel, parse_levels, write_levels_csv,
)

from qring import kernels, spectrum, twopoint, u2  # noqa: E402


def haar_case(seed, l0=0.7, count=40):
    u = C.haar_unitary(np.random.default_rng(seed))
    levels = levels_of(spectrum.full_spectrum(u2.from_matrix(u), u2.Geometry(1.0, l0), count))
    return u, l0, levels


def replace(levels, i, new):
    out = list(levels)
    out[i] = new
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_point_accepts_solver_output(seed):
    u, l0, levels = haar_case(seed)
    assert C.check_one_point(u, 1.0, l0, levels, 40) is None


def test_dropped_level_rejected_by_completeness():
    u, l0, levels = haar_case(4)
    i = next(j for j, lv in enumerate(levels) if lv[0] == "positive") + 10
    dropped = levels[:i] + levels[i + 1:]
    why = C.completeness(dropped, lambda e: C._regular_matrices(u, 1.0, l0, e), 1.0)
    assert why and ("missing" in why or "contradicts" in why)
    assert C.check_one_point(u, 1.0, l0, dropped, 39) is not None


def test_dropped_bound_state_rejected():
    u = C.triple_unitary(0.0, 0.4, 0.0, phi=0.5)
    exact = C.exact_one_point("pinned", 1.0, 0.5, 20, 0.4)
    assert C.check_one_point(u, 1.0, 0.5, exact, 20) is None
    assert "missing" in C.check_one_point(u, 1.0, 0.5, exact[1:], 20)


def test_shifted_level_rejected():
    u, l0, levels = haar_case(5)
    sector, k, m = levels[-5]
    why = C.check_one_point(u, 1.0, l0, replace(levels, -5, (sector, k * (1 + 1e-6), m)), 40)
    assert why and "no root" in why


def test_wrong_multiplicity_rejected():
    u, l0, levels = haar_case(6)
    sector, k, _ = levels[-3]
    assert "multiplicity" in C.check_one_point(u, 1.0, l0, replace(levels, -3, (sector, k, 2)), 40)
    doublets = C.exact_one_point("exchange-", 1.0, 1.0, 10)
    assert C.check_one_point(C.SIGMA1 * -1, 1.0, 1.0, doublets, 10) is None
    single = replace(doublets, 4, ("positive", doublets[4][1], 1))
    assert "multiplicity" in C.check_one_point(-C.SIGMA1, 1.0, 1.0, single, 10)


def test_closed_forms_and_their_corruption():
    for kind, u in (("exchange+", C.SIGMA1), ("dirichlet", -np.eye(2)), ("neumann", np.eye(2))):
        got = levels_of(spectrum.full_spectrum(u2.from_matrix(u), u2.Geometry(1.0, 0.3), 30))
        exact = C.exact_one_point(kind, 1.0, 0.3, 30)
        assert C.matches_exact(got, exact) is None
        assert C.matches_exact(replace(got, -1, (got[-1][0], got[-1][1] * (1 + 1e-8), got[-1][2])), exact)


def test_deep_level():
    assert C.deep_level(C.triple_unitary(0.0, -0.999, 0.0), 1.0, 1.0, 20.0)  # kappa = 44.7
    assert not C.deep_level(C.triple_unitary(0.0, -0.9, 0.0), 1.0, 1.0, 20.0)  # kappa = 4.4


def test_pair_deep_level():
    assert C.pair_deep_level(C.triple_unitary(0.0, -0.999, 0.0), C.SIGMA1, 1.0, 1.0, 20.0)  # kappa = 44.7
    assert not C.pair_deep_level(C.triple_unitary(0.0, -0.9, 0.0), C.SIGMA1, 1.0, 1.0, 20.0)


def test_witnesses_are_fixed_and_deep():
    a, b = pair_witnesses()["deep_level"]
    a2, b2 = pair_witnesses()["deep_level"]
    assert np.array_equal(a, a2) and np.array_equal(b, b2)
    assert C.pair_deep_level(a, b, 1.0, 1.0, 40.0)
    assert C.deep_level(C.triple_unitary(*SPECTRAL_WITNESS), 1.0, 1.0, OVERFLOW_KAPPA)


def test_time_ops_counts_failures():
    class Fake:
        def run(self, op):
            if op["raise"]:
                raise ValueError("boom")
            return op["out"]

        def check(self, i, op, out):
            return None if out == "good" else "wrong output"

    ops = [{"raise": False, "out": "good"}, {"raise": False, "out": "bad", "witness": "w"},
           {"raise": True, "witness": "w"}, {"raise": False, "out": "good"}]
    latencies, total_s, failed, wrong = time_ops(Fake(), ops)
    assert len(latencies) == 2 and failed == 2 and wrong == [] and total_s >= sum(latencies)
    _, _, failed, wrong = time_ops(Fake(), ops + [{"raise": True}, {"raise": False, "out": "bad"}])
    assert failed == 4 and len(wrong) == 2 and "raised ValueError" in wrong[0]


def test_counting_bound():
    exact = C.exact_one_point("dirichlet", 1.0, 1.0, 20)
    assert C.counting_bound(exact, 1.0, 1) is None
    assert C.counting_bound(exact[:5] + exact[8:], 1.0, 1) is not None


def pair_case(seed, exchange=False):
    rng = np.random.default_rng(seed)
    a = C.haar_unitary(rng)
    b = C.SIGMA1 if exchange else C.haar_unitary(rng)
    sys_ = twopoint.TwoPointSystem(u2.from_matrix(a), u2.from_matrix(b), u2.Geometry(1.0, 1.0))
    return a, b, sys_, levels_of(twopoint.spectrum2(sys_, 12))


def test_pair_checks():
    a, b, sys_, levels = pair_case(7)
    assert C.check_pair(a, b, 1.0, 1.0, levels, 12) is None
    i = len(levels) - 4
    sector, k, m = levels[i]
    assert "no root" in C.check_pair(a, b, 1.0, 1.0, replace(levels, i, (sector, k * (1 + 1e-6), m)), 12)
    assert "multiplicity" in C.check_pair(a, b, 1.0, 1.0, replace(levels, i, (sector, k, 2)), 12)
    assert C.check_pair(a, b, 1.0, 1.0, levels[:i] + levels[i + 1:], 11) is not None
    v = C.haar_unitary(np.random.default_rng(8))
    v = v / np.sqrt(np.linalg.det(v))
    conj = levels_of(twopoint.spectrum2(twopoint.conjugate_pair(sys_, v), 12))
    assert C.same_spectrum(levels, conj) is None
    assert C.same_spectrum(levels, replace(conj, i, (sector, k * (1 + 1e-6), m))) is not None


def test_pair_with_exchange_is_the_one_point_spectrum():
    a, b, _, levels = pair_case(9, exchange=True)
    assert C.check_pair(a, b, 1.0, 1.0, levels, 12) is None
    assert C.check_one_point(a, 1.0, 1.0, levels, 12) is None


def test_seam_identification():
    truth = (math.pi - 1e-9, 0.3, 0.2)
    assert C.check_recovery(truth, (0.0, -0.3, -0.2)) is None
    assert C.check_recovery(truth, truth) is None
    assert C.check_recovery(truth, (math.pi - 1e-9, -0.3, -0.2)) is not None  # wrong chart
    assert C.check_recovery((0.5, 0.3, 0.2), (0.5, -0.3, -0.2)) is not None
    assert C.check_recovery((0.5, 0.3, 0.2), (0.5 + 1e-5, 0.3, 0.2)) is not None


def grid(n=16):
    xs = (np.arange(n) + 0.5) / n
    return np.meshgrid(xs, xs, indexing="ij")


@pytest.mark.parametrize("case,walls", [("00", (0.0, 0.0)), ("NN", (math.inf, math.inf)),
                                        ("0N", (0.0, math.inf)), ("N0", (math.inf, 0.0))])
def test_box_kernel_series(case, walls):
    b, a = grid()
    q = kernels.euclidean_query(a, b, 0.1)
    got = kernels.box_kernel(walls, u2.Geometry(1.0, 1.0), q)
    want = C.box_series(case, 1.0, 0.1, b, a)
    assert C.compare_kernel(got, want) is None
    got[3, 5] += 1e-6
    assert C.compare_kernel(got, want) is not None


def test_smooth_and_spectral_kernels():
    b, a = grid()
    q = kernels.euclidean_query(a, b, 0.1)
    got = kernels.smooth_kernel(1.3, u2.Geometry(1.0, 1.0), q)
    assert C.compare_kernel(got, C.smooth_series(1.3, 1.0, 0.1, b, a)) is None
    assert C.compare_kernel(got, C.smooth_series(-1.3, 1.0, 0.1, b, a)) is not None
    u = u2.from_matrix(C.haar_unitary(np.random.default_rng(10)))
    k = kernels.spectral_kernel(u, u2.Geometry(1.0, 1.0), q)
    assert C.kernel_symmetric(k) is None
    k[2, 7] += 1e-6
    assert C.kernel_symmetric(k) is not None


def test_output_parsers_round_trip(tmp_path):
    levels = C.exact_one_point("neumann", 1.0, 1.0, 5)
    path = tmp_path / "levels.csv"
    write_levels_csv(str(path), levels)
    assert parse_levels(path.read_text()) == levels
    text = "x,y,re_k,im_k\n" + "\n".join(f"0,0,{i},{-i}" for i in range(4))
    assert parse_kernel(text, 2)[1, 0] == 2 - 2j
    with pytest.raises(ValueError):
        parse_kernel(text, 3)


def test_tracer_self_time_excludes_children():
    class Mod:
        @staticmethod
        def outer():
            return Mod.inner() + 1

        @staticmethod
        def inner():
            sum(range(20000))
            return 1

    tr = Tracer()
    tr.wrap(Mod, "outer", "outer")
    tr.wrap(Mod, "inner", "inner", lambda counts, args, result: counts.__setitem__("n", counts["n"] + result))
    Mod.outer()
    Mod.outer()
    tr.unwrap()
    s = tr.reduce()
    assert s["outer"]["calls"] == 2 and tr.counts["n"] == 2
    assert s["outer"]["self"] == pytest.approx(s["outer"]["inclusive"] - s["inner"]["inclusive"])
    assert [sp[3] for sp in tr.spans] == [-1, 0, -1, 2]
