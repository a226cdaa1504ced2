"""Self-tests of the benchmark: each output check accepts the known-good
outputs and rejects corrupted ones.

    python3 -m pytest bench/test_checks.py -q
    python3 bench/test_checks.py

The goldens are those of tests/test_acceptance.py.  Only the tracer test
imports galedisc.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from types import SimpleNamespace

import checks
import workloads
from workloads import B, BPRIME, C, C42, DELTA_B, M35, QUARTIC42

DELTA_C = {
    (3, 3): -19683, (2, 3): -8748, (3, 2): -8748, (1, 3): -1296, (2, 2): 4698,
    (3, 1): -1296, (0, 3): -64, (1, 2): 24, (2, 1): 24, (3, 0): -64, (1, 1): 1,
}
DELTA_BPRIME = {(0, 16): -27, (5, 8): 18, (7, 5): -4, (8, 3): -4, (10, 0): 1}
QUARTIC42_MISTRANSCRIBED = {(2, 0, 1): 1, (1, 1, 0): 1, (3, 0, 0): 1, (0, 2, 2): 1}
C42_POINTS = {(Fraction(1), Fraction(-2), Fraction(0)): 4, (Fraction(1), Fraction(-1, 2), Fraction(-1, 2)): 1}


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def times_y1_plus_1(terms):
    out = {}
    for e, c in terms.items():
        for shift in ((1,) + (0,) * (len(e) - 1), (0,) * len(e)):
            f = tuple(a + b for a, b in zip(e, shift))
            out[f] = out.get(f, 0) + c
    return {e: c for e, c in out.items() if c}


def report(points, d=3, degree=4):
    return SimpleNamespace(
        d=d, degree=degree,
        points=[(SimpleNamespace(coords=p), e) for p, e in points.items()],
    )


def test_curve_check_accepts_goldens():
    checks.check_curve(B, DELTA_B)
    checks.check_curve(C, DELTA_C)  # also transfer(Delta_B, M35), since C = B * M35
    checks.check_curve(BPRIME, DELTA_BPRIME)


def test_curve_check_rejects_corruptions():
    assert rejects(checks.check_curve, B, {e: -c for e, c in DELTA_B.items()})
    assert rejects(checks.check_curve, B, times_y1_plus_1(DELTA_B))
    assert rejects(checks.check_curve, B, DELTA_B | {(0, 2): 28})
    assert rejects(checks.check_curve, BPRIME, DELTA_BPRIME | {(5, 8): 17})
    assert rejects(checks.check_curve, B, {e: 2 * c for e, c in DELTA_B.items()})
    assert rejects(checks.check_curve, C, DELTA_B)


def test_transfer_exponent_check():
    # transfer(Delta_B, M35) = (Delta_C, v) with v = (-9, 3), C = B * M35.
    checks.check_transfer_exponent(M35, DELTA_B, DELTA_C, (-9, 3))
    assert rejects(checks.check_transfer_exponent, M35, DELTA_B, DELTA_C, (-9, 4))
    assert rejects(checks.check_transfer_exponent, M35, DELTA_B, DELTA_C, (-6, 3))
    y1_delta_b = {(e1 + 1, e2): c for (e1, e2), c in DELTA_B.items()}
    assert rejects(checks.check_transfer_exponent, M35, y1_delta_b, DELTA_C, (-9, 3))
    checks.check_transfer_exponent(M35, y1_delta_b, DELTA_C, (-12, 3))
    # The least M e of these terms, (1, -2), is outside the lattice of M.
    M = ((1, 1), (1, -1))
    assert rejects(checks.check_transfer_exponent, M, {(0, 0): 1}, {(1, 0): 1, (0, 2): 1}, (1, -2))


def test_surface_poly_check_accepts_and_rejects():
    checks.check_surface_poly(C42, QUARTIC42, seed=1)
    assert rejects(checks.check_surface_poly, C42, {e: -c for e, c in QUARTIC42.items()}, 1)
    assert rejects(checks.check_surface_poly, C42, times_y1_plus_1(QUARTIC42), 1)
    assert rejects(checks.check_surface_poly, C42, QUARTIC42 | {(2, 2, 0): 2}, 1)
    assert rejects(checks.check_surface_poly, C42, QUARTIC42_MISTRANSCRIBED, 1)


def test_surface_check_on_c42():
    points, d = checks.surface_base_points(C42)
    assert points == C42_POINTS
    assert d * d - sum(points.values()) == 4  # the golden degree of C42
    assert checks.check_surface(C42, report(C42_POINTS)) == 4


def test_surface_check_rejects_corruptions():
    dropped = dict(C42_POINTS)
    dropped.pop((Fraction(1), Fraction(-1, 2), Fraction(-1, 2)))
    assert rejects(checks.check_surface, C42, report(dropped))
    wrong = dict(C42_POINTS)
    wrong[(Fraction(1), Fraction(-2), Fraction(0))] = 3
    assert rejects(checks.check_surface, C42, report(wrong))
    assert rejects(checks.check_surface, C42, report(C42_POINTS, degree=5))


def test_staircase_multiplicity_goldens():
    assert checks.staircase_multiplicity([(4, 0), (0, 3), (2, 1)]) == 10
    assert checks.staircase_multiplicity([(3, 0), (2, 1), (1, 3), (0, 4)]) == 11
    assert checks.staircase_multiplicity([(6, 0), (4, 1), (0, 3)]) == 18


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        ops, sources = workloads.make_inputs(workload, 7)
        assert (ops, sources) == workloads.make_inputs(workload, 7)
        assert ops != workloads.make_inputs(workload, 8)[0]
        assert len(ops) >= 40  # the tail percentile needs 10 beyond it
    for op in workloads.make_inputs("surfaces", 7)[0][:-1]:  # all but C42
        n = len(op.matrix)
        assert workloads.is_uniform(op.matrix)
        assert workloads.base_point_count(op.matrix) == len(checks.surface_base_points(op.matrix)[0])
        assert abs(workloads.base_point_count(op.matrix) - 0.35 * n * (n - 1)) <= max(1, n * (n - 1) / 40)
    slots = iter(workloads.CURVE_SLOTS)
    for op in workloads.make_inputs("curves", 7)[0][: len(workloads.CURVE_SLOTS)]:
        n, s1, s2, d = next(slots)
        assert len(op.matrix) == n and workloads.pencil_u_degrees(op.matrix) == (s1, s2)
        assert checks.pencil_exponents(op.matrix)[1] == d


def test_tracer_patches_every_binding():
    import run
    import tracing

    gd = run.load_galedisc()
    original = gd.mpoly.sylvester_resultant
    tracing.Tracer().install()
    wrapped = gd.mpoly.sylvester_resultant
    assert wrapped is not original and wrapped.__wrapped__ is original
    assert gd.discriminant.sylvester_resultant is wrapped
    assert gd.sylvester_resultant is wrapped


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("ok      %s" % name)
            except AssertionError as e:
                failures += 1
                print("FAILED  %s %s" % (name, e))
    sys.exit(1 if failures else 0)
