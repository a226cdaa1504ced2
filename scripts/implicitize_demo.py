#!/usr/bin/env python3
"""Implicitize three rational parametrizations and sanity-check the results.

Each 4 x 2 integer matrix below determines a rational map psi whose image is
a plane curve. The script derives the defining polynomial of that curve by
resultant elimination, reports timings, and verifies exact vanishing at
the parameter value u = (1, 1), which is off all three arrangements.
"""

import sys
import time

from galedisc import build, evaluate_psi, implicitize
from galedisc.intmat import IntMatrix

CASES = [
    ("cubic dependencies", [[1, 2], [-2, -3], [1, 0], [0, 1]]),
    ("index-3 rescaling", [[1, 2], [0, -3], [-3, 0], [2, 1]]),
    ("degree-16 unimodular basis", [[-5, -3], [13, 8], [-11, -7], [3, 2]]),
]


def main():
    for label, rows in CASES:
        spec = build(IntMatrix(rows))
        t0 = time.perf_counter()
        delta = implicitize(spec)
        dt = time.perf_counter() - t0

        print(f"== {label} ==")
        print(f"   matrix rows: {rows}")
        print(f"   common numerator degree d = {spec.d}")
        print(f"   Delta = {delta.to_text(('y1', 'y2'))}")
        print(f"   total degree {delta.total_degree()}, {len(delta.terms)} terms, "
              f"computed in {dt:.2f} s")

        u = (1, 1)
        y = evaluate_psi(spec, u)
        val = delta.evaluate(y)
        print(f"   psi({u[0]}, {u[1]}) = ({y[0]}, {y[1]})")
        print(f"   Delta at that point: {val} (exact rational arithmetic)")
        if val != 0:
            sys.exit(f"error: Delta of {label} is {val}, not 0, at psi{u}")
        print()


if __name__ == "__main__":
    main()
