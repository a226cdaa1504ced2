#!/usr/bin/env python3
"""Implicitize three rational parametrizations and certify the results.

Each 4 x 2 integer matrix below determines a rational map psi whose image is
a plane curve. The script derives the defining polynomial of that curve by
resultant elimination, reports timings, and certifies each result with the
exact Gauss check: Delta vanishes on psi, and its scaled gradient inverts
psi, on a point set that proves both.
"""

import sys
import time

from galedisc import build, gauss_inverse_check, implicitize
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

        t0 = time.perf_counter()
        ok = gauss_inverse_check(spec, delta)
        dt = time.perf_counter() - t0
        print(f"   Gauss check: {'pass' if ok else 'fail'}, in {dt:.2f} s (exact integer arithmetic)")
        if not ok:
            sys.exit(f"error: Delta of {label} fails the Gauss check")
        print()


if __name__ == "__main__":
    main()
