#!/usr/bin/env python3
"""Moving defining polynomials between nested exponent lattices.

Three matrices with the same rational normal curve behind them are related by
column transformations C1 = C2 * M. The defining polynomial of the image
surface transforms along M by a finite group product followed by a monomial
substitution; this script walks the triangle of transfers and verifies the
factorization identity and the homogenized form at the end.
"""

from galedisc import MPoly, build, group_product, homogenize, implicitize, transfer
from galedisc.intmat import IntMatrix

B = IntMatrix([[1, 2], [-2, -3], [1, 0], [0, 1]])
C = IntMatrix([[1, 2], [0, -3], [-3, 0], [2, 1]])
BPRIME = IntMatrix([[-5, -3], [13, 8], [-11, -7], [3, 2]])

M_C = IntMatrix([[-3, 0], [2, 1]])       # C = B * M_C, det -3
M_BP = IntMatrix([[-11, -7], [3, 2]])    # B' = B * M_BP, det -1
M_BACK = IntMatrix([[-2, -7], [3, 11]])  # B  = B' * M_BACK


def main():
    names = ("y1", "y2")
    delta_b = implicitize(build(B))
    print("Delta_B  =", delta_b.to_text(names))

    moved, v = transfer(delta_b, M_C)
    print("\ntransfer along det -3 column change:")
    print("Delta_C  =", moved.to_text(names))
    print("monomial shift v =", v)
    direct = implicitize(build(C))
    print("matches direct implicitization:", moved == direct)

    print("\nfactorization over the order-3 kernel group:")
    prod = group_product(-delta_b, M_C)
    # alpha_M moves each term exponent e to M e
    composed = MPoly(2, {M_C.mul_vec(e): c for e, c in moved.terms.items()})
    lhs = composed.shift(tuple(-x for x in v))
    print("product of translates == composed-and-shifted transfer:", prod == lhs)

    print("\nround trip through the degree-16 basis:")
    delta_bp, w = transfer(delta_b, M_BP)
    print("Delta_B' =", delta_bp.to_text(names))
    back, _ = transfer(delta_bp, M_BACK)
    print("transferring back recovers Delta_B:", back == delta_b)

    print("\nhomogenized form in the original four coefficients:")
    hom = homogenize(delta_b, B)
    print("D =", hom.to_text(("x1", "x2", "x3", "x4")))


if __name__ == "__main__":
    main()
