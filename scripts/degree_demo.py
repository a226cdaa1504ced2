#!/usr/bin/env python3
"""Degree of a parametrized surface from base point multiplicities.

For a 3-column matrix whose maximal minors are all nonzero, the surface degree
is d^2 minus the sum of local multiplicities at the finitely many base points
of the pencil. The script runs the full computation on a uniform matrix, then
shows the honest refusal and the base points of a non-uniform one.
"""

from galedisc import base_points, build, degree_uniform, is_uniform
from galedisc.intmat import IntMatrix

UNIFORM = IntMatrix([[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]])
NONUNIFORM = IntMatrix(
    [[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]]
)


def show_full_pipeline(mat):
    rep = degree_uniform(mat)
    print(f"   d = {rep.d}")
    for p, e in rep.points:
        coords = ":".join(str(c) for c in p.coords)
        print(f"   base point ({coords}), forms {list(p.vanishing)}, e = {e}")
    total = sum(e for _, e in rep.points)
    print(f"   degree = {rep.d}^2 - {total} = {rep.degree}")


def show_partial_pipeline(mat):
    spec = build(mat)
    print(f"   d = {spec.d}, uniform: {is_uniform(mat)}")
    try:
        degree_uniform(mat)
    except ValueError as e:
        print(f"   degree computation refused: {e}")
    for p in base_points(spec):
        coords = ":".join(str(c) for c in p.coords)
        print(f"   base point ({coords}), forms {list(p.vanishing)}")


def main():
    print("== uniform 4 x 3 matrix ==")
    show_full_pipeline(UNIFORM)
    print()
    print("== non-uniform 6 x 3 matrix ==")
    show_partial_pipeline(NONUNIFORM)


if __name__ == "__main__":
    main()
