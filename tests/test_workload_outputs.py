"""The outputs of the benchmark's three workloads at seeds 1, 2, 3 and 7,
pinned by one sha256 per workload and seed.

The operations come from `bench/workloads.make_inputs`, which imports no
galedisc; each output is fingerprinted as `bench/run.py` does, and a
surface's base points also by their vanishing sets. A change that moves
any of the 480 outputs fails here by workload and seed. A change to the
workloads themselves regenerates the digests.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from galedisc.degree import degree_uniform
from galedisc.discriminant import implicitize, transfer
from galedisc.intmat import IntMatrix
from galedisc.mpoly import MPoly
from galedisc.parametrization import build
from oracles import newton_polygon_edges, turned_rows

BENCH = Path(__file__).resolve().parents[1] / "bench"

# sha256 of the repr of the (label, fingerprint) pairs of each round
DIGESTS = {
    ("curves", 1): "3505772760280d37da60f260a792a9913fd9a79773220f1db2d7d3855fde293d",
    ("curves", 2): "a51e36e1ff705b51af38f58f64304c9a26cc539ff328ee0ad1d8e2ce209b1c38",
    ("curves", 3): "15cc9e99113f1fd3be7de8867dab5629de70bda79dd893ed9f56201acefdcc56",
    ("curves", 7): "333db5731ec2a0fee08c4ef7fe0e8dc75fff0d0a8ecc317ada08dca99482d357",
    ("transfer", 1): "d124c5f326ed0f9d97481335eb977434aa1254838d6f40aafc0ae9a523df123b",
    ("transfer", 2): "65328a58deb090e963ac77955e19bf67f65f8e8c1c2c2546f2f7010339c0f44c",
    ("transfer", 3): "a6124381b1e1d086b2eaad21b93e3c308ca284b066c890dcd0f15f01678afcbc",
    ("transfer", 7): "28583cec315cc28889c5d4e0cbc7275584c4e544c8cc0d50d033d52d52f25fcb",
    ("surfaces", 1): "d39c18b472e91328825791186d228f226f6d296b8557cc88c283d7b01d0e6620",
    ("surfaces", 2): "82e878976be4957a0698163a0318be0065ae7767fbbdaff46de20938ccb90fd1",
    ("surfaces", 3): "4bed71b9d6d7e4f650986cfd2546f67131fd34845ffa585da6957a84bcdae38b",
    ("surfaces", 7): "b9de0c47ed2f3f2a77c3b40518c56a29dc9e0af3976f415ccb5ec6b4e65ed062",
}


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported with bench/ on the path only while it
    and its `checks` load."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def fingerprint(op, out):
    if op.kind == "curve":
        return tuple(sorted(out.terms.items()))
    if op.kind == "transfer":
        return tuple(sorted(out[0].terms.items())), tuple(out[1])
    return out.d, out.degree, tuple((bp.coords, bp.vanishing, e) for bp, e in out.points)


def workload_digest(workloads, workload, seed):
    ops, sources = workloads.make_inputs(workload, seed)
    polys = {"C42": MPoly(3, workloads.QUARTIC42)}
    for key, rows in sources.items():
        polys[key] = implicitize(build(IntMatrix(rows)))
    prints = []
    for op in ops:
        if op.kind == "curve":
            out = implicitize(build(IntMatrix(op.matrix)))
        elif op.kind == "transfer":
            out = transfer(polys[op.poly_key], IntMatrix(op.matrix))
        else:
            out = degree_uniform(IntMatrix(op.matrix))
        prints.append((op.label, fingerprint(op, out)))
    return hashlib.sha256(repr(prints).encode()).hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS), ids=lambda x: str(x))
def test_workload_outputs_are_unchanged(workloads, workload, seed):
    assert workload_digest(workloads, workload, seed) == DIGESTS[workload, seed]


@pytest.mark.parametrize("seed", [1, 7])
def test_curve_outputs_have_the_turned_rows_as_newton_polygon_edges(workloads, seed):
    """The Newton polygon oracle on every `curves` operation: the edges of
    Newt(Delta) are C's rows turned by 90 degrees."""
    for op in workloads.make_inputs("curves", seed)[0]:
        out = implicitize(build(IntMatrix(op.matrix)))
        assert newton_polygon_edges(out) == turned_rows(op.matrix), op.label
