"""Command line front end: subcommands, schemas, exit codes, determinism."""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from galedisc.cli import main

try:
    import resource
except ImportError:  # not on Windows
    resource = None

B_ROWS = [[1, 2], [-2, -3], [1, 0], [0, 1]]
C_ROWS = [[1, 2], [0, -3], [-3, 0], [2, 1]]
C42_ROWS = [[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]]
C43_ROWS = [[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]]
ANTIPODAL_ROWS = [[1, 0], [0, 1], [-1, 0], [0, -1]]

DELTA_B_TERMS = [
    {"c": "4", "e": [3, 0]},
    {"c": "27", "e": [0, 2]},
    {"c": "-18", "e": [1, 1]},
    {"c": "-1", "e": [2, 0]},
    {"c": "4", "e": [0, 1]},
]


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_capped(*argv):
    """galedisc argv in a fresh process under a timeout and, where the
    platform has one, a 1 GiB address space limit, so that a regression
    fails instead of hanging or filling memory."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "galedisc", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=limit_memory if resource else None,
    )


# ---------------------------------------------------------------- analyze


def test_analyze_cubic_matrix(files, capsys):
    rep = run_json(capsys, "analyze", files("b.json", {"rows": B_ROWS}))
    assert rep["n"] == 4 and rep["m"] == 2
    assert rep["d"] == 3 and rep["g"] == 1
    assert rep["defect"] == "NonDefective"
    assert rep["merged_rows"] == B_ROWS
    assert rep["scaling"] == ["1", "1"]


def test_analyze_rescaled_matrix_reports_index_three(files, capsys):
    rep = run_json(capsys, "analyze", files("c.json", {"rows": C_ROWS}))
    assert rep["g"] == 3 and rep["d"] == 6
    assert rep["defect"] == "NonDefective"


def test_analyze_uniform_surface_lists_base_points(files, capsys):
    rep = run_json(capsys, "analyze", files("c42.json", {"rows": C42_ROWS}))
    assert rep["uniform"] is True
    assert rep["base_points"] == [
        {"point": ["1", "-2", "0"], "vanishing": [1, 2]},
        {"point": ["1", "-1/2", "-1/2"], "vanishing": [1, 4]},
    ]


def test_analyze_antipodal_matrix_is_defective(files, capsys):
    rep = run_json(capsys, "analyze", files("anti.json", {"rows": ANTIPODAL_ROWS}))
    assert rep["defect"] == "ProbablyDefective"
    assert rep["merged_rows"] == []
    assert rep["scaling"] == []


# Two pairs of opposite rows: the base locus of this n x 3 matrix is a
# curve, not a finite set of points.
NON_FINITE_ROWS = [[1, -1, 0], [-1, 1, 0], [1, 1, -2], [-1, -1, 2]]


def test_analyze_reports_a_base_locus_that_is_not_finite(files, capsys):
    path = files("nf.json", {"rows": NON_FINITE_ROWS})
    assert run_json(capsys, "analyze", path) == {
        "n": 4,
        "m": 3,
        "d": 5,
        "g": 0,
        "defect": "ProbablyDefective",
        "merged_rows": [],
        "scaling": [],
        "uniform": False,
        "base_points": "not finite",
    }
    code, out, err = run(capsys, "analyze", path, "--text")
    assert (code, err) == (0, "")
    assert out == (
        "n = 4, m = 3\nd = 5\ng = 0\ndefect test: ProbablyDefective\n"
        "merged rows: []\nscaling: \nuniform: False\nbase locus: not finite\n"
    )


def holding_identity():
    """A regular 20 x 10 matrix holding I_10, with no proportional rows."""
    rng = random.Random(0)
    rows = [[rng.randint(-5, 5) for _ in range(10)] for _ in range(9)]
    rows += [[int(i == j) for j in range(10)] for i in range(10)]
    rows.append([-sum(col) for col in zip(*rows)])
    return rows


def test_analyze_is_polynomial_in_the_matrix_size(files, capsys):
    """Hostile input: g of a 20 x 10 matrix comes from its Smith form, not
    from its 184756 maximal minors. Twice a matrix holding I_10 has g =
    2^10."""
    half = holding_identity()
    path = files("even.json", {"rows": [[2 * x for x in row] for row in half]})
    start = time.perf_counter()
    rep = run_json(capsys, "analyze", path)
    assert time.perf_counter() - start < 2
    assert (rep["n"], rep["m"], rep["g"]) == (20, 10, 1024)


def test_analyze_text_mode(files, capsys):
    code, out, _ = run(capsys, "analyze", files("b.json", {"rows": B_ROWS}), "--text")
    assert code == 0
    assert "defect test: NonDefective" in out
    assert "d = 3" in out


# ---------------------------------------------------------------- degree


def test_degree_subcommand_golden(files, capsys):
    rep = run_json(capsys, "degree", files("c42.json", {"rows": C42_ROWS}))
    assert rep == {
        "d": 3,
        "degree": 4,
        "base_points": [
            {"point": ["1", "-2", "0"], "vanishing": [1, 2], "e": 4},
            {"point": ["1", "-1/2", "-1/2"], "vanishing": [1, 4], "e": 1},
        ],
    }


def test_degree_refusal_is_a_domain_error(files, capsys):
    code, out, err = run(capsys, "degree", files("c43.json", {"rows": C43_ROWS}))
    assert code == 1
    assert "non-uniform" in err
    assert out == ""


# ---------------------------------------------------------------- implicitize


def test_implicitize_subcommand_json(files, capsys):
    rep = run_json(capsys, "implicitize", files("b.json", {"rows": B_ROWS}))
    assert rep["vars"] == ["y1", "y2"]
    assert rep["terms"] == DELTA_B_TERMS


def test_implicitize_subcommand_text(files, capsys):
    code, out, _ = run(capsys, "implicitize", files("b.json", {"rows": B_ROWS}), "--text")
    assert code == 0
    assert out.strip() == "4*y1^3 + 27*y2^2 - 18*y1*y2 - y1^2 + 4*y2"


def test_implicitize_output_feeds_other_commands(files, capsys):
    poly = run_json(capsys, "implicitize", files("b.json", {"rows": B_ROWS}))
    poly_file = files("db.json", poly)
    rep = run_json(capsys, "gauss-check", files("b2.json", {"rows": B_ROWS}), poly_file)
    assert rep == {"pass": True, "trials": 5}


# ---------------------------------------------------------------- transfer / group-product


def test_transfer_subcommand(files, capsys):
    poly = run_json(capsys, "implicitize", files("b.json", {"rows": B_ROWS}))
    rep = run_json(
        capsys,
        "transfer",
        files("db.json", poly),
        files("m.json", {"rows": [[-3, 0], [2, 1]]}),
    )
    assert rep["v"] == [-9, 3]
    assert len(rep["polynomial"]["terms"]) == 11
    assert rep["polynomial"]["terms"][-1] == {"c": "1", "e": [1, 1]}


def test_group_product_subcommand(files, capsys):
    poly = run_json(capsys, "implicitize", files("b.json", {"rows": B_ROWS}))
    rep = run_json(
        capsys,
        "group-product",
        files("db.json", poly),
        files("m.json", {"rows": [[-3, 0], [2, 1]]}),
    )
    degrees = {sum(t["e"]) for t in rep["terms"]}
    assert max(degrees) == 9


def test_transfer_with_a_huge_group_order_exits_one(files, capsys):
    poly = files("db.json", {"vars": ["y1", "y2"], "terms": DELTA_B_TERMS})
    code, out, err = run(capsys, "transfer", poly, files("m.json", {"rows": [[1, 0], [0, 10**6]]}))
    assert code == 1
    assert out == ""
    assert err.startswith("error: group product too large") and "2500003000000000000" in err


@pytest.mark.parametrize("command", ["transfer", "group-product"])
def test_a_refused_group_product_of_huge_order_exits_one(files, capsys, int_text_limit, command):
    """Delta_B under [[a, 1], [0, 2]], a = 7...7 (3000 digits), has a norm
    of order 2a: the refusal prints d, under the interpreter's limit on
    integer text, and the work estimate, above it, as its digit count."""
    a = int("7" * 3000)
    poly = files("db.json", {"vars": ["y1", "y2"], "terms": DELTA_B_TERMS})
    code, out, err = run(capsys, command, poly, files("m.json", {"rows": [[a, 1], [0, 2]]}))
    assert (code, out) == (1, "")
    assert err == (
        "error: group product too large: a norm of order %d needs about [9004 digits] "
        "operations, above the limit of 10000000000\n" % (2 * a)
    )


@pytest.mark.parametrize("command", ["transfer", "group-product"])
@pytest.mark.parametrize("a", [10**6, 10**10], ids=["index-1e12", "index-1e20"])
def test_a_norm_row_of_huge_span_is_refused_at_once(files, command, a):
    """Delta_B under [[1, 0], [a + 1, a^2]] reduces to a norm row of span
    2a: it is refused before anything of that size is formed, neither the
    points below the support nor a dense list of its coefficients."""
    poly = files("db.json", {"vars": ["y1", "y2"], "terms": DELTA_B_TERMS})
    start = time.perf_counter()
    r = run_capped(command, poly, files("m.json", {"rows": [[1, 0], [a + 1, a * a]]}))
    assert time.perf_counter() - start < 2
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("error: group product too large: a norm of order %d " % (a * a))


@pytest.mark.parametrize("command", ["transfer", "group-product"])
@pytest.mark.parametrize(
    "terms, rows, message",
    [
        (DELTA_B_TERMS, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], "matrix shape mismatch"),
        (DELTA_B_TERMS, [[1, 0, 0], [0, 2, 0]], "matrix shape mismatch"),
        (DELTA_B_TERMS, [[1, 2], [2, 4]], "singular matrix"),
        ([], [[1, 2], [2, 4]], "singular matrix"),
    ],
    ids=["non-square-size", "non-square", "singular", "singular-and-zero"],
)
def test_a_rejected_lattice_change_exits_one(files, capsys, command, terms, rows, message):
    poly = files("p.json", {"vars": ["y1", "y2"], "terms": terms})
    code, out, err = run(capsys, command, poly, files("m.json", {"rows": rows}))
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "terms, message",
    [([], "zero input"), ([{"c": "2", "e": [1, 0]}, {"c": "4", "e": [0, 1]}], "input polynomial is not primitive")],
    ids=["zero", "imprimitive"],
)
def test_transfer_of_a_rejected_polynomial_exits_one(files, capsys, terms, message):
    poly = files("p.json", {"vars": ["y1", "y2"], "terms": terms})
    code, out, err = run(capsys, "transfer", poly, files("m.json", {"rows": [[-3, 0], [2, 1]]}))
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_a_resultant_of_degree_a_million_is_refused_within_seconds(files):
    """The pencils of [[t, 1], [1, t], [-t-1, -t-1]] at t = 10^6 have
    degree 10^6 in u1; they are never expanded."""
    t = 10**6
    r = run_capped("implicitize", files("c.json", {"rows": [[t, 1], [1, t], [-t - 1, -t - 1]]}))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("error: resultant too large: a Sylvester matrix of size 2000000 on ")


@pytest.mark.parametrize("fmt", ["--json", "--text"])
def test_an_output_coefficient_above_the_digit_limit_exits_one(files, capsys, int_text_limit, fmt):
    """7...7 (3000 digits) * y1 + y2 + 1 under diag(1, 2) gives a
    coefficient of 6000 digits, more than the interpreter prints: exit 1
    with its size and the limit, and nothing on stdout."""
    terms = [{"c": "7" * 3000, "e": [1, 0]}, {"c": "1", "e": [0, 1]}, {"c": "1", "e": [0, 0]}]
    poly = files("p.json", {"vars": ["y1", "y2"], "terms": terms})
    code, out, err = run(capsys, "transfer", poly, files("m.json", {"rows": [[1, 0], [0, 2]]}), fmt)
    assert (code, out) == (1, "")
    assert err == "error: a coefficient has 6000 digits, above the limit of 4300 digits on integer text\n"


@pytest.mark.parametrize("fmt", ["--json", "--text"])
@pytest.mark.parametrize(
    "command, field, rows, what, digits",
    [
        ("multiplicity", "gens", lambda a: [[a, 0], [0, a]], "e", 6000),
        ("sparse-mult", "exponents", lambda a: [[a, 0], [0, a]], "e", 6000),
        ("analyze", "rows", lambda a: [[a, 0], [0, a], [-a, -a]], "g", 6000),
        ("degree", "rows", lambda a: [[2, 1, 3 * a], [-2, -1, -2 * a], [1, 1, 0], [-1, -1, -a]], "e", 6001),
    ],
    ids=["multiplicity", "sparse-mult", "analyze", "degree"],
)
def test_an_output_integer_above_the_digit_limit_exits_one(
    files, capsys, int_text_limit, fmt, command, field, rows, what, digits
):
    """a = 7...7 (3000 digits) in the input gives an output integer of
    about a^2, more than the interpreter prints: the staircase (x^a, y^a)
    has multiplicity and colength a^2, so has the support {(a, 0), (0, a)},
    the gcd of the maximal minors of the analyzed matrix is a^2, and a base
    point of the surface has a multiplicity of 6001 digits. Each exits 1
    with the size and the limit."""
    a = int("7" * 3000)
    code, out, err = run(capsys, command, files("in.json", {field: rows(a)}), fmt)
    assert (code, out) == (1, "")
    assert err == "error: %s has %d digits, above the limit of 4300 digits on integer text\n" % (what, digits)


@pytest.mark.parametrize("where", ["string", "numeral"])
def test_an_input_integer_above_the_digit_limit_exits_two(tmp_path, capsys, int_text_limit, where):
    """A 5000-digit coefficient, as a JSON string or as a JSON numeral, is
    an input error: exit 2 with its size and the limit, nothing on stdout."""
    c = '"%s"' % ("7" * 5000) if where == "string" else "7" * 5000
    poly = tmp_path / "p.json"
    poly.write_text('{"vars": ["y1", "y2"], "terms": [{"c": %s, "e": [1, 0]}]}' % c)
    matrix = tmp_path / "m.json"
    matrix.write_text('{"rows": [[1, 0], [0, 2]]}')
    code, out, err = run(capsys, "transfer", str(poly), str(matrix))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % poly)
    assert err.endswith("an integer has 5000 digits, above the limit of 4300 digits on integer text\n")


def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"rows": [[1, 2]], "note": "\xe9"}')
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: 'utf-8' codec can't decode" % p)


# ---------------------------------------------------------------- multiplicity commands


def test_multiplicity_subcommand(files, capsys):
    rep = run_json(capsys, "multiplicity", files("s.json", {"gens": [[4, 0], [0, 3], [2, 1]]}))
    assert rep == {"e": 10, "colength": 8}


def test_sparse_mult_subcommand(files, capsys):
    rep = run_json(capsys, "sparse-mult", files("sp.json", {"exponents": [[2, 0], [0, 2]]}))
    assert rep == {"e": 4}


def test_gauss_check_failure_is_still_a_report(files, capsys):
    lin = {"vars": ["y1", "y2"], "terms": [{"c": "1", "e": [1, 0]}, {"c": "1", "e": [0, 1]}]}
    rep = run_json(
        capsys, "gauss-check", files("b.json", {"rows": B_ROWS}), files("lin.json", lin)
    )
    assert rep["pass"] is False


def test_trials_flag_is_plumbed_through(files, capsys):
    poly = run_json(capsys, "implicitize", files("b.json", {"rows": B_ROWS}))
    rep = run_json(
        capsys,
        "gauss-check",
        files("b2.json", {"rows": B_ROWS}),
        files("db.json", poly),
        "--trials",
        "7",
    )
    assert rep == {"pass": True, "trials": 7}


# ---------------------------------------------------------------- exit codes


def test_gauss_check_constant_polynomial_exits_one(files, capsys):
    const = {"vars": ["y1", "y2"], "terms": [{"c": "5", "e": [0, 0]}]}
    code, out, err = run(
        capsys, "gauss-check", files("b.json", {"rows": B_ROWS}), files("k.json", const)
    )
    assert code == 1
    assert err == "error: could not find a smooth parametrized point\n"
    assert out == ""


def test_gauss_check_zero_polynomial_exits_one(files, capsys):
    zero = {"vars": ["y1", "y2"], "terms": []}
    code, out, err = run(
        capsys, "gauss-check", files("b.json", {"rows": B_ROWS}), files("z.json", zero)
    )
    assert code == 1
    assert err == "error: could not find a smooth parametrized point\n"
    assert out == ""


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_exit_one(files, capsys, trials):
    poly = files("db.json", {"vars": ["y1", "y2"], "terms": DELTA_B_TERMS})
    matrix = files("b.json", {"rows": B_ROWS})
    for argv in (["gauss-check", matrix, poly], ["analyze", matrix]):
        code, out, err = run(capsys, *argv, "--trials", trials)
        assert code == 1
        assert err == "error: trials must be at least 1\n"
        assert out == ""


def test_domain_error_exits_one(files, capsys):
    code, out, err = run(capsys, "analyze", files("bad.json", {"rows": [[1, 1], [2, 3]]}))
    assert code == 1
    assert "not regular" in err


def test_a_too_large_resultant_exits_one(files, capsys):
    code, out, err = run(capsys, "implicitize", files("c.json", {"rows": [[29, 1], [1, 27], [-30, -28]]}))
    assert code == 1
    assert out == ""
    assert err.startswith("error: resultant too large: a Sylvester matrix of size 56 on 841 nodes")


@pytest.mark.parametrize("t", [10**4, 10**5, 10**6])
def test_proportional_rows_with_huge_multipliers_exit_one(files, capsys, t):
    """The coordinate scaling of these rows runs to millions of bits: at
    10^4 printing it broke the interpreter's integer string limit, and at
    10^6 forming it ran for minutes."""
    rows = [[t, 0], [-t, 1], [2 * t, 0], [-2 * t, -1]]
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", files("rows.json", {"rows": rows}))
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out == ""
    assert err.startswith("error: proportional rows too large: the coordinate scaling needs about ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "rows",
    [[[300, 300], [-300, 0], [0, -300]], [[8 * x for x in row] for row in holding_identity()]],
    ids=["three-rows", "eight-times-20x10"],
)
def test_rows_with_large_gcds_but_no_proportional_rows_analyze(files, capsys, rows):
    """Each row is alone in its class, so the scaling is all 1, however
    large the rows' gcds."""
    rep = run_json(capsys, "analyze", files("rows.json", {"rows": rows}))
    assert rep["merged_rows"] == rows
    assert rep["scaling"] == ["1"] * len(rows[0])


def test_parse_error_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"rows": [[1, 2')
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert "bad JSON" in err


@pytest.mark.parametrize("kind", ["matrix", "polynomial"])
def test_json_nested_too_deep_exits_two(tmp_path, kind):
    """JSON nested deeper than the parser recurses is a malformed file:
    exit 2 with "bad JSON", not a traceback."""
    nested = "[" * 100000 + "]" * 100000
    p = tmp_path / "deep.json"
    if kind == "matrix":
        p.write_text('{"rows": %s}' % nested)
        r = run_capped("analyze", str(p))
    else:
        p.write_text('{"vars": ["y1", "y2"], "terms": %s}' % nested)
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"rows": [[1, 0], [0, 3]]}))
        r = run_capped("group-product", str(p), str(m))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: bad JSON in %s: " % p)
    assert "Traceback" not in r.stderr


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/nowhere.json")
    assert code == 2
    assert "cannot read" in err


def test_schema_violation_exits_two(files, capsys):
    code, _, err = run(capsys, "analyze", files("bad.json", {"rows": [[1, "x"]]}))
    assert code == 2


def test_bool_entries_are_rejected(files, capsys):
    code, _, _ = run(capsys, "analyze", files("bad.json", {"rows": [[True, False]]}))
    assert code == 2


@pytest.mark.parametrize(
    "term",
    [{"c": 1.5, "e": [1, 0]}, {"c": 1, "e": [True, 0.7]}, {"c": 1, "e": "10"}],
    ids=["float-coefficient", "bool-and-float-exponents", "string-exponent"],
)
def test_non_integer_polynomial_fields_exit_two(files, capsys, term):
    poly = files("p.json", {"vars": ["y1", "y2"], "terms": [term]})
    code, out, err = run(capsys, "group-product", poly, files("m.json", {"rows": [[1, 0], [0, 3]]}))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad polynomial" in err


@pytest.mark.parametrize(
    "rows",
    [[[1, True]], [[1.5]], ["12"], [], [[1], [2, 3]]],
    ids=["bool", "float", "string-row", "empty", "ragged"],
)
def test_malformed_matrix_rows_exit_two(files, capsys, rows):
    code, out, err = run(capsys, "analyze", files("bad.json", {"rows": rows}))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad matrix" in err


@pytest.mark.parametrize(
    "command, option",
    [
        ("degree", "--trials"),
        ("degree", "--seed"),
        ("implicitize", "--trials"),
        ("implicitize", "--seed"),
        ("transfer", "--trials"),
        ("transfer", "--seed"),
        ("multiplicity", "--trials"),
        ("multiplicity", "--seed"),
        ("sparse-mult", "--trials"),
        ("sparse-mult", "--seed"),
        ("group-product", "--trials"),
        ("group-product", "--seed"),
    ],
)
def test_options_a_command_ignores_are_refused(files, capsys, command, option):
    """--seed and --trials exist only where a sampled check reads them."""
    inputs = {"transfer": 2, "group-product": 2}.get(command, 1)
    argv = [command] + [files("x%d.json" % i, {"rows": B_ROWS}) for i in range(inputs)]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 4" % option in capsys.readouterr().err


# ---------------------------------------------------------------- determinism


def test_output_is_byte_identical_across_runs(files, capsys):
    path = files("c.json", {"rows": C_ROWS})
    _, out1, _ = run(capsys, "analyze", path, "--seed", "7")
    _, out2, _ = run(capsys, "analyze", path, "--seed", "7")
    assert out1 == out2


def declared_console_script(name):
    """The ``python -c`` call that pip's generated wrapper makes for the
    ``[project.scripts]`` entry ``name`` in ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, attr = target.split(":")
    code = "import sys; from %s import %s; sys.exit(%s())" % (module, attr, attr)
    return [sys.executable, "-c", code]


def test_console_entry_points(tmp_path):
    """The declared console script and module execution agree."""
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"rows": B_ROWS}))
    a = subprocess.run(
        declared_console_script("galedisc") + ["implicitize", str(p)],
        capture_output=True,
        text=True,
    )
    b = subprocess.run(
        [sys.executable, "-m", "galedisc", "implicitize", str(p)],
        capture_output=True,
        text=True,
    )
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["terms"] == DELTA_B_TERMS
