"""The package and its demo scripts run from a plain source checkout."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_from_checkout(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_import_leaves_sympy_out():
    """sympy is a test oracle only; the library never imports it."""
    code = "import sys, galedisc; print('sympy' in sys.modules)"
    out = run_from_checkout("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_star_import_exports_exactly_the_public_names():
    """__all__ names every public non-module name of the package and
    nothing else, so a name left behind by a deletion fails here."""
    code = (
        "import types, galedisc\n"
        "from galedisc import *\n"
        "public = {k for k, v in vars(galedisc).items()\n"
        "          if not k.startswith('_') and not isinstance(v, types.ModuleType)}\n"
        "assert len(set(galedisc.__all__)) == len(galedisc.__all__), 'duplicate'\n"
        "print(sorted(set(galedisc.__all__) ^ public))"
    )
    out = run_from_checkout("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def private_names(tree):
    """The private module-level functions, classes and constants of a
    parsed module, with the statement that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def loaded_names(stmt):
    """The names a statement loads, as a name, an attribute or an import."""
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_helper_has_a_reader():
    """Each private module-level function, class and constant of the
    library is read somewhere in it, outside its own definition: code that
    only the tests call belongs in the tests."""
    paths = sorted((ROOT / "src" / "galedisc").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    loads = [(stmt, set(loaded_names(stmt))) for tree in trees.values() for stmt in tree.body]
    unread = [
        "%s:%s" % (module, name)
        for module, tree in trees.items()
        for name, node in private_names(tree)
        if not any(name in names for stmt, names in loads if stmt is not node)
    ]
    assert unread == []


def public_definitions(tree):
    """The public module-level functions and classes of a parsed module,
    and the public methods and properties of its classes, each with the
    statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield "%s.%s" % (node.name, sub.name), sub


def is_export(stmt):
    """A re-export of the package's `__init__.py`: an import, or `__all__`."""
    return isinstance(stmt, ast.ImportFrom) or (
        isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
    )


def test_every_public_name_has_a_reader():
    """Each public function and class of the library, and each public
    method and property of its classes, is read outside its own
    definition: in the library, not counting the package's re-exports, in
    the demo scripts, in the benchmark, or in the code of README.md. A
    public name that only the tests read belongs in the tests."""
    library = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "galedisc").glob("*.py"))}
    statements = [
        stmt
        for path, tree in library.items()
        for stmt in tree.body
        if path.name != "__init__.py" or not is_export(stmt)
    ]
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        statements += ast.parse(path.read_text()).body
    reads = Counter(name for stmt in statements for name in loaded_names(stmt))
    readme = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S)
    reads.update(re.findall(r"\w+", " ".join(readme)))
    unread = [
        "%s:%s" % (path.name, qualified)
        for path, tree in library.items()
        for qualified, node in public_definitions(tree)
        if reads[node.name] == Counter(loaded_names(node))[node.name]
    ]
    assert unread == []


def test_readme_library_example_runs():
    """The ```python block of README.md runs from the checkout and prints
    Delta_B as its comment says."""
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    out = run_from_checkout("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "4*y1^3 + 27*y2^2 - 18*y1*y2 - y1^2 + 4*y2\n"


@pytest.mark.parametrize(
    "script", ["degree_demo.py", "implicitize_demo.py", "transfer_demo.py"]
)
def test_demo_script_runs(script):
    out = run_from_checkout(str(ROOT / "scripts" / script))
    assert out.returncode == 0, out.stdout + out.stderr


def test_bench_self_checks_pass():
    """The benchmark's self-tests still hold against src/: its tracer
    patches every binding of the resultant, and its workload generators
    make the inputs their slots describe."""
    out = run_from_checkout(str(ROOT / "bench" / "test_checks.py"))
    assert out.returncode == 0, out.stdout + out.stderr


def point(coords, vanishing, **extra):
    return {"point": coords.split(), "vanishing": vanishing, **extra}


DELTA_B = {
    "vars": ["y1", "y2"],
    "terms": [
        {"c": c, "e": e}
        for c, e in (("4", [3, 0]), ("27", [0, 2]), ("-18", [1, 1]), ("-1", [2, 0]), ("4", [0, 1]))
    ],
}


@pytest.mark.parametrize(
    "command, rows, golden_base_points",
    [
        pytest.param(
            "degree",
            [[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]],
            [point("1 -2 0", [1, 2], e=4), point("1 -1/2 -1/2", [1, 4], e=1)],
            id="degree-rows0",
        ),
        pytest.param(
            "implicitize", [[1, 2], [-2, -3], [1, 0], [0, 1]], None, id="implicitize-rows1"
        ),
        # the degree-16 example, implicitized on its 1-norm-reduced basis
        pytest.param(
            "implicitize",
            [[-5, -3], [13, 8], [-11, -7], [3, 2]],
            None,
            id="implicitize-degree-16",
        ),
        # the integer Gauss check of Delta_B, the polynomial file after the matrix
        pytest.param(
            "gauss-check", [[1, 2], [-2, -3], [1, 0], [0, 1]], None, id="gauss-check-rows1"
        ),
        # C43: concurrent lines, and rows 1 and 3 are equal
        pytest.param(
            "analyze",
            [[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]],
            [
                point("0 0 1", [1, 3, 4]),
                point("1 1/2 -1/2", [2, 4]),
                point("1 1/2 -1/4", [4, 5]),
                point("1 1 0", [1, 2, 3, 5]),
                point("1 1 1", [1, 3, 6]),
                point("1 2 1", [2, 6]),
                point("1 3 1", [5, 6]),
            ],
            id="analyze-rows2",
        ),
    ],
)
def test_optimized_interpreter_gives_the_same_output(tmp_path, command, rows, golden_base_points):
    """Under python -O, which strips asserts, the exact checks still run
    and the output is byte-identical."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"rows": rows}))
    args = [command, str(path)]
    if command == "gauss-check":
        poly = tmp_path / "delta.json"
        poly.write_text(json.dumps(DELTA_B))
        args.append(str(poly))
    plain = run_from_checkout("-m", "galedisc", *args)
    optimized = run_from_checkout("-O", "-m", "galedisc", *args)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
    assert plain.stdout
    if golden_base_points is not None:
        assert json.loads(plain.stdout)["base_points"] == golden_base_points


def test_the_traced_bench_smoke_run_passes():
    """The traced benchmark run that CI makes, one second of `curves` at
    seed 1: every output checks, and the tracer, which unpacks the
    positional arguments (p, q, var) of each `sylvester_resultant` call,
    counts the 40 resultants of a round."""
    out = run_from_checkout(
        "bench/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "1"
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    assert report["metrics"]["mpoly.sylvester_resultant.calls"]["value"] == 40
