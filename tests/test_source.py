"""Source-level guards on the library package."""

import ast
import pathlib
import re

import welfareshare
from welfareshare import decompose, disagreement, rivals, welfare

ROOT = pathlib.Path(welfareshare.__file__).parent


def _find(predicate):
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree) if predicate(node)
        ]
    return found


def test_no_assert_statements():
    # `python -O` strips asserts; invariants must raise real exceptions
    assert _find(lambda node: isinstance(node, ast.Assert)) == []


def test_no_environment_reads():
    # every bound and default is a constant in the source, not a hidden knob
    def reads_environment(node):
        if isinstance(node, ast.Attribute):
            return node.attr in ("environ", "environb", "getenv", "getenvb")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return any(alias.name.startswith(("environ", "getenv")) for alias in node.names)
        return False

    assert _find(reads_environment) == []


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"


def test_no_floats():
    # every solver value is exact; the one float is the table's display
    # approximation in cli._approx
    tree = ast.parse((ROOT / "cli.py").read_text())
    approx = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_approx")
    allowed = {f"cli.py:{node.lineno}" for node in ast.walk(approx) if _is_float(node)}
    assert allowed
    assert [where for where in _find(_is_float) if where not in allowed] == []


BOUNDS = {
    "welfare.MAX_TABLE_AGENTS": 18,
    "welfare.MAX_SUBMODULAR_AGENTS": 14,
    "disagreement.MAX_RP_EXACT_AGENTS": 10,
    "rivals.MAX_SHAPLEY_AGENTS": 14,
    "decompose.MAX_EXACT_COMPONENT_AGENTS": 10,
    "decompose.MAX_VERIFY_ASSIGNMENTS": 40320,
    "decompose.MAX_GENERAL_COMPONENT_AGENTS": 6,
}


def test_bound_constants():
    # README's "Enumeration bounds" table has a row per bound with its value
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Enumeration bounds", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+\.MAX_\w+)` \| ([^|]*?) \|", section, re.MULTILINE))
    modules = {"welfare": welfare, "disagreement": disagreement, "rivals": rivals, "decompose": decompose}
    for name, value in BOUNDS.items():
        module, constant = name.split(".")
        current = getattr(modules[module], constant)
        assert current == value, name
        assert rows.get(name) == str(current), f"README bound table row for {name}"


def test_no_test_only_code():
    # each top-level function or class is used by the library or exported;
    # test-only helpers and references live in tests/
    defined, used = [], set()
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            (f"{path.relative_to(ROOT)}:{node.lineno}", node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    stray = [
        f"{where} {name}"
        for where, name in defined
        if name not in used and name not in welfareshare.__all__
    ]
    assert stray == []


def test_no_unused_imports():
    # every name a library module imports is read in that module;
    # __init__.py re-exports its imports, and __future__ imports are flags
    unused = []
    for path in sorted(ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(node.lineno, a.asname or a.name) for a in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}" for line, name in imported if name not in read
        ]
    assert unused == []


def test_no_function_level_imports():
    # every import is at module top, so the module graph below is the whole one
    def nested_imports(node):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        return any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))

    assert _find(nested_imports) == []


def test_module_graph_is_acyclic():
    # the package's own imports: model at the bottom, cli at the top
    graph = {}
    for path in sorted(ROOT.glob("*.py")):
        if path.name == "__init__.py":
            continue
        graph[path.stem] = {
            node.module or alias.name
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    done = set()
    while len(done) < len(graph):
        ready = [m for m in graph if m not in done and graph[m] <= done]
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done.update(ready)


def test_no_bin_calls():
    # a set bit count is int.bit_count()
    def bin_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bin"

    assert _find(bin_call) == []


def test_low_bit_loops_in_one_home():
    # `x & -x` peels the lowest set bit: welfare._bits iterates the bits of
    # a mask and welfare._subset_sums sums over them; the one other use is
    # the lowest wanted item a lone agent takes in one serial pass
    def low_bit(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and ast.dump(node.right.operand) == ast.dump(node.left)
        )

    found = []
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found += [f"{path.stem}.{fn.name}" for node in ast.walk(fn) if low_bit(node)]
    assert sorted(found) == [
        "disagreement._serial_assignment",
        "welfare._bits",
        "welfare._subset_sums",
    ]
