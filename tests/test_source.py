"""Source-level guards on the library package."""

import ast
import pathlib

import welfareshare


def test_no_assert_statements():
    # `python -O` strips asserts; invariants must raise real exceptions
    root = pathlib.Path(welfareshare.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
