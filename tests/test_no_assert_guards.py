"""`python -O` strips `assert`, so the library must guard with raised
exceptions; this walks every module's syntax tree for `assert` statements."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "quasinv")


def test_library_has_no_assert_statements():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
