import ast
from pathlib import Path

import corrclust

SOURCES = sorted(Path(corrclust.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    # invariants raise real errors: `assert` is stripped under `python -O`
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
