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


def test_identity_compares_only_with_none():
    # `is` tests object identity: against a float such as inf it holds only
    # while every copy is one shared object, which numpy values are not
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, sides, sides[1:]):
                none = [isinstance(s, ast.Constant) and s.value is None for s in (left, right)]
                if isinstance(op, (ast.Is, ast.IsNot)) and not any(none):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_pair_class_read_as_codes():
    # rounding and validation compare pair_class codes; classify_pair is the
    # public string view and no module of the package calls it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "classify_pair"
    ]
    assert found == []


def test_no_np_clip_in_package():
    # np.clip keeps a -0.0 input; values are floored with np.where instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "clip"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
    ]
    assert found == []
