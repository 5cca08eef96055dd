"""No field is written and never read: every dataclass field and every
`self.x` attribute assigned in src/fairlab is loaded somewhere in src/ or
tests/. No accessor is called only by tests: every method and property
defined on a class in src/fairlab is loaded somewhere in src/. The checks are
by attribute name, so a load of any attribute with the same name counts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Called only from tests by design: README documents the brute-force oracle
# and this is its entry point.
TEST_ONLY_METHODS = {"OracleConstraints.relative_union"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _written(tree: ast.AST):
    """(name, line) of each dataclass field and each `self.x` store."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.target.id, stmt.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr, node.lineno


def _loaded(tree: ast.AST) -> set[str]:
    # An augmented assignment's target is a store, so `self.x += 1` alone
    # does not count as a read of x.
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _loaded_in(*dirs: str) -> set[str]:
    loaded: set[str] = set()
    for name in dirs:
        for path in (ROOT / name).rglob("*.py"):
            loaded |= _loaded(ast.parse(path.read_text(), str(path)))
    return loaded


def _methods(tree: ast.AST):
    """(class, name, line) of each method and property defined on a class,
    dunder methods aside: the language calls those."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))):
                    yield node.name, stmt.name, stmt.lineno


def test_every_assigned_field_is_read():
    loaded = _loaded_in("src", "tests")
    unread = []
    for path in sorted((ROOT / "src" / "fairlab").rglob("*.py")):
        for name, line in _written(ast.parse(path.read_text(), str(path))):
            if name not in loaded:
                unread.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unread, unread


def test_every_method_is_called_in_src():
    loaded = _loaded_in("src")
    uncalled = []
    for path in sorted((ROOT / "src" / "fairlab").rglob("*.py")):
        for cls, name, line in _methods(ast.parse(path.read_text(), str(path))):
            if name not in loaded and f"{cls}.{name}" not in TEST_ONLY_METHODS:
                uncalled.append(f"{path.relative_to(ROOT)}:{line} {cls}.{name}")
    assert not uncalled, uncalled
