"""No field is written and never read: every dataclass field and every
`self.x` attribute assigned in src/fairlab is loaded somewhere in src/ or
tests/. No accessor is called only by tests: every property defined on a
class in src/fairlab is loaded somewhere in src/, and every other method is
called there as `x.name(...)`, and no property only returns an attribute
path of self (`self.a.b`), a second name callers can do without. No function
or class is there only for tests:
every module-level `def` and `class` in src/fairlab is loaded by bare name in
its own module or imported by name from it in another module of src/. No
package `__init__.py` re-exports a name: each holds its docstring and, at the
top level, `__version__`. The field and method checks are by name, so a load
(or call) of any attribute with the same name counts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def _module_name(path: Path) -> str:
    """The dotted name of a module file under src/ (`fairlab.simnet.runner`)."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path, tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) of each `from module import name` in a module of src/,
    relative imports resolved against the module's package."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            pairs |= {(module, alias.name) for alias in node.names}
    return pairs


def _called(tree: ast.AST) -> set[str]:
    """Each attribute called as `x.name(...)`."""
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


def _is_property(method: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
               for d in method.decorator_list)


def _methods(tree: ast.AST):
    """(class, name, line, is a property) of each method and property defined
    on a class, dunder methods aside: the language calls those."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))):
                    yield node.name, stmt.name, stmt.lineno, _is_property(stmt)


def test_every_assigned_field_is_read():
    loaded = _loaded_in("src", "tests")
    unread = []
    for path in sorted((ROOT / "src" / "fairlab").rglob("*.py")):
        for name, line in _written(ast.parse(path.read_text(), str(path))):
            if name not in loaded:
                unread.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unread, unread


def test_every_method_is_called_in_src():
    # A property counts as used where src/ loads it; any other method only
    # where src/ calls it, so a same-named attribute load does not hide it.
    loaded = _loaded_in("src")
    called: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        called |= _called(ast.parse(path.read_text(), str(path)))
    uncalled = []
    for path in sorted((ROOT / "src" / "fairlab").rglob("*.py")):
        for cls, name, line, is_property in _methods(ast.parse(path.read_text(), str(path))):
            if name not in (loaded if is_property else called):
                uncalled.append(f"{path.relative_to(ROOT)}:{line} {cls}.{name}")
    assert not uncalled, uncalled


def _aliases_a_path(method: ast.FunctionDef) -> bool:
    """True iff the body, past a docstring, is only `return self.a.b...`."""
    body = method.body[1:] if _is_docstring(method.body[0]) else method.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    node, depth = body[0].value, 0
    while isinstance(node, ast.Attribute):
        node, depth = node.value, depth + 1
    return depth >= 2 and isinstance(node, ast.Name) and node.id == "self"


def test_no_property_aliases_an_attribute_path():
    aliases = []
    for path in sorted((ROOT / "src" / "fairlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                aliases += [f"{path.relative_to(ROOT)}:{stmt.lineno} {node.name}.{stmt.name}"
                            for stmt in node.body
                            if isinstance(stmt, ast.FunctionDef) and _is_property(stmt)
                            and _aliases_a_path(stmt)]
    assert not aliases, aliases


def test_every_module_level_def_is_used_in_src():
    # An attribute load of the same name does not count: `Simulation.run`
    # and the CLI's `run` parser hid a module-level `run` only tests called.
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "fairlab").rglob("*.py"))}
    imported: set[tuple[str, str]] = set()
    for path, tree in trees.items():
        imported |= _imported_names(path, tree)
    unused = []
    for path, tree in trees.items():
        module = _module_name(path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in loaded and (module, node.name) not in imported):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, unused


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def test_package_inits_hold_no_code():
    # An import in a package's __init__.py would give its names a second
    # import path, and its loads would count an export as a use above.
    top = ROOT / "src" / "fairlab" / "__init__.py"
    extra = []
    for path in sorted((ROOT / "src" / "fairlab").rglob("__init__.py")):
        for index, node in enumerate(ast.parse(path.read_text(), str(path)).body):
            version = (path == top and isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets] == ["__version__"])
            if not (version or index == 0 and _is_docstring(node)):
                extra.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not extra, extra
