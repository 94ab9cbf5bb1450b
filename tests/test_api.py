"""The package exposes only what it runs: every public top-level function and
class of `src/shiftseg` is referred to somewhere in the package, every public
method and field of its public classes is read in its module or in one that
imports it, and no module of it imports a test-only dependency."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "shiftseg"
TEST_ONLY = {"mpmath", "hypothesis", "pytest"}


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that `tree` refers to: `alias.name` through a
    relative module import (`from . import tensor as T`), a name imported by
    `from .mod import name` and then used, and a bare name of its own."""
    aliases: dict[str, str] = {}  # local name -> module it stands for
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    aliases[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    refs: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name):
            refs.add(imported.get(node.id, (module, node.id)))
    return refs


def test_every_public_definition_is_referred_to_in_the_package():
    trees = modules()
    referred = set().union(*(references(name, tree) for name, tree in trees.items()))
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in public_definitions(tree) if (module, name) not in referred]
    assert not unused, f"public API that nothing in the package calls: {unused}"


def public_members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for each non-underscore method and annotated field of
    a public top-level class."""
    members = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                members.append((cls.name, name))
    return members


def attribute_reads(tree: ast.Module) -> set[str]:
    """Names that `tree` reads as `x.name` (load context) or by
    `getattr(x, "name")`."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            reads.add(node.args[1].value)
    return reads


def imported_modules(tree: ast.Module) -> set[str]:
    """Package modules that `tree` imports, as `from . import mod` or
    `from .mod import name`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else
                         [alias.name for alias in node.names])
    return found


def test_every_public_member_is_read_in_the_package():
    """A field that only the constructor sets, or a method that no module
    calls, is a capability nothing in the package uses. A read counts in the
    class's own module and in the modules that import it. The check goes by
    name, not by type: a member that shares its name with one read there on
    another class (two networks' `parameter_arrays`, one of them called)
    passes unread."""
    trees = modules()
    reads = {name: attribute_reads(tree) for name, tree in trees.items()}
    readers = {module: [name for name, tree in trees.items()
                        if name == module or module in imported_modules(tree)]
               for module in trees}
    unread = [f"{module}.{cls}.{name}" for module, tree in trees.items()
              for cls, name in public_members(tree)
              if not any(name in reads[r] for r in readers[module])]
    assert not unread, f"public members that nothing in the package reads: {unread}"


def test_no_module_imports_a_test_only_dependency():
    found = []
    for module, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {n}" for n in names if n.split(".")[0] in TEST_ONLY]
    assert not found
