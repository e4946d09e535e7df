"""Every public top-level function and class of ``icessm`` has a caller in
the program: the package itself, the benchmark (``perfbench/``) or the tools
(``tools/``). A name that only tests reach is library surface nothing runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "icessm"
# the gradient reference every taped op is checked against
EXCEPTIONS = {"nd.grad_check"}


def public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(path: Path, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs that the source at ``path`` refers to: a
    ``mod.name`` attribute, a ``from .mod import name``, or a bare name
    inside its own module."""
    own = path.stem if path.parent == PACKAGE else None
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            refs.update((node.module.rsplit(".", 1)[-1], a.name) for a in node.names)
        elif isinstance(node, ast.Name) and own is not None:
            refs.add((own, node.id))
    return refs


def test_every_public_name_has_a_program_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               *(ROOT / "tools").glob("*.py")]
    refs = set().union(*(references(p, set(trees)) for p in sources))
    unused = [f"{mod}.{name}" for mod, tree in trees.items() for name in public_defs(tree)
              if (mod, name) not in refs and f"{mod}.{name}" not in EXCEPTIONS]
    assert not unused, f"public names that only tests reach: {unused}"
