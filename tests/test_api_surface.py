"""Every public top-level function and class of ``icessm`` has a caller in
the program: the package itself, the benchmark (``perfbench/``) or the tools
(``tools/``), and so has every public method and property of those classes.
A name that only tests reach is library surface nothing runs.
Likewise every defaulted parameter of a public function or method is passed
by some program call: an option that only tests set is a code path nothing
runs. And one function delivers gradients: an op's backward returns them and
``nd._make`` accumulates them; only ``Tape.backward``'s seed does so too. So
only the tape reads ``requires_grad``: every backward computes the gradient of
every input, and ``nd._make`` alone decides which inputs receive one. A
``_``-prefixed name belongs to its module: no other module of the package
imports or reads it (tests, the benchmark and the tools may)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "icessm"
# the gradient reference every taped op is checked against
EXCEPTIONS = {"nd.grad_check"}
# defaulted parameters no program call passes, each with the reason it stays
OPTION_EXCEPTIONS = {
    "nd.grad_check.tolerance": "the gradient reference; tests set the bound per check",
    "nd.grad_check.step": "the gradient reference; tests set the difference step",
    "cli.main.argv": "the entry point the tests drive; the program passes sys.argv",
    "data.synth_generate.season_period": "criterion 9's fixture sets the seasonal cycle",
    "metrics.sie.cell_area": "criterion 11 checks the extent at a cell area of 2.5",
}


def sources() -> list[Path]:
    return [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
            *(ROOT / "tools").glob("*.py")]


def package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


def public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(path: Path, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs that the source at ``path`` refers to: a
    ``mod.name`` attribute, a ``from .mod import name``, or a bare name read
    inside its own module (a name bound there, such as a dataclass field of
    the same name, is not a use)."""
    own = path.stem if path.parent == PACKAGE else None
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            refs.update((node.module.rsplit(".", 1)[-1], a.name) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and own is not None:
            refs.add((own, node.id))
    return refs


def test_every_public_name_has_a_program_caller():
    trees = package_trees()
    refs = set().union(*(references(p, set(trees)) for p in sources()))
    unused = [f"{mod}.{name}" for mod, tree in trees.items() for name in public_defs(tree)
              if (mod, name) not in refs and f"{mod}.{name}" not in EXCEPTIONS]
    assert not unused, f"public names that only tests reach: {unused}"


def public_members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of each public method and property of the public classes
    of ``tree``."""
    return [(node.name, fn.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for fn in node.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def attribute_reads(path: Path) -> set[str]:
    """The name of every attribute that the source at ``path`` reads."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_method_has_a_program_reader():
    # the sources carry no types, so a read of ``.name`` on any object counts
    # for every method or property of that name
    read = set().union(*(attribute_reads(p) for p in sources()))
    unread = [f"{mod}.{cls}.{name}" for mod, tree in package_trees().items()
              for cls, name in public_members(tree) if name not in read]
    assert not unread, f"public methods and properties that only tests reach: {unread}"


def signatures(trees: dict[str, ast.Module]) -> dict[str, ast.arguments]:
    """``mod.func`` and ``mod.Class.method`` (``__init__`` included) -> the
    arguments of every public function and method of the package."""
    sigs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                sigs[f"{mod}.{node.name}"] = node.args
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                sigs.update((f"{mod}.{node.name}.{fn.name}", fn.args) for fn in node.body
                            if isinstance(fn, ast.FunctionDef)
                            and (fn.name == "__init__" or not fn.name.startswith("_")))
    return sigs


def defaulted(args: ast.arguments) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default; keyword-only ones
    have no position."""
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return ([(i, pos[i].arg) for i in range(first, len(pos))]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def calls(path: Path, modules: set[str], sigs: dict[str, ast.arguments]):
    """(signature key, call) for every call in ``path`` that may reach a
    public function or method: ``mod.func(...)``, a bare or imported name,
    ``mod.Class(...)`` (its ``__init__``) or ``obj.method(...)`` (every public
    method of that name)."""
    own = path.stem if path.parent == PACKAGE else None
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {a.asname or a.name: f"{node.module.rsplit('.', 1)[-1]}.{a.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
                for a in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in modules:
            keys = [f"{f.value.id}.{f.attr}"]
        elif isinstance(f, ast.Name):
            keys = [imported.get(f.id, f"{own}.{f.id}")]
        elif isinstance(f, ast.Attribute):
            keys = [k for k in sigs if k.count(".") == 2 and k.endswith(f".{f.attr}")]
        else:
            keys = []
        for key in keys:
            if key in sigs:
                yield key, node
            elif f"{key}.__init__" in sigs:
                yield f"{key}.__init__", node


def passed_parameters(call: ast.Call, key: str, args: ast.arguments) -> set[str]:
    """The defaulted parameters of ``key`` that ``call`` passes: by keyword,
    by position (the positional arguments before any ``*``) or through
    ``**``."""
    offset = key.count(".") - 1  # a method's caller does not pass self
    if any(k.arg is None for k in call.keywords):
        return {name for _, name in defaulted(args)}
    n_pos = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    keywords = {k.arg for k in call.keywords}
    return {name for i, name in defaulted(args)
            if name in keywords or (i is not None and 0 <= i - offset < n_pos)}


def test_every_defaulted_parameter_has_a_program_caller():
    trees = package_trees()
    sigs = signatures(trees)
    passed = set()
    for path in sources():
        for key, call in calls(path, set(trees), sigs):
            passed.update(f"{key}.{name}" for name in passed_parameters(call, key, sigs[key]))
    options = [f"{key}.{name}" for key, args in sigs.items() for _, name in defaulted(args)]
    unset = [o for o in options if o not in passed and o not in OPTION_EXCEPTIONS]
    assert not unset, f"{len(options)} defaulted parameters; no program call sets {unset}"
    stale = sorted(set(OPTION_EXCEPTIONS) - set(options) | set(OPTION_EXCEPTIONS) & passed)
    assert not stale, f"exceptions that are gone or now set by the program: {stale}"


# the one place a gradient is delivered, and the loss's seed
ACCUM_CALLERS = {"nd._make", "nd.Tape.backward"}


def scopes(mod: str, tree: ast.Module):
    """(name, node) for each top-level statement of the package module
    ``mod`` and each statement of its classes: ``mod.func``,
    ``mod.Class.method``, ``mod.Class`` or, for the rest, ``mod``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = f".{item.name}" if isinstance(item, ast.FunctionDef) else ""
                yield f"{mod}.{node.name}{method}", item
        elif isinstance(node, ast.FunctionDef):
            yield f"{mod}.{node.name}", node
        else:
            yield mod, node


def test_only_make_delivers_gradients():
    # an op's backward returns its input gradients; nd._make alone accumulates them
    callers = sorted({name for mod, tree in package_trees().items()
                      for name, node in scopes(mod, tree)
                      for call in ast.walk(node) if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Attribute) and call.func.attr == "_accum"}
                     - ACCUM_CALLERS)
    assert not callers, f"functions that accumulate gradients outside nd._make: {callers}"


# the tape's own bookkeeping: which ops are recorded and which inputs get an entry
REQUIRES_GRAD_READERS = {"nd._tracking", "nd._make"}


def test_only_the_tape_reads_requires_grad():
    # an op computes its whole gradient tuple; a constant input's entry is dropped by nd._make
    readers = sorted({name for mod, tree in package_trees().items()
                      for name, node in scopes(mod, tree)
                      if name.split(".")[:2] != ["nd", "Tensor"]   # its own attribute
                      for attr in ast.walk(node) if isinstance(attr, ast.Attribute)
                      and attr.attr == "requires_grad" and isinstance(attr.ctx, ast.Load)}
                     - REQUIRES_GRAD_READERS)
    assert not readers, f"functions that read requires_grad outside the tape: {readers}"


def test_no_module_reaches_into_another():
    trees = package_trees()
    reached = sorted(f"{mod} uses {owner}.{name}" for mod in trees
                     for owner, name in references(PACKAGE / f"{mod}.py", set(trees))
                     if owner != mod and name.startswith("_"))
    assert not reached, f"private names used outside their module: {reached}"
