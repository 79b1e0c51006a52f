"""The package's structure, read from the source with ``ast``: import layering,
options, unreferenced definitions and the benchmark tracer's targets.

A definition or an option counts as used only if the package or the
benchmark reaches it: code that only tests reach is either promoted into a
``verify`` suite or deleted.
"""

import ast
import importlib
from pathlib import Path

import tropmirror

PACKAGE = Path(tropmirror.__file__).parent
REPO = PACKAGE.parent.parent
# where a use counts; tests/ does not
USERS = (PACKAGE, REPO / "bench")
# The exact monomial kernel serves only the tropical chart maps; every other
# module computes with tropmirror.symbolic.
KERNEL = {"tropmirror.lpoly", "tropmirror.novikov"}
KERNEL_USERS = {"tropical.py", "lpoly.py", "novikov.py"}


def names_imported_by(node):
    """Absolute names one import statement can bind: modules and their members."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    base = ("tropmirror" + (f".{node.module}" if node.module else "")
            if node.level else node.module)
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def imported_modules(path):
    """Absolute names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= names_imported_by(node)
    return names


def test_only_tropical_imports_the_monomial_kernel():
    imports = {path.name: imported_modules(path) for path in PACKAGE.glob("*.py")}
    assert imports["tropical.py"] & KERNEL == KERNEL  # the walker sees both forms
    offenders = {name: sorted(found & KERNEL) for name, found in imports.items()
                 if name not in KERNEL_USERS and found & KERNEL}
    assert not offenders


def module_level_imports(path):
    """Package modules a source file imports when it is itself imported.

    Imports inside function bodies run only on call, so they cannot close
    an import cycle and are skipped.
    """
    package = {f"tropmirror.{p.stem}" for p in PACKAGE.glob("*.py")}
    names = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= names_imported_by(node) & package
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_module_level_imports_form_no_cycle():
    graph = {f"tropmirror.{p.stem}": module_level_imports(p) for p in PACKAGE.glob("*.py")}
    # mf imports dgcat at module level; dgcat imports mf only inside
    # gluemf_triple, which a walker that counted it would report as a cycle
    assert "tropmirror.dgcat" in graph["tropmirror.mf"]
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        if module in done:
            return
        path.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def defaulted_parameters(path):
    """(called name, parameter, position or None) for each defaulted parameter
    of a module-level function or a method.

    A method is called by its own name, ``__init__`` by its class's; the
    position counts the arguments of such a call, so ``self`` and ``cls``
    take none.  Keyword-only parameters have no position.
    """
    def params(node, called, bound):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        skip = 1 if bound and positional and positional[0].arg in ("self", "cls") else 0
        return ([(called, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
                + [(called, p.arg, None)
                   for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])

    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            out += params(node, node.name, False)
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    called = node.name if method.name == "__init__" else method.name
                    out += params(method, called, True)
    return out


def calls_by_name(roots):
    """Call nodes under the given directories, keyed by the called name."""
    calls = {}
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def passes(call, name, position):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no package or benchmark call overrides is a constant
    # spelled as an option
    calls = calls_by_name(USERS)
    unpassed = [f"{path.name}:{fn}({name})"
                for path in sorted(PACKAGE.glob("*.py"))
                for fn, name, position in defaulted_parameters(path)
                if not any(passes(c, name, position) for c in calls.get(fn, ()))]
    assert not unpassed


def referenced_names(roots):
    """Every name a Name or Attribute node spells under the given directories."""
    names = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_definition_is_referenced():
    # a function, class or method that neither the package nor the benchmark
    # names is dead code; the tracer names its targets in strings
    used = referenced_names(USERS)
    used |= {part for _, path in tracer_targets() for part in path.split(".")}
    unused = [f"{path.name}:{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert not unused


def tracer_targets():
    """(module, attribute path) pairs of the benchmark tracer's SPANS and COUNTS."""
    tracer = REPO / "bench" / "tracer.py"
    tables = {}
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTS"):
                    tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANS", "COUNTS"}
    return [(mod, path) for table in tables.values() for mod, path, _ in table]


def test_tracer_targets_resolve():
    # the tracer patches each target in the owner's own namespace, by name
    unresolved = []
    for mod, path in tracer_targets():
        owner = importlib.import_module(f"tropmirror.{mod}")
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            unresolved.append(f"{mod}.{path}")
    assert not unresolved


def test_only_symbolic_builds_polynomials_unchecked():
    # SymPoly._of_clean trusts its term dict to hold no zero scalars and only
    # canonical keys; only the kernel that builds such dicts may call it
    callers = {path.relative_to(REPO).as_posix()
               for root in (PACKAGE, REPO / "tests", REPO / "bench")
               for path in root.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_of_clean"}
    assert callers == {"src/tropmirror/symbolic.py"}
