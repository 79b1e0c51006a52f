"""The package's import layering, read from the source with ``ast``."""

import ast
from pathlib import Path

import tropmirror

PACKAGE = Path(tropmirror.__file__).parent
# The exact monomial kernel serves only the tropical chart maps (and the
# CLI's conifold suite, which compares their images); every other module
# computes with tropmirror.symbolic.
KERNEL = {"tropmirror.lpoly", "tropmirror.novikov"}
KERNEL_USERS = {"tropical.py", "cli.py", "lpoly.py", "novikov.py"}


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


def test_only_tropical_and_cli_import_the_monomial_kernel():
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
