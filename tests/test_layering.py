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


def imported_modules(path):
    """Absolute names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "tropmirror" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_tropical_and_cli_import_the_monomial_kernel():
    imports = {path.name: imported_modules(path) for path in PACKAGE.glob("*.py")}
    assert imports["tropical.py"] & KERNEL == KERNEL  # the walker sees both forms
    offenders = {name: sorted(found & KERNEL) for name, found in imports.items()
                 if name not in KERNEL_USERS and found & KERNEL}
    assert not offenders
