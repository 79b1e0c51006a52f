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
    # mf imports dgcat at module level, so an import of mf anywhere in
    # dgcat would close a cycle (test_dgcat_imports_no_higher_layer)
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


def test_dgcat_imports_no_higher_layer():
    # dgcat is the Appendix A layer: factorizations, curves and the CLI build
    # on it, never the reverse, not even inside a function body
    higher = {f"tropmirror.{name}" for name in ("mf", "tropical", "cli")}
    assert not imported_modules(PACKAGE / "dgcat.py") & higher


def divisions_outside_normal_form(path):
    """Lines of the true divisions in a source file that are not inside a
    ``_frac(...)`` call."""
    tree = ast.parse(path.read_text())
    inside = {id(node) for call in ast.walk(tree) if isinstance(call, ast.Call)
              and isinstance(call.func, ast.Name) and call.func.id == "_frac"
              for node in ast.walk(call)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            and id(node) not in inside]


def test_chart_stack_never_divides_into_a_float():
    # int / int is a float; the chart stack keeps every rational in the
    # normal form of symbolic._frac, so a quotient is _frac(Fraction(a, b))
    found = {name: divisions_outside_normal_form(PACKAGE / name)
             for name in ("tropical.py", "novikov.py", "lpoly.py")}
    assert found == {name: [] for name in found}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referring_nested_functions(path):
    """``file:outer.inner`` for each function of a source file, nested in
    another function, whose body names itself."""
    found = set()
    for outer in ast.walk(ast.parse(path.read_text())):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, FUNCTIONS) and any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for node in ast.walk(inner)):
                found.add(f"{path.name}:{outer.name}.{inner.name}")
    return found


def test_no_nested_function_refers_to_itself():
    # a nested function that names itself is a closure holding its own cell:
    # each call of the outer function leaves a reference cycle that only the
    # cyclic garbage collector frees, so recursion lives at module level or
    # walks an explicit stack
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= self_referring_nested_functions(path)
    assert found == set()


def reduction_calls(tree):
    """(line, called name) of each ``self.model.normalize`` and
    ``self.change.substitute`` call under ``tree``."""
    wanted = {("model", "normalize"), ("change", "substitute")}
    return sorted((node.lineno, f"{node.func.value.attr}.{node.func.attr}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Attribute)
                  and isinstance(node.func.value.value, ast.Name)
                  and node.func.value.value.id == "self"
                  and (node.func.value.attr, node.func.attr) in wanted)


def test_model_elements_are_reduced_only_by_clean():
    # a ModelOps element is reduced once, where it enters from outside;
    # sums, products and unit parts of reduced elements are not reduced again
    tree = ast.parse((PACKAGE / "dgcat.py").read_text())
    ops = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ModelOps")
    clean = next(node for node in ops.body
                 if isinstance(node, ast.FunctionDef) and node.name == "clean")
    assert reduction_calls(tree) == reduction_calls(clean)
    assert {name for _, name in reduction_calls(clean)} == {"model.normalize",
                                                             "change.substitute"}


def class_attributes(path, names):
    """{class name: names its body defines, by def or by assignment} for ``names``."""
    found = {}
    for cls in ast.parse(path.read_text()).body:
        if isinstance(cls, ast.ClassDef) and cls.name in names:
            found[cls.name] = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            found[cls.name] |= {target.id for node in cls.body if isinstance(node, ast.Assign)
                                for t in node.targets
                                for target in (t.elts if isinstance(t, ast.Tuple) else [t])
                                if isinstance(target, ast.Name)}
    return found


def test_dg_categories_have_no_add_or_scale():
    # combine is the only linear operation on dg morphisms: a sum or a sign is
    # a term of one combine, so no dg category defines add or scale
    categories = ("DgPiece", "YonedaPiece", "HomotopyFiberProduct")
    found = class_attributes(PACKAGE / "dgcat.py", categories)
    linear = {name: attrs & {"add", "scale", "combine"} for name, attrs in found.items()}
    assert linear == {name: {"combine"} for name in categories}


def defaulted_parameters(path):
    """(called name, parameter, position or None, default, scope) for each
    defaulted parameter of a function, a method or a nested function.

    A method is called by its own name, ``__init__`` by its class's; the
    position counts the arguments of such a call, so ``self`` and ``cls``
    take none.  Keyword-only parameters have no position.  A nested
    function's scope is its enclosing function, where it is called by its
    bare name; every other scope is None, for a call from anywhere.
    """
    def params(node, called, bound, scope):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        skip = 1 if bound and positional and positional[0].arg in ("self", "cls") else 0
        return ([(called, p.arg, i - skip, d, scope)
                 for i, (p, d) in enumerate(zip(positional[first:], args.defaults), first)]
                + [(called, p.arg, None, d, scope)
                   for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])

    def nested(node):
        out = []
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.FunctionDef):
                out += params(child, child.name, False, node)
        return out

    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            out += params(node, node.name, False, None) + nested(node)
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    called = node.name if method.name == "__init__" else method.name
                    out += params(method, called, True, None) + nested(method)
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


def local_calls(scope, name):
    """Calls of the bare name ``name`` inside the function ``scope``."""
    return [node for node in ast.walk(scope) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def overrides(call, name, position, default):
    """Whether ``call`` passes the parameter, other than as the default's own literal."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    passed = [k.value for k in call.keywords if k.arg == name]
    if position is not None and len(call.args) > position:
        passed.append(call.args[position])
    return any(not (isinstance(value, ast.Constant) and isinstance(default, ast.Constant)
                    and ast.dump(value) == ast.dump(default))
               for value in passed)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no package or benchmark call overrides is a constant
    # spelled as an option
    calls = calls_by_name(USERS)
    unpassed = [f"{path.name}:{fn}({name})"
                for path in sorted(PACKAGE.glob("*.py"))
                for fn, name, position, default, scope in defaulted_parameters(path)
                if not any(overrides(c, name, position, default)
                           for c in (calls.get(fn, ()) if scope is None
                                     else local_calls(scope, fn)))]
    assert not unpassed


def referenced_names(roots):
    """(names spelled by a Name node, names read as an attribute) under the
    given directories."""
    names, attributes = set(), set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names, attributes


def test_every_definition_is_referenced():
    # a function, class or method that neither the package nor the benchmark
    # names is dead code; the tracer names its targets in strings.  A method
    # is reached only as an attribute, so a bare name of the same spelling
    # does not count for it
    names, attributes = referenced_names(USERS)
    traced = {part for _, path in tracer_targets() for part in path.split(".")}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                used = attributes if id(node) in methods else names | attributes
                if node.name not in used | traced:
                    unused.append(f"{path.name}:{node.name}")
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


def certificate_builders(path):
    """Top-level statements of a source file holding a dict literal with a
    ``"triple_overlaps"`` key: a definition by its name, others by line."""
    return {getattr(node, "name", f"line {node.lineno}")
            for node in ast.parse(path.read_text()).body
            for inner in ast.walk(node)
            if isinstance(inner, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "triple_overlaps"
                for key in inner.keys)}


def test_one_covering_certificate_builder():
    # the search's overlap table already knows each stratum's intervals and
    # triples, so the certificate is read from it and built nowhere else
    assert certificate_builders(PACKAGE / "tropical.py") == {"_OverlapTable"}


def callers_of(name):
    """Top-level definitions of the package that call ``name``, as
    ``module:definition``."""
    return {f"{path.stem}:{node.name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and name in (getattr(inner.func, "id", None), getattr(inner.func, "attr", None))}


def test_one_isomorphism_sector_walk():
    # the Yoneda identities and the functor equation visit the sector through
    # one walk, and an ISO_DATA pair is verified by iso_setup's ModelOps, so
    # a coordinate change acts on polynomials only, never on a model element
    assert callers_of("sector_tuples") == {"dgcat:sector_walk"}
    tree = ast.parse((PACKAGE / "ainf.py").read_text())
    change = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "CoordinateChange")
    params = {method.name: [ast.unparse(arg.annotation) if arg.annotation else None
                            for arg in method.args.args[1:]]
              for method in change.body if isinstance(method, ast.FunctionDef)}
    assert params and all(ann == "SymPoly" for anns in params.values() for ann in anns)
