"""The adaptive quadrature engine serves only tests: no kernel, special
function or oracle of the library runs it, so the tests' second opinion
shares no rule with the code it checks.  No module imports what it does
not use, so each module's imports are its real dependencies.  And no
function takes a parameter it never reads, so each signature is the
input the function really uses."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tplab"
ENGINE = {"integrate_adaptive", "fourier_cos_halfline", "_bisect"}


def _engine_references(path):
    """Line numbers where the module names an engine entry point, as an
    attribute (quad.integrate_adaptive), a bare name or an import."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENGINE:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in ENGINE:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name in ENGINE for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_but_quad_names_the_adaptive_engine():
    users = {path.relative_to(SRC).as_posix(): _engine_references(path)
             for path in sorted(SRC.rglob("*.py")) if path.name != "quad.py"}
    assert {name: lines for name, lines in users.items() if lines} == {}


def test_the_scan_sees_every_form_of_reference(tmp_path):
    # a call through the module, an imported name and the import itself
    module = tmp_path / "m.py"
    module.write_text("from tplab import quad\n"
                      "from tplab.quad import integrate_adaptive\n"
                      "quad.fourier_cos_halfline(g, 1.0)\n"
                      "integrate_adaptive(f, 0, 1)\n"
                      "quad._bisect(f, 0, 1, 1e-10, 9)\n")
    assert _engine_references(module) == [2, 3, 4, 5]


def _unused_imports(path):
    """Names bound by the module's top-level imports that no expression
    in the module reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_module_has_an_unused_import():
    # a package __init__ imports to re-export
    unused = {path.relative_to(SRC).as_posix(): _unused_imports(path)
              for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_import_scan_sees_every_form_of_binding(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\n"
                      "import numpy as np\n"
                      "from . import quad, specfun\n"
                      "from .errors import DomainError as Bad\n"
                      "specfun.besselk_grid(np.ones(2), 1.0)\n"
                      "def f():\n"
                      "    import math\n"
                      "    raise Bad(os.sep)\n")
    assert _unused_imports(module) == [(3, "quad")]


def _iterate_callbacks(tree):
    """Names passed as _iterate's step and done: they take the whole
    iteration state by protocol, whatever parts of it they read."""
    return {arg.id for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_iterate"
            for arg in node.args[:2] if isinstance(arg, ast.Name)}


def _unread_parameters(path):
    """(line, function.parameter) for each parameter of a function in the
    module that no expression of the function's body names."""
    tree = ast.parse(path.read_text(), str(path))
    exempt = _iterate_callbacks(tree)
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name in exempt):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [(node.lineno, "%s.%s" % (node.name, p.arg))
                  for p in params if p.arg not in read]
    return sorted(found)


def test_no_function_has_a_parameter_it_never_reads():
    unread = {path.relative_to(SRC).as_posix(): _unread_parameters(path)
              for path in sorted(SRC.rglob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_parameter_scan_sees_unread_parameters(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def _iterate(step, done, state):\n"
                      "    return step(state), done(state)\n"
                      "def _step(i, a, b):\n"
                      "    return i\n"
                      "def f(x, y=0.0, *rest, z, **kw):\n"
                      "    def g(u):\n"
                      "        return x + u\n"
                      "    del rest\n"
                      "    return _iterate(_step, lambda i: i, g(kw))\n"
                      "class A:\n"
                      "    def m(self, t):\n"
                      "        return t\n")
    assert _unread_parameters(module) == [(5, "f.y"), (5, "f.z"),
                                          (11, "m.self")]
