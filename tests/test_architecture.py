"""The adaptive quadrature engine serves only the validation oracle: no
kernel or special function runs it, so the oracle's second opinion
shares no rule with the code it checks."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tplab"
ENGINE = {"integrate_batch", "integrate_adaptive"}


def _engine_references(path):
    """Line numbers where the module names an engine entry point, as an
    attribute (quad.integrate_batch), a bare name or an import."""
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


def test_only_the_oracle_calls_the_adaptive_engine():
    users = {path.relative_to(SRC).as_posix(): _engine_references(path)
             for path in sorted(SRC.rglob("*.py")) if path.name != "quad.py"}
    assert {name for name, lines in users.items() if lines} == {
        "validate.py"}, users


def test_the_scan_sees_every_form_of_reference(tmp_path):
    # a call through the module, an imported name and the import itself
    module = tmp_path / "m.py"
    module.write_text("from tplab import quad\n"
                      "from tplab.quad import integrate_adaptive\n"
                      "quad.integrate_batch(f, 0, 1)\n"
                      "integrate_adaptive(f, 0, 1)\n")
    assert _engine_references(module) == [2, 3, 4]
