"""The package's public surface: every public function, class and method
of ``ea_lab`` is reached by the package's own code, the README quickstart
or the acceptance suite."""

import ast
import re
from pathlib import Path

import ea_lab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ea_lab"

# Public names that nothing reaches yet, each with the ROADMAP item that
# will call it.  A name leaves this list when it gains a caller.
AWAITING_CALLERS = {
    "estimate_drift": "item 3, per-level diagnostics in every run",
    "DriftEstimate": "item 3, per-level diagnostics in every run",
    "additive_drift_bounds": "item 13, theorems instantiated from the exact chain",
    "AdditiveDrift": "item 13, theorems instantiated from the exact chain",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _names(node: ast.AST, imports: bool) -> set[str]:
    """Identifiers that ``node`` uses: names and attribute names, not
    annotations; import aliases only if ``imports``."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            found.add(node.name)
        for field, child in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                children = child if isinstance(child, list) else [child]
                stack += [c for c in children if isinstance(c, ast.AST)]
    return found


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _surface():
    """``(public, definitions, roots)``: the public names to check; each
    function, class and method name with the names its body uses (a
    class's public methods apart, which are reached by their own name);
    and the names used where code runs unasked."""
    public, definitions = set(), {}
    roots = _names(ast.parse(_quickstart()), imports=True)
    roots |= _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
                    imports=True)

    def define(name, node):
        definitions.setdefault(name, set()).update(_names(node, imports=False))

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if _is_public(node.name):
                    public.add(node.name)
                if isinstance(node, ast.FunctionDef):
                    define(node.name, node)
                    continue
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and _is_public(m.name)]
                for method in methods:
                    define(method.name, method)
                    if _is_public(node.name):
                        public.add(method.name)
                node.body = [m for m in node.body if m not in methods]
                define(node.name, node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node, imports=False)
    return public, definitions, roots


def test_every_public_name_is_reached():
    # Names are matched without scope, so a method shares its fate with
    # every attribute of its name (``value`` is reached by ``Enum.value``).
    public, definitions, roots = _surface()
    reached, frontier = set(), set(roots)
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= definitions.get(name, set()) - reached
    assert sorted(public - reached) == sorted(AWAITING_CALLERS)
    assert [name for name in ea_lab.__all__ if not hasattr(ea_lab, name)] == []
