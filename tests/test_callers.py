"""Every definition in the package has a caller in the package, or a stated reason.

The gate reads src/corktwist/*.py with ast.  A top-level function or
class counts as called when some Name or Attribute node anywhere in the
package spells its name.  A method whose name is not a dunder is reached
only through an object or its class, so it counts as called only when an
Attribute node spells its name: a local variable of the same name does
not hide it (`moves.Shadow.faces` went unflagged while `_derive` kept a
local `faces`).  The gate matches bare names, so a definition whose name
is also spelled for something else still slips through: a module
function whose name is also a local variable or a parameter read in some
function body, as `mcg.pairing` was while `hfcert.adjunction_violated`
read a parameter named `pairing`, or a method whose name is also an
attribute of something else.  A name read only through a string, such as
a getattr, is flagged.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corktwist"

# callerless in the package on purpose, each with the reason it stays
ALLOWED = {
    "front.stabilize": "perfbench workloads and tests call it",
    "kirby.linked_handle_pair": "perfbench workloads and tests call it",
    "hfcert.hf_s3": "acceptance criterion 10 checks it",
    "hfcert.degree_shift": "ROADMAP item 12 gives it a caller",
    "moves.Shadow.remove_kink": "ROADMAP item 2's replay applies it",
    "moves.Shadow.remove_bigon": "ROADMAP item 2's replay applies it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def callerless(package):
    """The definitions of package's modules that nothing spells: a top-level
    one no Name or Attribute node, a method no Attribute node."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    spelled, functions = names | attributes, (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name, spelled))
            if isinstance(node, ast.ClassDef):
                defined.extend((f"{module}.{node.name}.{m.name}", m.name, attributes)
                               for m in node.body
                               if isinstance(m, functions) and not _is_dunder(m.name))
    return {qualified for qualified, name, seen in defined if name not in seen}


def test_every_definition_has_a_caller_or_a_reason():
    found = callerless(PACKAGE)
    assert sorted(found - ALLOWED.keys()) == [], "no caller and no reason"
    assert sorted(ALLOWED.keys() - found) == [], "allowed, but called now or gone"


def test_the_gate_sees_a_callerless_function_and_a_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
        "class K:\n    def __init__(self):\n        self.go()\n\n"
        "    def go(self):\n        pass\n\n    def idle(self):\n        pass\n\n"
        "    def shaded(self):\n        pass\n"
    )
    # an import spells no Name node: K counts as called for its use in b,
    # and a local variable named like a method calls no method
    (tmp_path / "b.py").write_text(
        "from .a import K\n\n\ndef make():\n    shaded = K()\n    return shaded\n\n\n"
        "make()\n")
    assert callerless(tmp_path) == {"a.unused", "a.K.idle", "a.K.shaded"}
