"""Every definition in the package has a caller in the package, or a stated reason.

The gate reads src/corktwist/*.py with ast.  A top-level function or
class counts as called when some Name or Attribute node anywhere in the
package spells its name, except a Name inside a function, a lambda or a
comprehension that binds that name itself, as a parameter or a local:
that Name reads the local (`mcg.pairing` went unflagged while
`hfcert.adjunction_violated` read a parameter named `pairing`).  An
import binds no local, so a function imported and called inside another
counts as called.  A method whose name
is not a dunder is reached only through an object or its class, so it
counts as called only when an Attribute node spells its name: a local
variable of the same name does not hide it (`moves.Shadow.faces` went
unflagged while `_derive` kept a local `faces`).  The gate matches bare
names, so a definition whose name is also spelled for something else
still slips through: a module function whose name is also a module-level
variable, or a method whose name is also an attribute of something else.
A name read only through a string, such as a getattr, is flagged.
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


# the nodes whose parameters and locals are their own
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _binds(scope):
    """The names scope binds for itself: its parameters, and each name it
    stores, defines or catches outside the scopes nested in it.  An import
    binds none: the name it binds reads the definition it imports."""
    names = set()
    if not hasattr(scope, "generators"):  # a function or a lambda
        params = scope.args
        names.update(a.arg for a in (*params.posonlyargs, *params.args, *params.kwonlyargs,
                                     params.vararg, params.kwarg) if a)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _spelled(node, local=frozenset()):
    """Each name a Name node under node spells, but not where an enclosing
    scope binds it, and each attribute an Attribute node spells."""
    if isinstance(node, _SCOPES):
        local = local | _binds(node)
    if isinstance(node, ast.Name) and node.id not in local:
        yield ast.Name, node.id
    elif isinstance(node, ast.Attribute):
        yield ast.Attribute, node.attr
    for child in ast.iter_child_nodes(node):
        yield from _spelled(child, local)


def callerless(package):
    """The definitions of package's modules that nothing spells: a top-level
    one no Name (outside a scope binding its name) or Attribute node, a
    method no Attribute node."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        for kind, name in _spelled(tree):
            (names if kind is ast.Name else attributes).add(name)
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
        "def hidden():\n    pass\n\n\n"
        "class K:\n    def __init__(self):\n        self.go()\n\n"
        "    def go(self):\n        pass\n\n    def idle(self):\n        pass\n\n"
        "    def shaded(self):\n        pass\n"
    )
    # an import spells no Name node: K counts as called for its use in b,
    # a local variable named like a method calls no method, and a parameter
    # or a loop variable named like a function calls no function
    (tmp_path / "b.py").write_text(
        "from .a import K\n\n\ndef make(hidden):\n    shaded = K()\n"
        "    return shaded, hidden, [hidden for hidden in ()]\n\n\n"
        "def loop():\n    for hidden in ():\n        return hidden\n\n\n"
        "make(loop())\n")
    assert callerless(tmp_path) == {"a.unused", "a.hidden", "a.K.idle", "a.K.shaded"}
