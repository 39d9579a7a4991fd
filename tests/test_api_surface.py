"""The package's surface is what its own code uses.

A public top-level function or class of ``src/grlstab``, or a public method
of a public class, must be referenced by a ``Name`` or ``Attribute`` node in
the package outside its own definition; a name that only the tests reach
belongs in the tests. References match by bare name, and count only from
live code: module level, or the body of a definition that is itself live.
A chain of forwarders that nothing calls is therefore dead as a whole.
Dunder methods and the ``RESERVED`` names, kept for experiments the
roadmap plans, are the live roots besides module-level code.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grlstab"

RESERVED = {
    # item 12: `experiment = certify` runs the certifiers
    "objectives.certify_constants": "ROADMAP item 12",
    "objectives.cocoercivity_check": "ROADMAP item 12",
    "objectives.gradient_check": "ROADMAP item 12",
    "objectives.contraction_check": "ROADMAP item 12",
    # item 4: exact ground truth for the generalization theorem
    "bounds.generalization_bound_single": "ROADMAP item 4",
    "bounds.generalization_bound_mgraph": "ROADMAP item 4",
    "harness.estimate_generalization_gap": "ROADMAP item 4",
    "harness.exhaustive_binary_stability": "ROADMAP item 4",
    "harness.exact_risk": "ROADMAP item 4",
    # item 12: the support-constrained fit criterion 09 checks the closed form against
    "gnn.fit_exact_rowwise": "ROADMAP item 12",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _surface():
    """(definitions, references) of the package.

    definitions maps the qualified name of every top-level function and
    class, and of every method of a top-level class, to its bare name;
    references maps a bare name to the qualified names enclosing each
    reference to it, one frozenset per reference.
    """
    definitions = {}
    references = defaultdict(list)
    for module, tree in _trees().items():
        owner_of = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner_of[id(node)] = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owner_of[id(item)] = f"{module}.{node.name}.{item.name}"
        definitions.update((q, q.rsplit(".", 1)[1]) for q in owner_of.values())

        def walk(node, owners):
            if isinstance(node, ast.Name):
                references[node.id].append(owners)
            elif isinstance(node, ast.Attribute):
                references[node.attr].append(owners)
            for child in ast.iter_child_nodes(node):
                owner = owner_of.get(id(child))
                walk(child, owners | {owner} if owner else owners)

        walk(tree, frozenset())
    return definitions, references


def _live(definitions, references, roots):
    """The definitions reachable from module-level code and the roots."""
    live = set(roots) | {q for q, name in definitions.items() if name.startswith("__")}
    changed = True
    while changed:
        changed = False
        for qualname, name in definitions.items():
            if qualname not in live and any(
                    qualname not in owners and owners <= live for owners in references[name]):
                live.add(qualname)
                changed = True
    return live


def _is_public(qualname):
    return not any(part.startswith("_") for part in qualname.split(".")[1:])


def test_every_public_name_has_a_caller_in_the_package():
    definitions, references = _surface()
    live = _live(definitions, references, RESERVED)
    dead = sorted(q for q in definitions if _is_public(q) and q not in live)
    assert dead == [], f"public names no package code uses: {dead}"


def test_reserved_names_exist_and_still_need_their_entry():
    definitions, references = _surface()
    live = _live(definitions, references, ())
    assert set(RESERVED) <= set(definitions)
    assert not set(RESERVED) & live, "a reserved name gained a caller; drop its entry"


def test_no_module_reads_another_modules_private_attributes():
    foreign = []
    for module, tree in _trees().items():
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                own.add(node.attr)
        foreign += [f"{module}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__") and node.attr not in own]
    assert foreign == []
