"""Reach guard: every public module-level function or class of barronlab is
named by the package itself, a script, a benchmark file or the acceptance
tests.  Code that only unit tests reach is wired into a command or deleted.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "barronlab"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# Test oracles that unit tests check other code against; nothing else needs them.
ORACLES = {
    "barron.mollified_cutoff": "the cutoff profile behind periodization's bump",
    "barron.from_json": "shows that to_json is lossless",
    "numerics.integrate": "quadrature oracle of the exact norms",
    "lower_bounds.tail_density": "integrand oracle of example2_tail_mass",
    "lower_bounds.plateau_weight": "oracle of example2_tail_mass, used by tail_density",
}


def named(tree, skip=None) -> set[str]:
    """Identifiers that ``tree`` names outside the subtree ``skip``: names,
    attributes and the parts of dotted-identifier strings (the benchmark's
    tables of traced functions).  Import statements alone name nothing."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
        stack.extend(ast.iter_child_nodes(node))
    return found


def reach() -> tuple[set[str], list[str]]:
    """Public module-level functions and classes of barronlab as
    ``module.name``, and those of them that nothing names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    outside = set().union(*(named(ast.parse(path.read_text(encoding="utf-8")))
                            for path in CALLERS))
    defined, missing = set(), []
    for stem, tree in trees.items():
        elsewhere = outside.union(*(named(t) for s, t in trees.items() if s != stem))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(f"{stem}.{node.name}")
                if node.name not in elsewhere | named(tree, skip=node):
                    missing.append(f"{stem}.{node.name}")
    return defined, missing


def test_every_public_definition_is_reached():
    defined, missing = reach()
    assert set(ORACLES) <= defined
    assert [name for name in missing if name not in ORACLES] == []
