"""The package's public surface and its import hygiene, read from the source
with ``ast``: ``crispedge.__all__`` names exactly what ``__init__`` imports,
and no module, test or demo keeps a top-level import it never uses."""

import ast
from pathlib import Path

import crispedge

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/crispedge", "tests", "demos")


def top_level_imports(tree):
    """(name bound, line) for each module-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def exported(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_all_equals_the_names_init_imports():
    tree = ast.parse((ROOT / "src/crispedge/__init__.py").read_text())
    imported = {name for name, _ in top_level_imports(tree)}
    assert len(crispedge.__all__) == len(set(crispedge.__all__))
    assert set(crispedge.__all__) == imported | {"__version__"}


def test_no_unused_top_level_imports():
    unused = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for name, line in top_level_imports(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_losses_are_the_consensus_family():
    exported_losses = {"soft_ce", "soft_dice", "combined_loss", "adaptive_loss"}
    assert exported_losses <= set(crispedge.__all__)
    assert not {"weighted_ce", "dice"} & set(crispedge.__all__)
