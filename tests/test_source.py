"""Static hygiene of the package source, read with ``ast`` only."""

import ast
from pathlib import Path

import pytest

import bnineq

SOURCE = Path(bnineq.__file__).resolve().parent
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(tree: ast.AST) -> set[str]:
    """Every bare name the code reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    assert sorted(set(bound) - loaded_names(tree)) == []


def test_every_exported_name_exists():
    assert len(set(bnineq.__all__)) == len(bnineq.__all__)
    assert [name for name in bnineq.__all__ if not hasattr(bnineq, name)] == []


def test_every_tolerance_is_read_by_another_module():
    tree = parse(SOURCE / "tolerances.py")
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = set().union(*(loaded_names(parse(p)) for p in MODULES if p.name != "tolerances.py"))
    assert constants
    assert sorted(constants - read) == []
