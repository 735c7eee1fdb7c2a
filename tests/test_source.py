"""Static hygiene of the package source, read with ``ast`` only."""

import ast
from pathlib import Path

import pytest

import bnineq

SOURCE = Path(bnineq.__file__).resolve().parent
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_at_module_level(path):
    # A module binds its collaborators once; an import inside a function
    # rebinds them on every call and can hide an import cycle.
    tree = parse(path)
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


#: The package's modules, each importing only modules before it.
ORDER = ("tolerances", "tensor", "spectra", "schmidt", "inequality", "sampling", "cli")


def test_every_relative_import_names_an_earlier_module():
    # ``__init__`` is exempt: it gathers the public names of every module.
    later = []
    for i, stem in enumerate(ORDER):
        for node in ast.walk(parse(SOURCE / f"{stem}.py")):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                later += [(stem, name) for name in names if name not in ORDER[:i]]
    assert later == []
    assert sorted(ORDER) == [p.stem for p in MODULES]


def test_every_exported_name_exists():
    assert len(set(bnineq.__all__)) == len(bnineq.__all__)
    assert [name for name in bnineq.__all__ if not hasattr(bnineq, name)] == []


#: The modules whose ``__all__`` the package re-exports, in that order.
EXPORTING = ("tensor", "spectra", "schmidt", "inequality", "sampling")


def test_every_public_name_is_listed_once_where_it_is_defined():
    listed = []
    for stem in EXPORTING:
        defined, imported, names = set(), set(), None
        for node in parse(SOURCE / f"{stem}.py").body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                defined.update(targets)
                if targets == ["__all__"]:
                    names = ast.literal_eval(node.value)
        assert names is not None, f"{stem} has no __all__ list"
        assert [n for n in names if n not in defined or n in imported] == [], stem
        assert names == getattr(bnineq, stem).__all__
        listed += names
    assert bnineq.__all__ == listed
    assert len(set(listed)) == len(listed)
    # ``__init__`` spells no public name: it only gathers the lists.
    init = ast.walk(parse(SOURCE / "__init__.py"))
    assert [n.value for n in init if isinstance(n, ast.Constant) and n.value in listed] == []


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


def test_only_lapack_calls_numpy_linalg():
    # ``tensor._lapack`` turns a LinAlgError into NumericalError, on which the
    # CLI exits 3; a direct ``np.linalg.<name>(...)`` call would escape that.
    # ``_lapack`` itself calls ``getattr(np.linalg, name)(...)``, not this form.
    def linalg(func):
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
        )

    calls = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call) and linalg(node.func)
    ]
    assert calls == []


def owners(node: ast.AST, found, owner: str = "") -> list[str]:
    """``module.function`` for each node under ``node`` that ``found``
    accepts, with the innermost enclosing function, or the module alone."""
    out = [owner] if found(node) else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = f"{owner.split('.')[0]}.{node.name}"
    for child in ast.iter_child_nodes(node):
        out += owners(child, found, owner)
    return out


def named(node: ast.AST) -> str | None:
    """The name a Name, Attribute or import alias node refers to."""
    return next((getattr(node, a) for a in ("id", "attr", "name") if hasattr(node, a)), None)


def owners_of(rule) -> list[str]:
    """``owners`` of the nodes that ``rule`` accepts, over every module."""
    return sorted(o for path in MODULES for o in owners(parse(path), rule, path.stem))


def test_each_batching_rule_has_one_owner():
    # ``schmidt._rng`` states the seed rule and ``tensor._stacks`` the stack
    # budget, so that ``scan`` and ``maximize_rhs`` cannot drift apart, and
    # a test that patches ``bnineq.tensor.STACK_ELEMENTS`` reaches both.
    def calls_default_rng(node):
        return isinstance(node, ast.Call) and named(node.func) == "default_rng"

    def reads_stack_elements(node):
        # Every mention but the assignment in tolerances that defines it.
        store = isinstance(getattr(node, "ctx", None), ast.Store)
        return named(node) == "STACK_ELEMENTS" and not store

    assert owners_of(calls_default_rng) == ["schmidt._rng"]
    # The import binds the name in tensor; _stacks alone reads it.
    assert owners_of(reads_stack_elements) == ["tensor", "tensor._stacks"]


def test_the_state_vector_gate_has_one_owner():
    # ``tensor._unit_vector`` alone reads the unit-norm tolerance, and both
    # constructors of ``PureState`` call it, so ``normalized``, which skips
    # ``__init__``, still gates the quotient it keeps.
    def reads_norm_atol(node):
        store = isinstance(getattr(node, "ctx", None), ast.Store)
        return named(node) == "NORM_ATOL" and not store

    # The import binds the name in tensor; _unit_vector alone reads it.
    assert sorted(set(owners_of(reads_norm_atol))) == ["tensor", "tensor._unit_vector"]
    state = next(
        node for node in parse(SOURCE / "tensor.py").body
        if isinstance(node, ast.ClassDef) and node.name == "PureState"
    )
    callers = {
        method.name
        for method in state.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and named(node.func) == "_unit_vector"
    }
    assert callers == {"__post_init__", "normalized"}


def test_the_ascent_climbs_the_objective_it_is_given():
    # maximize_rhs hands the ascent its objective, so a test can hand it a
    # fake, and the ascent reaches no objective of its own.
    ascend = next(
        node for node in parse(SOURCE / "inequality.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "_ascend"
    )
    assert "_rhs_ascent" not in {named(node) for node in ast.walk(ascend)}


def test_only_the_eigenvalue_kernels_take_the_shannon_sum():
    # The gradient kernel reads its entropy off the weights that build its
    # gradient, so no ascent step takes a second pass over the eigenvalues.
    def reads_shannon(node):
        return named(node) == "_shannon" and isinstance(getattr(node, "ctx", None), ast.Load)

    assert sorted(set(owners_of(reads_shannon))) == [
        "spectra.entanglement_entropy",
        "spectra.entropy_from_eigenvalues",
    ]


#: numpy's module-level Python wrappers, each of which costs more per call
#: than the ndarray method, ufunc or constructor that gives the same bits.
PER_CALL_WRAPPERS = {
    "all", "any", "max", "min", "mean", "sum", "diagonal", "trace", "count_nonzero",
    "flatnonzero", "diff", "tile", "stack", "eye", "full", "delete", "finfo",
}

#: The functions that may still call one of them, each with its reason.
WRAPPER_OWNERS = {
    "inequality.canonical_counterexample": "builds one state per call, off every hot path",
    "inequality.product_decomposition": "builds one closed-form decomposition per call",
    "inequality.entangled_decomposition": "builds one closed-form decomposition per call",
}


def test_hot_paths_call_no_numpy_python_wrapper():
    # scan and maximize_rhs run cold in the CLI and between the benchmark's
    # yardstick batches, where each wrapper's Python layer costs microseconds.
    def wrapper(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr in PER_CALL_WRAPPERS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )

    assert sorted(set(owners_of(wrapper))) == sorted(WRAPPER_OWNERS)


#: Public names that nothing in the package reads and ``__all__`` leaves
#: out, each with the file outside the package that still names it.  Once
#: that file stops naming one, the name is dead and should be deleted.
UNREAD_PUBLIC_NAMES = {
    "permute_factors": "bench/tracer.py",  # a layer of the benchmark tracer
}


def test_every_public_name_is_exported_or_read():
    defined = {
        node.name
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = set()
    for path in MODULES:
        tree = parse(path)
        read |= loaded_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(defined - set(bnineq.__all__) - read) == sorted(UNREAD_PUBLIC_NAMES)
    for name, user in UNREAD_PUBLIC_NAMES.items():
        assert name in (ROOT / user).read_text(encoding="utf-8"), (name, user)


#: The oldest Python that pyproject.toml's ``requires-python`` admits.
OLDEST_PYTHON = (3, 10)


def test_the_oldest_python_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in pyproject


@pytest.mark.parametrize(
    "path",
    sorted([*SOURCE.rglob("*.py"), *(ROOT / "tests").rglob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_file_parses_on_the_oldest_python(path):
    # Newer syntax (such as except* on 3.10) fails here even when the suite
    # runs on a newer interpreter.
    text = path.read_text(encoding="utf-8")
    ast.parse(text, filename=str(path), feature_version=OLDEST_PYTHON)
