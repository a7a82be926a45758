"""Package-level hygiene: every module imports, every __all__ resolves."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def all_modules():
    names = ["repro"]
    for module in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        if module.name.endswith("__main__"):
            continue  # importing it dispatches the CLI
        names.append(module.name)
    return sorted(names)


MODULES = all_modules()


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for entry in getattr(module, "__all__", ()):
        assert hasattr(module, entry), f"{name}.__all__ lists missing {entry}"


@pytest.mark.parametrize("name", MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


#: The one module allowed to drive a process pool (DESIGN.md §7).
DISPATCH_CORE = "repro/runtime/jobs.py"

#: Names whose construction or handling means "this code owns a pool".
POOL_NAMES = {"ExecPool", "ProcessPoolExecutor", "BrokenProcessPool"}


def _dispatch_sites(path):
    """``(line, what)`` for every pool construction, futures wait, or
    ``BrokenProcessPool`` reference in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    waits = set()  # local names bound to concurrent.futures.wait
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("concurrent.futures")):
            waits.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "wait")
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and (
                    func.id in POOL_NAMES or func.id in waits):
                sites.append((node.lineno, f"{func.id}(...)"))
            elif isinstance(func, ast.Attribute) and (
                    func.attr in POOL_NAMES
                    or (func.attr == "wait"
                        and ast.unparse(func.value).endswith("futures"))):
                sites.append((node.lineno, f"{ast.unparse(func)}(...)"))
        elif isinstance(node, ast.Name) and node.id == "BrokenProcessPool":
            sites.append((node.lineno, "BrokenProcessPool"))
    return sites


def test_only_the_dispatch_core_drives_a_process_pool():
    """One dispatch core: sweeps, shards, and the service all execute
    through ``JobScheduler``, so no other module may build a pool, wait
    on its futures, or handle its breakage."""
    assert _dispatch_sites(PACKAGE_ROOT.parent / DISPATCH_CORE)
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = path.relative_to(PACKAGE_ROOT.parent).as_posix()
        if name != DISPATCH_CORE:
            offenders += [f"{name}:{line}: {what}"
                          for line, what in _dispatch_sites(path)]
    assert not offenders, "\n".join(offenders)


def test_expected_subpackages_present():
    packages = {m.split(".")[1] for m in MODULES if m.count(".") == 1}
    assert {
        "sparse", "graphs", "core", "piuma", "cpu", "gpu",
        "workloads", "report", "validation", "ext",
    } <= packages


def test_version():
    assert repro.__version__ == "1.0.0"


def test_measured_locality_moves_with_ordering():
    """The measurement-to-model bridge responds to reordering."""
    from repro.cpu import measured_locality
    from repro.graphs.rmat import RMATParams, rmat_graph
    from repro.sparse import apply_permutation, random_order, rcm_order

    adj = rmat_graph(RMATParams(scale=13, edge_factor=8), seed=0)
    shuffled = apply_permutation(adj, random_order(adj, seed=1))
    ordered = apply_permutation(shuffled, rcm_order(shuffled))
    assert measured_locality(ordered, window=2048) > measured_locality(
        shuffled, window=2048
    )
    assert 0.0 <= measured_locality(shuffled) <= 0.95
