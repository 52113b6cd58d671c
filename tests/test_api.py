"""The package surface: exactly the names its users import, each one live."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import setmatch

REPO = Path(__file__).resolve().parent.parent

EXPORTED = {
    "LEFTMOST", "RIGHTMOST", "SetAutomaton", "State", "Transition",
    "build", "reachable_position_bound", "verify_automaton",
    "to_dot",
    "FormatError", "InvariantError", "ParseError", "PatternSetError",
    "PositionError", "SetMatchError", "SignatureError", "SubjectError",
    "BreadthFirst", "DepthFirst", "MatchReport", "Parallel",
    "evaluate", "evaluation_tree", "tree_nodes",
    "Goal",
    "brute_force_matches", "comb_pattern", "comb_pattern_set",
    "random_instance",
    "format_position", "gcp", "join", "prefix_leq",
    "from_json", "to_json",
    "PatternSet", "Signature", "Symbol", "Term", "domain", "format_term",
    "matches", "parse_term", "read_signature", "subterm_at", "term_size",
    "write_signature",
    "__version__",
}

# building blocks kept out of the package namespace, by home module
MODULE_ONLY = {
    "automaton": ["choose_label", "derivative", "outputs", "transition_count"],
    "goals": ["Outcome", "canonical_goals", "dependency_partition",
              "fresh_goal", "goal_outcome", "lift_class"],
    "oracle": ["comb_signature"],
    "positions": ["Position"],
    "serialization": ["SCHEMA_VERSION"],
    "terms": ["WILDCARD"],
}

USERS = sorted([*(REPO / "perfbench").glob("*.py"), *(REPO / "demos").glob("*.py"),
                REPO / "tests" / "test_acceptance.py"])


def test_all_is_exactly_the_exported_names():
    assert len(setmatch.__all__) == len(set(setmatch.__all__)) == 48
    assert set(setmatch.__all__) == EXPORTED
    for name in setmatch.__all__:
        assert getattr(setmatch, name) is not None, name


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_building_blocks_import_from_their_own_module(module):
    mod = importlib.import_module(f"setmatch.{module}")
    for name in MODULE_ONLY[module]:
        assert hasattr(mod, name), name


def _package_imports(source: str) -> set[str]:
    return {alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "setmatch"
            for alias in node.names}


def test_every_package_import_of_the_benchmark_demos_and_acceptance_is_exported():
    assert len(USERS) >= 12
    for path in USERS:
        missing = _package_imports(path.read_text()) - set(setmatch.__all__)
        assert not missing, f"{path.name}: {sorted(missing)}"


def test_every_package_import_of_the_readme_is_exported():
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(),
                        re.S)
    imported = set().union(*map(_package_imports, blocks))
    assert imported and imported <= set(setmatch.__all__)


def _traced_sites() -> list[tuple[str, str]]:
    """(module expression, attribute) of each entry of perfbench's ``SITES``."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    (sites,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SITES"
                        for t in node.targets)]
    return [(ast.unparse(site.elts[0]), site.elts[1].value) for site in sites.elts]


def test_every_site_the_traced_benchmark_wraps_resolves():
    # The traced run replaces these names where their callers look them up,
    # so each must still exist there, e.g. in ``setmatch.automaton``'s globals.
    spec = importlib.util.spec_from_file_location("_perfbench_bench",
                                                  REPO / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    sites = _traced_sites()
    assert ("setmatch.automaton", "canonical_goals") in sites
    for module, attr in sites:
        owner = bench if module == "bench" else importlib.import_module(module)
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def _definitions(path: Path):
    """Each top-level function, class and assignment of a module, and each
    non-dunder method, as (qualified name, name)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id


def _references(source: str):
    """The names a library module reads: loaded names, attributes, imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _library_reads(source: str):
    """The names a user of the library takes from it: those imported from
    ``setmatch`` and those read as attributes.  A bare name is the user's own."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("setmatch"):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr


# References the tests check the system against, which the system itself
# never calls: ``derivative`` is the paper's goal-by-goal step that every
# transition of ``build`` is compared with.
REFERENCES = {"automaton.derivative"}


def test_every_definition_of_the_library_is_used():
    """Each name the library defines is read outside the tests: by another
    part of the library (not the package's re-exports), by a demo or the
    benchmark, by a site the traced benchmark wraps, or in a README example."""
    defined = {f"{path.stem}.{qualified}": name
               for path in sorted((REPO / "src" / "setmatch").glob("*.py"))
               for qualified, name in _definitions(path)
               if not (name.startswith("__") and name.endswith("__"))}
    used = {attr for _, attr in _traced_sites()}
    for path in (REPO / "src" / "setmatch").glob("*.py"):
        if path.name != "__init__.py":
            used.update(_references(path.read_text()))
    for path in [*(REPO / "demos").glob("*.py"), *(REPO / "perfbench").glob("*.py")]:
        used.update(_library_reads(path.read_text()))
    for block in re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(),
                            re.S):
        used.update(_library_reads(block))
    unused = {q for q, name in defined.items() if name not in used}
    assert len(defined) > 115
    assert unused == REFERENCES


THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}


def test_the_library_starts_no_thread():
    """The paper's parallelism is the independence of work items, not a
    thread: no library module imports a thread or process module."""
    for path in sorted((REPO / "src" / "setmatch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in THREAD_MODULES, f"{path.name}: {name}"
