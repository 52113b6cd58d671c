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
    "count_inspections", "evaluate", "evaluation_tree", "tree_nodes",
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
    "automaton": ["choose_label", "derivative", "initial_state", "outputs",
                  "transition_count"],
    "goals": ["Outcome", "canonical_goals", "dependency_partition",
              "fresh_goal", "goal_outcome", "lift_class", "reduce"],
    "oracle": ["comb_signature"],
    "positions": ["ROOT", "parse_position", "strictly_below"],
    "serialization": ["SCHEMA_VERSION"],
    "terms": ["WILDCARD", "term_depth"],
}

USERS = sorted([*(REPO / "perfbench").glob("*.py"), *(REPO / "demos").glob("*.py"),
                REPO / "tests" / "test_acceptance.py"])


def test_all_is_exactly_the_exported_names():
    assert len(setmatch.__all__) == len(set(setmatch.__all__)) == 49
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
