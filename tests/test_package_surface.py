"""Every function, class and method of the package has a reader.

A definition counts as read when its name appears, outside its own body,
as a Name or an Attribute somewhere in ``src/qndsim`` or ``qndbench/``, or
as a string constant in ``qndbench/`` (which looks some names up by
string). Imports do not count. Definitions read only by tests are listed
in ``TEST_ONLY`` with the test that reads them; everything else that no
command, generator or sampler reads should be deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

# definition -> "file::Class::test" of a test that reads it
TEST_ONLY = {
    "boundary_overlap": "test_acceptance.py::TestCriterion8::test_membrane_couplings_match_transfer_matrix_oracle",
    "extract_transition_rate": "test_acceptance.py::TestCriterion5::test_bipartite_rates_bridge_to_closed_forms",
    "max_monitorable_state": "test_acceptance.py::TestCriterion1::test_reference_point_headline_numbers",
    "Trajectory.validate": "test_trajectories.py::TestTrajectoryRecord::test_validate_catches_corruption",
    "TwoModeParams.degenerate": "test_twomode.py::TestHamiltonians::test_unitary_equivalence_on_complete_shells",
    "TwoModeParams.mim": "test_acceptance.py::TestCriterion7::test_crossing_curvature_and_margin_identity",
    "TwoModeParams.wgm": "test_twomode.py::TestHamiltonians::test_wgm_supermode_has_no_exchange_part",
    "twomode_hamiltonian": "test_twomode.py::TestHamiltonians::test_one_photon_block_matches_branch_frequencies",
    "supermode_hamiltonian": "test_twomode.py::TestHamiltonians::test_unitary_equivalence_on_complete_shells",
    "write_field_csv": "test_coupling.py::TestFieldFile::test_round_trip",
}


def definitions(tree):
    """(label, name, node): top-level defs and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not (m.name.startswith("__") and m.name.endswith("__")):
                            yield "%s.%s" % (node.name, m.name), m.name, m


def reads(tree, strings):
    """Nodes that read a name, keyed by the name they read."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            out.setdefault(node.attr, []).append(node)
        elif strings and isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                out.setdefault(node.value, []).append(node)
    return out


def unread():
    """Labels of the package definitions nothing outside tests reads."""
    src = [ast.parse(f.read_text()) for f in (ROOT / "src/qndsim").rglob("*.py")]
    bench = [ast.parse(f.read_text()) for f in (ROOT / "qndbench").rglob("*.py")]
    readers = {}
    for trees, strings in ((src, False), (bench, True)):
        for tree in trees:
            for name, nodes in reads(tree, strings).items():
                readers.setdefault(name, []).extend(nodes)
    found = set()
    for tree in src:
        for label, name, node in definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in readers.get(name, ())):
                found.add(label)
    return found


def test_every_definition_has_a_reader():
    found = unread()
    missing = sorted(found - set(TEST_ONLY))
    assert not missing, (
        "read by nothing in src/qndsim or qndbench: %s; delete them, or "
        "list each in TEST_ONLY with the test that reads it" % missing
    )
    stale = sorted(set(TEST_ONLY) - found)
    assert not stale, "TEST_ONLY lists names the package reads: %s" % stale


def test_each_test_only_name_is_read_by_its_test():
    for label, where in TEST_ONLY.items():
        name = label.rsplit(".", 1)[-1]
        filename, *path = where.split("::")
        node = ast.parse((TESTS / filename).read_text())
        for part in path:
            node = next(
                (n for n in node.body
                 if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == part),
                None,
            )
            assert node is not None, "%s: no test %s" % (label, where)
        assert name in reads(node, strings=False), (label, where)
