import pytest

from minicog import ast
from minicog.analysis import analyze_source
from minicog.generator import MAX_DEPTH, MAX_STATEMENTS, generate
from minicog.scopes import ROLE_TARGET

from conftest import occurrence_nodes


def count_statements(tree) -> int:
    blocks = (ast.Block,)
    return sum(1 for node in tree.nodes
               if isinstance(node, ast.Stmt) and not isinstance(node, blocks))


def structure_depth(node, depth=0) -> int:
    structured = (ast.IfStmt, ast.SwitchStmt, ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)
    bump = 1 if isinstance(node, structured) else 0
    children = ast.child_nodes(node)
    if not children:
        return depth + bump
    return max(structure_depth(c, depth + bump) for c in children)


def test_same_seed_same_bytes():
    assert generate(1) == generate(1)
    assert generate(123456) == generate(123456)


def test_different_seeds_differ_somewhere():
    assert len({generate(s) for s in range(10)}) > 1


@pytest.mark.parametrize("seed", range(0, 200))
def test_soundness_sample(seed):
    analysis = analyze_source(generate(seed), f"gen-{seed}")
    assert analysis.report().escim >= 0


@pytest.mark.parametrize("seed", range(0, 60))
def test_bounds(seed):
    tree = analyze_source(generate(seed)).tree
    assert count_statements(tree) <= MAX_STATEMENTS
    assert max((structure_depth(item) for item in tree.items), default=0) <= MAX_DEPTH


def test_declarations_carry_operator_free_initializers():
    # policy: every declaration is initialized by a literal, read() or a name
    for seed in range(0, 80):
        analysis = analyze_source(generate(seed))
        tree = analysis.tree
        # a declaration's own target occurrence carries its initializer's operator count
        occ = analysis.resolution.occurrences
        nodes = occurrence_nodes(tree, analysis.resolution)
        declared_ops = {nid: ops for nid, role, ops in zip(nodes, occ.role, occ.op_unit)
                        if role == ROLE_TARGET and isinstance(tree.nodes[nid], ast.DeclStmt)}
        for node in tree.nodes:
            if isinstance(node, ast.DeclStmt):
                assert node.init is not None
                assert declared_ops[node.nid] == 0
