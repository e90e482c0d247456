from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import ast
from minicog.analysis import analyze_source
from minicog.granules import BcsKind, detect_recursion
from minicog.parser import parse_source
from minicog.scopes import resolve

from conftest import FULL_GRAMMAR, analyzed, corpus_names, fixture_source, ordinals_of, subtree


def shape(granule):
    return (granule.label, granule.kind, [shape(c) for c in granule.children])


def test_example6_decomposition():
    analysis = analyzed("example6.mc")
    gt = analysis.granules[0]
    assert [root.kind for root in gt.roots] == [BcsKind.LINEAR, BcsKind.WHILE]
    g1, g2 = gt.roots
    assert g1.label == "G1" and len(g1.stmts) == 6
    assert [c.label for c in g2.children] == ["G(2,1)", "G(2,2)", "G(2,3)"]
    assert [c.kind for c in g2.children] == [BcsKind.LINEAR, BcsKind.IF, BcsKind.LINEAR]
    g22 = g2.children[1]
    assert [shape(c) for c in g22.children] == [("G(2,2,1)", "linear", [])]
    assert isinstance(analysis.tree.nodes[g22.children[0].stmts[0]], ast.BreakStmt)


def test_single_assignment_is_one_linear_granule():
    gts = analyze_source("int main() { int a; a = 1; }").granules
    assert [shape(r) for r in gts[0].roots] == [("G1", "linear", [])]


def test_empty_function_has_no_granules():
    assert analyze_source("int main() { }").granules[0].roots == []


def test_blocks_and_labels_are_transparent():
    gts = analyze_source(
        "int main() { int a = 1; { a = 2; lab: a = 3; } print(a); }"
    ).granules
    roots = gts[0].roots
    assert [shape(r) for r in roots] == [("G1", "linear", [])]
    assert len(roots[0].stmts) == 4


def test_do_while_header_attaches_to_trailing_leaf():
    gts = analyze_source(
        "int main() { int a = 9; do { if (a > 3) a = a - 1; } while (a > 1); }"
    ).granules
    do = gts[0].roots[1]
    assert do.kind == BcsKind.DO_WHILE
    assert do.header_carrier() is do.children[-1]
    assert not do.children[-1].children


# ------------------------------------------------------------- recursion

def _cycle_nodes_bruteforce(edges: dict[str, set[str]]) -> set[str]:
    """Independent oracle: enumerate all simple paths looking for a return."""
    out = set()
    for start in edges:
        frontier = [[start]]
        while frontier:
            path = frontier.pop()
            for succ in sorted(edges.get(path[-1], ())):
                if succ == start:
                    out.add(start)
                    frontier = []
                    break
                if succ not in path:
                    frontier.append(path + [succ])
    return out


def test_self_recursion_detected():
    tree = parse_source("int f(int n) { return f(n - 1); }\nint main() { print(f(3)); }")
    assert detect_recursion(resolve(tree)) == {"f"}


def test_example1_has_no_recursion():
    analysis = analyzed("example1.mc")
    assert detect_recursion(analysis.resolution) == set()


def test_mutual_recursion_matches_bruteforce_oracle():
    src = (
        "int f(int n) { return g(n - 1); }\n"
        "int g(int n) { return f(n - 1); }\n"
        "int main() { print(f(3)); }\n"
    )
    analysis = analyze_source(src)
    expected = _cycle_nodes_bruteforce(analysis.resolution.call_graph)
    assert expected == {"f", "g"}
    assert detect_recursion(analysis.resolution) == expected


def test_recursion_by_self_call_and_three_cycle_but_not_their_callers():
    src = (
        "int f(int n) { return f(n - 1); }\n"
        "int a(int n) { return b(n); }\n"
        "int b(int n) { return c(n); }\n"
        "int c(int n) { return a(n); }\n"
        "int caller(int n) { print(n); return a(f(n)); }\n"
        "int main() { print(caller(read())); }\n"
    )
    resolution = analyze_source(src).resolution
    assert detect_recursion(resolution) == {"f", "a", "b", "c"}
    assert _cycle_nodes_bruteforce(resolution.call_graph) == {"f", "a", "b", "c"}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from("abcdefg"), st.sets(st.sampled_from("abcdefg"), max_size=3), max_size=7,
))
def test_recursion_matches_bruteforce_oracle_on_random_call_graphs(edges):
    graph = {fn: edges.get(fn, set()) for fn in set(edges).union(*edges.values())}
    assert detect_recursion(SimpleNamespace(call_graph=graph)) == _cycle_nodes_bruteforce(graph)


def test_recursion_fixture_flagged():
    gts = analyzed("recursion.mc").granules
    assert [(gt.function, gt.recursive) for gt in gts] == [("fact", True), ("main", False)]


# ------------------------------------------------------------- invariants

@pytest.mark.parametrize("name", corpus_names())
def test_leaves_are_linear(name):
    for gt in analyzed(name).granules:
        for g in gt.walk():
            if not g.children:
                assert g.kind == BcsKind.LINEAR


def _covered(granule) -> set[int]:
    """The statement ids a granule covers: its own and those of every granule below it."""
    return {nid for g in subtree(granule) for nid in g.stmts}


@pytest.mark.parametrize("name", corpus_names())
def test_partition_disjoint_union(name):
    for gt in analyzed(name).granules:
        for g in gt.walk():
            if g.children:
                parts = [frozenset(_covered(c)) for c in g.children] + [frozenset(g.stmts)]
                combined: set[int] = set()
                total = 0
                for part in parts:
                    combined |= part
                    total += len(part)
                assert len(combined) == total  # disjoint
                assert combined == _covered(g)


@pytest.mark.parametrize("name", corpus_names())
def test_label_discipline(name):
    def check(g, path):
        if len(path) == 1:
            assert g.label == f"G{path[0]}"
        else:
            assert g.label == "G(" + ",".join(map(str, path)) + ")"
        for j, child in enumerate(g.children, start=1):
            check(child, path + (j,))

    for gt in analyzed(name).granules:
        for i, root in enumerate(gt.roots, start=1):
            check(root, (i,))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_decomposition_invariants(seed):
    from minicog.generator import generate

    for gt in analyze_source(generate(seed)).granules:
        for g in gt.walk():
            if not g.children:
                assert g.kind == BcsKind.LINEAR
            else:
                assert g.children
                assert g.arm_starts[0] == 0
                assert all(0 <= s < len(g.children) for s in g.arm_starts)
                carrier = g.header_carrier()
                assert not carrier.children


# ------------------------------------------------------------- leaf regions

def test_the_leaf_list_is_the_tree_s_own_leaf_granules():
    # a leaf is scored in place: no separate per-leaf record copies it
    import minicog.granules
    from minicog.generator import generate

    assert not hasattr(minicog.granules, "Leaf")
    sources = [fixture_source(name) for name in corpus_names()] + [FULL_GRAMMAR]
    for source in sources + [generate(seed) for seed in range(100)]:
        for gt in analyze_source(source).granules:
            linear = [g for g in gt.walk() if g.kind == BcsKind.LINEAR]
            assert len(gt.leaves) == len(linear)
            assert all(leaf is g for leaf, g in zip(gt.leaves, linear))


def _assert_leaf_regions_are_their_anchors(analysis):
    """Each leaf's ordinal range is exactly the occurrences of its statements
    and carried header, and those are consecutive (``ordinals_of`` asserts it)."""
    for gt in analysis.granules:
        headers = {id(g.header_carrier()): g.stmts for g in gt.walk() if g.children}
        leaves = [g for g in gt.walk() if not g.children]
        assert [g.label for g in leaves] == [leaf.label for leaf in gt.leaves]
        for g, leaf in zip(leaves, gt.leaves):
            anchors = g.stmts + headers.get(id(g), ())
            assert leaf.region == ordinals_of(analysis, anchors), leaf.label


@pytest.mark.parametrize("name", corpus_names())
def test_leaf_regions_are_contiguous_on_fixtures(name):
    _assert_leaf_regions_are_their_anchors(analyzed(name))


def test_leaf_regions_are_contiguous_on_generated_programs():
    from minicog.generator import generate

    for seed in range(1000):
        _assert_leaf_regions_are_their_anchors(analyze_source(generate(seed)))


def test_leaf_regions_are_contiguous_on_composed_and_permuted_programs():
    from minicog.errors import ComposeError
    from minicog.weyuker import ValidatorPool, _permutations, compose

    pool = ValidatorPool([], seed=0, n_generated=20)
    composed = []
    for p in pool.entries:
        for q in pool.entries:
            try:
                composed.append(compose(p.tree, q.tree))
            except ComposeError:
                pass
    permuted = [candidate[1] for candidate in _permutations(pool) if candidate is not None]
    assert composed and permuted
    for analysis in composed + permuted:
        _assert_leaf_regions_are_their_anchors(analysis)
