import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog.analysis import analyze_source
from minicog.erm import serialize_erm

from conftest import analyzed, corpus_names, granule_shape, shape_from_erm


def test_example4_fact_list():
    gt = analyzed("example4.mc").granules[0]
    assert serialize_erm(gt) == gt.erm == [
        "G1 -> G2",
        "G1 > G(1,1)",
        "G(1,1) -> G(1,2)",
        "G(1,2) -> G(1,3)",
        "G(1,2) > G(1,2,1)",
        "G2 > G(2,1)",
    ]


def test_example6_fact_list():
    gt = analyzed("example6.mc").granules[0]
    assert serialize_erm(gt) == [
        "G1 -> G2",
        "G2 > G(2,1)",
        "G(2,1) -> G(2,2)",
        "G(2,2) -> G(2,3)",
        "G(2,2) > G(2,2,1)",
    ]


def test_single_granule_has_empty_fact_list():
    analysis = analyzed("unit.mc")
    gt = analysis.granules[0]
    assert serialize_erm(gt) == gt.erm == []
    assert analysis.report().functions[0].erm == []


def _assert_lines_and_leaf_labels_determine_trees(analysis):
    """Each function's ERM lines and leaf-row labels, as its report holds
    them, rebuild its granule tree."""
    functions = analysis.report().functions
    assert len(functions) == len(analysis.granules)
    for fn, gt in zip(functions, analysis.granules):
        leaf_labels = [row.label for row in fn.leaves]
        assert shape_from_erm(fn.erm, leaf_labels) == granule_shape(gt.roots)


def test_no_granule_and_single_leaf_share_the_empty_fact_list():
    """The lines alone do not tell an empty body from a single leaf; the
    leaf labels do."""
    empty = analyze_source("int main() { }")
    single = analyzed("unit.mc")
    assert empty.granules[0].erm == single.granules[0].erm == []
    assert empty.granules[0].roots == [] and [g.label for g in single.granules[0].roots] == ["G1"]
    for analysis in (empty, single):
        _assert_lines_and_leaf_labels_determine_trees(analysis)


@pytest.mark.parametrize("name", corpus_names())
def test_lines_and_leaf_labels_determine_the_tree_on_corpus(name):
    _assert_lines_and_leaf_labels_determine_trees(analyzed(name))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lines_and_leaf_labels_determine_the_tree_on_generated(seed):
    from minicog.generator import generate

    _assert_lines_and_leaf_labels_determine_trees(analyze_source(generate(seed)))


def test_if_with_else_emits_one_include_per_arm():
    gts = analyze_source(
        "int main() { int a = 1; if (a > 0) a = 2; else a = 3; }"
    ).granules
    if_granule = gts[0].roots[1]
    assert serialize_erm(gts[0]) == ["G1 -> G2", "G2 > G(2,1)", "G2 > G(2,2)"]
    assert if_granule.arm_starts == [0, 1]
