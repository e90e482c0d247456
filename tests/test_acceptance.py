"""Acceptance suite: one test (and one printed verdict line) per criterion."""

import json
import time

import pytest

from minicog import analyze_source, serialize_erm
from minicog import ast
from minicog.generator import generate
from minicog.granules import BcsKind
from minicog.ledger import SiMode
from minicog.weyuker import rename, run_matrix

from conftest import (
    CORPUS, analyzed, corpus_pairs, fixture_source, granule_region, granule_shape,
    icn_max_by_name, info_icn, occurrence_nodes, ordinals_of, parents_of, run_cli, scope_kinds,
    shape_from_erm, sicn_max, whole,
)

MODES = (SiMode.DELTA, SiMode.MINMAX, SiMode.ABSOLUTE)


def ok(criterion: str, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def matrix500():
    t0 = time.monotonic()
    result = run_matrix(corpus_pairs(), seed=0, n_generated=500)
    return result, time.monotonic() - t0


# ------------------------------------------------------------ criterion 1

def test_criterion_1_example1_reproduction():
    t0 = time.monotonic()
    analysis = analyze_source(fixture_source("example1.mc"), "example1.mc")
    report = analysis.report()
    elapsed = time.monotonic() - t0
    assert report.i_l == 3
    assert icn_max_by_name(analysis.ledger, whole(analysis.ledger)) == {"userInput": 1, "square": 2}
    assert analysis.si_program(SiMode.DELTA) == 3
    assert elapsed < 1.0
    ok("1", f"I(L)=3, per-variable ICN {{userInput:1, square:2}}, delta SI=3, {elapsed:.3f}s")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_unit_normalization():
    analysis = analyzed("unit.mc")
    values = {mode.value: analysis.report(mode).escim for mode in MODES}
    assert values == {"delta": 1, "minmax": 1, "absolute": 1}
    ok("2", f"unit program measures 1 in every mode: {values}")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_example6_decomposition():
    analysis = analyzed("example6.mc")
    gt = analysis.granules[0]
    facts = serialize_erm(gt)
    assert facts == [
        "G1 -> G2",
        "G2 > G(2,1)",
        "G(2,1) -> G(2,2)",
        "G(2,2) -> G(2,3)",
        "G(2,2) > G(2,2,1)",
    ]
    break_leaf = gt.roots[1].children[1].children[0]
    assert isinstance(analysis.tree.nodes[break_leaf.stmts[0]], ast.BreakStmt)
    report = analysis.report()
    leaf_labels = [row.label for row in report.functions[0].leaves]
    assert shape_from_erm(report.functions[0].erm, leaf_labels) == granule_shape(gt.roots)
    sidecar = json.loads((CORPUS / "example6.expected.json").read_text())
    assert report.escim == 14 == sidecar["escim"]
    ok("3", "granule relations match, ERM lines and leaf labels rebuild the tree, "
            "ESCIM=14 equals the sidecar")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_example2_shadowing():
    analysis = analyzed("example2.mc")
    res = analysis.resolution
    led = analysis.ledger
    amounts = [v for v in res.variables if v.name == "amount"]
    assert len(amounts) == 3
    global_amount = next(v for v in amounts if scope_kinds(analysis.tree)[v.scope] == "global")
    occ = res.occurrences
    global_refs = [vid for vid, nid in zip(occ.variable, occurrence_nodes(analysis.tree, res))
                   if isinstance(analysis.tree.nodes[nid], ast.GlobalRef)]
    assert global_refs and all(vid == res.variables.index(global_amount) for vid in global_refs)
    icn_max = icn_max_by_name(led, whole(led))["amount"]
    per_scope = [sicn_max(led, res.variables.index(v), whole(led)) for v in amounts]
    assert all(icn_max > value for value in per_scope)
    assert sum(per_scope) <= icn_max  # scope dominance
    ok("4", f"3 scoped 'amount' variables, ::amount binds globally, ICN {icn_max} > SICN {per_scope}")


# ------------------------------------------------------------ criterion 5

def test_criterion_5_example3_diagnostic():
    analysis = analyzed("example3.mc")
    led = analysis.ledger
    fors = [g for g in analysis.granules[0].walk() if g.kind == BcsKind.FOR]
    l1, l2 = granule_region(analysis, fors[0]), granule_region(analysis, fors[1])
    s_vars = [vid for vid, v in enumerate(analysis.resolution.variables) if v.name == "s"]
    scoped_max_l2 = max(sicn_max(led, vid, l2) for vid in s_vars)
    name_max_l2 = icn_max_by_name(led, l2)["s"]
    assert scoped_max_l2 == 5 and name_max_l2 == 8
    assert scoped_max_l2 < name_max_l2

    loop_weight = 3
    icn_total = loop_weight * info_icn(led, l1) + loop_weight * info_icn(led, l2)
    si_total = loop_weight * led.si(l1, SiMode.DELTA) + loop_weight * led.si(l2, SiMode.DELTA)
    assert si_total < icn_total
    # the published absolute totals are not reproducible from the corrupted
    # listing; the manifest records that deviation
    manifest = (CORPUS / "MANIFEST.md").read_text()
    assert "44 vs 32" in manifest
    ok("5", f"scope-aware 5 < name-blind 8 in the second loop; weighted {si_total} < {icn_total} (non-gating)")


# ------------------------------------------------------------ criterion 6

def test_criterion_6_absolute_matrix(matrix500):
    result, elapsed = matrix500
    assert result.generated >= 500
    for prop in ("1", "3", "4", "6a", "6b", "7", "9"):
        assert result.verdicts[prop][SiMode.ABSOLUTE].status == "witnessed", prop
    for prop in ("5", "8"):
        assert result.verdicts[prop][SiMode.ABSOLUTE].status == "holds-on-sample", prop
    assert result.verdicts["2"][SiMode.ABSOLUTE].status == "holds-on-sample"
    assert elapsed < 60.0
    ok("6", f"absolute-mode matrix all satisfied over corpus + {result.generated} programs in {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_baseline_modes(matrix500):
    result, _ = matrix500
    for mode in (SiMode.DELTA, SiMode.MINMAX):
        for prop in ("1", "3", "4", "7", "9"):
            assert result.verdicts[prop][mode].status == "witnessed", (prop, mode)
        for prop in ("2", "5", "8"):
            assert result.verdicts[prop][mode].status == "holds-on-sample", (prop, mode)
        p6_statuses = {}
        for prop in ("6a", "6b"):
            verdict = result.verdicts[prop][mode]
            assert verdict.status in ("witnessed", "no-witness-found")
            assert verdict.note  # the deviation is documented, never silent
            p6_statuses[prop] = verdict.status
    ok("7", f"delta/minmax: 1,3,4,5,7,8,9 hold; P6 verdicts emitted with documented note ({p6_statuses})")


# ------------------------------------------------------------ criterion 8

def _fresh(seed: int):
    return analyze_source(generate(seed), f"gen-{seed}")


def test_criterion_8a_rename_invariance_200():
    for seed in range(200):
        analysis = _fresh(seed)
        names = sorted({v.name for v in analysis.resolution.variables}
                       | set(analysis.resolution.call_graph))
        renamed = analyze_source(rename(analysis.source, {n: f"ren{i}" for i, n in enumerate(names)}))
        for mode in MODES:
            assert renamed.report(mode).escim == analysis.report(mode).escim, seed
            assert renamed.si_program(mode) == analysis.si_program(mode), seed
        assert renamed.report().i_l == analysis.report().i_l
        assert renamed.report().loc == analysis.report().loc
    ok("8a", "rename invariance on 200 generated programs")


def _inside(parents, nid, ancestor):
    while nid in parents:
        nid = parents[nid]
        if nid == ancestor:
            return True
    return False


def _top_level_statements(analysis):
    """The statement ids each top-level statement of `main` covers, itself included."""
    main = next(i for i in analysis.tree.items
                if isinstance(i, ast.FuncDef) and i.name == "main")
    parents = parents_of(analysis.tree)
    return [{s.nid} | {n for n in range(len(analysis.tree.nodes)) if _inside(parents, n, s.nid)}
            for s in main.body.stmts]


def test_criterion_8b_delta_additivity_200_splits():
    checked = 0
    seed = 0
    while checked < 200:
        analysis = _fresh(seed)
        seed += 1
        stmts = _top_level_statements(analysis)
        led = analysis.ledger
        both = ordinals_of(analysis, set().union(*stmts))
        for cut in range(1, len(stmts)):
            a = ordinals_of(analysis, set().union(*stmts[:cut]))
            b = ordinals_of(analysis, set().union(*stmts[cut:]))
            assert led.si(both, SiMode.DELTA) == \
                led.si(a, SiMode.DELTA) + led.si(b, SiMode.DELTA), (seed - 1, cut)
            checked += 1
            if checked >= 200:
                break
    ok("8b", f"delta-mode region additivity on {checked} split points")


def test_criterion_8c_mode_ordering_200_regions():
    checked = 0
    seed = 0
    while checked < 200:
        analysis = _fresh(seed)
        seed += 1
        led = analysis.ledger
        stmts = _top_level_statements(analysis)
        windows = [ordinals_of(analysis, set().union(*stmts[i:j])) for i in range(len(stmts))
                   for j in range(i + 1, len(stmts) + 1)]
        for region in windows:
            assert led.si(region, SiMode.MINMAX) <= led.si(region, SiMode.DELTA) \
                <= led.si(region, SiMode.ABSOLUTE), seed - 1
            checked += 1
            if checked >= 200:
                break
    ok("8c", f"mode ordering (minmax <= delta <= absolute) on {checked} regions")


def _wrap_leaf_in_loop(source: str, leaf_stmt_ids: set[int]):
    tree = analyze_source(source).tree  # fresh ids match the analysis that chose the leaf
    main = next(i for i in tree.items if isinstance(i, ast.FuncDef) and i.name == "main")
    positions = [k for k, s in enumerate(main.body.stmts) if s.nid in leaf_stmt_ids]
    if not positions or len(positions) != len(leaf_stmt_ids):
        return None
    lo, hi = min(positions), max(positions)
    wrapped = ast.WhileStmt(ast.Literal("true"), ast.Block(main.body.stmts[lo:hi + 1]))
    main.body.stmts[lo:hi + 1] = [wrapped]
    from minicog import pretty_print

    return pretty_print(tree)


def test_criterion_8d_nesting_amplification_100():
    checked = 0
    seed = 0
    while checked < 100:
        analysis = _fresh(seed)
        seed += 1
        main_metrics = next((fn for fn in analysis.report().functions if fn.name == "main"), None)
        if main_metrics is None:
            continue
        gt = next(g for g in analysis.granules if g.function == "main")
        top_leaves = {g.label: g for g in gt.roots if not g.children}
        for row in main_metrics.leaves:
            leaf = top_leaves.get(row.label)
            if leaf is None or row.si == 0 or row.ancestor_product != 1:
                continue
            if any(isinstance(analysis.tree.nodes[nid], ast.DeclStmt) for nid in leaf.stmts):
                continue  # wrapping would pull declarations into a new scope
            wrapped_src = _wrap_leaf_in_loop(analysis.source, set(leaf.stmts))
            if wrapped_src is None:
                continue
            before = analysis.report().escim
            after = analyze_source(wrapped_src).report().escim
            assert after == before + 2 * row.term, (seed - 1, row.label)
            checked += 1
            break
    ok("8d", f"loop wrap multiplies a leaf's term by weights[while]=3 on {checked} cases")


def test_criterion_8e_generator_soundness_1000():
    valid = 0
    for seed in range(1000):
        analysis = _fresh(seed)
        assert analysis.report().escim >= 0
        valid += 1
    assert valid == 1000
    ok("8e", "generator soundness 1000/1000")


# ------------------------------------------------------------ criterion 9

def test_criterion_9_cli_byte_determinism():
    commands = [
        ("analyze", "corpus/example3.mc", "--format", "json"),
        ("analyze", "corpus/example6.mc", "--emit", "metrics,erm,ledger,granules"),
        ("analyze", "corpus", "--corpus", "--format", "json"),
        ("weyuker", "--corpus", "corpus", "--seed", "7", "--count", "25", "--format", "json"),
        ("weyuker", "--corpus", "corpus", "--seed", "7", "--count", "25"),
        ("generate", "--seed", "42"),
    ]
    for command in commands:
        first = run_cli(*command, hash_seed="0")
        second = run_cli(*command, hash_seed="1")
        assert first.returncode == second.returncode == 0, command
        assert first.stdout == second.stdout, command
    ok("9", f"{len(commands)} CLI invocations byte-identical across runs and hash seeds")
