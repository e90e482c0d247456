import gc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import analyze_source, cli
from minicog.granules import BcsKind
from minicog.ledger import SiMode
from minicog.scopes import ROLE_TARGET, Occurrences

from conftest import (
    analyzed, corpus_names, fixture_source, granule_region, icn_max_by_name, info_icn,
    ordinals_of, parents_of, reference_ledger_rows, reference_si, scope_kinds, sicn_max, whole,
)


def var_named(analysis, name, scope_kind=None):
    """The number of the variable ``name``."""
    res = analysis.resolution
    for vid, v in enumerate(res.variables):
        if v.name == name and (scope_kind is None or scope_kinds(analysis.tree)[v.scope] == scope_kind):
            return vid
    raise AssertionError(f"no variable {name}")


def test_example1_counts():
    analysis = analyzed("example1.mc")
    led = analysis.ledger
    assert icn_max_by_name(led, whole(led)) == {"userInput": 1, "square": 2}
    assert info_icn(led, whole(led)) == 3
    square = var_named(analysis, "square")
    assert sicn_max(led, square, whole(led)) == 2


def test_unit_fixture_deltas():
    analysis = analyzed("unit.mc")
    led = analysis.ledger
    assert led.delta == [0, 1]
    a = var_named(analysis, "a")
    assert sicn_max(led, a, whole(led)) == 1


def test_example2_hand_traced_values():
    analysis = analyzed("example2.mc")
    led = analysis.ledger
    res = analysis.resolution
    amounts = [vid for vid, v in enumerate(res.variables) if v.name == "amount"]
    assert sorted(sicn_max(led, vid, whole(led)) for vid in amounts) == [3, 3, 3]
    assert icn_max_by_name(led, whole(led)) == {"amount": 9}


def test_absent_variable_scores_zero():
    analysis = analyzed("example1.mc")
    led = analysis.ledger
    square = var_named(analysis, "square")
    assert sicn_max(led, square, range(0)) == 0
    assert led.si(range(0), SiMode.DELTA) == 0
    assert info_icn(led, range(0)) == 0


def test_example3_second_loop_region():
    analysis = analyzed("example3.mc")
    led = analysis.ledger
    gt = analysis.granules[0]
    fors = [g for g in gt.walk() if g.kind == BcsKind.FOR]
    l1 = granule_region(analysis, fors[0])
    l2 = granule_region(analysis, fors[1])  # the shadowing summation loop inside the while
    s_vars = [vid for vid, v in enumerate(analysis.resolution.variables) if v.name == "s"]
    assert sorted(sicn_max(led, vid, l1) for vid in s_vars) == [0, 3]
    assert icn_max_by_name(led, l1)["s"] == 3
    # scope-aware maximum stays below the name-blind one in the second loop
    assert sorted(sicn_max(led, vid, l2) for vid in s_vars) == [0, 5]
    assert icn_max_by_name(led, l2)["s"] == 8


def test_si_modes_on_whole_example1():
    analysis = analyzed("example1.mc")
    for mode in SiMode:
        assert analysis.si_program(mode) == 3


def test_example6_leaf_si_values():
    rep = analyzed("example6.mc").report()
    by_label = {row.label: row.si for row in rep.functions[0].leaves}
    assert by_label == {"G1": 2, "G(2,1)": 1, "G(2,2,1)": 0, "G(2,3)": 3}


def test_regional_icn_exceeds_scoped_sum_under_shadowing():
    # the inner block of the shadowing fixture re-counts `amount` name-blind
    import minicog.ast as ast

    analysis = analyzed("example2.mc")
    res = analysis.resolution
    led = analysis.ledger
    parents = parents_of(analysis.tree)
    block = next(n for n in analysis.tree.nodes if isinstance(n, ast.Block)
                 and parents.get(n.nid) is not None
                 and isinstance(analysis.tree.nodes[parents[n.nid]], ast.Block))
    region = ordinals_of(analysis, {nid for nid in range(len(analysis.tree.nodes))
                                    if _inside(parents, nid, block.nid)})
    icn_total = info_icn(led, region)
    scoped_total = sum(sicn_max(led, vid, region) for vid in range(len(res.variables)))
    assert icn_total == 9
    assert scoped_total == 6
    assert icn_total > scoped_total


def test_operator_rule_examples():
    src = """int main()
{
    int a;
    int b;
    a = 1;
    a = b + b - b * b;
    a = a - 1;
    a -= 1;
    a--;
    b = read();
}
"""
    led = analyze_source(src).ledger
    deltas = [delta for delta, role in zip(led.delta, led.resolution.occurrences.role)
              if role == ROLE_TARGET]
    assert deltas == [1, 4, 2, 2, 2, 1]


@given(st.integers(min_value=0, max_value=6))
def test_operator_rule_general(k):
    chain = " + b" * k
    src = f"int main() {{ int b = 0; int a; a = b{chain}; }}"
    led = analyze_source(src).ledger
    last = [delta for delta, role in zip(led.delta, led.resolution.occurrences.role)
            if role == ROLE_TARGET][-1]
    assert last == 1 + k


def test_record_variable_sums_members():
    analysis = analyze_source(
        "struct Point { int x; int y; };\n"
        "int main() { Point p; p.x = 1; p.y = 2; p.y = p.y + 1; print(p.x); }"
    )
    led = analysis.ledger
    p = next(vid for vid, v in enumerate(analysis.resolution.variables) if v.name == "p")
    occ = analysis.resolution.occurrences

    def member_total(member: str) -> int:
        return sum(delta for delta, vid, m in zip(led.delta, occ.variable, occ.member)
                   if vid == p and m == member)

    assert member_total("x") == 1
    assert member_total("y") == 3
    assert sicn_max(led, p, whole(led)) == 4  # sum of member counts


def test_array_element_assignment_counts_the_array():
    analysis = analyze_source("int main() { int k[3]; k[0] = 1; k[1] = k[0] + 1; }")
    led = analysis.ledger
    k = next(vid for vid, v in enumerate(analysis.resolution.variables) if v.name == "k")
    assert sicn_max(led, k, whole(led)) == 3  # 1 + (1 + one operator)


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("name", corpus_names())
def test_ledger_entry_invariants(name):
    led = analyzed(name).ledger
    occ = led.resolution.occurrences
    last_per_var: dict[int, int] = {}
    for vid, role, delta, icn, sicn in zip(occ.variable, occ.role, led.delta,
                                           led.icn_after, led.sicn_after):
        assert sicn <= icn
        if role != ROLE_TARGET:
            assert delta == 0
        assert sicn >= last_per_var.get(vid, 0)
        last_per_var[vid] = sicn


def _windows(analysis, count=8):
    """Contiguous top-level statement windows of the entry function."""
    import minicog.ast as ast

    main = next(i for i in analysis.tree.items
                if isinstance(i, ast.FuncDef) and i.name == "main")
    stmts = main.body.stmts
    parents = parents_of(analysis.tree)
    out = []
    n = len(stmts)
    for width in range(1, n + 1):
        for start in range(0, n - width + 1):
            ids = set()
            for s in stmts[start:start + width]:
                ids.add(s.nid)
                ids.update(nid for nid in range(len(analysis.tree.nodes))
                           if _inside(parents, nid, s.nid))
            out.append(ordinals_of(analysis, ids))
            if len(out) >= count:
                return out
    return out


def _inside(parents, nid, ancestor):
    while nid in parents:
        nid = parents[nid]
        if nid == ancestor:
            return True
    return False


@pytest.mark.parametrize("name", corpus_names())
def test_mode_ordering_on_regions(name):
    analysis = analyzed(name)
    led = analysis.ledger
    for region in _windows(analysis) + [whole(led)]:
        minmax = led.si(region, SiMode.MINMAX)
        delta = led.si(region, SiMode.DELTA)
        absolute = led.si(region, SiMode.ABSOLUTE)
        assert minmax <= delta <= absolute


@pytest.mark.parametrize("name", corpus_names())
def test_scope_dominance(name):
    analysis = analyzed(name)
    led = analysis.ledger
    res = analysis.resolution
    for region in _windows(analysis) + [whole(led)]:
        icn = icn_max_by_name(led, region)
        by_name: dict[str, int] = {}
        for vid, v in enumerate(res.variables):
            by_name[v.name] = by_name.get(v.name, 0) + sicn_max(led, vid, region)
        for vname, total in by_name.items():
            assert total <= icn.get(vname, 0) or total == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_region_additivity_delta_mode(seed):
    import minicog.ast as ast
    from minicog.generator import generate

    analysis = analyze_source(generate(seed))
    main = next(i for i in analysis.tree.items
                if isinstance(i, ast.FuncDef) and i.name == "main")
    stmts = main.body.stmts
    if len(stmts) < 2:
        return
    led = analysis.ledger
    parents = parents_of(analysis.tree)

    def region_of(span):
        ids = set()
        for s in span:
            ids.add(s.nid)
            ids.update(nid for nid in range(len(analysis.tree.nodes)) if _inside(parents, nid, s.nid))
        return ordinals_of(analysis, ids)

    both = region_of(stmts)
    for cut in range(1, len(stmts)):
        a, b = region_of(stmts[:cut]), region_of(stmts[cut:])
        assert led.si(both, SiMode.DELTA) == led.si(a, SiMode.DELTA) + led.si(b, SiMode.DELTA)


def test_ledger_dump_schema():
    rows = reference_ledger_rows(analyzed("unit.mc"))
    assert rows[0].keys() == {
        "ordinal", "variable", "scope", "role", "delta", "icn_after", "sicn_after",
    }
    assert rows[0]["variable"] == "a"


@pytest.mark.parametrize("name", corpus_names() + [f"gen-{k}" for k in range(0, 100, 10)])
def test_si_matches_reference_on_random_regions(name):
    import random

    from minicog.generator import generate

    analysis = analyzed(name) if name.endswith(".mc") else analyze_source(generate(int(name[4:])))
    led = analysis.ledger
    rng = random.Random(name)
    n = len(led.entries)
    regions = [range(0), range(n)]
    for _ in range(40):
        lo = rng.randint(0, n)
        regions.append(range(lo, rng.randint(lo, n)))
    for region in regions:
        for mode in SiMode:
            assert led.si(region, mode) == reference_si(led, region, mode)


def _live_resolution_objects() -> Counter:
    """Count the live instances of each class defined in `scopes` or `ledger`."""
    gc.collect()
    return Counter(type(obj).__name__ for obj in gc.get_objects()
                   if type(obj).__module__ in ("minicog.scopes", "minicog.ledger"))


def test_pipeline_builds_no_per_occurrence_record():
    """Resolving, scoring and dumping a program leaves no object per
    occurrence: the only objects of `scopes` and `ledger` it keeps are one per
    variable and one of each container, and every column holds plain values.
    The occurrence columns are these four: variable, member, role and
    operator count."""
    before = _live_resolution_objects()
    analyses = []
    for name in corpus_names():
        analysis = analyze_source(fixture_source(name), name)
        for mode in SiMode:
            analysis.report(mode)
        reference_ledger_rows(analysis)
        for as_json in (True, False):  # what `--emit ledger` writes
            cli._sections(analysis, {"ledger"}, as_json, 0)
        analyses.append(analysis)
    gained = _live_resolution_objects() - before
    n = len(analyses)
    assert gained == Counter({
        "ScopedVariable": sum(len(a.resolution.variables) for a in analyses),
        "Occurrences": n, "Resolution": n, "OccurrenceLedger": n,
    })
    assert sum(len(a.resolution.occurrences) for a in analyses) > gained["ScopedVariable"]
    assert Occurrences.__slots__ == ("variable", "member", "role", "op_unit")
    for analysis in analyses:
        occ, led = analysis.resolution.occurrences, analysis.ledger
        assert led.entries == range(len(occ))
        for column in (occ.variable, occ.op_unit, led.delta, led.icn_after, led.sicn_after):
            assert type(column) is list and all(type(v) is int for v in column)
        assert all(type(v) is str for v in occ.role)
        assert all(v is None or type(v) is str for v in occ.member)


@pytest.mark.parametrize("name", corpus_names())
def test_row_views_read_the_columns(name):
    """The columns are the only rows: the occurrence and ledger columns share
    one ordinal, each holds one item per occurrence, and ``entries`` is the
    range of those ordinals."""
    analysis = analyzed(name)
    occ, led = analysis.resolution.occurrences, analysis.ledger
    n = len(occ)
    for column in (occ.variable, occ.member, occ.role, occ.op_unit,
                   led.delta, led.icn_after, led.sicn_after):
        assert len(column) == n
    assert led.entries == range(n)
    assert [(row["ordinal"], row["role"], row["delta"], row["icn_after"], row["sicn_after"])
            for row in reference_ledger_rows(analysis)] == \
        list(zip(range(n), occ.role, led.delta, led.icn_after, led.sicn_after))
