import gc
import hashlib
import json
from collections import Counter

import pytest

from minicog import cli, weyuker
from minicog.analysis import Analysis, analyze_source
from minicog.ast import fingerprint
from minicog.errors import ComposeError, EmptyProgram, InvalidPermutation, RenameCollision
from minicog.ledger import SiMode
from minicog.parser import parse_source
from minicog.weyuker import (
    ValidatorPool, check_property, compose, permutable_slots, permute,
    rename, run_matrix,
)

from conftest import corpus_pairs, fixture_source, icn_max_by_name, parents_of, whole


# ------------------------------------------------------------------ compose

def test_compose_disjoint_variables_adds():
    p = "int main() { int a; a = 1; }"
    q = "int main() { int b; b = 2; }"
    combined = compose(parse_source(p), parse_source(q))
    assert combined.report().escim == 2
    assert "int a;" in combined.source and "int b;" in combined.source
    for mode in SiMode:
        assert analyze_source(combined.source).report(mode).escim == combined.report(mode).escim


def test_compose_unifies_duplicate_declaration():
    p = "int main() { int v; v = 1; v = 2; }"
    q = "int main() { int v = 5; }"
    combined = compose(parse_source(p), parse_source(q))
    assert combined.source.count("int v;") == 1
    assert "int v = 5;" not in combined.source
    assert "v = 5;" in combined.source


def test_compose_with_empty_program_is_identity():
    p = fixture_source("sum_loop.mc")
    empty = parse_source("int main() { }")
    combined = compose(parse_source(p), empty)
    assert fingerprint(combined.tree) == fingerprint(parse_source(p))
    combined = compose(empty, parse_source(p))
    assert fingerprint(combined.tree) == fingerprint(parse_source(p))


def test_compose_conflicts():
    with pytest.raises(ComposeError):
        compose(parse_source("int main() { int v; v = 1; }"),
                parse_source("int main() { float v = 2; }"))
    with pytest.raises(ComposeError):
        compose(parse_source("int f() { return 1; }\nint main() { }"),
                parse_source("int f() { return 2; }\nint main() { }"))
    with pytest.raises(ComposeError):
        compose(parse_source("int main() { }"),
                parse_source("int helper() { return 1; }"))  # q lacks an entry function
    labeled = parse_source("int main() { int i = 0; top: i++; if (i < 3) goto top; }")
    with pytest.raises(ComposeError, match="composition does not resolve: label 'top'"):
        compose(labeled, labeled)  # P;P defines P's label twice in one `main`


@pytest.mark.parametrize("p, q, message", [
    ("int main(int a) { }", "int main() { }", "entry functions must not take parameters"),
    ("int main() { }", "int main(int a) { }", "entry functions must not take parameters"),
    ("int main() { }", "float main() { }", "entry functions disagree on return type"),
    ("int g;\nint main() { }", "float g;\nint main() { }", "conflicting declarations of global 'g'"),
    ("int main() { int k[2] = {1, 2}; }", "int main() { int k[2] = {3, 4}; }",
     "cannot unify aggregate initializer of 'k'"),
    # a repeated struct or function is left to the resolver
    ("struct S { int a; };\nint main() { }", "struct S { int a; };\nint main() { }",
     "composition does not resolve: struct 'S' already defined"),
    ("int f() { return 1; }\nint main() { }", "int f() { return 1; }\nint main() { }",
     "composition does not resolve: function 'f' already defined"),
], ids=["p-main-params", "q-main-params", "return-types", "global-types", "aggregate-init",
        "repeated-struct", "repeated-function"])
def test_compose_conflict_messages(p, q, message):
    with pytest.raises(ComposeError) as info:
        compose(parse_source(p), parse_source(q))
    assert str(info.value) == message


def test_compose_carries_a_struct_of_q_into_p_then_q():
    p = "int main() { int a = 1; }"
    q = "struct S { int x; };\nint main() { S s; s.x = 2; print(s.x); }"
    combined = compose(parse_source(p), parse_source(q))
    assert combined.source.startswith("struct S\n{\n    int x;\n};\n")
    assert combined.report().escim == \
        analyze_source(p).report().escim + analyze_source(q).report().escim


def test_compose_is_associative_on_corpus():
    sources = [parse_source(fixture_source(n)) for n in
               ("unit.mc", "p6_p.mc", "p6_r.mc", "sum_loop.mc", "example6.mc")]
    def attempt(build):
        try:
            return build(), None
        except ComposeError as exc:
            return None, exc

    for a in sources:
        for b in sources:
            for c in sources:
                left, lerr = attempt(lambda: compose(compose(a, b).tree, c))
                right, rerr = attempt(lambda: compose(a, compose(b, c).tree))
                assert (lerr is None) == (rerr is None)
                if lerr is None:
                    assert fingerprint(left.tree) == fingerprint(right.tree)


def test_compose_duplicate_global_keeps_first_definition():
    p = "int g = 1;\nint main() { g = g + 1; }"
    q = "int g = 9;\nint main() { print(g); }"
    combined = compose(parse_source(p), parse_source(q))
    assert combined.source.count("int g") == 1
    assert combined.report().escim == \
        analyze_source(p).report().escim + analyze_source(q).report().escim


def test_compose_leaves_its_input_trees_unchanged():
    ptree = parse_source("int g = 1;\nint main() { int v = 2; g = v; }")
    qtree = parse_source("int g = 9;\nint main() { int v = 5; print(v); }")
    before = [(fingerprint(t), parents_of(t)) for t in (ptree, qtree)]
    compose(ptree, qtree)
    assert [(fingerprint(t), parents_of(t)) for t in (ptree, qtree)] == before
    assert all(node.nid == nid for t in (ptree, qtree) for nid, node in enumerate(t.nodes))


# ------------------------------------------------------------------ rename

def test_rename_preserves_all_metrics():
    p = fixture_source("example1.mc")
    renamed = rename(p, {"userInput": "x", "square": "y"})
    a, b = analyze_source(p), analyze_source(renamed)
    assert icn_max_by_name(b.ledger, whole(b.ledger)) == {"x": 1, "y": 2}
    for mode in SiMode:
        assert a.report(mode).escim == b.report(mode).escim
        assert a.si_program(mode) == b.si_program(mode)
    assert a.report().loc == b.report().loc
    assert a.report().i_l == b.report().i_l


def test_rename_identity_returns_input_unchanged():
    p = fixture_source("example1.mc")
    assert rename(p, {}) == p
    assert rename(p, {"userInput": "userInput"}) == p


@pytest.mark.parametrize(
    "mapping",
    [
        {"userInput": "square"},           # two names collapse
        {"userInput": "while"},            # keyword target
        {"userInput": "print"},            # builtin target
        {"print": "show"},                 # builtin source
        {"userInput": "not an ident"},
    ],
)
def test_rename_collisions(mapping):
    with pytest.raises(RenameCollision):
        rename(fixture_source("example1.mc"), mapping)


# ------------------------------------------------------------------ permute

def test_swapping_independent_assignments_keeps_delta_si():
    src = "int main() { int a = 1; int b = 2; a = a + 1; b = b + 2; print(a); }"
    infos = permutable_slots(src)
    order = list(range(len(infos)))
    order[2], order[3] = order[3], order[2]
    a, b = analyze_source(src), permute(src, order)
    assert a.report(SiMode.DELTA).escim == b.report(SiMode.DELTA).escim
    assert a.si_program(SiMode.DELTA) == b.si_program(SiMode.DELTA)


def test_a_slot_is_numbered_by_its_place_in_the_list():
    assert weyuker.SlotInfo._fields == ("in_loop", "top_level", "is_decl", "has_delta")
    infos = permutable_slots("int main() { int a = 1; while (a < 3) { a++; } return a; }")
    assert infos == [(False, True, True, True), (True, False, False, True), (False, True, False, False)]


def test_moving_assignment_between_nesting_levels_changes_value():
    src = fixture_source("sum_loop.mc")
    infos = permutable_slots(src)
    loop_slot = next(k for k, s in enumerate(infos) if s.in_loop and s.has_delta)
    top_slot = max(k for k, s in enumerate(infos) if s.top_level and not s.is_decl)
    order = list(range(len(infos)))
    order[loop_slot], order[top_slot] = order[top_slot], order[loop_slot]
    moved = permute(src, order)
    assert moved.report().escim != analyze_source(src).report().escim


def test_use_before_declaration_is_invalid():
    with pytest.raises(InvalidPermutation):
        permute("int main() { int a; a = 1; }", [1, 0])


def test_order_must_be_a_permutation():
    with pytest.raises(InvalidPermutation):
        permute("int main() { int a; a = 1; }", [0, 0])


# a loop-body assignment reads the loop's own `k`: moved to the top level, it breaks
SWAPS = "int main() { int s = 0; int i = 0; while (i < 3) { int k = i; s = s + k; i++; } s = 1; }\n"


def test_a_swap_that_breaks_declaration_before_use_is_a_skipped_candidate():
    pool = ValidatorPool([("swaps.mc", SWAPS)], n_generated=0)
    skipped, (i, permuted) = weyuker._permutations(pool)
    assert skipped is None  # `s = s + k` and `s = 1` traded places
    assert i == 0 and "    }\n    i++;\n}\n" in permuted.source


def test_permutations_pass_over_a_fixture_without_main():
    pool = ValidatorPool([("lib.mc", "int f() { return 1; }\n"), ("swaps.mc", SWAPS)], n_generated=0)
    candidates = list(weyuker._permutations(pool))
    assert [c if c is None else c[0] for c in candidates] == [None, 1]


def test_permutations_examine_the_first_80_programs_with_both_slots():
    pool = ValidatorPool([(f"swaps{k}.mc", SWAPS) for k in range(81)], n_generated=0)
    candidates = list(weyuker._permutations(pool))
    # each examined program yields its skipped swap and its valid one
    assert candidates.count(None) == 80
    assert [c[0] for c in candidates if c is not None] == list(range(80))


def test_pool_names_the_fixture_that_holds_no_code():
    # the one diagnostic without a span is re-raised with the fixture's name
    corpus = [("unit.mc", fixture_source("unit.mc")), ("empty.mc", "// only a comment\n")]
    with pytest.raises(EmptyProgram) as err:
        ValidatorPool(corpus, n_generated=0)
    assert str(err.value).startswith("empty.mc: ")


def test_permute_preserves_statement_multiset():
    src = fixture_source("sum_loop.mc")
    infos = permutable_slots(src)
    order = list(range(len(infos)))
    order[0], order[1] = order[1], order[0]
    try:
        swapped = permute(src, order)
    except InvalidPermutation:
        return
    assert sorted(swapped.source.split()) == sorted(pretty_printed(src).split())


def pretty_printed(src):
    from minicog.printer import pretty_print

    return pretty_print(parse_source(src))


# ------------------------------------------------------------------ checks

@pytest.fixture(scope="module")
def small_pool():
    return ValidatorPool(corpus_pairs(), seed=0, n_generated=40)


def test_composed_and_permuted_programs_count_their_printed_lines(small_pool):
    # Compositions and permutations are printed, and the printer writes no
    # comments, so a printed program's LOC is its number of non-blank lines.
    trees = [parse_source(source, name) for name, source in corpus_pairs()]
    analyses = []
    for p in trees:
        for q in trees:
            try:
                analyses.append(compose(p, q))
            except ComposeError:
                pass
    composed = len(analyses)
    analyses += [candidate[1] for candidate in weyuker._permutations(small_pool)
                 if candidate is not None]
    assert composed > 100 and len(analyses) > composed
    for analysis in analyses:
        assert analysis.loc == sum(1 for line in analysis.source.splitlines() if line.strip()), \
            analysis.source


def test_p1_witnessed_by_unit_vs_nested_fixture(small_pool):
    verdict = check_property("1", small_pool)[SiMode.DELTA]
    assert verdict.status == "witnessed"
    assert verdict.witness["values"][0] != verdict.witness["values"][1]


def test_p4_witnessed_by_equivalent_pair(small_pool):
    verdicts = check_property("4", small_pool)
    for mode in SiMode:
        verdict = verdicts[mode]
        assert verdict.status == "witnessed"
        names = {verdict.witness["p"]["name"], verdict.witness["q"]["name"]}
        assert names == {"sum_loop.mc", "sum_formula.mc"}


def test_p6a_witnessed_in_absolute_mode(small_pool):
    verdict = check_property("6a", small_pool)[SiMode.ABSOLUTE]
    assert verdict.status == "witnessed"


def test_p6_baseline_modes_carry_note(small_pool):
    for prop in ("6a", "6b"):
        verdicts = check_property(prop, small_pool)
        for mode in (SiMode.DELTA, SiMode.MINMAX):
            verdict = verdicts[mode]
            assert verdict.note  # documented deviation, never a silent verdict


def test_p5_p8_hold_on_small_sample(small_pool):
    verdicts = {prop: check_property(prop, small_pool) for prop in ("5", "8", "2")}
    for mode in SiMode:
        assert verdicts["5"][mode].status == "holds-on-sample"
        assert verdicts["8"][mode].status == "holds-on-sample"
        assert verdicts["2"][mode].status == "holds-on-sample"


def test_p9_witnessed(small_pool):
    verdicts = check_property("9", small_pool)
    for mode in SiMode:
        assert verdicts[mode].status == "witnessed"


def test_p9_absolute_inequality_and_disjoint_equality():
    p = fixture_source("p6_p.mc")   # assigns v
    r = fixture_source("p6_r.mc")   # reads and reassigns v
    q = fixture_source("p6_q.mc")   # disjoint from p
    val = lambda src: analyze_source(src).report(SiMode.ABSOLUTE).escim
    assert compose(parse_source(p), parse_source(r)).report(SiMode.ABSOLUTE).escim >= val(p) + val(r)
    assert compose(parse_source(p), parse_source(q)).report(SiMode.ABSOLUTE).escim == val(p) + val(q)


@pytest.fixture(scope="module")
def planted_matrix():
    """Rows 2, 5 and 8 over a pool whose scores are overwritten so that each
    universal property is refuted, in one mode or in all."""
    corpus = corpus_pairs()[:4]
    pool = ValidatorPool(corpus, seed=0, n_generated=3)
    pool.entries[5].escim[SiMode.DELTA] = -1  # P2: gen-1 measures below zero
    pool.composed(1, 3)[1][SiMode.MINMAX] = 14  # P5: below example4.mc's 15
    entry = pool.entries[2]  # P8: example3.mc's I(L) no longer survives a renaming
    pool.entries[2] = entry._replace(i_l=entry.i_l + 1)
    return weyuker.MatrixResult(seed=0, generated=3, corpus=[name for name, _ in corpus],
                                modes=pool.modes,
                                verdicts={prop: check_property(prop, pool) for prop in "258"})


def test_planted_scores_refute_p2_p5_and_p8(planted_matrix):
    p2, p5, p8 = (planted_matrix.verdicts[prop] for prop in "258")
    assert [p2[mode].status for mode in SiMode] == ["refuted", "holds-on-sample", "holds-on-sample"]
    assert p2[SiMode.DELTA].witness["p"]["name"] == "gen-1"
    assert p2[SiMode.DELTA].witness["value"] == -1
    assert all(p2[mode].note == weyuker._NOTE_P2 for mode in SiMode)

    assert [p5[mode].status for mode in SiMode] == ["holds-on-sample", "refuted", "holds-on-sample"]
    refuted = p5[SiMode.MINMAX]
    assert (refuted.witness["p"]["name"], refuted.witness["q"]["name"]) == \
        ("example2.mc", "example4.mc")
    assert refuted.witness["values"] == {"p": 6, "q": 15, "pq": 14}
    assert refuted.note is None
    for mode in (SiMode.DELTA, SiMode.ABSOLUTE):  # 18 pairs: (2, 2), (4, 5) and (5, 6) conflict
        assert p5[mode].note == "15 composition pairs checked, 3 skipped (composition conflicts)"

    for mode in SiMode:
        assert p8[mode].status == "refuted"
        assert p8[mode].witness["p"]["name"] == "example3.mc"
        assert p8[mode].witness["values"]["i_l"] == [39, 38]


def test_p5_lists_the_pairs_once_and_counts_its_skips_in_that_walk(monkeypatch):
    pool = ValidatorPool(corpus_pairs()[:4], seed=0, n_generated=3)
    listed = []
    real_pairs = pool.pairs
    monkeypatch.setattr(pool, "pairs", lambda: listed.append(1) or real_pairs())
    verdicts = check_property("5", pool)
    assert len(listed) == 1
    for mode in SiMode:
        assert verdicts[mode].status == "holds-on-sample"
        assert verdicts[mode].note == \
            "15 composition pairs checked, 3 skipped (composition conflicts)"


def test_refuted_matrix_bytes_are_pinned(planted_matrix):
    obj = json.dumps(cli._matrix_obj(planted_matrix), indent=2)
    text = "\n".join(cli._matrix_text(planted_matrix))
    assert "refuted" in obj and "refuted" in text
    assert hashlib.sha256(obj.encode()).hexdigest() == \
        "faaeeae694b8a31ba02c985f52631de7e9e36fe3f0b80570ee124f4beed13005"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c731f81d910473d90e4fe40a9f39a01facb5ccefbbee835aa93600fb5b8fa65c"


def test_empty_pool_yields_no_witnesses():
    pool = ValidatorPool([], seed=0, n_generated=0)
    for prop in ("1", "3", "4", "6a", "6b", "7", "9"):
        assert check_property(prop, pool)[SiMode.DELTA].status == "no-witness-found"
    assert check_property("2", pool)[SiMode.DELTA].status == "holds-on-sample"


def test_matrix_is_deterministic():
    corpus = corpus_pairs()[:4]
    first = run_matrix(corpus, seed=3, n_generated=15)
    second = run_matrix(corpus, seed=3, n_generated=15)
    assert first.verdicts == second.verdicts  # status, witness and note of every cell


def test_matrix_builds_and_analyzes_each_program_once(monkeypatch):
    labels = Counter()
    compositions = Counter()
    real_analyze, real_compose = weyuker.analyze_source, weyuker.compose

    def counting_analyze(source, file="<input>"):
        labels[file] += 1
        return real_analyze(source, file)

    def counting_compose(ptree, qtree):
        compositions[id(ptree), id(qtree)] += 1
        return real_compose(ptree, qtree)

    monkeypatch.setattr(weyuker, "analyze_source", counting_analyze)
    monkeypatch.setattr(weyuker, "compose", counting_compose)
    corpus = corpus_pairs()
    result = run_matrix(corpus, seed=0, n_generated=20)
    assert result.modes == list(SiMode)
    programs = len(corpus) + 20
    assert labels["<renamed>"] == programs == 32  # one per pool program, not one per mode
    assert all(labels[name] == 1 for name, _ in corpus)
    assert all(labels[f"gen-{k}"] == 1 for k in range(20))
    assert set(compositions.values()) == {1}  # each pair is composed once ...
    assert labels["<composed>"] <= len(compositions)  # ... and analyzed at most once


def _live_analyses() -> int:
    gc.collect()
    return sum(isinstance(obj, Analysis) for obj in gc.get_objects())


def test_a_checked_pool_holds_no_analysis():
    # the pool keeps scores, so every analysis is freed once it is scored;
    # other tests' caches may hold analyses, so count the ones this test adds
    before = _live_analyses()
    pool = ValidatorPool(corpus_pairs(), seed=0, n_generated=40)
    for prop in weyuker._CHECKERS:
        check_property(prop, pool)
    assert _live_analyses() - before == 0
    assert len(pool) == 52


def test_the_matrix_leaves_no_reference_cycles():
    # so the pool and every analysis are freed by reference counting,
    # without waiting for the cycle collector
    gc.collect()
    gc.disable()
    try:
        run_matrix(corpus_pairs(), seed=0, n_generated=100)
        assert gc.collect() == 0
    finally:
        gc.enable()
