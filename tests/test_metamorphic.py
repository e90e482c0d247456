"""Metamorphic relations: how the numbers must move under a source
transformation, checked without an expected value. Each transformation is
made on the text, or on the tree, which is then printed and analyzed again.
The relations run over ``generate(seed)``: a pinned range of seeds, or seeds
drawn by hypothesis."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minicog import ast
from minicog.analysis import analyze_source
from minicog.generator import generate
from minicog.ledger import SiMode
from minicog.parser import parse_source
from minicog.printer import pretty_print

SEEDS = st.integers(0, 10 ** 6)


def _scores(analysis) -> tuple:
    return ({mode: analysis.report(mode).escim for mode in SiMode},
            analysis.ledger.i_l, analysis.loc)


def _functions_reversed(source: str) -> str | None:
    """The program with its top-level function definitions in reverse order,
    each other item left in its place; None if it has fewer than two."""
    tree = parse_source(source)
    slots = [i for i, item in enumerate(tree.items) if isinstance(item, ast.FuncDef)]
    if len(slots) < 2:
        return None
    functions = [tree.items[i] for i in slots]
    for i, function in zip(slots, reversed(functions)):
        tree.items[i] = function
    return pretty_print(tree)


def test_function_order_leaves_delta_minmax_il_and_loc_unchanged():
    """Reordering function definitions changes no delta or minmax ESCIM, I(L)
    or LOC. Absolute-mode ESCIM does depend on it, as a documented property:
    a global assigned in one function and read in a later one carries its
    SICN level in text order (README, "Known mode caveats")."""
    programs = absolute_changed = 0
    for seed in range(300):
        source = generate(seed)
        reordered = _functions_reversed(source)
        if reordered is None:
            continue
        programs += 1
        (before, i_l, loc), (after, i_l2, loc2) = (
            _scores(analyze_source(source)), _scores(analyze_source(reordered)))
        assert (i_l2, loc2) == (i_l, loc), seed
        assert after[SiMode.DELTA] == before[SiMode.DELTA], seed
        assert after[SiMode.MINMAX] == before[SiMode.MINMAX], seed
        absolute_changed += after[SiMode.ABSOLUTE] != before[SiMode.ABSOLUTE]
    assert (programs, absolute_changed) == (98, 32)


def test_absolute_mode_reads_globals_in_function_text_order():
    # generate(8) assigns the global g0 in main and reads it in f0
    source = generate(8)
    before = analyze_source(source).report(SiMode.ABSOLUTE).escim
    after = analyze_source(_functions_reversed(source)).report(SiMode.ABSOLUTE).escim
    assert (before, after) == (19, 27)


def _first_expression_wrapped(source: str) -> str | None:
    """The program with the first expression statement of `main`'s body
    wrapped in a block; None if that body has none."""
    tree = parse_source(source)
    main = next(item for item in tree.items if isinstance(item, ast.FuncDef) and item.name == "main")
    stmts = main.body.stmts
    k = next((k for k, stmt in enumerate(stmts) if isinstance(stmt, ast.ExprStmt)), None)
    if k is None:
        return None
    stmts[k] = ast.Block([stmts[k]])
    return pretty_print(tree)


def test_a_block_around_an_expression_statement_changes_only_loc():
    """Blocks are transparent: wrapping an expression statement, which
    declares nothing, in `{ }` changes no ESCIM in any mode, nor I(L). LOC
    rises by exactly 2, as the printer puts each brace on its own line."""
    programs = 0
    for seed in range(300):
        source = generate(seed)
        wrapped = _first_expression_wrapped(source)
        if wrapped is None:
            continue
        programs += 1
        (before, i_l, loc), (after, i_l2, loc2) = (
            _scores(analyze_source(source)), _scores(analyze_source(wrapped)))
        assert (after, i_l2, loc2) == (before, i_l, loc + 2), seed
    assert programs == 234


@settings(max_examples=100, deadline=None)
@given(SEEDS)
@example(8)
def test_doubled_newlines_change_no_score(seed):
    """Layout: ESCIM in every mode, I(L) and LOC read tokens and the lines
    that hold them, so blank lines between them change none of the numbers."""
    source = generate(seed)
    assert _scores(analyze_source(source.replace("\n", "\n\n"))) == _scores(analyze_source(source))


def _read_after_first_assignment(source: str) -> str | None:
    """The program with `print(v);` after the first statement `v = ...;` of
    `main`'s body; None if that body has none."""
    tree = parse_source(source)
    main = next(item for item in tree.items if isinstance(item, ast.FuncDef) and item.name == "main")
    stmts = main.body.stmts
    k = next((k for k, stmt in enumerate(stmts) if isinstance(stmt, ast.ExprStmt)
              and isinstance(stmt.expr, ast.Assign) and isinstance(stmt.expr.target, ast.VarRef)),
             None)
    if k is None:
        return None
    name = stmts[k].expr.target.name
    stmts.insert(k + 1, ast.ExprStmt(ast.Call("print", [ast.VarRef(name)])))
    return pretty_print(tree)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
@example(8)
def test_a_read_after_an_assignment_changes_no_delta_or_minmax_escim(seed):
    """Reads: a read adds zero to its variable's count and carries the value
    the assignment left, so neither the rise (delta) nor the spread (minmax)
    of any region changes, nor I(L). LOC rises by the new line."""
    source = generate(seed)
    printed = _read_after_first_assignment(source)
    assume(printed is not None)
    (before, i_l, loc), (after, i_l2, loc2) = (
        _scores(analyze_source(source)), _scores(analyze_source(printed)))
    assert after[SiMode.DELTA] == before[SiMode.DELTA]
    assert after[SiMode.MINMAX] == before[SiMode.MINMAX]
    assert (i_l2, loc2) == (i_l, loc + 1)


def test_absolute_mode_under_an_added_read_as_observed():
    """Absolute mode has no rule for an added read: it sums each variable's
    count at its last occurrence in a region. Over generate(0..299) the read
    changed no absolute-mode ESCIM; this pins that observation."""
    programs = absolute_changed = 0
    for seed in range(300):
        source = generate(seed)
        printed = _read_after_first_assignment(source)
        if printed is None:
            continue
        programs += 1
        absolute_changed += (analyze_source(printed).report(SiMode.ABSOLUTE).escim
                             != analyze_source(source).report(SiMode.ABSOLUTE).escim)
    assert (programs, absolute_changed) == (180, 0)


# No generated program uses a `zz_` name, and no generated call reaches it.
_DISJOINT = """int zz_unused(int zz_a)
{
    int zz_b = 0;
    while (zz_b < zz_a)
    {
        if (zz_b > 2)
            zz_b += zz_a;
        zz_b++;
    }
    return zz_b;
}
"""


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.booleans())
@example(8, True)
def test_an_uncalled_function_with_its_own_names_adds_its_own_scores(seed, first):
    """Disjoint addition: a function that no one calls and that uses only its
    own names shares no variable, region or call with the program, so it adds
    exactly its own ESCIM in every mode, its own I(L) and its own LOC, placed
    before the program or after it."""
    source = generate(seed)
    program = _DISJOINT + "\n" + source if first else source + "\n" + _DISJOINT
    (alone, i_l_f, loc_f), (before, i_l, loc) = (
        _scores(analyze_source(_DISJOINT)), _scores(analyze_source(source)))
    assert _scores(analyze_source(program)) == (
        {mode: before[mode] + alone[mode] for mode in SiMode}, i_l + i_l_f, loc + loc_f)
