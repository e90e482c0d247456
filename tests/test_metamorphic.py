"""Metamorphic relations: how the numbers must move under a source
transformation, checked without an expected value. Each transformation is
made on the tree, and the tree is printed and analyzed again."""

from minicog import SiMode, analyze_source, ast, parse_source, pretty_print
from minicog.generator import generate


def _scores(analysis) -> tuple:
    return ({mode: analysis.escim_value(mode) for mode in SiMode},
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
    before = analyze_source(source).escim_value(SiMode.ABSOLUTE)
    after = analyze_source(_functions_reversed(source)).escim_value(SiMode.ABSOLUTE)
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
