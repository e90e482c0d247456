import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import ast
from minicog.analysis import analyze_source
from minicog.errors import DuplicateDeclaration, UnresolvedName
from minicog.parser import parse_source
from minicog.scopes import ROLE_DECL, ROLE_TARGET, resolve

from conftest import (
    analyzed, corpus_pairs, corpus_names, occurrence_nodes, parents_of, reference_occurrences,
    scope_kinds,
)


def vars_named(analysis, name):
    return [v for v in analysis.resolution.variables if v.name == name]


def test_example2_has_three_amounts_in_distinct_scopes():
    analysis = analyzed("example2.mc")
    amounts = vars_named(analysis, "amount")
    assert len(amounts) == 3
    kinds = sorted(scope_kinds(analysis.tree)[v.scope] for v in amounts)
    assert kinds == ["block", "function", "global"]


def test_example1_two_variables_in_function_scope():
    analysis = analyzed("example1.mc")
    kinds = scope_kinds(analysis.tree)
    in_function = [v for v in analysis.resolution.variables
                   if kinds[v.scope] == "function"]
    assert sorted(v.name for v in in_function) == ["square", "userInput"]
    assert len(analysis.resolution.variables) == 2


def test_for_init_shadowing_in_example3():
    assert len(vars_named(analyzed("example3.mc"), "s")) == 2


def test_global_ref_binds_global_despite_shadowing():
    analysis = analyzed("example2.mc")
    res, tree = analysis.resolution, analysis.tree
    kinds = scope_kinds(tree)
    global_amount = next(vid for vid, v in enumerate(res.variables) if kinds[v.scope] == "global")
    occ = res.occurrences
    global_refs = [vid for vid, nid in zip(occ.variable, occurrence_nodes(tree, res))
                   if isinstance(tree.nodes[nid], ast.GlobalRef)]
    assert global_refs and all(vid == global_amount for vid in global_refs)
    # the bare `print(amount)` in the block binds to the innermost amount
    block_amount = next(vid for vid, v in enumerate(res.variables) if kinds[v.scope] == "block")
    plain_reads = [vid for vid, nid, role in zip(occ.variable, occurrence_nodes(tree, res), occ.role)
                   if isinstance(tree.nodes[nid], ast.VarRef) and role == "read"]
    assert plain_reads[-1] == block_amount


def test_use_before_inner_declaration_binds_outer():
    # `amount = amount * 2;` precedes the local declaration, so it is global
    analysis = analyzed("example2.mc")
    res, tree = analysis.resolution, analysis.tree
    occ = res.occurrences
    first_target = next(vid for vid, nid, role in zip(occ.variable, occurrence_nodes(tree, res), occ.role)
                        if role == ROLE_TARGET and isinstance(tree.nodes[nid], ast.VarRef))
    assert scope_kinds(tree)[res.variables[first_target].scope] == "global"


def test_duplicate_declaration_rejected():
    with pytest.raises(DuplicateDeclaration):
        resolve(parse_source("int main() { int a; int a; }"))
    with pytest.raises(DuplicateDeclaration):
        resolve(parse_source("int f(int x) { int x; return x; }"))


def test_undeclared_name_rejected():
    with pytest.raises(UnresolvedName):
        resolve(parse_source("int main() { z = 1; }"))
    with pytest.raises(UnresolvedName):
        resolve(parse_source("int main() { print(::nothing); }"))
    with pytest.raises(UnresolvedName):
        resolve(parse_source("int main() { unknown(1); }"))


def _span(exc) -> tuple[int, int, int, int]:
    span = exc.span
    return span.line_start, span.col_start, span.line_end, span.col_end


def test_nested_member_access_is_unresolved():
    with pytest.raises(UnresolvedName, match="^nested member access is not supported$") as err:
        resolve(parse_source("struct P { int a; };\nint main() { P p; p.a.b = 1; }"))
    assert _span(err.value) == (2, 19, 2, 21)  # the inner member access, `p.a`


def test_a_global_named_like_a_function_is_a_duplicate_declaration():
    with pytest.raises(DuplicateDeclaration,
                       match="^'f' is declared as both a global variable and a function$") as err:
        resolve(parse_source("int f() { return 1; }\nint main() { return f(); }\nint f = 2;"))
    assert _span(err.value) == (3, 1, 3, 10)  # the global's declaration


@pytest.mark.parametrize("source, name, where", [
    ("int read = 1;\nint main() { return 0; }", "read", (1, 1, 1, 13)),
    ("int main() {\n int print = 1;\n return print;\n}", "print", (2, 2, 2, 15)),
    ("int f(int read) { return read; }\nint main() { return f(1); }", "read", (1, 7, 1, 14)),
    ("int main() {\n for (int print = 0; print < 2; print++) { }\n return 0;\n}", "print", (2, 7, 2, 20)),
], ids=["global", "local", "parameter", "for-declaration"])
def test_a_variable_named_like_a_builtin_is_a_duplicate_declaration(source, name, where):
    with pytest.raises(DuplicateDeclaration) as err:
        resolve(parse_source(source))
    assert str(err.value) == f"'{name}' is a builtin function and cannot be declared as a variable"
    assert _span(err.value) == where  # the declaration
    # a struct field may keep such a name
    resolve(parse_source("struct P { int read; int print; };\nint main() { P p; p.read = 1; return 0; }"))


@pytest.mark.parametrize("source, message, where", [
    ("int main() {\n int x = 1;\n break;\n}", "'break' is not inside a loop or switch", (3, 2, 3, 7)),
    ("int main() {\n while (true) { }\n continue;\n}", "'continue' is not inside a loop", (3, 2, 3, 10)),
    # the loop of one function does not reach into the next
    ("int f() { while (true) { break; } return 0; }\nint main() { break; }",
     "'break' is not inside a loop or switch", (2, 14, 2, 19)),
    ("int main() {\n int x = 1;\n switch (x) { case 1: continue; }\n}",
     "'continue' is not inside a loop", (3, 23, 3, 31)),
], ids=["break-in-a-body", "continue-after-a-loop", "break-in-the-next-function", "continue-in-a-switch"])
def test_a_jump_outside_what_it_leaves_is_unresolved(source, message, where):
    with pytest.raises(UnresolvedName) as err:
        resolve(parse_source(source))
    assert str(err.value) == message
    assert _span(err.value) == where  # the break or continue statement


def test_break_and_continue_inside_what_they_leave_resolve():
    resolve(parse_source(
        "int main() { int x = 1; switch (x) { case 1: break; default: break; }\n"
        " while (x < 3) { switch (x) { case 1: continue; } x++; if (x) { break; } }\n"
        " do { break; } while (x); for (int i = 0; i < 2; i++) { { continue; } } return x; }"))


@pytest.mark.parametrize("structs, record, where", [
    ("struct P {\n int a;\n P q;\n};", "P", (3, 2, 3, 5)),
    ("struct A { B b; };\nstruct B { A a; };", "A", (1, 12, 1, 15)),
    ("struct P { int a; P[] q; };", "P", (1, 19, 1, 24)),
    # a cycle that X only leads into is reported at the first struct on it
    ("struct X { A a; };\nstruct A { B b; };\nstruct B { A a; };", "A", (2, 12, 2, 15)),
], ids=["direct", "mutual", "array", "into-a-cycle"])
def test_a_struct_that_contains_itself_is_unresolved(structs, record, where):
    with pytest.raises(UnresolvedName) as err:
        resolve(parse_source(structs + "\nint main() { return 0; }"))
    assert str(err.value) == f"struct '{record}' contains itself"
    assert _span(err.value) == where  # the first field, in text order, that leads back


def test_structs_that_hold_other_structs_resolve():
    resolve(parse_source("struct A { int x; };\nstruct B { A a; A[] b; };\nstruct C { B b; A a; };\n"
                         "int main() { C c; c.a = 1; return 0; }"))


def test_no_generated_program_names_a_builtin_misplaces_a_jump_or_defines_a_struct():
    from minicog.generator import generate

    jumps = 0
    for seed in range(500):
        tree = parse_source(generate(seed))
        assert not any(isinstance(item, ast.RecordDef) for item in tree.items), seed
        declared = {node.name for node in tree.nodes if isinstance(node, (ast.DeclStmt, ast.Param))}
        assert not declared & {"print", "read"}, seed
        parents = parents_of(tree)
        for node in tree.nodes:
            if isinstance(node, (ast.BreakStmt, ast.ContinueStmt)):
                enclosing, nid = set(), node.nid
                while nid in parents:
                    nid = parents[nid]
                    enclosing.add(type(tree.nodes[nid]))
                leaves = {ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt}
                if isinstance(node, ast.BreakStmt):
                    leaves.add(ast.SwitchStmt)
                assert enclosing & leaves, (seed, node.nid)
                jumps += 1
    assert jumps > 100


def test_repeated_label_is_a_duplicate_declaration():
    source = "int main() {\n int i = 0;\n top: i++;\n top: i++;\n}"
    with pytest.raises(DuplicateDeclaration, match="label 'top' already defined") as err:
        resolve(parse_source(source))
    assert _span(err.value) == (4, 2, 4, 10)  # the second labeled statement


@pytest.mark.parametrize("source, message, where", [
    ("struct P { int a; };\nstruct P { int b; };\nint main() { return 0; }",
     "struct 'P' already defined", (2, 1, 2, 20)),
    ("struct P {\n int a;\n int a;\n};\nint main() { return 0; }",
     "field 'a' already declared in struct 'P'", (3, 2, 3, 7)),
], ids=["struct", "field"])
def test_repeated_struct_or_field_is_a_duplicate_declaration(source, message, where):
    with pytest.raises(DuplicateDeclaration) as err:
        resolve(parse_source(source))
    assert str(err.value) == message
    assert _span(err.value) == where  # the repeated definition or field


@pytest.mark.parametrize("arms, message, where", [
    ("case 1: x = 2; case 01: x = 3;", "duplicate case value 01 in this switch", (3, 30, 3, 44)),
    ("case 3: x = 2; case \u0663: x = 3;", "duplicate case value \u0663 in this switch", (3, 30, 3, 43)),
    ("default: x = 2; case 1: break; default: break;",
     "multiple 'default' labels in this switch", (3, 46, 3, 60)),
], ids=["int-value", "unicode-digit", "default"])
def test_repeated_switch_label_is_a_duplicate_declaration(arms, message, where):
    source = f"int main() {{\n int x = 1;\n switch (x) {{ {arms} }}\n}}"
    with pytest.raises(DuplicateDeclaration) as err:
        resolve(parse_source(source))
    assert str(err.value) == message
    assert _span(err.value) == where  # the later arm, to the end of its body


def test_switch_labels_are_distinct_per_switch():
    # a nested switch has labels of its own
    resolve(parse_source("int main() { int x = 1; switch (x) { case 1: switch (x) { case 1: break; "
                         "default: break; } default: break; } }"))


def test_call_with_the_wrong_argument_count_is_unresolved():
    source = "int f(int a) { return a; }\nint main() { int x = f(1); x = f(x, x) + 1; }"
    with pytest.raises(UnresolvedName, match=r"^function 'f' takes 1 argument, 2 given$") as err:
        resolve(parse_source(source))
    assert _span(err.value) == (2, 32, 2, 38)  # the call
    # the builtins keep their own rules
    resolve(parse_source("int main() { int x = read(); print(x, 1, x); print(); }"))


def test_no_generated_program_calls_with_the_wrong_argument_count():
    from minicog.generator import generate

    calls = 0
    for seed in range(500):
        tree = parse_source(generate(seed))
        arity = {item.name: len(item.params) for item in tree.items if isinstance(item, ast.FuncDef)}
        for node in tree.nodes:
            if isinstance(node, ast.Call) and node.callee in arity:
                assert len(node.args) == arity[node.callee], (seed, node.callee)
                calls += 1
    assert calls > 100


def test_goto_to_a_missing_label_is_unresolved():
    with pytest.raises(UnresolvedName, match="no label 'nowhere' in function 'main'") as err:
        resolve(parse_source("int main() { int i = 0; top: i++; goto nowhere; }"))
    assert _span(err.value) == (1, 35, 1, 47)  # the goto statement
    # a label of another function is not a target
    with pytest.raises(UnresolvedName, match="no label 'out'"):
        resolve(parse_source("int f() { out: return 1; }\nint main() { goto out; }"))


def test_labels_are_per_function_and_gotos_go_either_way():
    resolve(parse_source("int f() { top: return 1; }\nint main() { top: ; goto top; }"))
    resolve(parse_source("int main() { int i = 0; goto end; back: i++; goto back; end: ; }"))


def test_each_construct_gives_its_variables_a_scope_of_its_kind():
    tree = parse_source(
        "int g; int main(int p) { int f; { int b; } for (int i = 0; i < 2; i++) { int c; a: ; }"
        " switch (0) { default: int s; } }"
    )
    kinds = scope_kinds(tree)
    assert sorted(kinds) == ["block", "block", "for-init", "function", "global", "switch-body"]
    assert kinds[0] == "global"
    variables = resolve(tree).variables
    assert {v.name: kinds[v.scope] for v in variables} == {
        "g": "global", "p": "function", "f": "function", "b": "block",
        "i": "for-init", "c": "block", "s": "switch-body",
    }
    # the two blocks are distinct scopes
    assert len({v.scope for v in variables}) == 6


def test_parameters_declared_with_initial_assignment():
    analysis = analyzed("recursion.mc")
    res, tree = analysis.resolution, analysis.tree
    occ = res.occurrences
    param_roles = [role for vid, nid, role in zip(occ.variable, occurrence_nodes(tree, res), occ.role)
                   if res.variables[vid].name == "n" and isinstance(tree.nodes[nid], ast.Param)]
    assert param_roles == [ROLE_DECL, ROLE_TARGET]


def test_record_members_resolved_per_member():
    analysis = analyze_source(
        "struct Point { int x; int y; };\n"
        "int main() { Point p; p.x = 1; p.y = 2; print(p.x); }"
    )
    res = analysis.resolution
    p = vars_named(analysis, "p")[0]
    assert p.members == ("x", "y")
    occ = res.occurrences
    members = [member for vid, member in zip(occ.variable, occ.member)
               if vid == res.variables.index(p) and member]
    assert members == ["x", "y", "x"]
    with pytest.raises(UnresolvedName):
        analyze_source("struct Point { int x; };\nint main() { Point p; p.z = 1; }")


@pytest.mark.parametrize("name", corpus_names())
def test_every_reference_resolves_exactly_once(name):
    analysis = analyzed(name)
    res, tree = analysis.resolution, analysis.tree
    ref_nodes = [nid for nid, node in enumerate(tree.nodes)
                 if isinstance(node, (ast.VarRef, ast.GlobalRef))]
    occ_nodes = [nid for nid in occurrence_nodes(tree, res)
                 if isinstance(tree.nodes[nid], (ast.VarRef, ast.GlobalRef))]
    assert sorted(occ_nodes) == sorted(ref_nodes)
    _assert_occurrences_name_their_nodes(tree, res)


@pytest.mark.parametrize("name", corpus_names())
def test_ordinals_are_dense_and_increasing(name):
    # An occurrence's ordinal is its index in every column, and the anchors'
    # runs cover the ordinals in order, with no gap and no overlap.
    res = analyzed(name).resolution
    occ = res.occurrences
    columns = (occ.variable, occ.member, occ.role, occ.op_unit)
    assert all(len(column) == len(occ) for column in columns)
    runs = sorted(res.runs.values(), key=lambda run: run.start)
    assert [i for run in runs for i in run] == list(range(len(occ)))


def test_chained_index_reads_keep_textual_order():
    res = analyze_source(
        "int main() { int a[3]; int i = 0; int j = 1; a[i][j] = 2; }"
    ).resolution
    n = len(res.occurrences)
    names = [res.variables[res.occurrences.variable[i]].name for i in range(n - 3, n)]
    assert names == ["a", "i", "j"]


def test_shadowing_does_not_rebind_outer_occurrences():
    base = analyze_source("int main() { int v = 1; v = v + 1; print(v); }")
    shadowed = analyze_source("int main() { int v = 1; v = v + 1; { int v = 9; } print(v); }")

    def binding_names(analysis):
        res = analysis.resolution
        out = []
        for vid, role in zip(res.occurrences.variable, res.occurrences.role):
            var = res.variables[vid]
            out.append((var.name, scope_kinds(analysis.tree)[var.scope], role))
        return out

    base_bindings = binding_names(base)
    shadow_bindings = binding_names(shadowed)
    # remove the inner declaration's own occurrences; the rest must match
    filtered = [b for b in shadow_bindings if b[1] != "block"]
    assert filtered == base_bindings


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_programs_resolve_totally(seed):
    from minicog.generator import generate

    analysis = analyze_source(generate(seed))
    res, tree = analysis.resolution, analysis.tree
    ref_nodes = [nid for nid, node in enumerate(tree.nodes)
                 if isinstance(node, (ast.VarRef, ast.GlobalRef))]
    occ_nodes = set(occurrence_nodes(tree, res))
    assert all(nid in occ_nodes for nid in ref_nodes)
    _assert_occurrences_name_their_nodes(tree, res)


def _assert_occurrences_name_their_nodes(tree, res):
    """Each occurrence's variable has the name of the node the tree oracle
    places at its ordinal, and declarations and parameters give their two
    occurrences in the order declaration, initial assignment."""
    occ, nodes = res.occurrences, occurrence_nodes(tree, res)
    for i, nid in enumerate(nodes):
        node = tree.nodes[nid]
        assert res.variables[occ.variable[i]].name == node.name, (i, node)
        if isinstance(node, (ast.DeclStmt, ast.Param)):
            assert occ.role[i] == (ROLE_TARGET if i and nodes[i - 1] == nid else ROLE_DECL), (i, node)


def _assert_runs_match_reference(tree, res):
    """``Resolution.runs`` holds, for each anchor, exactly the ordinals the
    tree oracle anchors there, and the resolver records the oracle's number
    of occurrences."""
    oracle = reference_occurrences(tree)
    assert len(res.occurrences) == len(oracle)
    expected: dict[int, list[int]] = {}
    for i, (_, anchor) in enumerate(oracle):
        expected.setdefault(anchor, []).append(i)
    assert {a: list(run) for a, run in res.runs.items()} == expected
    _assert_occurrences_name_their_nodes(tree, res)


def test_runs_match_the_tree_on_fixtures_generated_and_composed_programs():
    from minicog.errors import ComposeError
    from minicog.generator import generate
    from minicog.weyuker import compose

    analyses = [analyze_source(source, name) for name, source in corpus_pairs()]
    analyses += [analyze_source(generate(seed)) for seed in range(500)]
    trees = [parse_source(generate(seed)) for seed in range(8)]
    composed = 0
    for p in trees:
        for q in trees:
            try:
                analyses.append(compose(p, q))
                composed += 1
            except ComposeError:
                pass
    assert composed > 10
    for analysis in analyses:
        _assert_runs_match_reference(analysis.tree, analysis.resolution)


def test_resolution_keeps_only_what_a_later_stage_reads():
    import inspect

    from minicog.scopes import Resolution

    assert Resolution.__slots__ == ()  # nothing beyond what its constructor takes
    assert list(inspect.signature(Resolution).parameters) == [
        "variables", "occurrences", "call_graph", "calls_by_anchor", "runs"]


def test_a_variable_is_numbered_by_its_place_in_the_list():
    from minicog.scopes import ScopedVariable

    assert ScopedVariable._fields == ("name", "scope", "members")
    res = resolve(parse_source("struct P { int a; int b; };\nint g; int main(int n) { P p; int g; }"))
    assert res.variables == [("g", 0, ()), ("n", 1, ()), ("p", 1, ("a", "b")), ("g", 1, ())]


@pytest.mark.parametrize("stmt, message", [
    (ast.ExprStmt(ast.TypeRef("int")), "unexpected expression TypeRef"),
    (ast.Param(ast.TypeRef("int"), "p"), "unexpected statement Param"),
], ids=["expression", "statement"])
def test_a_node_out_of_place_is_a_type_error(stmt, message):
    main = ast.FuncDef(ast.TypeRef("int"), "main", [], ast.Block([stmt]))
    with pytest.raises(TypeError, match=f"^{message}$"):
        resolve(ast.SyntaxTree([main]).finalize())
