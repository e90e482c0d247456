import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import DuplicateDeclaration, UnresolvedName, analyze_source, parse_source
from minicog import ast
from minicog.scopes import ROLE_DECL, ROLE_TARGET, resolve

from conftest import analyzed, corpus_names


def vars_named(analysis, name):
    return [v for v in analysis.resolution.variables.values() if v.name == name]


def test_example2_has_three_amounts_in_distinct_scopes():
    analysis = analyzed("example2.mc")
    amounts = vars_named(analysis, "amount")
    assert len(amounts) == 3
    kinds = sorted(analysis.resolution.scopes.nodes[v.scope].kind for v in amounts)
    assert kinds == ["block", "function", "global"]


def test_example1_two_variables_in_function_scope():
    analysis = analyzed("example1.mc")
    scopes = analysis.resolution.scopes
    in_function = [v for v in analysis.resolution.variables.values()
                   if scopes.nodes[v.scope].kind == "function"]
    assert sorted(v.name for v in in_function) == ["square", "userInput"]
    assert len(analysis.resolution.variables) == 2


def test_for_init_shadowing_in_example3():
    assert len(vars_named(analyzed("example3.mc"), "s")) == 2


def test_global_ref_binds_global_despite_shadowing():
    analysis = analyzed("example2.mc")
    res = analysis.resolution
    global_amount = next(v for v in res.variables.values()
                         if res.scopes.nodes[v.scope].kind == "global")
    occ = res.occurrences
    global_refs = [vid for vid, nid in zip(occ.variable, occ.node)
                   if isinstance(res.tree.nodes[nid], ast.GlobalRef)]
    assert global_refs and all(vid == global_amount.vid for vid in global_refs)
    # the bare `print(amount)` in the block binds to the innermost amount
    block_amount = next(v for v in res.variables.values()
                        if res.scopes.nodes[v.scope].kind == "block")
    plain_reads = [vid for vid, nid, role in zip(occ.variable, occ.node, occ.role)
                   if isinstance(res.tree.nodes[nid], ast.VarRef) and role == "read"]
    assert plain_reads[-1] == block_amount.vid


def test_use_before_inner_declaration_binds_outer():
    # `amount = amount * 2;` precedes the local declaration, so it is global
    res = analyzed("example2.mc").resolution
    occ = res.occurrences
    first_target = next(vid for vid, nid, role in zip(occ.variable, occ.node, occ.role)
                        if role == ROLE_TARGET and isinstance(res.tree.nodes[nid], ast.VarRef))
    assert res.scopes.nodes[res.variables[first_target].scope].kind == "global"


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


def test_scope_tree_shape():
    scopes = resolve(parse_source(
        "int main() { { int a; } for (int i = 0; i < 2; i++) { a: ; } switch (0) { default: ; } }"
    )).scopes
    kinds = sorted(node.kind for node in scopes.nodes.values())
    assert kinds == ["block", "block", "for-init", "function", "global", "switch-body"]
    root = scopes.nodes[scopes.root]
    assert root.parent is None and root.kind == "global"


def test_parameters_declared_with_initial_assignment():
    res = analyzed("recursion.mc").resolution
    occ = res.occurrences
    param_roles = [role for vid, nid, role in zip(occ.variable, occ.node, occ.role)
                   if res.variables[vid].name == "n" and isinstance(res.tree.nodes[nid], ast.Param)]
    assert param_roles == [ROLE_DECL, ROLE_TARGET]


def test_record_members_resolved_per_member():
    analysis = analyze_source(
        "struct Point { int x; int y; };\n"
        "int main() { Point p; p.x = 1; p.y = 2; print(p.x); }"
    )
    res = analysis.resolution
    p = vars_named(analysis, "p")[0]
    assert p.is_record and p.members == ("x", "y")
    occ = res.occurrences
    members = [member for vid, member in zip(occ.variable, occ.member)
               if vid == p.vid and member]
    assert members == ["x", "y", "x"]
    with pytest.raises(UnresolvedName):
        analyze_source("struct Point { int x; };\nint main() { Point p; p.z = 1; }")


@pytest.mark.parametrize("name", corpus_names())
def test_every_reference_resolves_exactly_once(name):
    res = analyzed(name).resolution
    ref_nodes = [nid for nid, node in res.tree.nodes.items()
                 if isinstance(node, (ast.VarRef, ast.GlobalRef))]
    occ_nodes = [nid for nid in res.occurrences.node
                 if isinstance(res.tree.nodes[nid], (ast.VarRef, ast.GlobalRef))]
    assert sorted(occ_nodes) == sorted(ref_nodes)


@pytest.mark.parametrize("name", corpus_names())
def test_ordinals_are_dense_and_increasing(name):
    # An occurrence's ordinal is its index in every column, and the anchors'
    # runs cover the ordinals in order, with no gap and no overlap.
    res = analyzed(name).resolution
    occ = res.occurrences
    columns = (occ.variable, occ.member, occ.node, occ.role, occ.anchor, occ.op_unit)
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
            out.append((var.name, res.scopes.nodes[var.scope].kind, role))
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
    res = analysis.resolution
    ref_nodes = [nid for nid, node in res.tree.nodes.items()
                 if isinstance(node, (ast.VarRef, ast.GlobalRef))]
    occ_nodes = set(res.occurrences.node)
    assert all(nid in occ_nodes for nid in ref_nodes)
