"""Lexical scopes and identifier binding.

Every identifier occurrence binds to a ScopedVariable; variables with the
same name in different scopes are distinct (shadowing-aware). Bindings are
positional: a declaration is visible from its own statement onward, so a use
before an inner redeclaration still binds to the outer variable. ``::name``
always binds in the global scope. Functions are visible program-wide so that
mutually recursive definitions resolve. Labels belong to their function: a
label is defined once in it, and a ``goto`` names a label of its own function
(C11 6.8.1 and 6.8.6.1).

A scope only keeps same-named variables distinct, so no scope outlives the
walk: ``ScopedVariable.scope`` numbers scopes in the order they are entered.

Each occurrence is anchored to a statement (header expressions of
if/while/do/for/switch and a for init clause anchor to the structured
statement, parameters to their function) and carries the operator count of
its counting unit, which the ledger turns into deltas. A counting unit is a
declaration's initializer or all of its ``{...}`` list, an expression
statement, an if/while/do/switch header, each for clause, or a return value.
Each unit is walked once, by an explicit stack, binding names and counting
operators together, so a flat ``x + ... + x`` chain of any length resolves.

The occurrence stream is stored as columns (``Occurrences``): parallel lists
of variable, member, role and operator count, where an occurrence's ordinal
is its index. No record is built per occurrence. An anchor is kept only as a
key of ``Resolution.runs``: its occurrences are one consecutive run of
ordinals, a ``range``, as nothing else is walked between the units of one
statement (a for statement's clauses all come before its body, and a
do-while condition after it).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .ast import SyntaxTree
from .errors import DuplicateDeclaration, UnresolvedName

BUILTINS = frozenset({"print", "read"})

ROLE_DECL = "declaration"
ROLE_TARGET = "assignment-target"
ROLE_READ = "read"

_NAMES = (ast.VarRef, ast.GlobalRef, ast.Member, ast.Index)  # resolved by `_target_root`


@dataclass(frozen=True)
class ScopedVariable:
    vid: int
    name: str
    scope: int
    is_record: bool = False
    members: tuple[str, ...] = ()


class Occurrences:
    """The occurrence stream as columns; an occurrence's ordinal is its index
    in each of them."""

    __slots__ = ("variable", "member", "role", "op_unit")

    def __init__(self) -> None:
        self.variable: list[int] = []
        self.member: list[str | None] = []
        self.role: list[str] = []
        self.op_unit: list[int] = []      # operator count of the statement/clause holding each one

    def __len__(self) -> int:
        return len(self.variable)


@dataclass
class Resolution:
    """What the later stages read of the resolved program. It names statements
    and occurrences by number and holds no reference to the syntax tree."""
    variables: dict[int, ScopedVariable]
    occurrences: Occurrences
    call_graph: dict[str, set[str]]
    calls_by_anchor: dict[int, int]
    runs: dict[int, range]  # anchor -> its occurrence ordinals; anchors with none are absent


class _Resolver:
    def __init__(self) -> None:
        self.scope_vars: dict[int, dict[str, int]] = {}
        self.stack: list[int] = []
        self.variables: dict[int, ScopedVariable] = {}
        self.occurrences = Occurrences()
        self.records: dict[str, ast.RecordDef] = {}
        self.call_graph: dict[str, set[str]] = {}
        self.calls_by_anchor: dict[int, int] = {}
        self.runs: dict[int, range] = {}
        self.current_function: str | None = None
        self.labels: set[str] = set()            # of the current function
        self.gotos: list[ast.GotoStmt] = []      # of the current function

    # ------------------------------------------------------------ scopes

    def push_scope(self) -> None:
        sid = len(self.scope_vars)
        self.scope_vars[sid] = {}
        self.stack.append(sid)

    def declare(self, name: str, type_name: str, node: ast.Node) -> int:
        sid = self.stack[-1]
        if name in self.scope_vars[sid]:
            raise DuplicateDeclaration(f"'{name}' already declared in this scope", node.span)
        is_record = type_name in self.records
        members = tuple(f.name for f in self.records[type_name].fields) if is_record else ()
        vid = len(self.variables)
        self.variables[vid] = ScopedVariable(vid, name, sid, is_record, members)
        self.scope_vars[sid][name] = vid
        return vid

    def lookup(self, node: ast.VarRef) -> int:
        for sid in reversed(self.stack):
            vid = self.scope_vars[sid].get(node.name)
            if vid is not None:
                return vid
        raise UnresolvedName(f"undeclared name '{node.name}'", node.span)

    def lookup_global(self, node: ast.GlobalRef) -> int:
        vid = self.scope_vars[0].get(node.name)
        if vid is None:
            raise UnresolvedName(f"no global named '{node.name}'", node.span)
        return vid

    def check_type(self, ty: ast.TypeRef) -> None:
        if ty.name not in ("int", "float", "bool") and ty.name not in self.records:
            raise UnresolvedName(f"unknown type '{ty.name}'", ty.span)

    # ------------------------------------------------------------ occurrences

    def record(self, found: list[tuple], anchor: int, ops: int) -> None:
        """Append the (variable, member, role) occurrences in ``found``
        to the columns, all anchored at ``anchor`` and carrying ``ops``, and
        add them to the anchor's run."""
        if not found:
            return
        occ = self.occurrences
        first = len(occ.variable)
        for vid, member, role in found:
            occ.variable.append(vid)
            occ.member.append(member)
            occ.role.append(role)
        occ.op_unit += [ops] * len(found)
        run = self.runs.get(anchor)
        self.runs[anchor] = range(first if run is None else run.start, first + len(found))

    def _target_root(self, expr: ast.Expr) -> tuple[int, str | None, list[ast.Expr]]:
        """Resolve an lvalue to (vid, member, read subexpressions)."""
        reads: list[ast.Expr] = []
        member: str | None = None
        node = expr
        while True:
            if isinstance(node, ast.Index):
                reads.append(node.index)
                node = node.base
            elif isinstance(node, ast.Member):
                if member is not None:
                    raise UnresolvedName("nested member access is not supported", node.span)
                member = node.member
                node = node.obj
            elif isinstance(node, ast.VarRef):
                vid = self.lookup(node)
                break
            elif isinstance(node, ast.GlobalRef):
                vid = self.lookup_global(node)
                break
            else:
                raise UnresolvedName("invalid assignment target", node.span)
        if member is not None:
            var = self.variables[vid]
            if not var.is_record or member not in var.members:
                raise UnresolvedName(f"'{member}' is not a member of '{var.name}'", expr.span)
        return vid, member, reads

    def walk_unit(self, exprs: list[ast.Expr | None], anchor: int,
                  found: list[tuple] | None = None) -> None:
        """Walk one counting unit once, in pre-order by an explicit stack:
        bind its names, record its calls and count its operators (an absent
        clause is None and adds nothing). Then record its occurrences, all
        carrying that count; ``found`` holds any that go first (a declared
        variable's own target occurrence)."""
        found = found or []
        ops = 0
        stack = [(expr, ROLE_READ) for expr in reversed(exprs)]
        while stack:
            expr, role = stack.pop()
            if isinstance(expr, _NAMES):
                vid, member, reads = self._target_root(expr)
                found.append((vid, member, role))
                # reads were collected outer-first, so they pop inner-first
                stack += [(sub, ROLE_READ) for sub in reads]
            elif isinstance(expr, ast.Binary):
                ops += 1
                stack += [(expr.rhs, ROLE_READ), (expr.lhs, ROLE_READ)]
            elif isinstance(expr, (ast.Assign, ast.CompoundAssign)):
                ops += isinstance(expr, ast.CompoundAssign)  # the plain `=` is no operator
                stack += [(expr.value, ROLE_READ), (expr.target, ROLE_TARGET)]
            elif isinstance(expr, (ast.Increment, ast.Decrement)):
                ops += 1
                stack.append((expr.target, ROLE_TARGET))
            elif isinstance(expr, ast.Unary):
                ops += 1
                stack.append((expr.operand, ROLE_READ))
            elif isinstance(expr, ast.Call):
                if expr.callee not in BUILTINS:
                    if expr.callee not in self.call_graph:
                        raise UnresolvedName(f"unknown function '{expr.callee}'", expr.span)
                    if self.current_function is not None:
                        self.call_graph[self.current_function].add(expr.callee)
                    self.calls_by_anchor[anchor] = self.calls_by_anchor.get(anchor, 0) + 1
                stack += [(arg, ROLE_READ) for arg in reversed(expr.args)]
            elif not (isinstance(expr, ast.Literal) or expr is None):
                raise TypeError(f"unexpected expression {type(expr).__name__}")
        self.record(found, anchor, ops)

    # ------------------------------------------------------------ statements

    def walk_decl(self, decl: ast.DeclStmt, anchor: int) -> None:
        self.check_type(decl.type)
        vid = self.declare(decl.name, decl.type.name, decl)
        self.record([(vid, None, ROLE_DECL)], anchor, 0)
        exprs = decl.init_list if decl.init is None else [decl.init]
        if exprs is not None:
            self.walk_unit(exprs, anchor, [(vid, None, ROLE_TARGET)])

    def walk_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self.walk_decl(stmt, stmt.nid)
        elif isinstance(stmt, ast.ExprStmt):
            self.walk_unit([stmt.expr], stmt.nid)
        elif isinstance(stmt, ast.Block):
            self.push_scope()
            for inner in stmt.stmts:
                self.walk_stmt(inner)
            self.stack.pop()
        elif isinstance(stmt, ast.IfStmt):
            self.walk_unit([stmt.cond], stmt.nid)
            self.walk_stmt(stmt.then)
            if stmt.orelse is not None:
                self.walk_stmt(stmt.orelse)
        elif isinstance(stmt, ast.WhileStmt):
            self.walk_unit([stmt.cond], stmt.nid)
            self.walk_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhileStmt):
            self.walk_stmt(stmt.body)
            self.walk_unit([stmt.cond], stmt.nid)
        elif isinstance(stmt, ast.ForStmt):
            self.push_scope()
            if isinstance(stmt.init, ast.DeclStmt):
                self.walk_decl(stmt.init, stmt.nid)
            elif isinstance(stmt.init, ast.ExprStmt):
                self.walk_unit([stmt.init.expr], stmt.nid)
            self.walk_unit([stmt.cond], stmt.nid)
            self.walk_unit([stmt.update], stmt.nid)
            self.walk_stmt(stmt.body)
            self.stack.pop()
        elif isinstance(stmt, ast.SwitchStmt):
            self.walk_unit([stmt.scrutinee], stmt.nid)
            self.push_scope()
            for arm in stmt.arms:
                for inner in arm.body:
                    self.walk_stmt(inner)
            self.stack.pop()
        elif isinstance(stmt, ast.ReturnStmt):
            self.walk_unit([stmt.value], stmt.nid)
        elif isinstance(stmt, ast.LabeledStmt):
            if stmt.label in self.labels:
                raise DuplicateDeclaration(f"label '{stmt.label}' already defined in this function",
                                           stmt.span)
            self.labels.add(stmt.label)
            self.walk_stmt(stmt.stmt)
        elif isinstance(stmt, ast.GotoStmt):
            self.gotos.append(stmt)  # checked once the whole body is walked
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt, ast.EmptyStmt)):
            pass
        else:
            raise TypeError(f"unexpected statement {type(stmt).__name__}")

    # ------------------------------------------------------------ driver

    def run(self, tree: SyntaxTree) -> Resolution:
        self.push_scope()

        for item in tree.items:
            if isinstance(item, ast.RecordDef):
                self.records[item.name] = item
            elif isinstance(item, ast.FuncDef):
                if item.name in self.call_graph:
                    raise DuplicateDeclaration(f"function '{item.name}' already defined", item.span)
                self.call_graph[item.name] = set()

        for item in tree.items:
            if isinstance(item, ast.RecordDef):
                for rfield in item.fields:
                    self.check_type(rfield.type)
            elif isinstance(item, ast.DeclStmt):
                self.walk_decl(item, item.nid)
            elif isinstance(item, ast.FuncDef):
                self.current_function = item.name
                self.push_scope()
                for param in item.params:
                    self.check_type(param.type)
                    vid = self.declare(param.name, param.type.name, param)
                    self.record([(vid, None, ROLE_DECL), (vid, None, ROLE_TARGET)], item.nid, 0)
                for inner in item.body.stmts:
                    self.walk_stmt(inner)
                for goto in self.gotos:
                    if goto.label not in self.labels:
                        raise UnresolvedName(f"no label '{goto.label}' in function '{item.name}'",
                                             goto.span)
                self.labels, self.gotos = set(), []
                self.stack.pop()
                self.current_function = None

        return Resolution(
            variables=self.variables,
            occurrences=self.occurrences,
            call_graph=self.call_graph,
            calls_by_anchor=self.calls_by_anchor,
            runs=self.runs,
        )


def resolve(tree: SyntaxTree) -> Resolution:
    """Bind every identifier and check every label; raises
    DuplicateDeclaration or UnresolvedName."""
    return _Resolver().run(tree)
