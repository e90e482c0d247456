"""Lexical scopes and identifier binding.

Every identifier occurrence binds to a ScopedVariable; variables with the
same name in different scopes are distinct (shadowing-aware). Bindings are
positional: a declaration is visible from its own statement onward, so a use
before an inner redeclaration still binds to the outer variable. ``::name``
always binds in the global scope. Functions are visible program-wide so that
mutually recursive definitions resolve. Labels belong to their function: a
label is defined once in it, and a ``goto`` names a label of its own function
(C11 6.8.1 and 6.8.6.1). A struct is defined once, and a field name is
declared once in its struct (6.7.2.3p1 and 6.7p3).

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
# the classes `walk_unit` dispatches on, as globals of this module: a load each, not two
from .ast import Assign, Binary, Call, CompoundAssign, Decrement, Increment, Literal, Unary, VarRef
from .errors import DuplicateDeclaration, UnresolvedName

BUILTINS = frozenset({"print", "read"})

ROLE_DECL = "declaration"
ROLE_TARGET = "assignment-target"
ROLE_READ = "read"

_NAMES = (ast.GlobalRef, ast.Member, ast.Index)  # resolved by `_target_root`; a VarRef by `lookup`


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

    def record(self, vid: int, roles: tuple[str, ...], anchor: int) -> None:
        """Append a declared variable's own occurrences, one per role in
        ``roles``, anchored at ``anchor`` and carrying no operators."""
        occ = self.occurrences
        first = len(occ.variable)
        for role in roles:
            occ.variable.append(vid)
            occ.member.append(None)
            occ.role.append(role)
        self.close_run(first, anchor, 0)

    def close_run(self, first: int, anchor: int, ops: int) -> None:
        """Give the occurrences appended since ordinal ``first`` the operator
        count ``ops``, and add them to the run of ``anchor``."""
        occ = self.occurrences
        stop = len(occ.variable)
        if stop == first:
            return
        occ.op_unit += [ops] * (stop - first)
        run = self.runs.get(anchor)
        self.runs[anchor] = range(first if run is None else run.start, stop)

    def _target_root(self, expr: ast.Expr) -> tuple[int, str | None, list[ast.Expr]]:
        """Resolve an lvalue to (vid, member, read subexpressions)."""
        reads: list[ast.Expr] = []
        member: str | None = None
        node = expr
        while True:
            cls = node.__class__
            if cls is ast.Index:
                reads.append(node.index)
                node = node.base
            elif cls is ast.Member:
                if member is not None:
                    raise UnresolvedName("nested member access is not supported", node.span)
                member = node.member
                node = node.obj
            elif cls is ast.VarRef:
                vid = self.lookup(node)
                break
            elif cls is ast.GlobalRef:
                vid = self.lookup_global(node)
                break
            else:
                raise UnresolvedName("invalid assignment target", node.span)
        if member is not None:
            var = self.variables[vid]
            if not var.is_record or member not in var.members:
                raise UnresolvedName(f"'{member}' is not a member of '{var.name}'", expr.span)
        return vid, member, reads

    def walk_unit(self, exprs: list[ast.Expr | None], anchor: int, declared: int | None = None) -> None:
        """Walk one counting unit once, in pre-order by an explicit stack:
        bind its names, record its calls and count its operators (an absent
        clause is None and adds nothing). Its occurrences are appended to the
        columns as they are found and then all given that count; a declared
        variable's own target occurrence, ``declared``, goes first.

        The walk dispatches on each node's exact class, most frequent first:
        every concrete node class subclasses ``Expr`` directly."""
        occ = self.occurrences
        variable, member_of, role_of = occ.variable, occ.member, occ.role
        first = len(variable)
        if declared is not None:
            variable.append(declared)
            member_of.append(None)
            role_of.append(ROLE_TARGET)
        ops = 0
        stack = [(expr, ROLE_READ) for expr in reversed(exprs)]
        while stack:
            expr, role = stack.pop()
            cls = expr.__class__
            if cls is VarRef:
                variable.append(self.lookup(expr))
                member_of.append(None)
                role_of.append(role)
            elif cls is Binary:
                ops += 1
                stack += [(expr.rhs, ROLE_READ), (expr.lhs, ROLE_READ)]
            elif cls is Literal or expr is None:
                pass
            elif cls is Assign or cls is CompoundAssign:
                ops += cls is CompoundAssign  # the plain `=` is no operator
                stack += [(expr.value, ROLE_READ), (expr.target, ROLE_TARGET)]
            elif cls is Call:
                if expr.callee not in BUILTINS:
                    if expr.callee not in self.call_graph:
                        raise UnresolvedName(f"unknown function '{expr.callee}'", expr.span)
                    if self.current_function is not None:
                        self.call_graph[self.current_function].add(expr.callee)
                    self.calls_by_anchor[anchor] = self.calls_by_anchor.get(anchor, 0) + 1
                stack += [(arg, ROLE_READ) for arg in reversed(expr.args)]
            elif cls is Increment or cls is Decrement:
                ops += 1
                stack.append((expr.target, ROLE_TARGET))
            elif cls is Unary:
                ops += 1
                stack.append((expr.operand, ROLE_READ))
            elif cls in _NAMES:
                vid, member, reads = self._target_root(expr)
                variable.append(vid)
                member_of.append(member)
                role_of.append(role)
                # reads were collected outer-first, so they pop inner-first
                stack += [(sub, ROLE_READ) for sub in reads]
            else:
                raise TypeError(f"unexpected expression {cls.__name__}")
        self.close_run(first, anchor, ops)

    # ------------------------------------------------------------ statements

    def walk_decl(self, decl: ast.DeclStmt, anchor: int) -> None:
        self.check_type(decl.type)
        vid = self.declare(decl.name, decl.type.name, decl)
        self.record(vid, (ROLE_DECL,), anchor)
        exprs = decl.init_list if decl.init is None else [decl.init]
        if exprs is not None:
            self.walk_unit(exprs, anchor, vid)

    def walk_stmt(self, stmt: ast.Stmt) -> None:
        """Walk a statement, dispatching on its exact class, most frequent
        first: every concrete statement class subclasses ``Stmt`` directly."""
        cls = stmt.__class__
        if cls is ast.ExprStmt:
            self.walk_unit([stmt.expr], stmt.nid)
        elif cls is ast.Block:
            self.push_scope()
            for inner in stmt.stmts:
                self.walk_stmt(inner)
            self.stack.pop()
        elif cls is ast.DeclStmt:
            self.walk_decl(stmt, stmt.nid)
        elif cls is ast.IfStmt:
            self.walk_unit([stmt.cond], stmt.nid)
            self.walk_stmt(stmt.then)
            if stmt.orelse is not None:
                self.walk_stmt(stmt.orelse)
        elif cls is ast.ForStmt:
            self.push_scope()
            init = stmt.init
            if init.__class__ is ast.DeclStmt:
                self.walk_decl(init, stmt.nid)
            elif init.__class__ is ast.ExprStmt:
                self.walk_unit([init.expr], stmt.nid)
            self.walk_unit([stmt.cond], stmt.nid)
            self.walk_unit([stmt.update], stmt.nid)
            self.walk_stmt(stmt.body)
            self.stack.pop()
        elif cls is ast.WhileStmt:
            self.walk_unit([stmt.cond], stmt.nid)
            self.walk_stmt(stmt.body)
        elif cls is ast.SwitchStmt:
            self.walk_unit([stmt.scrutinee], stmt.nid)
            self.push_scope()
            for arm in stmt.arms:
                for inner in arm.body:
                    self.walk_stmt(inner)
            self.stack.pop()
        elif cls is ast.DoWhileStmt:
            self.walk_stmt(stmt.body)
            self.walk_unit([stmt.cond], stmt.nid)
        elif cls is ast.ReturnStmt:
            self.walk_unit([stmt.value], stmt.nid)
        elif cls is ast.LabeledStmt:
            if stmt.label in self.labels:
                raise DuplicateDeclaration(f"label '{stmt.label}' already defined in this function",
                                           stmt.span)
            self.labels.add(stmt.label)
            self.walk_stmt(stmt.stmt)
        elif cls is ast.GotoStmt:
            self.gotos.append(stmt)  # checked once the whole body is walked
        elif cls is ast.BreakStmt or cls is ast.ContinueStmt or cls is ast.EmptyStmt:
            pass
        else:
            raise TypeError(f"unexpected statement {cls.__name__}")

    # ------------------------------------------------------------ driver

    def run(self, tree: SyntaxTree) -> Resolution:
        self.push_scope()

        for item in tree.items:
            if isinstance(item, ast.RecordDef):
                if item.name in self.records:
                    raise DuplicateDeclaration(f"struct '{item.name}' already defined", item.span)
                field_names: set[str] = set()
                for rfield in item.fields:
                    if rfield.name in field_names:
                        raise DuplicateDeclaration(
                            f"field '{rfield.name}' already declared in struct '{item.name}'",
                            rfield.span)
                    field_names.add(rfield.name)
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
                    self.record(vid, (ROLE_DECL, ROLE_TARGET), item.nid)
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
