"""Seeded random MiniC program generator.

Grammar-directed and bounded: nesting depth <= MAX_DEPTH and at most
MAX_STATEMENTS statements (blocks excluded). Every emitted program parses
and resolves cleanly by construction: targets are always visible variables,
break/continue only appear inside loops, and every declaration carries an
operator-free initializer (a literal, ``read()`` or a visible variable). The
bounds and the statement frequency weights are fixed constants, not tuned
values.
"""

from __future__ import annotations

import random

from . import ast
from .printer import pretty_print

MAX_DEPTH = 4
MAX_STATEMENTS = 30
MAX_GLOBALS = 2
HELPER_CHANCE = 0.3

NAME_POOL = ("a", "b", "c", "n", "s", "t", "u", "v", "w", "x", "y", "z")

_SIMPLE_KINDS = ("decl", "assign", "compound", "incdec", "print")
_SIMPLE_WEIGHTS = (3, 5, 2, 2, 2)
_ALL_KINDS = _SIMPLE_KINDS + ("if", "while", "for", "dowhile", "block", "switch")
_ALL_WEIGHTS = _SIMPLE_WEIGHTS + (3, 2, 2, 1, 1, 1)

_BIN_OPS = ("+", "-", "*", "/", "%")
_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
_COMPOUND_OPS = ("+=", "-=", "*=", "/=", "%=")


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.remaining = rng.randint(3, MAX_STATEMENTS)
        self.scopes: list[set[str]] = []
        self.helpers: dict[str, int] = {}  # name -> arity

    def take(self) -> bool:
        """Reserve one statement slot against the program-wide bound."""
        self.remaining -= 1
        return self.remaining >= 0

    # ------------------------------------------------------------ scope helpers

    def visible(self) -> list[str]:
        return list(dict.fromkeys(name for scope in self.scopes for name in sorted(scope)))

    def fresh_name(self) -> str | None:
        current = self.scopes[-1]
        candidates = [n for n in NAME_POOL if n not in current]
        if not candidates:
            return None
        # prefer unshadowed names, but shadow sometimes
        outer = set().union(*self.scopes[:-1]) if len(self.scopes) > 1 else set()
        unshadowed = [n for n in candidates if n not in outer]
        if unshadowed and self.rng.random() > 0.25:
            return self.rng.choice(unshadowed)
        return self.rng.choice(candidates)

    # ------------------------------------------------------------ expressions

    def literal(self) -> ast.Expr:
        return ast.Literal(str(self.rng.randint(0, 9)))

    def atom(self) -> ast.Expr:
        names = self.visible()
        if names and self.rng.random() < 0.6:
            return ast.VarRef(self.rng.choice(names))
        return self.literal()

    def simple_init(self) -> ast.Expr:
        # operator-free by policy: literal, read() or a visible variable
        roll = self.rng.random()
        if roll < 0.2:
            return ast.Call("read", [])
        if roll < 0.5 and self.visible():
            return ast.VarRef(self.rng.choice(self.visible()))
        return self.literal()

    def expr(self, depth: int = 0) -> ast.Expr:
        if depth >= 2 or self.rng.random() < 0.35:
            return self.atom()
        roll = self.rng.random()
        if roll < 0.12 and self.helpers:
            name = self.rng.choice(sorted(self.helpers))
            args = [self.expr(depth + 1) for _ in range(self.helpers[name])]
            return ast.Call(name, args)
        if roll < 0.2:
            return ast.Unary("-", self.atom())
        return ast.Binary(self.rng.choice(_BIN_OPS), self.expr(depth + 1), self.expr(depth + 1))

    def condition(self) -> ast.Expr:
        roll = self.rng.random()
        if roll < 0.08:
            return ast.Literal("true")
        cond = ast.Binary(self.rng.choice(_CMP_OPS), self.atom(), self.atom())
        if roll < 0.2:
            return ast.Binary(self.rng.choice(("&&", "||")), cond,
                              ast.Binary(self.rng.choice(_CMP_OPS), self.atom(), self.atom()))
        return cond

    # ------------------------------------------------------------ statements

    def decl(self) -> ast.Stmt | None:
        name = self.fresh_name()
        if name is None:
            return None
        self.scopes[-1].add(name)
        return ast.DeclStmt(ast.TypeRef("int"), name, init=self.simple_init())

    def stmt(self, depth: int, in_loop: bool) -> ast.Stmt | None:
        if not self.take():
            return None
        kinds, weights = (_SIMPLE_KINDS, _SIMPLE_WEIGHTS)
        if depth < MAX_DEPTH and self.remaining > 2:
            kinds, weights = (_ALL_KINDS, _ALL_WEIGHTS)
        kind = self.rng.choices(kinds, weights)[0]
        names = self.visible()

        if kind in ("assign", "compound", "incdec") and not names:
            kind = "decl"
        if kind == "decl":
            return self.decl()
        if kind == "assign":
            return ast.ExprStmt(ast.Assign(ast.VarRef(self.rng.choice(names)), self.expr()))
        if kind == "compound":
            return ast.ExprStmt(
                ast.CompoundAssign(self.rng.choice(_COMPOUND_OPS),
                                   ast.VarRef(self.rng.choice(names)), self.expr(1))
            )
        if kind == "incdec":
            target = ast.VarRef(self.rng.choice(names))
            node = ast.Increment(target) if self.rng.random() < 0.5 else ast.Decrement(target)
            return ast.ExprStmt(node)
        if kind == "print":
            return ast.ExprStmt(ast.Call("print", [self.expr(1)]))
        if kind == "if":
            then = self.block(depth + 1, in_loop)
            if in_loop and self.rng.random() < 0.25 and self.take():
                verb = ast.BreakStmt() if self.rng.random() < 0.7 else ast.ContinueStmt()
                then.stmts.append(verb)
            orelse = self.block(depth + 1, in_loop) if self.rng.random() < 0.35 else None
            return ast.IfStmt(self.condition(), then, orelse)
        if kind == "while":
            return ast.WhileStmt(self.condition(), self.block(depth + 1, True))
        if kind == "dowhile":
            return ast.DoWhileStmt(self.block(depth + 1, True), self.condition())
        if kind == "for":
            if not self.take():  # the init declaration is a statement too
                return self.decl()
            self.scopes.append(set())
            name = self.fresh_name() or "i"
            self.scopes[-1].add(name)
            init = ast.DeclStmt(ast.TypeRef("int"), name, init=self.literal())
            cond = ast.Binary(self.rng.choice(("<", "<=")), ast.VarRef(name), self.literal())
            update = ast.Increment(ast.VarRef(name))
            body = self.block(depth + 1, True)
            self.scopes.pop()
            return ast.ForStmt(init, cond, update, body)
        if kind == "block":
            return self.block(depth + 1, in_loop)
        if kind == "switch":
            if not names:
                return self.decl()
            arms = []
            for value in sorted(self.rng.sample(range(10), self.rng.randint(1, 3))):
                body: list[ast.Stmt] = []
                if self.rng.random() < 0.8 and self.take():
                    body.append(ast.ExprStmt(ast.Assign(ast.VarRef(self.rng.choice(names)), self.expr(1))))
                if self.rng.random() < 0.6 and self.take():
                    body.append(ast.BreakStmt())
                arms.append(ast.CaseArm(str(value), body))
            default: list[ast.Stmt] = []
            if self.take():
                default.append(ast.ExprStmt(ast.Call("print", [self.atom()])))
            arms.append(ast.CaseArm(None, default))
            return ast.SwitchStmt(ast.VarRef(self.rng.choice(names)), arms)
        return None

    def block(self, depth: int, in_loop: bool) -> ast.Block:
        self.scopes.append(set())
        stmts: list[ast.Stmt] = []
        for _ in range(self.rng.randint(1, 3)):
            stmt = self.stmt(depth, in_loop)
            if stmt is not None:
                stmts.append(stmt)
        self.scopes.pop()
        return ast.Block(stmts)

    # ------------------------------------------------------------ program

    def helper(self, index: int) -> ast.FuncDef | None:
        if not self.take():  # reserve the mandatory return statement
            return None
        name = f"f{index}"
        arity = self.rng.randint(0, 2)
        self.helpers[name] = arity
        self.scopes.append(set())
        params = []
        for i in range(arity):
            pname = f"p{i}"
            self.scopes[-1].add(pname)
            params.append(ast.Param(ast.TypeRef("int"), pname))
        stmts: list[ast.Stmt] = []
        if self.take():
            decl = self.decl()
            if decl is not None:
                stmts.append(decl)
        for _ in range(self.rng.randint(0, 2)):
            stmt = self.stmt(1, False)
            if stmt is not None:
                stmts.append(stmt)
        ret: ast.Expr = self.expr(1)
        if self.rng.random() < 0.15:
            # self-recursive helper
            args = [self.expr(1) for _ in range(arity)]
            ret = ast.Binary("+", ret, ast.Call(name, args))
        stmts.append(ast.ReturnStmt(ret))
        self.scopes.pop()
        return ast.FuncDef(ast.TypeRef("int"), name, params, ast.Block(stmts))

    def program(self) -> ast.SyntaxTree:
        self.scopes.append(set())  # global scope
        items: list = []
        for i in range(self.rng.randint(0, MAX_GLOBALS)):
            if not self.take():
                break
            name = f"g{i}"
            self.scopes[-1].add(name)
            items.append(ast.DeclStmt(ast.TypeRef("int"), name, init=self.literal()))
        if self.rng.random() < HELPER_CHANCE:
            fn = self.helper(0)
            if fn is not None:
                items.append(fn)
        self.scopes.append(set())  # main scope
        stmts: list[ast.Stmt] = []
        if self.take():
            first = self.decl()
            if first is not None:
                stmts.append(first)
        while self.remaining > 0:
            stmt = self.stmt(0, False)
            if stmt is not None:
                stmts.append(stmt)
        self.scopes.pop()
        self.scopes.pop()
        items.append(ast.FuncDef(ast.TypeRef("int"), "main", [], ast.Block(stmts)))
        return ast.SyntaxTree(items)


def generate(seed: int) -> str:
    """Deterministic program text for a seed."""
    return pretty_print(_Gen(random.Random(seed)).program())
