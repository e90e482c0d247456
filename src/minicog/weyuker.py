"""Program transformations and empirical property checking.

Three transformations drive the checks: sequential composition ``P;Q``
(entry-function bodies concatenated, duplicate top-level declarations
unified), injective renaming (token-level, so line structure and LOC are
preserved), and statement permutation (simple statements may trade places
across nesting levels; structured statements stay anchored).

``compose`` takes two parsed trees, ``permute`` program text. Both analyze
the program text they build to validate it, and return that ``Analysis``;
its ``source`` holds the new text, so callers never analyze it a second
time. ``rename`` returns the new text. ``compose`` itself rejects parameters
on ``main``, differing return types, differing global types and an aggregate
initializer it cannot unify; a repeated struct, function or label is
rejected when the composed text is resolved.

The classical nine properties are checked over a pool of corpus programs
plus seeded generated programs, each analyzed and scored once. The pool keeps
each program's text, tree and scores, and each composition's text and scores;
no analysis outlives its scoring. Each checker yields candidates, and one
loop (``_verdicts``) decides every verdict from the property's quantifier:
universal properties hold on the sample or are refuted, existential ones are
witnessed or have no witness found. It scores every mode in one walk (P6,
whose candidates differ per mode, walks each mode's own), so each
transformed program is built and analyzed once. Verdicts are data, never
test failures.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from . import ast
from .analysis import Analysis, analyze_source
from .ast import fingerprint
from .errors import AnalysisError, ComposeError, EmptyProgram, InvalidPermutation, RenameCollision
from .generator import generate
from .granules import SIMPLE_STMTS
from .ledger import SiMode
from .lexer import KEYWORDS, tokenize
from .metrics import WeightTable
from .parser import parse_source
from .printer import pretty_print
from .scopes import BUILTINS

_NOTE_P2 = (
    "property 2 is checked in its listed form (every program measures >= 0); the "
    "original finiteness form (finitely many programs per value) is not machine-checkable "
    "on an unbounded program space and is recorded here as a documented distinction."
)

_NOTE_P6_BASELINE = (
    "this mode subtracts a per-region baseline, so the carried scope-information levels "
    "that separate |P;R| from |Q;R| in absolute mode cancel out; any witness reported "
    "here arises from composition mechanics (boundary statement runs merging into one "
    "leaf under call/goto weight factors, or a dropped duplicate declaration shedding a "
    "region minimum), not from the cumulative counting scheme. The design expectation "
    "for this mode was no-witness-found; the verdict is reported as observed."
)


class PropertyVerdict(NamedTuple):
    status: str  # witnessed | no-witness-found | holds-on-sample | refuted
    witness: dict | None = None
    note: str | None = None


class MatrixResult(NamedTuple):
    seed: int
    generated: int
    corpus: list[str]
    modes: list[SiMode]
    verdicts: dict[str, dict[SiMode, PropertyVerdict]]


# =================================================================== compose

def _entry_func(tree: ast.SyntaxTree) -> ast.FuncDef:
    for item in tree.items:
        if item.__class__ is ast.FuncDef and item.name == "main":
            return item
    raise ComposeError("no entry function 'main'")


def _type_eq(a: ast.TypeRef, b: ast.TypeRef) -> bool:
    return (a.name, a.is_array, a.array_size) == (b.name, b.is_array, b.array_size)


def _unify_decls(stmts: list[ast.Stmt]) -> list[ast.Stmt]:
    """Drop repeated top-level declarations; initializers become assignments."""
    declared: dict[str, ast.TypeRef] = {}
    out: list[ast.Stmt] = []
    for stmt in stmts:
        if stmt.__class__ is ast.DeclStmt:
            prior = declared.get(stmt.name)
            if prior is None:
                declared[stmt.name] = stmt.type
                out.append(stmt)
                continue
            if not _type_eq(prior, stmt.type):
                raise ComposeError(f"conflicting declarations of '{stmt.name}'")
            if stmt.init_list is not None:
                raise ComposeError(f"cannot unify aggregate initializer of '{stmt.name}'")
            if stmt.init is not None:
                out.append(ast.ExprStmt(ast.Assign(ast.VarRef(stmt.name), stmt.init)))
            continue
        out.append(stmt)
    return out


def compose(ptree: ast.SyntaxTree, qtree: ast.SyntaxTree) -> Analysis:
    """Sequential composition P;Q, returned as the analysis of its program text.
    The composed tree shares nodes with ``ptree`` and ``qtree`` and changes neither."""
    pmain = _entry_func(ptree)
    qmain = _entry_func(qtree)
    if pmain.params or qmain.params:
        raise ComposeError("entry functions must not take parameters")
    if not _type_eq(pmain.ret_type, qmain.ret_type):
        raise ComposeError("entry functions disagree on return type")

    items: list = [item for item in ptree.items if item is not pmain]
    seen_globals = {item.name: item for item in items if item.__class__ is ast.DeclStmt}
    for item in qtree.items:
        if item.__class__ is ast.DeclStmt:
            prior = seen_globals.get(item.name)
            if prior is None:
                seen_globals[item.name] = item
                items.append(item)
            elif not _type_eq(prior.type, item.type):
                raise ComposeError(f"conflicting declarations of global '{item.name}'")
            # duplicate global: the earlier definition stands; the later
            # initializer is static data, not a body statement, and is dropped
        elif item is not qmain:  # a repeated struct or function fails to resolve below
            items.append(item)

    merged = _unify_decls(list(pmain.body.stmts) + list(qmain.body.stmts))
    items.append(ast.FuncDef(pmain.ret_type, "main", [], ast.Block(merged)))
    text = pretty_print(ast.SyntaxTree(items))
    try:
        return analyze_source(text, "<composed>")
    except AnalysisError as exc:
        raise ComposeError(f"composition does not resolve: {exc}") from exc


# =================================================================== rename

def rename(p: str, mapping: dict[str, str]) -> str:
    """Apply an injective identifier renaming; preserves line structure."""
    tokens = tokenize(p, "<rename>")
    names = {text for kind, text in zip(tokens.kinds, tokens.texts) if kind == "identifier"} - BUILTINS
    for target in mapping.values():
        if target in KEYWORDS or target in BUILTINS or not target.isidentifier():
            raise RenameCollision(f"invalid rename target {target!r}")
    for key in mapping:
        if key in BUILTINS:
            raise RenameCollision(f"builtin '{key}' cannot be renamed")
    complete = {name: mapping.get(name, name) for name in names}
    if len(set(complete.values())) != len(complete):
        raise RenameCollision("renaming maps two distinct names to one")
    if all(target == name for name, target in complete.items()):
        return p

    lines: dict[int, list[str]] = {}
    for kind, text, line in zip(tokens.kinds, tokens.texts, tokens.lines):
        if kind == "identifier" and text in complete:
            text = complete[text]
        lines.setdefault(line, []).append(text)
    height = max(lines) if lines else 0
    return "\n".join(" ".join(lines.get(i, [])) for i in range(1, height + 1)) + "\n"


# =================================================================== permute

class SlotInfo(NamedTuple):
    in_loop: bool
    top_level: bool
    is_decl: bool
    has_delta: bool  # contains an assignment-like expression


# the expressions that store a value, tested by exact class (see `minicog.ast`)
_DELTA_EXPRS = frozenset({ast.Assign, ast.CompoundAssign, ast.Increment, ast.Decrement})


def _has_delta(stmt: ast.Stmt) -> bool:
    if stmt.__class__ is ast.DeclStmt:
        return stmt.init is not None or stmt.init_list is not None
    if stmt.__class__ is not ast.ExprStmt:
        return False
    todo = [stmt.expr]  # an explicit stack, so a chain of any length is searched
    while todo:
        node = todo.pop()
        if node.__class__ in _DELTA_EXPRS:
            return True
        todo.extend(ast.child_nodes(node))
    return False


def _collect_slots(entry: ast.FuncDef):
    """Where each simple statement of the entry function sits (a list and an
    index, or an owner and an attribute), and its SlotInfo, in source order:
    a slot's number is its index in both lists.
    An explicit stack, not recursive closures, so the walk leaves no cycle."""
    slots: list[tuple] = []
    infos: list[SlotInfo] = []
    # (statement, where it sits, in a loop, at top level); the next one is last
    todo = [(stmt, ("list", entry.body.stmts, idx), False, True)
            for idx, stmt in reversed(list(enumerate(entry.body.stmts)))]
    while todo:
        stmt, ref, in_loop, top = todo.pop()
        if stmt.__class__ in SIMPLE_STMTS:
            infos.append(SlotInfo(in_loop, top, stmt.__class__ is ast.DeclStmt, _has_delta(stmt)))
            slots.append(ref)
            continue
        inner: list[tuple] = []  # its sub-statements in source order; labeled ones stay anchored
        cls = stmt.__class__
        if cls is ast.Block:
            inner = [(sub, ("list", stmt.stmts, idx), in_loop) for idx, sub in enumerate(stmt.stmts)]
        elif cls is ast.IfStmt:
            inner = [(getattr(stmt, attr), ("attr", stmt, attr), in_loop)
                     for attr in ("then", "orelse") if getattr(stmt, attr) is not None]
        elif cls is ast.WhileStmt or cls is ast.DoWhileStmt or cls is ast.ForStmt:
            inner = [(stmt.body, ("attr", stmt, "body"), True)]
        elif cls is ast.SwitchStmt:
            inner = [(sub, ("list", arm.body, idx), in_loop)
                     for arm in stmt.arms for idx, sub in enumerate(arm.body)]
        todo.extend((sub, where, loop, False) for sub, where, loop in reversed(inner))
    return slots, infos


def permutable_slots(p: str) -> list[SlotInfo]:
    tree = parse_source(p, "<permute>")
    _, infos = _collect_slots(_entry_func(tree))
    return infos


def permute(p: str, order: list[int]) -> Analysis:
    """Rearrange the simple statements of the entry function by slot index.

    Returns the analysis of the rearranged program text.
    """
    tree = parse_source(p, "<permute>")
    slots, _ = _collect_slots(_entry_func(tree))
    if sorted(order) != list(range(len(slots))):
        raise InvalidPermutation(f"order must be a permutation of 0..{len(slots) - 1}")
    originals = [owner[key] if how == "list" else getattr(owner, key) for how, owner, key in slots]
    for (how, owner, key), k in zip(slots, order):
        if how == "list":
            owner[key] = originals[k]
        else:
            setattr(owner, key, originals[k])
    text = pretty_print(tree)
    try:
        return analyze_source(text, "<permuted>")
    except AnalysisError as exc:
        raise InvalidPermutation(f"permutation breaks declaration-before-use: {exc}") from exc


# =================================================================== pool

class PoolEntry(NamedTuple):
    """A pool program's text and tree, and the scores the checks read."""
    name: str
    source: str
    tree: ast.SyntaxTree
    escim: dict[SiMode, int]
    si_program: dict[SiMode, int]
    i_l: int
    loc: int
    names: list[str]  # its variable and function names, sorted (P8 renames them)


class ValidatorPool:
    """Programs under test, each analyzed and scored once, plus caches shared
    by the checks. Only scores are kept, so each analysis is freed once scored."""

    def __init__(self, corpus: list[tuple[str, str]], seed: int = 0, n_generated: int = 100,
                 weights: WeightTable | None = None, modes: list[SiMode] | None = None):
        self.weights = weights or WeightTable()
        self.modes = modes or list(SiMode)
        self.n_corpus = len(corpus)
        self.entries: list[PoolEntry] = []
        generated = [(f"gen-{k}", generate(k)) for k in range(seed, seed + n_generated)]
        for name, source in list(corpus) + generated:
            try:
                analysis = analyze_source(source, name)
            except EmptyProgram as exc:  # the one diagnostic without a span naming its file
                raise EmptyProgram(f"{name}: {exc}") from None
            resolution = analysis.resolution
            names = sorted({v.name for v in resolution.variables} | set(resolution.call_graph))
            self.entries.append(PoolEntry(
                name, source, analysis.tree, self._escim(analysis),
                {mode: analysis.si_program(mode) for mode in self.modes},
                analysis.ledger.i_l, analysis.loc, names))
        # (i, j) -> text and scores of P;Q, or None where the two do not compose
        self._composed: dict[tuple[int, int], tuple[str, dict[SiMode, int]] | None] = {}
        self._fingerprints: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def _escim(self, analysis: Analysis) -> dict[SiMode, int]:
        return {mode: analysis.report(mode, self.weights).escim for mode in self.modes}

    def esc(self, i: int, mode: SiMode) -> int:
        return self.entries[i].escim[mode]

    def fp(self, i: int) -> tuple:
        if i not in self._fingerprints:
            self._fingerprints[i] = fingerprint(self.entries[i].tree)
        return self._fingerprints[i]

    def composed(self, i: int, j: int) -> tuple[str, dict[SiMode, int]] | None:
        """The text of P;Q and its ESCIM per mode, or None on a composition conflict."""
        if (i, j) not in self._composed:
            try:
                combined = compose(self.entries[i].tree, self.entries[j].tree)
                self._composed[i, j] = combined.source, self._escim(combined)
            except ComposeError:
                self._composed[i, j] = None
        return self._composed[i, j]

    def pairs(self) -> list[tuple[int, int]]:
        """Deterministic composition pairs: corpus x corpus plus the first 150
        links of the chain through the generated programs."""
        corpus = range(self.n_corpus)
        chain = [(k, k + 1) for k in range(self.n_corpus, len(self) - 1)]
        return [(i, j) for i in corpus for j in corpus] + chain[:150]


# =================================================================== checks

Verdicts = dict[SiMode, PropertyVerdict]

_UNIVERSAL = frozenset({"2", "5", "8"})  # the rest are existential


def _witness(pool: ValidatorPool, **parts) -> dict:
    """Witness data; the programs in roles p, q and r are given by pool index."""
    return {role: {"name": pool.entries[v].name, "text": pool.entries[v].source}
            if role in ("p", "q", "r") else v for role, v in parts.items()}


def _verdicts(prop: str, modes: list[SiMode], candidates: Iterable, hit: Callable,
              note: str | None = None, tally: str | None = None) -> Verdicts:
    """Walk the candidates once, in order; a None candidate is counted as skipped.
    Each mode is decided by the first candidate ``hit(candidate, mode)`` returns a
    witness for, and the walk stops once every mode is. Verdicts carry ``note``,
    or if given, undecided ones ``tally`` filled with the counts checked and skipped."""
    hit_status, open_status = (("refuted", "holds-on-sample") if prop in _UNIVERSAL
                               else ("witnessed", "no-witness-found"))
    witnesses = {}
    walked = skipped = 0
    for candidate in candidates:
        walked += 1
        if candidate is None:
            skipped += 1
            continue
        for mode in modes:
            if mode not in witnesses:
                witness = hit(candidate, mode)
                if witness is not None:
                    witnesses[mode] = witness
        if len(witnesses) == len(modes):
            break
    open_note = note if tally is None else tally.format(walked - skipped, skipped)
    return {mode: PropertyVerdict(hit_status, witnesses[mode], note) if mode in witnesses
            else PropertyVerdict(open_status, note=open_note) for mode in modes}


def check_property(prop: str, pool: ValidatorPool) -> Verdicts:
    """Verdicts of one property for each mode the pool scores."""
    return _CHECKERS[prop](prop, pool)


def _check_p1(prop, pool):
    def hit(j, mode):
        base, value = pool.esc(0, mode), pool.esc(j, mode)
        if value != base:
            return _witness(pool, p=0, q=j, values=[base, value])
    return _verdicts(prop, pool.modes, range(1, len(pool)), hit)


def _check_p2(prop, pool):
    def hit(i, mode):
        if pool.esc(i, mode) < 0:
            return _witness(pool, p=i, value=pool.esc(i, mode))
    return _verdicts(prop, pool.modes, range(len(pool)), hit, _NOTE_P2)


def _check_p3(prop, pool):
    first_with_value: dict[SiMode, dict[int, int]] = {mode: {} for mode in pool.modes}

    def hit(j, mode):
        value = pool.esc(j, mode)
        i = first_with_value[mode].setdefault(value, j)
        if i != j and pool.fp(i) != pool.fp(j):
            return _witness(pool, p=i, q=j, value=value)
    return _verdicts(prop, pool.modes, range(len(pool)), hit)


def _check_p4(prop, pool):
    names = [entry.name for entry in pool.entries]
    if "sum_loop.mc" not in names or "sum_formula.mc" not in names:
        note = "equivalent-pair fixtures not present in the corpus"
        return _verdicts(prop, pool.modes, [], None, note)
    note = (
        "the loop and closed-form summation fixtures compute the same function by "
        "construction; equivalence is asserted by the fixture pair, not proven."
    )

    def hit(pair, mode):
        vi, vj = pool.esc(pair[0], mode), pool.esc(pair[1], mode)
        if vi != vj:
            return _witness(pool, p=pair[0], q=pair[1], values=[vi, vj])
    pair = names.index("sum_loop.mc"), names.index("sum_formula.mc")
    return _verdicts(prop, pool.modes, [pair], hit, note)


def _compositions(pool: ValidatorPool):
    """(i, j, text of P;Q, its ESCIM per mode) per pool pair, in order; None if no P;Q."""
    for i, j in pool.pairs():
        combined = pool.composed(i, j)
        yield None if combined is None else (i, j, *combined)


def _check_p5(prop, pool):
    def hit(candidate, mode):
        i, j, text, escim = candidate
        vi, vj, vpq = pool.esc(i, mode), pool.esc(j, mode), escim[mode]
        if vpq < vi or vpq < vj:
            return _witness(pool, p=i, q=j, values={"p": vi, "q": vj, "pq": vpq}, composed=text)
    return _verdicts(prop, pool.modes, _compositions(pool), hit,
                     tally="{} composition pairs checked, {} skipped (composition conflicts)")


def _equal_value_pairs(pool: ValidatorPool, mode: SiMode, cap: int) -> list[tuple[int, int]]:
    by_value: dict[int, list[int]] = {}
    pairs: list[tuple[int, int]] = []
    for i in range(len(pool)):
        bucket = by_value.setdefault(pool.esc(i, mode), [])
        for j in bucket:
            if pool.fp(j) != pool.fp(i):
                pairs.append((j, i))
                if len(pairs) >= cap:
                    return pairs
        bucket.append(i)
    return pairs


def _triples(pool: ValidatorPool, mode: SiMode, after: bool):
    """(i, j, r, and the ESCIM of P;R and Q;R, or of R;P and R;Q if not ``after``) for
    each P, Q of equal value in ``mode``; None where either does not compose."""
    for i, j in _equal_value_pairs(pool, mode, cap=30):
        for r in range(min(len(pool), 12)):
            left = pool.composed(i, r) if after else pool.composed(r, i)
            right = pool.composed(j, r) if after else pool.composed(r, j)
            yield None if left is None or right is None else (i, j, r, left[1], right[1])


def _check_p6(prop, pool):
    def hit(triple, mode):
        i, j, r, left, right = triple
        if left[mode] != right[mode]:
            values = {"equal": pool.esc(i, mode), "left": left[mode], "right": right[mode]}
            return _witness(pool, p=i, q=j, r=r, values=values)
    return {mode: _verdicts(prop, [mode], _triples(pool, mode, prop == "6a"), hit,
                            None if mode is SiMode.ABSOLUTE else _NOTE_P6_BASELINE)[mode]
            for mode in pool.modes}


def _permutations(pool: ValidatorPool):
    """(i, analysis of program i permuted) for each swap of a loop-body
    assignment with a top-level statement, in the first 80 programs with both;
    None for a swap that breaks declaration-before-use."""
    examined = 0
    for i, entry in enumerate(pool.entries):
        if examined >= 80:
            break
        try:
            infos = permutable_slots(entry.source)
        except ComposeError:  # no entry function to permute
            continue
        loop_slots = [k for k, s in enumerate(infos) if s.in_loop and s.has_delta and not s.is_decl][:3]
        top_slots = [k for k, s in enumerate(infos) if s.top_level and not s.is_decl][:3]
        if not loop_slots or not top_slots:
            continue
        examined += 1
        for a in loop_slots:
            for b in top_slots:
                order = list(range(len(infos)))
                order[a], order[b] = order[b], order[a]
                try:
                    yield i, permute(entry.source, order)
                except InvalidPermutation:
                    yield None


def _check_p7(prop, pool):
    def hit(candidate, mode):
        i, permuted = candidate
        before, after = pool.esc(i, mode), permuted.report(mode, pool.weights).escim
        if after != before:
            return _witness(pool, p=i, permuted=permuted.source, values=[before, after])
    return _verdicts(prop, pool.modes, _permutations(pool), hit)


def _rename_map(names: list[str]) -> dict[str, str]:
    return {name: f"ren{k}" for k, name in enumerate(names)}


def _check_p8(prop, pool):
    renamings = ((i, analyze_source(rename(entry.source, _rename_map(entry.names)), "<renamed>"))
                 for i, entry in enumerate(pool.entries[:200]))

    def hit(candidate, mode):
        i, renamed = candidate
        entry = pool.entries[i]
        before = (entry.escim[mode], entry.i_l, entry.loc)
        after = (renamed.report(mode, pool.weights).escim, renamed.ledger.i_l, renamed.loc)
        if before + (entry.si_program[mode],) != after + (renamed.si_program(mode),):
            values = {key: [b, a] for key, b, a in zip(("escim", "i_l", "loc"), before, after)}
            return _witness(pool, p=i, renamed=renamed.source, values=values)
    return _verdicts(prop, pool.modes, renamings, hit)


def _check_p9(prop, pool):
    def hit(candidate, mode):
        i, j, _, escim = candidate
        vi, vj, vpq = pool.esc(i, mode), pool.esc(j, mode), escim[mode]
        if vi + vj <= vpq:
            return _witness(pool, p=i, q=j, values={"p": vi, "q": vj, "pq": vpq})
    return _verdicts(prop, pool.modes, _compositions(pool), hit)


_CHECKERS = {  # in matrix row order
    "1": _check_p1, "2": _check_p2, "3": _check_p3, "4": _check_p4, "5": _check_p5,
    "6a": _check_p6, "6b": _check_p6, "7": _check_p7, "8": _check_p8, "9": _check_p9,
}


def run_matrix(corpus: list[tuple[str, str]], seed: int = 0, n_generated: int = 100,
               modes: list[SiMode] | None = None, weights: WeightTable | None = None) -> MatrixResult:
    """Check every property under each mode (default: all three) over one shared pool."""
    pool = ValidatorPool(corpus, seed, n_generated, weights, modes)
    return MatrixResult(
        seed=seed,
        generated=n_generated,
        corpus=[name for name, _ in corpus],
        modes=pool.modes,
        verdicts={prop: check_property(prop, pool) for prop in _CHECKERS},
    )
