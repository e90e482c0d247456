"""Program transformations and empirical property checking.

Three transformations drive the checks: sequential composition ``P;Q``
(entry-function bodies concatenated, duplicate top-level declarations
unified), injective renaming (token-level, so line structure and LOC are
preserved), and statement permutation (simple statements may trade places
across nesting levels; structured statements stay anchored).

``compose`` and ``permute`` analyze the program text they build to validate
it, and return that ``Analysis``; its ``source`` holds the new text, so
callers never analyze it a second time. ``rename`` returns the new text.

Each of the classical nine properties is checked per scope-information mode
over a pool of corpus programs plus seeded generated programs. Existential
properties report witnessed / no-witness-found; universal ones report
holds-on-sample / refuted. Verdicts are data, never test failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .analysis import Analysis, analyze_source
from .ast import fingerprint
from .errors import AnalysisError, ComposeError, InvalidPermutation, RenameCollision
from .generator import generate
from .granules import SIMPLE_STMTS
from .ledger import SiMode
from .lexer import KEYWORDS, tokenize
from .metrics import WeightTable
from .parser import parse_source
from .printer import pretty_print
from .scopes import BUILTINS

PROPERTY_IDS = ("1", "2", "3", "4", "5", "6a", "6b", "7", "8", "9")

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


@dataclass
class PropertyVerdict:
    prop: str
    mode: SiMode
    status: str  # witnessed | no-witness-found | holds-on-sample | refuted
    witness: dict | None = None
    note: str | None = None


@dataclass
class MatrixResult:
    seed: int
    generated: int
    corpus: list[str]
    modes: list[SiMode]
    verdicts: list[PropertyVerdict]

    def verdict(self, prop: str, mode: SiMode) -> PropertyVerdict:
        for v in self.verdicts:
            if v.prop == prop and v.mode == mode:
                return v
        raise KeyError((prop, mode))


# =================================================================== compose

def _entry_func(tree: ast.SyntaxTree) -> ast.FuncDef:
    for item in tree.items:
        if isinstance(item, ast.FuncDef) and item.name == "main":
            return item
    raise ComposeError("no entry function 'main'")


def _type_eq(a: ast.TypeRef, b: ast.TypeRef) -> bool:
    return (a.name, a.is_array, a.array_size) == (b.name, b.is_array, b.array_size)


def _unify_decls(stmts: list[ast.Stmt]) -> list[ast.Stmt]:
    """Drop repeated top-level declarations; initializers become assignments."""
    declared: dict[str, ast.TypeRef] = {}
    out: list[ast.Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.DeclStmt):
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


def compose(p: str, q: str) -> Analysis:
    """Sequential composition P;Q, returned as the analysis of its program text."""
    ptree = parse_source(p, "<P>")
    qtree = parse_source(q, "<Q>")
    pmain = _entry_func(ptree)
    qmain = _entry_func(qtree)
    if pmain.params or qmain.params:
        raise ComposeError("entry functions must not take parameters")
    if not _type_eq(pmain.ret_type, qmain.ret_type):
        raise ComposeError("entry functions disagree on return type")

    items: list = [item for item in ptree.items if item is not pmain]
    seen_records = {item.name for item in items if isinstance(item, ast.RecordDef)}
    seen_funcs = {item.name for item in items if isinstance(item, ast.FuncDef)}
    seen_globals = {item.name: item for item in items if isinstance(item, ast.DeclStmt)}

    for item in qtree.items:
        if item is qmain:
            continue
        if isinstance(item, ast.RecordDef):
            if item.name in seen_records:
                raise ComposeError(f"duplicate definition of struct '{item.name}'")
            seen_records.add(item.name)
            items.append(item)
        elif isinstance(item, ast.FuncDef):
            if item.name in seen_funcs:
                raise ComposeError(f"duplicate definition of function '{item.name}'")
            seen_funcs.add(item.name)
            items.append(item)
        elif isinstance(item, ast.DeclStmt):
            prior = seen_globals.get(item.name)
            if prior is None:
                seen_globals[item.name] = item
                items.append(item)
            elif not _type_eq(prior.type, item.type):
                raise ComposeError(f"conflicting declarations of global '{item.name}'")
            # duplicate global: the earlier definition stands; the later
            # initializer is static data, not a body statement, and is dropped

    merged = _unify_decls(list(pmain.body.stmts) + list(qmain.body.stmts))
    items.append(ast.FuncDef(pmain.ret_type, "main", [], ast.Block(merged)))
    text = pretty_print(ast.SyntaxTree(items, file="<composed>"))
    try:
        return analyze_source(text, "<composed>")
    except AnalysisError as exc:
        raise ComposeError(f"composition does not resolve: {exc}") from exc


# =================================================================== rename

def rename(p: str, mapping: dict[str, str]) -> str:
    """Apply an injective identifier renaming; preserves line structure."""
    tokens = tokenize(p, "<rename>")
    names = {t.text for t in tokens if t.kind == "identifier"} - BUILTINS
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
    for tok in tokens:
        text = tok.text
        if tok.kind == "identifier" and text in complete:
            text = complete[text]
        lines.setdefault(tok.span.line_start, []).append(text)
    height = max(lines) if lines else 0
    return "\n".join(" ".join(lines.get(i, [])) for i in range(1, height + 1)) + "\n"


# =================================================================== permute

@dataclass(frozen=True)
class SlotInfo:
    index: int
    in_loop: bool
    top_level: bool
    is_decl: bool
    has_delta: bool  # contains an assignment-like expression


def _has_delta(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.DeclStmt):
        return stmt.init is not None or stmt.init_list is not None

    def any_assign(node) -> bool:
        if isinstance(node, (ast.Assign, ast.CompoundAssign, ast.Increment, ast.Decrement)):
            return True
        return any(any_assign(c) for c in ast.child_nodes(node))

    return isinstance(stmt, ast.ExprStmt) and any_assign(stmt.expr)


def _collect_slots(entry: ast.FuncDef):
    slots: list[tuple] = []
    infos: list[SlotInfo] = []

    def add(ref: tuple, stmt: ast.Stmt, in_loop: bool, top: bool) -> None:
        infos.append(SlotInfo(len(slots), in_loop, top, isinstance(stmt, ast.DeclStmt), _has_delta(stmt)))
        slots.append(ref)

    def handle(stmt: ast.Stmt, ref: tuple, in_loop: bool, top: bool) -> None:
        if isinstance(stmt, SIMPLE_STMTS):
            add(ref, stmt, in_loop, top)
        elif isinstance(stmt, ast.Block):
            walk_list(stmt.stmts, in_loop, False)
        elif isinstance(stmt, ast.IfStmt):
            sub(stmt, "then", in_loop)
            if stmt.orelse is not None:
                sub(stmt, "orelse", in_loop)
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
            sub(stmt, "body", True)
        elif isinstance(stmt, ast.SwitchStmt):
            for arm in stmt.arms:
                walk_list(arm.body, in_loop, False)
        # labeled statements stay anchored

    def sub(owner: ast.Stmt, attr: str, in_loop: bool) -> None:
        stmt = getattr(owner, attr)
        if isinstance(stmt, ast.Block):
            walk_list(stmt.stmts, in_loop, False)
        else:
            handle(stmt, ("attr", owner, attr), in_loop, False)

    def walk_list(stmts: list[ast.Stmt], in_loop: bool, top: bool) -> None:
        for idx, stmt in enumerate(stmts):
            handle(stmt, ("list", stmts, idx), in_loop, top)

    walk_list(entry.body.stmts, False, True)
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
        raise InvalidPermutation(
            f"order must be a permutation of 0..{len(slots) - 1}"
        )

    def get(ref: tuple) -> ast.Stmt:
        if ref[0] == "list":
            return ref[1][ref[2]]
        return getattr(ref[1], ref[2])

    def put(ref: tuple, stmt: ast.Stmt) -> None:
        if ref[0] == "list":
            ref[1][ref[2]] = stmt
        else:
            setattr(ref[1], ref[2], stmt)

    originals = [get(ref) for ref in slots]
    for k, ref in enumerate(slots):
        put(ref, originals[order[k]])
    text = pretty_print(tree)
    try:
        return analyze_source(text, "<permuted>")
    except AnalysisError as exc:
        raise InvalidPermutation(f"permutation breaks declaration-before-use: {exc}") from exc


# =================================================================== pool

@dataclass
class PoolEntry:
    name: str
    source: str
    from_corpus: bool


class ValidatorPool:
    """Programs under test plus caches shared across modes."""

    def __init__(self, corpus: list[tuple[str, str]], seed: int = 0, n_generated: int = 100,
                 weights: WeightTable | None = None):
        self.seed = seed
        self.weights = weights or WeightTable.default()
        self.entries: list[PoolEntry] = [
            PoolEntry(name, source, True) for name, source in corpus
        ]
        for k in range(n_generated):
            self.entries.append(PoolEntry(f"gen-{seed + k}", generate(seed + k), False))
        self._analyses: dict[int, Analysis] = {}
        self._composed: dict[tuple[int, int], Analysis | ComposeError] = {}
        self._fingerprints: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def analysis(self, i: int) -> Analysis:
        if i not in self._analyses:
            entry = self.entries[i]
            self._analyses[i] = analyze_source(entry.source, entry.name)
        return self._analyses[i]

    def esc(self, i: int, mode: SiMode) -> int:
        return self.analysis(i).escim_value(mode, self.weights)

    def fp(self, i: int) -> tuple:
        if i not in self._fingerprints:
            self._fingerprints[i] = fingerprint(self.analysis(i).tree)
        return self._fingerprints[i]

    def composed(self, i: int, j: int) -> Analysis | ComposeError:
        key = (i, j)
        if key not in self._composed:
            try:
                self._composed[key] = compose(self.entries[i].source, self.entries[j].source)
            except ComposeError as exc:
                self._composed[key] = exc
        return self._composed[key]

    def pairs(self) -> list[tuple[int, int]]:
        """Deterministic composition pairs: corpus x corpus plus the first 150
        links of the chain through the generated programs."""
        corpus_idx = [i for i, e in enumerate(self.entries) if e.from_corpus]
        gen_idx = [i for i, e in enumerate(self.entries) if not e.from_corpus]
        out = [(i, j) for i in corpus_idx for j in corpus_idx]
        chain = [(gen_idx[k], gen_idx[k + 1]) for k in range(len(gen_idx) - 1)]
        out.extend(chain[:150])
        return out

    def find_by_name(self, name: str) -> int | None:
        for i, entry in enumerate(self.entries):
            if entry.name == name:
                return i
        return None


# =================================================================== checks

def _witness(pool: ValidatorPool, **indexed) -> dict:
    out: dict = {}
    for role, value in indexed.items():
        if isinstance(value, int):
            entry = pool.entries[value]
            out[role] = {"name": entry.name, "text": entry.source}
        else:
            out[role] = value
    return out


def check_property(prop: str, mode: SiMode, pool: ValidatorPool) -> PropertyVerdict:
    checker = _CHECKERS[prop]
    return checker(prop, mode, pool)


def _check_p1(prop, mode, pool):
    base = pool.esc(0, mode) if len(pool) else None
    for j in range(1, len(pool)):
        if pool.esc(j, mode) != base:
            witness = _witness(pool, p=0, q=j)
            witness["values"] = [base, pool.esc(j, mode)]
            return PropertyVerdict(prop, mode, "witnessed", witness)
    return PropertyVerdict(prop, mode, "no-witness-found")


def _check_p2(prop, mode, pool):
    for i in range(len(pool)):
        if pool.esc(i, mode) < 0:
            witness = _witness(pool, p=i)
            witness["value"] = pool.esc(i, mode)
            return PropertyVerdict(prop, mode, "refuted", witness, note=_NOTE_P2)
    return PropertyVerdict(prop, mode, "holds-on-sample", note=_NOTE_P2)


def _check_p3(prop, mode, pool):
    first_with_value: dict[int, int] = {}
    for j in range(len(pool)):
        value = pool.esc(j, mode)
        i = first_with_value.get(value)
        if i is None:
            first_with_value[value] = j
        elif pool.fp(i) != pool.fp(j):
            witness = _witness(pool, p=i, q=j)
            witness["value"] = value
            return PropertyVerdict(prop, mode, "witnessed", witness)
    return PropertyVerdict(prop, mode, "no-witness-found")


def _check_p4(prop, mode, pool):
    i = pool.find_by_name("sum_loop.mc")
    j = pool.find_by_name("sum_formula.mc")
    note = (
        "the loop and closed-form summation fixtures compute the same function by "
        "construction; equivalence is asserted by the fixture pair, not proven."
    )
    if i is None or j is None:
        return PropertyVerdict(prop, mode, "no-witness-found",
                               note="equivalent-pair fixtures not present in the corpus")
    vi, vj = pool.esc(i, mode), pool.esc(j, mode)
    if vi != vj:
        witness = _witness(pool, p=i, q=j)
        witness["values"] = [vi, vj]
        return PropertyVerdict(prop, mode, "witnessed", witness, note=note)
    return PropertyVerdict(prop, mode, "no-witness-found", note=note)


def _check_p5(prop, mode, pool):
    checked = skipped = 0
    for i, j in pool.pairs():
        combined = pool.composed(i, j)
        if isinstance(combined, ComposeError):
            skipped += 1
            continue
        checked += 1
        value = combined.escim_value(mode, pool.weights)
        vi, vj = pool.esc(i, mode), pool.esc(j, mode)
        if value < vi or value < vj:
            witness = _witness(pool, p=i, q=j)
            witness["values"] = {"p": vi, "q": vj, "pq": value}
            witness["composed"] = combined.source
            return PropertyVerdict(prop, mode, "refuted", witness)
    note = f"{checked} composition pairs checked, {skipped} skipped (composition conflicts)"
    return PropertyVerdict(prop, mode, "holds-on-sample", note=note)


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


def _check_p6(prop, mode, pool):
    after = prop == "6a"  # |P;R| vs |Q;R| if True, else |R;P| vs |R;Q|
    note = None if mode is SiMode.ABSOLUTE else _NOTE_P6_BASELINE
    pairs = _equal_value_pairs(pool, mode, cap=30)
    r_candidates = list(range(min(len(pool), 12)))
    for i, j in pairs:
        for r in r_candidates:
            left = pool.composed(i, r) if after else pool.composed(r, i)
            right = pool.composed(j, r) if after else pool.composed(r, j)
            if isinstance(left, ComposeError) or isinstance(right, ComposeError):
                continue
            lv = left.escim_value(mode, pool.weights)
            rv = right.escim_value(mode, pool.weights)
            if lv != rv:
                witness = _witness(pool, p=i, q=j, r=r)
                witness["values"] = {"equal": pool.esc(i, mode), "left": lv, "right": rv}
                return PropertyVerdict(prop, mode, "witnessed", witness, note=note)
    return PropertyVerdict(prop, mode, "no-witness-found", note=note)


def _check_p7(prop, mode, pool):
    examined = 0
    for i in range(len(pool)):
        if examined >= 80:
            break
        source = pool.entries[i].source
        infos = permutable_slots(source)
        loop_slots = [s.index for s in infos if s.in_loop and s.has_delta and not s.is_decl][:3]
        top_slots = [s.index for s in infos if s.top_level and not s.is_decl][:3]
        if not loop_slots or not top_slots:
            continue
        examined += 1
        for a in loop_slots:
            for b in top_slots:
                order = list(range(len(infos)))
                order[a], order[b] = order[b], order[a]
                try:
                    permuted = permute(source, order)
                except InvalidPermutation:
                    continue
                value = permuted.escim_value(mode, pool.weights)
                if value != pool.esc(i, mode):
                    witness = _witness(pool, p=i)
                    witness["permuted"] = permuted.source
                    witness["values"] = [pool.esc(i, mode), value]
                    return PropertyVerdict(prop, mode, "witnessed", witness)
    return PropertyVerdict(prop, mode, "no-witness-found")


def _rename_map(analysis: Analysis) -> dict[str, str]:
    names = sorted({v.name for v in analysis.resolution.variables.values()}
                   | set(analysis.resolution.functions))
    return {name: f"ren{k}" for k, name in enumerate(names)}


def _check_p8(prop, mode, pool):
    for i in range(min(len(pool), 200)):
        analysis = pool.analysis(i)
        renamed_text = rename(pool.entries[i].source, _rename_map(analysis))
        renamed = analyze_source(renamed_text, "<renamed>")
        before = analysis.report(mode, pool.weights)
        after = renamed.report(mode, pool.weights)
        same = (
            before.escim == after.escim
            and before.i_l == after.i_l
            and before.loc == after.loc
            and analysis.si_program(mode) == renamed.si_program(mode)
        )
        if not same:
            witness = _witness(pool, p=i)
            witness["renamed"] = renamed_text
            witness["values"] = {
                "escim": [before.escim, after.escim],
                "i_l": [before.i_l, after.i_l],
                "loc": [before.loc, after.loc],
            }
            return PropertyVerdict(prop, mode, "refuted", witness)
    return PropertyVerdict(prop, mode, "holds-on-sample")


def _check_p9(prop, mode, pool):
    for i, j in pool.pairs():
        combined = pool.composed(i, j)
        if isinstance(combined, ComposeError):
            continue
        value = combined.escim_value(mode, pool.weights)
        vi, vj = pool.esc(i, mode), pool.esc(j, mode)
        if vi + vj <= value:
            witness = _witness(pool, p=i, q=j)
            witness["values"] = {"p": vi, "q": vj, "pq": value}
            return PropertyVerdict(prop, mode, "witnessed", witness)
    return PropertyVerdict(prop, mode, "no-witness-found")


_CHECKERS = {
    "1": _check_p1,
    "2": _check_p2,
    "3": _check_p3,
    "4": _check_p4,
    "5": _check_p5,
    "6a": _check_p6,
    "6b": _check_p6,
    "7": _check_p7,
    "8": _check_p8,
    "9": _check_p9,
}


def run_matrix(
    corpus: list[tuple[str, str]],
    seed: int = 0,
    n_generated: int = 100,
    modes: list[SiMode] | None = None,
    weights: WeightTable | None = None,
) -> MatrixResult:
    """Check every property under every mode over one shared pool."""
    modes = modes or [SiMode.DELTA, SiMode.MINMAX, SiMode.ABSOLUTE]
    pool = ValidatorPool(corpus, seed, n_generated, weights)
    verdicts = [
        check_property(prop, mode, pool)
        for prop in PROPERTY_IDS
        for mode in modes
    ]
    return MatrixResult(
        seed=seed,
        generated=n_generated,
        corpus=[name for name, _ in corpus],
        modes=modes,
        verdicts=verdicts,
    )
