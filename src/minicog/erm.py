"""Relational rendering of a granule hierarchy.

A granule tree is flattened to binary facts: ``A -> B`` (A precedes B at the
same level, within the same arm) and ``P > C`` (P includes C, emitted for the
first granule of each arm). The fact list determines the tree up to label
renumbering, and serialize -> render -> parse is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ErmSyntaxError

if TYPE_CHECKING:  # granules imports this module to serialize each tree once
    from .granules import Granule, GranuleTree

SEQUENCE = "->"
INCLUDE = ">"

_LABEL_RE = re.compile(r"^G(?:[0-9]+|\([0-9]+(?:,[0-9]+)*\))$")
_LINE_RE = re.compile(r"^(\S+)\s+(->|>)\s+(\S+)$")


@dataclass(frozen=True)
class Fact:
    left: str
    rel: str  # "->" | ">"
    right: str

    def __str__(self) -> str:
        return f"{self.left} {self.rel} {self.right}"


@dataclass
class ErmExpression:
    facts: list[Fact] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [str(f) for f in self.facts]


def _chain(facts: list[Fact], siblings: list[Granule], arm_starts: list[int]) -> None:
    boundaries = set(arm_starts)
    for i in range(len(siblings) - 1):
        if i + 1 not in boundaries:
            facts.append(Fact(siblings[i].label, SEQUENCE, siblings[i + 1].label))


def serialize_erm(gt: GranuleTree) -> ErmExpression:
    facts: list[Fact] = []
    _chain(facts, gt.roots, [0])
    stack = gt.roots[::-1]  # pre-order by an explicit stack
    while stack:
        g = stack.pop()
        if g.children:
            for start in g.arm_starts:
                facts.append(Fact(g.label, INCLUDE, g.children[start].label))
            _chain(facts, g.children, g.arm_starts)
            stack.extend(reversed(g.children))
    return ErmExpression(facts)


def render_erm(expr: ErmExpression) -> str:
    if not expr.facts:
        return ""
    return "\n".join(expr.lines()) + "\n"


def _normalize_label(text: str) -> str:
    if not _LABEL_RE.match(text):
        raise ErmSyntaxError(f"bad granule label {text!r}")
    # G(3) and G3 denote the same top-level granule
    inner = text[1:]
    if inner.startswith("(") and "," not in inner:
        return f"G{inner[1:-1]}"
    return text


def parse_erm(text: str) -> ErmExpression:
    facts: list[Fact] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ErmSyntaxError(f"line {lineno}: expected 'LABEL -> LABEL' or 'LABEL > LABEL', got {line!r}")
        left, rel, right = m.groups()
        facts.append(Fact(_normalize_label(left), rel, _normalize_label(right)))
    return ErmExpression(facts)
