"""Relational rendering of a granule hierarchy.

A granule tree is flattened to binary facts, one ERM line each: ``A -> B``
(A precedes B at the same level, within the same arm) and ``P > C`` (P
includes C, emitted for the first granule of each arm). Every granule with a
parent or a sibling appears in some fact, so the lines determine each
granule's children and arm starts. They do not determine the tree alone: a
function with no granule (``int main() { }``) and one whose body is a single
leaf (``G1``) both have no line. Together with the labels of the function's
leaf rows, the lines determine the tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # granules imports this module to serialize each tree once
    from .granules import Granule, GranuleTree


def _chain(lines: list[str], siblings: list[Granule], arm_starts: list[int]) -> None:
    boundaries = set(arm_starts)
    for i in range(len(siblings) - 1):
        if i + 1 not in boundaries:
            lines.append(f"{siblings[i].label} -> {siblings[i + 1].label}")


def serialize_erm(gt: GranuleTree) -> list[str]:
    """The ERM lines of one function's granule tree, in pre-order."""
    lines: list[str] = []
    _chain(lines, gt.roots, [0])
    for g in gt.walk():
        if g.children:
            for start in g.arm_starts:
                lines.append(f"{g.label} > {g.children[start].label}")
            _chain(lines, g.children, g.arm_starts)
    return lines
