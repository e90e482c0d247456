"""Occurrence ledger: the counting core.

Two counters run over the occurrence stream in textual order. The name-keyed
counter (ICN) is scope-blind: every variable called ``x`` shares one count.
The scope-keyed counter (SICN) is per ScopedVariable, so shadowed variables
count separately; a record variable's count is the sum over its members.

An assignment-target occurrence contributes ``delta = 1 + ops`` where ``ops``
is the operator count of its statement or clause (compound assignment and
``++``/``--`` count themselves; the plain ``=`` does not). Reads and bare
declarations contribute zero but still appear in the ledger carrying the
current values, which is what region minima/maxima are taken over.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

from .ast import SyntaxTree
from .scopes import ROLE_TARGET, OccurrenceRef, Resolution, ScopedVariable


class SiMode(str, Enum):
    DELTA = "delta"
    MINMAX = "minmax"
    ABSOLUTE = "absolute"


# A NamedTuple: cheaper to build than a frozen dataclass, and one is built per occurrence.
class LedgerEntry(NamedTuple):
    occurrence: OccurrenceRef
    delta: int
    icn_after: int
    sicn_after: int


@dataclass
class OccurrenceLedger:
    entries: list[LedgerEntry]
    variables: dict[int, ScopedVariable]
    tree: SyntaxTree
    resolution: Resolution
    by_variable: dict[int, list[int]] = field(default_factory=dict)
    by_anchor: dict[int, list[int]] = field(default_factory=dict)
    i_l: int = 0  # I(L) of the whole program: info_icn(all_anchors()), set by build_ledger

    # -------------------------------------------------------------- regions

    def all_anchors(self) -> set[int]:
        return set(self.by_anchor)

    def region_ordinals(self, anchors: set[int]) -> list[int]:
        ordinals: list[int] = []
        for anchor in anchors:
            ordinals.extend(self.by_anchor.get(anchor, ()))
        ordinals.sort()
        return ordinals

    def _value_before(self, vid: int, ordinal: int) -> int:
        """SICN of variable `vid` just before the given ordinal."""
        ords = self.by_variable.get(vid, [])
        i = bisect_left(ords, ordinal)
        if i == 0:
            return 0
        return self.entries[ords[i - 1]].sicn_after

    def sicn_max(self, vid: int, anchors: set[int]) -> int:
        """Highest SICN among the variable's occurrences in the region; 0 if absent."""
        entries = self.entries
        return max((entries[o].sicn_after for o in self.region_ordinals(anchors)
                    if entries[o].occurrence.variable == vid), default=0)

    def si(self, anchors: Iterable[int], mode: SiMode = SiMode.DELTA) -> int:
        """Scope information of the region made of the given anchors.

        One pass over the region's occurrences, in any order, keeps each
        variable's highest and lowest SICN and the region's first ordinal;
        the three modes differ only in the final sum.
        """
        entries = self.entries
        by_anchor = self.by_anchor
        high: dict[int, int] = {}
        low: dict[int, int] = {}
        start = len(entries)
        for anchor in anchors:
            ordinals = by_anchor.get(anchor)
            if ordinals is None:
                continue
            if ordinals[0] < start:  # each list is in ordinal order
                start = ordinals[0]
            for o in ordinals:
                entry = entries[o]
                vid = entry.occurrence.variable
                value = entry.sicn_after
                if value > high.get(vid, -1):
                    high[vid] = value
                if value < low.get(vid, value + 1):
                    low[vid] = value
        if mode is SiMode.ABSOLUTE:
            return sum(high.values())
        if mode is SiMode.MINMAX:
            return sum(value - low[vid] for vid, value in high.items())
        return sum(value - self._value_before(vid, start) for vid, value in high.items())

    def info_icn(self, anchors: set[int]) -> int:
        """The scope-blind baseline: sum over names of the highest ICN in the region."""
        return sum(self.icn_max_by_name(anchors).values())

    def icn_max_by_name(self, anchors: set[int]) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.region_ordinals(anchors):
            entry = self.entries[o]
            name = self.variables[entry.occurrence.variable].name
            out[name] = max(out.get(name, 0), entry.icn_after)
        return out

    def dump(self) -> list[dict]:
        rows = []
        for entry in self.entries:
            occ = entry.occurrence
            var = self.variables[occ.variable]
            name = var.name if occ.member is None else f"{var.name}.{occ.member}"
            rows.append(
                {
                    "ordinal": occ.ordinal,
                    "variable": name,
                    "scope": var.scope,
                    "role": occ.role,
                    "delta": entry.delta,
                    "icn_after": entry.icn_after,
                    "sicn_after": entry.sicn_after,
                }
            )
        return rows


def build_ledger(resolution: Resolution) -> OccurrenceLedger:
    entries: list[LedgerEntry] = []
    name_count: dict[str, int] = {}
    var_count: dict[int, int] = {}
    ledger = OccurrenceLedger(
        entries=entries,
        variables=resolution.variables,
        tree=resolution.tree,
        resolution=resolution,
    )
    for occ in resolution.occurrences:
        var = resolution.variables[occ.variable]
        delta = 1 + occ.op_unit if occ.role == ROLE_TARGET else 0
        if delta:
            name_count[var.name] = name_count.get(var.name, 0) + delta
            var_count[occ.variable] = var_count.get(occ.variable, 0) + delta
        entries.append(
            LedgerEntry(
                occ, delta,
                icn_after=name_count.get(var.name, 0),
                sicn_after=var_count.get(occ.variable, 0),
            )
        )
        ledger.by_variable.setdefault(occ.variable, []).append(occ.ordinal)
        ledger.by_anchor.setdefault(occ.anchor, []).append(occ.ordinal)
    # A name's ICN only grows, so its highest value is its final count.
    ledger.i_l = sum(name_count.values())
    return ledger

