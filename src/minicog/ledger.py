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

A region is one range of occurrence ordinals (see ``minicog.granules``), so
scoring it scans one slice of the entries. Every delta is at least zero, so
a variable's SICN never falls along the stream: inside a region its first
entry holds its lowest value, that value less the entry's delta is its value
just before the region, and its last entry holds its highest value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
    i_l: int = 0  # I(L) of the whole program, read off the final name counts by build_ledger

    def si(self, anchors: range, mode: SiMode = SiMode.DELTA) -> int:
        """Scope information of a region: ``anchors`` is the region's range
        of occurrence ordinals (a leaf's ``Leaf.region``).

        One scan of the region's entries keeps each variable's lowest value
        (from its first entry; in delta mode, the value before the region)
        and its highest (from its last entry).
        """
        before = mode is SiMode.DELTA  # delta mode counts from the value before the region
        high: dict[int, int] = {}
        low: dict[int, int] = {}
        for entry in self.entries[anchors.start:anchors.stop]:
            vid = entry.occurrence.variable
            if vid not in low:
                low[vid] = entry.sicn_after - entry.delta if before else entry.sicn_after
            high[vid] = entry.sicn_after
        if mode is SiMode.ABSOLUTE:
            return sum(high.values())
        return sum(high.values()) - sum(low.values())

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
    # A name's ICN only grows, so its highest value is its final count.
    ledger.i_l = sum(name_count.values())
    return ledger

