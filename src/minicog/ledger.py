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

The ledger is stored as int columns beside the resolver's occurrence columns
(``minicog.scopes.Occurrences``), indexed by the same ordinal: ``delta``,
``icn_after`` and ``sicn_after``. A value before an occurrence is not stored:
it is ``sicn_after`` less ``delta``. The columns are the only way to read the
ledger; ``entries`` is the range of its ordinals.

A region is one range of occurrence ordinals (see ``minicog.granules``), so
scoring it scans that range of the columns. Every delta is at least zero, so
a variable's SICN never falls along the stream. Inside a region, then, its
first occurrence holds its lowest value (and, less its delta, its value just
before the region), and its last occurrence holds its highest value.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .scopes import ROLE_TARGET, Resolution


class SiMode(str, Enum):
    DELTA = "delta"
    MINMAX = "minmax"
    ABSOLUTE = "absolute"


class OccurrenceLedger(NamedTuple):
    resolution: Resolution
    delta: list[int]
    icn_after: list[int]
    sicn_after: list[int]
    i_l: int  # I(L) of the whole program, read off the final name counts

    @property
    def entries(self) -> range:
        """The ordinals of the ledger's rows."""
        return range(len(self.delta))

    def si(self, anchors: range, mode: SiMode = SiMode.DELTA) -> int:
        """Scope information of a region: ``anchors`` is the region's range
        of occurrence ordinals (a leaf granule's ``region``).

        One scan of the region keeps each variable's highest value (from its
        last occurrence) and, but in absolute mode, its first occurrence,
        which holds its lowest value; in delta mode, that value less the
        occurrence's delta, the value before the region.
        """
        variable, after = self.resolution.occurrences.variable, self.sicn_after
        high: dict[int, int] = {}
        if mode is SiMode.ABSOLUTE:
            for i in anchors:
                high[variable[i]] = after[i]
            return sum(high.values())
        delta = self.delta if mode is SiMode.DELTA else None
        low: dict[int, int] = {}
        for i in anchors:
            vid = variable[i]
            if vid not in low:
                low[vid] = after[i] if delta is None else after[i] - delta[i]
            high[vid] = after[i]
        return sum(high.values()) - sum(low.values())


def build_ledger(resolution: Resolution) -> OccurrenceLedger:
    """Run both counters over the occurrence columns in one loop over ints:
    names and variables are numbered, so each count is a list slot."""
    names: dict[str, int] = {}
    name_of = [names.setdefault(var.name, len(names)) for var in resolution.variables]
    name_count = [0] * len(names)
    var_count = [0] * len(name_of)
    delta: list[int] = []
    icn_after: list[int] = []
    sicn_after: list[int] = []
    occ = resolution.occurrences
    for vid, role, ops in zip(occ.variable, occ.role, occ.op_unit):
        name = name_of[vid]
        if role == ROLE_TARGET:
            step = 1 + ops
            name_count[name] += step
            var_count[vid] += step
        else:
            step = 0
        delta.append(step)
        icn_after.append(name_count[name])
        sicn_after.append(var_count[vid])
    # A name's ICN only grows, so its highest value is its final count.
    return OccurrenceLedger(resolution, delta, icn_after, sicn_after, i_l=sum(name_count))
