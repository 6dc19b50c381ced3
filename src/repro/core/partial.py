"""Partial quantification (Section 4).

"Our methodology adopts partial quantification, i.e., it accepts effective
quantification and aborts the expensive ones (in terms of size)."

Each variable is quantified tentatively; if the result grew beyond
``growth_factor`` times the input (or above ``absolute_limit``), the
variable is *aborted* — the original function is kept and the variable is
reported as residual.  Downstream engines (all-solutions SAT pre-image,
BMC, induction) then treat only the residual variables as decision
variables, which is exactly how the paper combines circuit quantification
with SAT-based methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.aig.analysis import cone_size
from repro.aig.graph import Aig
from repro.aig.ops import support
from repro.core.quantify import QuantifyOptions, quantify_exists_one
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class PartialOutcome:
    """Result of a partial quantification pass."""

    edge: int
    quantified: list[int]
    aborted: list[int]
    stats: StatsBag = field(default_factory=StatsBag)

    @property
    def residual_variables(self) -> list[int]:
        """Variables the caller still has to handle (aborted ones)."""
        return list(self.aborted)


class PartialQuantifier:
    """Quantifier with a size-growth abort rule.

    >>> # exists-quantify what is cheap, report the rest
    >>> # (see examples/partial_quantification.py for a full walkthrough)
    """

    def __init__(
        self,
        aig: Aig,
        options: QuantifyOptions | None = None,
        growth_factor: float = 1.5,
        absolute_limit: int | None = None,
        sweeper: SatSweeper | None = None,
    ) -> None:
        if growth_factor <= 0:
            raise ValueError("growth_factor must be positive")
        self.aig = aig
        self.options = options if options is not None else QuantifyOptions()
        self.growth_factor = growth_factor
        self.absolute_limit = absolute_limit
        self.sweeper = sweeper

    def quantify(self, edge: int, variables: Iterable[int]) -> PartialOutcome:
        """Quantify every variable whose result stays within budget."""
        aig = self.aig
        stats = StatsBag()
        if self.sweeper is None and (
            self.options.use_merge or self.options.use_optimize
        ):
            self.sweeper = SatSweeper(aig)
        sweeper = self.sweeper
        sweeper_before = sweeper.stats.as_dict() if sweeper is not None else {}
        current = edge
        quantified: list[int] = []
        aborted: list[int] = []
        # Cheapest-dependence first, like the full quantifier.
        remaining = [v for v in dict.fromkeys(variables)]
        while remaining:
            present = support(aig, current)
            still_present = [v for v in remaining if v in present]
            for gone in remaining:
                if gone not in present and gone not in quantified:
                    quantified.append(gone)  # free: out of support
            remaining = still_present
            if not remaining:
                break
            var = remaining.pop(0)
            size_before = cone_size(aig, current)
            candidate = quantify_exists_one(
                aig,
                current,
                var,
                self.options,
                sweeper=self.sweeper,
                stats=stats,
            )
            size_after = cone_size(aig, candidate)
            limit = self.growth_factor * max(size_before, 1)
            if self.absolute_limit is not None:
                limit = min(limit, self.absolute_limit)
            if size_after <= limit:
                current = candidate
                quantified.append(var)
                stats.incr("accepted")
            else:
                aborted.append(var)
                stats.incr("aborted")
                stats.incr("aborted_growth", size_after - size_before)
        if sweeper is not None:
            stats.merge_since(sweeper.stats, sweeper_before)
        stats.set("final_size", cone_size(aig, current))
        return PartialOutcome(
            edge=current, quantified=quantified, aborted=aborted, stats=stats
        )
