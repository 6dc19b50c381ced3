"""Random-simulation signatures for candidate-equivalence detection.

Two nodes can only be functionally equivalent (or antivalent) if their
simulation lanes agree (or are complements) on every pattern.  The table
maintains per-node packed lanes, groups nodes into candidate classes by
phase-normalized signature, and accepts counterexample patterns from failed
SAT checks to split classes — the feedback loop the paper describes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import RandomLanes, cone_plan, simulate_nodes

_WORD_BITS = 64


class SignatureTable:
    """Per-node simulation signatures over a growing pattern set.

    Each input holds ``64 * words`` packed lanes.  New counterexample
    patterns are buffered and applied in batches of 64 (one extra word),
    so a frozen sweep sees stable keys and resimulation stays rare.
    """

    def __init__(
        self,
        aig: Aig,
        roots: Sequence[int],
        words: int = 4,
        seed: int = 2005,
    ) -> None:
        self.aig = aig
        self.roots = list(roots)
        self._random = RandomLanes(seed)
        # Pattern width in 64-lane words: the random words plus the folded
        # counterexample words.  Kept explicitly, so a table whose first
        # roots have no inputs still draws full-width lanes later.
        self.words = words
        self.mask = (1 << (words * _WORD_BITS)) - 1
        self._lanes = self._random.draw(
            [node for _, node in cone_plan(aig, self.roots).inputs], words
        )
        self._pending: list[Mapping[int, bool]] = []
        self._node_sigs: dict[int, int] = {}
        self._frozen = False
        self._resimulate()

    # ------------------------------------------------------------------ #
    # Simulation management
    # ------------------------------------------------------------------ #

    def _resimulate(self) -> None:
        self._node_sigs = simulate_nodes(
            self.aig, self._lanes, self.roots, self.mask
        )

    def add_pattern(self, assignment: Mapping[int, bool]) -> None:
        """Queue a counterexample pattern (input node -> value).

        Patterns are folded in lazily; while a sweep is in flight the table
        is frozen (see :meth:`freeze`) so that signature keys stay mutually
        comparable within that sweep.
        """
        self._pending.append(dict(assignment))
        if not self._frozen and len(self._pending) >= _WORD_BITS:
            self.flush()

    def freeze(self) -> None:
        """Suspend automatic flushing (keys stay stable until :meth:`thaw`)."""
        self._frozen = True

    def thaw(self) -> None:
        """Re-enable flushing and fold any queued patterns."""
        self._frozen = False
        self.flush()

    def flush(self) -> None:
        """Fold queued patterns into new words above the lanes; resimulate."""
        if not self._pending:
            return
        shift = self.words * _WORD_BITS
        for node in self._lanes:
            for bit, pattern in enumerate(self._pending):
                if pattern.get(node, False):
                    self._lanes[node] |= 1 << (shift + bit)
        self.words += -(-len(self._pending) // _WORD_BITS)
        self.mask = (1 << (self.words * _WORD_BITS)) - 1
        self._pending.clear()
        self._resimulate()

    def refresh_roots(self, roots: Sequence[int]) -> None:
        """Extend the table to cover additional root cones."""
        self.roots = list(dict.fromkeys(list(self.roots) + list(roots)))
        new_inputs = [
            node
            for _, node in cone_plan(self.aig, self.roots).inputs
            if node not in self._lanes
        ]
        self._lanes.update(self._random.draw(new_inputs, self.words))
        self._resimulate()

    # ------------------------------------------------------------------ #
    # Signatures
    # ------------------------------------------------------------------ #

    def node_signature(self, node: int) -> int:
        """Raw simulation lanes of a node (patterns pending are excluded)."""
        sig = self._node_sigs.get(node)
        if sig is None:
            # Node created after the last resimulation: simulate its cone.
            self._node_sigs.update(
                simulate_nodes(self.aig, self._lanes, [2 * node], self.mask)
            )
            sig = self._node_sigs[node]
        return sig

    def edge_signature(self, edge: int) -> int:
        sig = self.node_signature(edge >> 1)
        return sig ^ self.mask if edge & 1 else sig

    def signature_key(self, node: int) -> tuple[bool, int]:
        """Phase-normalized hashable signature.

        Returns ``(phase, key)`` where nodes with equal keys are candidates:
        equal phase suggests equivalence, opposite phase antivalence.
        """
        sig = self.node_signature(node)
        phase = bool(sig & 1)
        return phase, sig ^ self.mask if phase else sig

    def edges_may_be_equal(self, a: int, b: int) -> bool:
        """Necessary condition for edge equivalence (lane equality)."""
        return self.edge_signature(a) == self.edge_signature(b)

    def classes(self, nodes: Iterable[int]) -> dict[int, list[tuple[int, bool]]]:
        """Group nodes into candidate classes.

        Returns key -> list of (node, phase).  Nodes in one class with equal
        phases are equivalence candidates; opposite phases, antivalence.
        """
        table: dict[int, list[tuple[int, bool]]] = {}
        for node in nodes:
            phase, key = self.signature_key(node)
            table.setdefault(key, []).append((node, phase))
        return table

    def is_candidate_constant(self, node: int) -> bool | None:
        """If the node's signature is all-0 or all-1, the suggested constant."""
        sig = self.node_signature(node)
        if not sig:
            return False
        if sig == self.mask:
            return True
        return None
