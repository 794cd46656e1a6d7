"""Concept enumeration and lattice structure for the three concept kinds.

Formal concepts use the derivation pair (+, -); property-oriented concepts
the (poss, nec_inv) adjunction; object-oriented concepts the (nec, poss_inv)
adjunction.  Extent sets of FC/PC form closure systems and OC extents a
kernel (union-closed) system; intents are closed for FC/OC and open for PC.
Enumeration runs a lectic next-closure scan over the smaller carrier, on a
kernel system through complements; covers, meets, joins and the Yao checks
also run on int masks over ``ctx.rows`` and ``ctx.cols``.  A brute-force
fixpoint scan over ``closure`` is the oracle for small carriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from .context import (
    SORT1,
    SORT2,
    FormalContext,
    OperatorKind,
    SortedSubset,
    _kernel,
    apply_operator,
    complement_context,
    iter_bits,
)
from .errors import DimensionError, LatticeError, SortMismatchError


class ConceptKind(Enum):
    FC = "fc"
    PC = "pc"
    OC = "oc"


# each kind's forward (extent to intent) and backward operator
_OPERATORS = {
    ConceptKind.FC: (OperatorKind.PLUS, OperatorKind.MINUS),
    ConceptKind.PC: (OperatorKind.POSS, OperatorKind.NEC_INV),
    ConceptKind.OC: (OperatorKind.NEC, OperatorKind.POSS_INV),
}


def closure(
    kind: ConceptKind, side: str, subset: SortedSubset, ctx: FormalContext
) -> SortedSubset:
    """The composite operator fixing the concept sets of this kind and side.

    Extents: FC ``A -> A+-``, PC ``A -> A^(poss nec_inv)``, OC
    ``A -> A^(nec poss_inv)``; intents are the mirrored composites.  The FC
    and PC extent maps (and OC intent map) are closure operators; the PC
    intent and OC extent maps are interior operators.  All are idempotent.
    """
    forward, backward = _OPERATORS[kind]
    if side == "extent":
        if subset.sort != SORT1:
            raise SortMismatchError(SORT1, subset.sort, "extent closure")
        return apply_operator(backward, apply_operator(forward, subset, ctx), ctx)
    if side == "intent":
        if subset.sort != SORT2:
            raise SortMismatchError(SORT2, subset.sort, "intent closure")
        return apply_operator(forward, apply_operator(backward, subset, ctx), ctx)
    raise ValueError(f"side must be 'extent' or 'intent', got {side!r}")


@dataclass(frozen=True)
class SemanticConcept:
    extent: SortedSubset
    intent: SortedSubset
    kind: ConceptKind


# --- mask kernels -------------------------------------------------------------


def _kernels(kind: ConceptKind, ctx: FormalContext) -> tuple[Callable[[int], int], ...]:
    """The kind's forward (extent to intent) and backward operators on masks."""
    return tuple(_kernel(op, ctx) for op in _OPERATORS[kind])


def _next_closure_masks(n: int, clo: Callable[[int], int]) -> list[int]:
    """All fixpoints of a closure operator on subsets of {0..n-1}, lectic order."""
    out = []
    current = clo(0)
    while True:
        out.append(current)
        nxt = None
        for i in range(n - 1, -1, -1):
            if current >> i & 1:
                continue
            low = (1 << i) - 1
            candidate = clo((current & low) | (1 << i))
            if candidate & low & ~current == 0:
                nxt = candidate
                break
        if nxt is None:
            return out
        current = nxt


def _fixpoints(n: int, op: Callable[[int], int], closing: bool) -> list[int]:
    """Fixpoints of a closure (``closing``) or interior operator on n-bit masks;
    an interior operator is scanned as its complement-conjugate closure."""
    if closing:
        return _next_closure_masks(n, op)
    full = (1 << n) - 1
    return [full ^ m for m in _next_closure_masks(n, lambda c: full ^ op(full ^ c))]


def _lectic_key(mask: int) -> str:
    """Sorts like ``tuple(iter_bits(mask))``: bit i is character i, '1' for a
    member and '2' otherwise, cut after the last member."""
    return bin(mask)[:1:-1].replace("0", "2") if mask else ""


def _concept_masks(ctx: FormalContext, kind: ConceptKind) -> list[tuple[int, int]]:
    """(extent, intent) masks of the kind's concepts, scanned over the smaller
    carrier and sorted as ``enumerate_concepts`` lists them."""
    forward, backward = _kernels(kind, ctx)
    if ctx.n_objects <= ctx.n_attributes:
        closing = kind is not ConceptKind.OC
        extents = _fixpoints(ctx.n_objects, lambda a: backward(forward(a)), closing)
        pairs = [(a, forward(a)) for a in extents]
    else:
        closing = kind is not ConceptKind.PC
        intents = _fixpoints(ctx.n_attributes, lambda b: forward(backward(b)), closing)
        pairs = [(backward(b), b) for b in intents]
    return sorted(pairs, key=lambda p: _lectic_key(p[0]))


def _canonical_key(concept: SemanticConcept) -> tuple[int, ...]:
    return concept.extent.indices()


def enumerate_concepts(ctx: FormalContext, kind: ConceptKind) -> list[SemanticConcept]:
    """All concepts of the kind, sorted lexicographically by extent indices."""
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    return [
        SemanticConcept(
            SortedSubset(SORT1, e, n_g), SortedSubset(SORT2, i, n_m), kind
        )
        for e, i in _concept_masks(ctx, kind)
    ]


def enumerate_concepts_bruteforce(
    ctx: FormalContext, kind: ConceptKind
) -> list[SemanticConcept]:
    """Oracle: scan all extent subsets for fixpoints of the extent composite."""
    n = ctx.n_objects
    if n > 12:
        raise DimensionError("brute-force oracle is limited to 12 objects")
    forward = _OPERATORS[kind][0]
    concepts = []
    for mask in range(1 << n):
        sub = SortedSubset(SORT1, mask, n)
        if closure(kind, "extent", sub, ctx).bits == mask:
            concepts.append(SemanticConcept(sub, apply_operator(forward, sub, ctx), kind))
    return sorted(concepts, key=_canonical_key)


def _upper_covers(
    keys: list[int], n: int, clo: Callable[[int], int], side: str
) -> list[tuple[int, int]]:
    """Covering pairs of a closure system on n bits, listed by its closed sets.

    ``clo(key | 1 << g)`` for each g outside a closed set is a candidate; it
    is an upper cover iff every g it adds produces it.  A missing bottom or
    candidate means a missing concept, since covers reach all from the bottom.
    """
    index = {key: i for i, key in enumerate(keys)}

    def locate(closed: int) -> int:
        if closed not in index:
            raise LatticeError(
                f"{side} {list(iter_bits(closed))} is missing: concept list incomplete"
            )
        return index[closed]

    locate(clo(0))
    out = []
    for i, key in enumerate(keys):
        hits: dict[int, int] = {}
        rest = (1 << n) - 1 & ~key
        while rest:
            low = rest & -rest
            candidate = clo(key | low)
            hits[candidate] = hits.get(candidate, 0) + 1
            rest ^= low
        for candidate, count in hits.items():
            j = locate(candidate)
            if count == (candidate & ~key).bit_count():
                out.append((i, j))
    return sorted(out)


@dataclass
class ConceptLattice:
    """Concepts of one kind ordered by extent inclusion, with their covers.

    Meets and joins are found on demand from one half-derivation.
    """

    kind: ConceptKind
    ctx: FormalContext
    concepts: list[SemanticConcept]
    _index: dict[int, int] = field(init=False, repr=False)
    _backward: Callable[[int], int] = field(init=False, repr=False, compare=False)
    _covers: list[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        extents = [c.extent.bits for c in self.concepts]
        self._index = {extent: i for i, extent in enumerate(extents)}
        forward, backward = _kernels(self.kind, self.ctx)
        self._backward = backward
        if self.kind is ConceptKind.OC:
            intents = [c.intent.bits for c in self.concepts]
            self._covers = _upper_covers(
                intents, self.ctx.n_attributes, lambda b: forward(backward(b)), "intent"
            )
        else:
            self._covers = _upper_covers(
                extents, self.ctx.n_objects, lambda a: backward(forward(a)), "extent"
            )

    def __len__(self) -> int:
        return len(self.concepts)

    def leq(self, i: int, j: int) -> bool:
        return self.concepts[i].extent.is_subset(self.concepts[j].extent)

    def meet(self, i: int, j: int) -> int:
        a, b = self.concepts[i], self.concepts[j]
        if self.kind is ConceptKind.OC:
            return self._index[self._backward(a.intent.bits & b.intent.bits)]
        return self._index[a.extent.bits & b.extent.bits]

    def join(self, i: int, j: int) -> int:
        a, b = self.concepts[i], self.concepts[j]
        if self.kind is ConceptKind.OC:
            return self._index[a.extent.bits | b.extent.bits]
        if self.kind is ConceptKind.FC:
            return self._index[self._backward(a.intent.bits & b.intent.bits)]
        return self._index[self._backward(a.intent.bits | b.intent.bits)]

    @property
    def top(self) -> int:
        return max(range(len(self.concepts)), key=lambda i: len(self.concepts[i].extent))

    @property
    def bottom(self) -> int:
        return min(range(len(self.concepts)), key=lambda i: len(self.concepts[i].extent))

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j) with i strictly below j and nothing between."""
        return list(self._covers)


def build_lattice(
    concepts: Iterable[SemanticConcept], kind: ConceptKind, ctx: FormalContext
) -> ConceptLattice:
    """Order the full concept list and find its covers by upper neighbours:
    FC/PC in the extent closure system, OC in the intent closure system,
    whose order is the order by extent.  Raises ``LatticeError`` when the
    list misses a concept."""
    return ConceptLattice(kind, ctx, sorted(concepts, key=_canonical_key))


@dataclass
class LawCheck:
    """One named law or clause; a Yao clause that holds carries its bijection
    as (source index, target index) pairs."""

    name: str
    passed: bool
    detail: str = ""
    bijection: tuple[tuple[int, int], ...] | None = None


@dataclass
class VerificationReport:
    title: str
    checks: list[LawCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(LawCheck(name, passed, detail))


def _check_bijection(
    source: list[tuple[int, int]], target: list[tuple[int, int]], flip: tuple[int, int], clause: str
) -> LawCheck:
    """Verify the candidate map ``(e, i) -> (e ^ flip[0], i ^ flip[1])`` on
    concept masks as a bijection from the source onto the target concepts.

    Both lattices are ordered by extent inclusion and the map keeps extents
    (``flip[0] == 0``) or complements them, so a bijection preserves the
    order or reverses it: it is a (dual) order isomorphism.
    """
    target_index = {pair: j for j, pair in enumerate(target)}
    mapping: list[tuple[int, int]] = []
    for i, (extent, intent) in enumerate(source):
        j = target_index.get((extent ^ flip[0], intent ^ flip[1]))
        if j is None:
            detail = f"image of source concept {i} is not a target concept"
            return LawCheck(clause, False, detail)
        mapping.append((i, j))
    if len(source) != len(target):
        return LawCheck(
            clause, False, f"candidate map is not a bijection "
            f"({len(source)} source, {len(target)} target, {len(mapping)} images)"
        )
    return LawCheck(clause, True, bijection=tuple(mapping))


def verify_yao_isomorphisms(ctx: FormalContext) -> VerificationReport:
    """Verify the three complement correspondences between concept lattices.

    (a) formal concepts of K and property-oriented concepts of the
    complement, via extent-preserving / intent-complementing pairs;
    (b) property-oriented and object-oriented concepts of the same K,
    dually, via componentwise complement; (c) formal concepts of K and
    object-oriented concepts of the complement, dually, via
    extent-complementing pairs.  Each clause exhibits its bijection.
    """
    cctx = complement_context(ctx)
    fc = _concept_masks(ctx, ConceptKind.FC)
    full_g, full_m = (1 << ctx.n_objects) - 1, (1 << ctx.n_attributes) - 1
    return VerificationReport("Yao complement correspondences", [
        _check_bijection(fc, _concept_masks(cctx, ConceptKind.PC), (0, full_m), "a"),
        _check_bijection(
            _concept_masks(ctx, ConceptKind.PC),
            _concept_masks(ctx, ConceptKind.OC),
            (full_g, full_m),
            "b",
        ),
        _check_bijection(fc, _concept_masks(cctx, ConceptKind.OC), (full_g, 0), "c"),
    ])
