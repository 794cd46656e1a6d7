"""Concept enumeration and lattice structure for the three concept kinds.

Formal concepts use the derivation pair (+, -); property-oriented concepts
the (poss, nec_inv) adjunction; object-oriented concepts the (nec, poss_inv)
adjunction.  Extent sets of FC/PC form closure systems and OC extents a
kernel (union-closed) system, so enumeration runs a lectic next-closure scan
over a genuine closure operator: on extents for FC/PC, on intents for OC.
A brute-force fixpoint scan doubles as the oracle for small carriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from .context import (
    SORT_ATTRIBUTES,
    SORT_OBJECTS,
    FormalContext,
    OperatorKind,
    SortedSubset,
    apply_operator,
    complement_context,
)
from .errors import DimensionError, LatticeError, SortMismatchError


class ConceptKind(Enum):
    FC = "fc"
    PC = "pc"
    OC = "oc"


_FORWARD = {
    ConceptKind.FC: OperatorKind.PLUS,
    ConceptKind.PC: OperatorKind.POSS,
    ConceptKind.OC: OperatorKind.NEC,
}
_BACKWARD = {
    ConceptKind.FC: OperatorKind.MINUS,
    ConceptKind.PC: OperatorKind.NEC_INV,
    ConceptKind.OC: OperatorKind.POSS_INV,
}


def intent_of(kind: ConceptKind, extent: SortedSubset, ctx: FormalContext) -> SortedSubset:
    return apply_operator(_FORWARD[kind], extent, ctx)


def extent_of(kind: ConceptKind, intent: SortedSubset, ctx: FormalContext) -> SortedSubset:
    return apply_operator(_BACKWARD[kind], intent, ctx)


def closure(
    kind: ConceptKind, side: str, subset: SortedSubset, ctx: FormalContext
) -> SortedSubset:
    """The composite operator fixing the concept sets of this kind and side.

    Extents: FC ``A -> A+-``, PC ``A -> A^(poss nec_inv)``, OC
    ``A -> A^(nec poss_inv)``; intents are the mirrored composites.  The FC
    and PC extent maps (and OC intent map) are closure operators; the PC
    intent and OC extent maps are interior operators.  All are idempotent.
    """
    if side == "extent":
        if subset.sort != SORT_OBJECTS:
            raise SortMismatchError(SORT_OBJECTS, subset.sort, "extent closure")
        return extent_of(kind, intent_of(kind, subset, ctx), ctx)
    if side == "intent":
        if subset.sort != SORT_ATTRIBUTES:
            raise SortMismatchError(SORT_ATTRIBUTES, subset.sort, "intent closure")
        return intent_of(kind, extent_of(kind, subset, ctx), ctx)
    raise ValueError(f"side must be 'extent' or 'intent', got {side!r}")


@dataclass(frozen=True)
class SemanticConcept:
    extent: SortedSubset
    intent: SortedSubset
    kind: ConceptKind

    def members(self, ctx: FormalContext) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return self.extent.members(ctx.objects), self.intent.members(ctx.attributes)


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


def _canonical_key(concept: SemanticConcept) -> tuple[int, ...]:
    return concept.extent.indices()


def enumerate_concepts(ctx: FormalContext, kind: ConceptKind) -> list[SemanticConcept]:
    """All concepts of the kind, sorted lexicographically by extent indices.

    FC/PC enumerate the extent closure system; OC enumerates the intent
    closure system (its extents are only union-closed) and maps back.
    """
    if kind in (ConceptKind.FC, ConceptKind.PC):
        n = ctx.n_objects

        def clo(mask: int) -> int:
            sub = SortedSubset(SORT_OBJECTS, mask, n)
            return closure(kind, "extent", sub, ctx).bits

        extents = _next_closure_masks(n, clo)
        concepts = [
            SemanticConcept(
                SortedSubset(SORT_OBJECTS, mask, n),
                intent_of(kind, SortedSubset(SORT_OBJECTS, mask, n), ctx),
                kind,
            )
            for mask in extents
        ]
    else:
        n = ctx.n_attributes

        def clo(mask: int) -> int:
            sub = SortedSubset(SORT_ATTRIBUTES, mask, n)
            return closure(kind, "intent", sub, ctx).bits

        intents = _next_closure_masks(n, clo)
        concepts = [
            SemanticConcept(
                extent_of(kind, SortedSubset(SORT_ATTRIBUTES, mask, n), ctx),
                SortedSubset(SORT_ATTRIBUTES, mask, n),
                kind,
            )
            for mask in intents
        ]
    return sorted(concepts, key=_canonical_key)


def enumerate_concepts_bruteforce(
    ctx: FormalContext, kind: ConceptKind
) -> list[SemanticConcept]:
    """Oracle: scan all extent subsets for fixpoints of the extent composite."""
    n = ctx.n_objects
    if n > 12:
        raise DimensionError("brute-force oracle is limited to 12 objects")
    concepts = []
    for mask in range(1 << n):
        sub = SortedSubset(SORT_OBJECTS, mask, n)
        if closure(kind, "extent", sub, ctx).bits == mask:
            concepts.append(SemanticConcept(sub, intent_of(kind, sub, ctx), kind))
    return sorted(concepts, key=_canonical_key)


@dataclass
class ConceptLattice:
    """Concepts of one kind ordered by extent inclusion, with meet/join tables."""

    kind: ConceptKind
    ctx: FormalContext
    concepts: list[SemanticConcept]
    meet_table: list[list[int]] = field(repr=False, default_factory=list)
    join_table: list[list[int]] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.concepts)

    def leq(self, i: int, j: int) -> bool:
        return self.concepts[i].extent.is_subset(self.concepts[j].extent)

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    @property
    def top(self) -> int:
        return max(range(len(self.concepts)), key=lambda i: len(self.concepts[i].extent))

    @property
    def bottom(self) -> int:
        return min(range(len(self.concepts)), key=lambda i: len(self.concepts[i].extent))

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j) with i strictly below j and nothing between."""
        n = len(self.concepts)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq(i, j):
                    continue
                if any(
                    k != i and k != j and self.leq(i, k) and self.leq(k, j)
                    for k in range(n)
                ):
                    continue
                out.append((i, j))
        return out


def build_lattice(
    concepts: Iterable[SemanticConcept], kind: ConceptKind, ctx: FormalContext
) -> ConceptLattice:
    """Order the full concept list and tabulate meets and joins.

    Meet extent is the extent composite applied to the intersection and join
    extent the composite applied to the union; for FC/PC the intersection is
    already closed and for OC the union already open, so both laws are the
    glb/lub.  A meet or join falling outside the supplied list reports an
    incomplete concept set.
    """
    concepts = sorted(concepts, key=_canonical_key)
    index = {c.extent.bits: i for i, c in enumerate(concepts)}
    n = ctx.n_objects
    lattice = ConceptLattice(kind, ctx, concepts)

    def locate(mask: int, what: str) -> int:
        ext = closure(kind, "extent", SortedSubset(SORT_OBJECTS, mask, n), ctx)
        try:
            return index[ext.bits]
        except KeyError:
            raise LatticeError(
                f"{what} extent {sorted(ext.indices())} is missing: concept list incomplete"
            )

    size = len(concepts)
    lattice.meet_table = [
        [locate(concepts[i].extent.bits & concepts[j].extent.bits, "meet") for j in range(size)]
        for i in range(size)
    ]
    lattice.join_table = [
        [locate(concepts[i].extent.bits | concepts[j].extent.bits, "join") for j in range(size)]
        for i in range(size)
    ]
    return lattice


def check_lattice_laws(lattice: ConceptLattice) -> list[str]:
    """Commutativity, associativity, absorption, idempotence; [] if all hold."""
    failures = []
    n = len(lattice)
    rng = range(n)
    for i in rng:
        if lattice.meet(i, i) != i or lattice.join(i, i) != i:
            failures.append(f"idempotence fails at {i}")
    for i in rng:
        for j in rng:
            if lattice.meet(i, j) != lattice.meet(j, i):
                failures.append(f"meet commutativity fails at ({i},{j})")
            if lattice.join(i, j) != lattice.join(j, i):
                failures.append(f"join commutativity fails at ({i},{j})")
            if lattice.meet(i, lattice.join(i, j)) != i:
                failures.append(f"absorption meet/join fails at ({i},{j})")
            if lattice.join(i, lattice.meet(i, j)) != i:
                failures.append(f"absorption join/meet fails at ({i},{j})")
    for i in rng:
        for j in rng:
            for k in rng:
                if lattice.meet(lattice.meet(i, j), k) != lattice.meet(i, lattice.meet(j, k)):
                    failures.append(f"meet associativity fails at ({i},{j},{k})")
                if lattice.join(lattice.join(i, j), k) != lattice.join(i, lattice.join(j, k)):
                    failures.append(f"join associativity fails at ({i},{j},{k})")
    return failures


@dataclass
class IsoClauseResult:
    clause: str
    passed: bool
    detail: str
    mapping: tuple[tuple[int, int], ...] | None = None


@dataclass
class YaoReport:
    clauses: list[IsoClauseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def _check_bijection(
    source: list[SemanticConcept],
    target: list[SemanticConcept],
    image_of: Callable[[SemanticConcept], tuple[int, int]],
    order_reversing: bool,
    clause: str,
) -> IsoClauseResult:
    """Verify a structural candidate map as a (dual) order isomorphism."""
    target_index = {(c.extent.bits, c.intent.bits): i for i, c in enumerate(target)}
    mapping: list[tuple[int, int]] = []
    for i, c in enumerate(source):
        key = image_of(c)
        if key not in target_index:
            return IsoClauseResult(
                clause,
                False,
                f"image of source concept {i} is not a target concept",
            )
        mapping.append((i, target_index[key]))
    hit = {j for _, j in mapping}
    if len(hit) != len(source) or len(source) != len(target):
        return IsoClauseResult(
            clause, False, f"candidate map is not a bijection "
            f"({len(source)} source, {len(target)} target, {len(hit)} images)"
        )
    image = dict(mapping)
    for i in range(len(source)):
        for j in range(len(source)):
            src_le = source[i].extent.is_subset(source[j].extent)
            ti, tj = image[i], image[j]
            tgt_le = target[ti].extent.is_subset(target[tj].extent)
            expected = (
                target[tj].extent.is_subset(target[ti].extent)
                if order_reversing
                else tgt_le
            )
            if src_le != expected:
                word = "reverse" if order_reversing else "preserve"
                return IsoClauseResult(
                    clause,
                    False,
                    f"candidate map fails to {word} order at source pair ({i},{j})",
                )
    return IsoClauseResult(clause, True, "structural map verified", tuple(mapping))


def verify_yao_isomorphisms(ctx: FormalContext) -> YaoReport:
    """Verify the three complement correspondences between concept lattices.

    (a) formal concepts of K and property-oriented concepts of the
    complement, via extent-preserving / intent-complementing pairs;
    (b) property-oriented and object-oriented concepts of the same K,
    dually, via componentwise complement; (c) formal concepts of K and
    object-oriented concepts of the complement, dually, via
    extent-complementing pairs.  Each clause exhibits its bijection.
    """
    cctx = complement_context(ctx)
    fc = enumerate_concepts(ctx, ConceptKind.FC)
    pc = enumerate_concepts(ctx, ConceptKind.PC)
    oc = enumerate_concepts(ctx, ConceptKind.OC)
    pc_c = enumerate_concepts(cctx, ConceptKind.PC)
    oc_c = enumerate_concepts(cctx, ConceptKind.OC)

    full_m = (1 << ctx.n_attributes) - 1
    full_g = (1 << ctx.n_objects) - 1

    a = _check_bijection(
        fc,
        pc_c,
        lambda c: (c.extent.bits, c.intent.bits ^ full_m),
        order_reversing=False,
        clause="a",
    )
    b = _check_bijection(
        pc,
        oc,
        lambda c: (c.extent.bits ^ full_g, c.intent.bits ^ full_m),
        order_reversing=True,
        clause="b",
    )
    cres = _check_bijection(
        fc,
        oc_c,
        lambda c: (c.extent.bits ^ full_g, c.intent.bits),
        order_reversing=True,
        clause="c",
    )
    return YaoReport([a, b, cres])
