"""Concept enumeration and lattice structure for the three concept kinds.

Formal concepts use the derivation pair (+, -); property-oriented concepts
the (poss, nec_inv) adjunction; object-oriented concepts the (nec, poss_inv)
adjunction.  Extent sets of FC/PC form closure systems and OC extents a
kernel (union-closed) system; intents are closed for FC/OC and open for PC.
Enumeration (FCbO: Outrata and Vychodil's fast Close-by-One, 2012, after
Kuznetsov, 1993), covers (upper neighbours) and the Yao checks run in one
closure system per kind, which ``_closure_system`` chooses on the smaller
carrier, a kernel system through complements.  There a candidate is a
closed key plus one element, and its other side is one OR of the key's
other side with that element's row or column, so the scan applies one
kernel per closure.  Meets and joins combine int masks over ``ctx.rows``
and ``ctx.cols``.  A concept is an (extent, intent) pair of such masks
from the scan to ``ConceptLattice``; ``SemanticConcept`` values are built
only where the API returns them (``enumerate_concepts``,
``ConceptLattice.concepts``) and checked only where it takes them
(``build_lattice``).  A brute-force fixpoint scan over ``closure`` is the
oracle for small carriers.
"""

from __future__ import annotations

import functools
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
    _kernel_terms,
    _or_over,
    apply_operator,
    complement_context,
    iter_bits,
)
from .errors import ConceptLogicError, LatticeError, SortMismatchError


class ConceptKind(Enum):
    FC = "fc"
    PC = "pc"
    OC = "oc"

    __hash__ = object.__hash__  # by identity, as ``context.OperatorKind``


# each kind's forward (extent to intent) and backward operator
_OPERATORS = {
    ConceptKind.FC: (OperatorKind.PLUS, OperatorKind.MINUS),
    ConceptKind.PC: (OperatorKind.POSS, OperatorKind.NEC_INV),
    ConceptKind.OC: (OperatorKind.NEC, OperatorKind.POSS_INV),
}

# each kind's (meet, join): the side each combines and whether it intersects
# (True) or unites it.  A side is a closure system iff one of the two
# intersects it; either way the combined side is a concept's side again.
_MEET_JOIN = {
    ConceptKind.FC: (("extent", True), ("intent", True)),
    ConceptKind.PC: (("extent", True), ("intent", False)),
    ConceptKind.OC: (("intent", True), ("extent", False)),
}


# Yao's complement correspondences ("A comparative study of formal concept
# analysis and rough set theory in data analysis", RSCTC 2004), each as
# (source kind on K, target kind, whether the target concepts are those of the
# complement, whether (extent, intent) are complemented)
_YAO = {
    "a": (ConceptKind.FC, ConceptKind.PC, True, (False, True)),
    "b": (ConceptKind.PC, ConceptKind.OC, False, (True, True)),
    "c": (ConceptKind.FC, ConceptKind.OC, True, (True, False)),
}


_SIDES = ("extent", "intent")  # in the order of an (extent, intent) pair


def _side_operators(kind: ConceptKind, side: str) -> tuple[OperatorKind, OperatorKind]:
    """The kind's two operators in the order its ``side`` composite applies them."""
    if side not in _SIDES:
        raise ConceptLogicError(f"side must be 'extent' or 'intent', got {side!r}")
    forward, backward = _OPERATORS[kind]
    return (forward, backward) if side == "extent" else (backward, forward)


def closure(
    kind: ConceptKind, side: str, subset: SortedSubset, ctx: FormalContext
) -> SortedSubset:
    """The composite operator fixing the concept sets of this kind and side.

    Extents: FC ``A -> A+-``, PC ``A -> A^(poss nec_inv)``, OC
    ``A -> A^(nec poss_inv)``; intents are the mirrored composites.  The FC
    and PC extent maps (and OC intent map) are closure operators; the PC
    intent and OC extent maps are interior operators.  All are idempotent.
    """
    first, then = _side_operators(kind, side)
    if subset.sort != first.input_sort:
        raise SortMismatchError(first.input_sort, subset.sort, f"{side} closure")
    return apply_operator(then, apply_operator(first, subset, ctx), ctx)


@dataclass(frozen=True)
class SemanticConcept:
    extent: SortedSubset
    intent: SortedSubset
    kind: ConceptKind


def _fcbo_masks(
    flip: int, vectors: tuple[int, ...], f: int, then: Callable[[int], int]
) -> list[tuple[int, int]]:
    """Outrata and Vychodil's FCbO (2012), Kuznetsov's Close-by-One with
    inherited canonicity failures, on the keys ``x ^ flip`` of the closed
    side sets x, over an explicit stack.

    A closed key with other side y grows by each element i outside it above
    the element that made it: ``key | 1 << i`` closes to ``x = then(y')``
    with ``y' = f ^ (f ^ y | vectors[i])``, one OR, since ``other`` ORs
    ``vectors`` over exactly the key.  A closure that adds an element below
    i fails the canonicity test (its key is reached from elsewhere) and is
    kept as ``failed[i]``.  A key's children share its ``failed`` list,
    complete before the first child is popped; a descendant whose key lacks
    an element below i of ``failed[i]`` would fail at i again, so it skips
    i without closing.  Each closed x is listed once, with its other side y.
    """
    n = len(vectors)
    y = f
    x = then(y)
    out = [(x, y)]
    stack = [(flip ^ x, y, 0, [0] * n)]
    while stack:
        key, y, start, inherited = stack.pop()
        z, failed = f ^ y, inherited.copy()
        for i in range(start, n):
            bit = 1 << i
            if key & bit:
                continue
            below = bit - 1 & ~key
            if inherited[i] & below:
                continue
            y = f ^ (z | vectors[i])
            x = then(y)
            closed = flip ^ x
            if closed & below:
                failed[i] = closed
            else:
                out.append((x, y))
                stack.append((closed, y, i + 1, failed))
    return out


def _lectic_key(mask: int) -> str:
    """Sorts like ``tuple(iter_bits(mask))``: bit i is character i, '1' for a
    member and '2' otherwise, cut after the last member."""
    return bin(mask)[:1:-1].replace("0", "2") if mask else ""


def _closure_system(
    ctx: FormalContext, kind: ConceptKind
) -> tuple[int, int, tuple[int, ...], int, Callable[[int], int], bool]:
    """``(side, flip, vectors, f, then, reverse)``: the one closure system
    the kind's concepts are scanned in, on the smaller carrier (extents on a
    tie).  ``side`` is 0 for extents and 1 for intents, the place of the side
    set in an (extent, intent) pair.  The ``other`` operator maps a side set
    x across to ``f`` XOR the OR of ``vectors`` over its key ``x ^ flip``
    (``context._kernel_terms``), and ``then`` maps back; so the key c closes
    to ``flip ^ then(f ^ OR(vectors over c))``.  ``flip`` is all ones
    exactly on a union-closed side, which is keyed by its complements, an
    intersection-closed family.  Key inclusion is the order by extent on the
    meet's side and its ``reverse`` on the other, where FC intents and
    complements shrink as extents grow.
    """
    side = 0 if ctx.n_objects <= ctx.n_attributes else 1
    other, then = _side_operators(kind, _SIDES[side])
    vectors, flip, f = _kernel_terms(other, ctx)
    reverse = _SIDES[side] != _MEET_JOIN[kind][0][0]
    return side, flip, vectors, f, _kernel(then, ctx), reverse


def _concept_masks(ctx: FormalContext, kind: ConceptKind) -> list[tuple[int, int]]:
    """(extent, intent) masks of the kind's concepts, scanned in its
    ``_closure_system`` and sorted as ``enumerate_concepts`` lists them."""
    side, flip, vectors, f, then, _ = _closure_system(ctx, kind)
    pairs = _fcbo_masks(flip, vectors, f, then)
    if side:
        pairs = [(y, x) for x, y in pairs]
    return sorted(pairs, key=lambda p: _lectic_key(p[0]))


def _typed(
    masks: list[tuple[int, int]], kind: ConceptKind, ctx: FormalContext
) -> list[SemanticConcept]:
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    return [
        SemanticConcept(SortedSubset(SORT1, e, n_g), SortedSubset(SORT2, i, n_m), kind)
        for e, i in masks
    ]


def enumerate_concepts(ctx: FormalContext, kind: ConceptKind) -> list[SemanticConcept]:
    """All concepts of the kind, sorted lexicographically by extent indices."""
    return _typed(_concept_masks(ctx, kind), kind, ctx)


def _upper_covers(
    masks: list[tuple[int, int]], kind: ConceptKind, ctx: FormalContext
) -> list[tuple[int, int]]:
    """Covering pairs by extent of a list of concept masks, in the kind's
    ``_closure_system``.

    The closed key of ``key | 1 << g`` for each g outside a key is a
    candidate; it is an upper cover of the key iff every g it adds produces
    it, and the pair is flipped where keys reverse the order by extent.  As
    in ``_fcbo_masks``, a candidate's other side is one OR from the stored
    other side of its key.  A missing bottom or candidate means a missing
    concept, since covers reach all from the bottom.
    """
    side, flip, vectors, f, then, reverse = _closure_system(ctx, kind)
    index = {pair[side] ^ flip: i for i, pair in enumerate(masks)}

    def locate(closed: int) -> int:
        if closed not in index:
            raise LatticeError(
                f"{_SIDES[side]} {list(iter_bits(closed ^ flip))} is missing: "
                "concept list incomplete"
            )
        return index[closed]

    locate(flip ^ then(f))
    out = []
    for i, pair in enumerate(masks):
        key, z = pair[side] ^ flip, f ^ pair[1 - side]
        hits: dict[int, int] = {}
        for g, vector in enumerate(vectors):
            if not key >> g & 1:
                candidate = flip ^ then(f ^ (z | vector))
                hits[candidate] = hits.get(candidate, 0) + 1
        for candidate, count in hits.items():
            j = locate(candidate)
            if count == (candidate & ~key).bit_count():
                out.append((j, i) if reverse else (i, j))
    return sorted(out)


@dataclass
class ConceptLattice:
    """Concepts of one kind ordered by extent inclusion, with their covers.

    ``masks`` holds each concept's (extent, intent) masks over ``ctx.rows``
    and ``ctx.cols``, in the order ``enumerate_concepts`` lists them;
    ``concepts`` is their typed view, built on first use.  Meets and joins
    combine one side of two concepts as ``_MEET_JOIN`` says and look the
    result up among that side's sets.
    """

    kind: ConceptKind
    ctx: FormalContext
    masks: list[tuple[int, int]]
    _covers: list[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._covers = _upper_covers(self.masks, self.kind, self.ctx)

    @functools.cached_property
    def concepts(self) -> list[SemanticConcept]:
        return _typed(self.masks, self.kind, self.ctx)

    @functools.cached_property
    def _index(self) -> tuple[dict[int, int], dict[int, int]]:
        return tuple({pair[side]: i for i, pair in enumerate(self.masks)} for side in (0, 1))

    def __len__(self) -> int:
        return len(self.masks)

    def leq(self, i: int, j: int) -> bool:
        return self.masks[i][0] & ~self.masks[j][0] == 0

    def meet(self, i: int, j: int) -> int:
        return self._combine(i, j, *_MEET_JOIN[self.kind][0])

    def join(self, i: int, j: int) -> int:
        return self._combine(i, j, *_MEET_JOIN[self.kind][1])

    def _combine(self, i: int, j: int, side: str, intersect: bool) -> int:
        s = _SIDES.index(side)
        a, b = self.masks[i][s], self.masks[j][s]
        return self._index[s][a & b if intersect else a | b]

    @property
    def top(self) -> int:
        return max(range(len(self.masks)), key=lambda i: self.masks[i][0].bit_count())

    @property
    def bottom(self) -> int:
        return min(range(len(self.masks)), key=lambda i: self.masks[i][0].bit_count())

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j) with i strictly below j and nothing between."""
        return list(self._covers)


def build_lattice(
    concepts: Iterable[SemanticConcept], kind: ConceptKind, ctx: FormalContext
) -> ConceptLattice:
    """Order the full concept list and find its covers by upper neighbours in
    the kind's ``_closure_system``.  Raises ``LatticeError`` naming the entry
    that is not over the context's carriers, whose side set in that system is
    not closed, whose other side is not the image of that set, or that
    repeats an earlier entry, and when the list misses a concept.  The image
    is one OR of the system's vectors over the key, as in ``_fcbo_masks``."""
    side, flip, vectors, f, then, _ = _closure_system(ctx, kind)
    carriers = ((SORT1, ctx.n_objects), (SORT2, ctx.n_attributes))
    masks: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for i, c in enumerate(concepts):
        sets = (c.extent, c.intent)
        if tuple((s.sort, s.size) for s in sets) != carriers:
            raise LatticeError(f"entry {i} is not over the context's carriers")
        x, y = sets[side].bits, sets[1 - side].bits
        image = f ^ _or_over(vectors, flip ^ x)
        if then(image) != x:
            raise LatticeError(f"entry {i}: {_SIDES[side]} {list(iter_bits(x))} is not closed")
        if image != y:
            raise LatticeError(
                f"entry {i}: {_SIDES[1 - side]} {list(iter_bits(y))} is not "
                f"{list(iter_bits(image))}, the image of its {_SIDES[side]}"
            )
        if x in seen:
            raise LatticeError(f"entry {i} repeats entry {seen[x]}")
        seen[x] = i
        masks.append((c.extent.bits, c.intent.bits))
    return ConceptLattice(kind, ctx, sorted(masks, key=lambda p: _lectic_key(p[0])))


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
    contexts = (ctx, complement_context(ctx))
    masks = functools.cache(lambda complemented, kind: _concept_masks(contexts[complemented], kind))
    full = ((1 << ctx.n_objects) - 1, (1 << ctx.n_attributes) - 1)
    return VerificationReport("Yao complement correspondences", [
        _check_bijection(
            masks(False, source),
            masks(complemented, target),
            tuple(f if flip else 0 for f, flip in zip(full, flips)),
            name,
        )
        for name, (source, target, complemented, flips) in _YAO.items()
    ])
