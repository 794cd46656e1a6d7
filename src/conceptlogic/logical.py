"""Formula-level concepts: class membership, quotient operations, isomorphisms.

A logical concept pair is a pair of formulas (extent sort, intent sort) whose
defining biconditionals are valid on a fixed context frame; its truth sets
then form a semantic concept of the matching kind in every model.  Pairs are
compared by frame-equivalence of their extent formulas, which coincides with
intent equivalence for pairs in the class; quotient meets and joins pick
canonical representatives.

The meet/join representatives follow the lattice order by extent inclusion:
the extent families of the property-oriented and formal classes are closure
systems (conjunction-closed), while the object-oriented extent family and
the property-oriented intent family are kernel systems, closed under
disjunction instead.  Meets therefore conjoin on the closure side and joins
combine on the other side with the connective that side supports.
Equivalence checks always name their frame explicitly; nothing here assumes
a single ambient context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .context import FormalContext, complement_context
from .errors import InternalConsistencyError, SortMismatchError
from .lattices import ConceptKind
from .semantics import (
    DEFAULT_BUDGET,
    FrameEvaluator,
    SortedFrame,
    context_to_frame,
    frame_valid,
)
from .syntax import (
    SORT1,
    SORT2,
    And,
    Formula,
    Iff,
    Neg,
    Or,
    Var,
    box,
    box_inv,
    dia,
    dia_inv,
    translate_rho,
    variables,
    wbox,
    wbox_inv,
)

_FORWARD: dict[ConceptKind, Callable[[Formula], Formula]] = {
    ConceptKind.PC: dia,
    ConceptKind.OC: box,
    ConceptKind.FC: wbox,
}
_BACKWARD: dict[ConceptKind, Callable[[Formula], Formula]] = {
    ConceptKind.PC: box_inv,
    ConceptKind.OC: dia_inv,
    ConceptKind.FC: wbox_inv,
}


@dataclass(frozen=True)
class LogicalConceptPair:
    extent: Formula
    intent: Formula
    kind: ConceptKind

    def __post_init__(self) -> None:
        if self.extent.sort != SORT1:
            raise SortMismatchError(SORT1, self.extent.sort, "pair extent")
        if self.intent.sort != SORT2:
            raise SortMismatchError(SORT2, self.intent.sort, "pair intent")


CLASS_SIDES = ("PC_ext", "PC_int", "OC_ext", "OC_int", "FC_ext", "FC_int")


def _side_biconditional(f: Formula, which: str) -> Formula:
    kind = ConceptKind[which[:2]]
    fwd, bwd = _FORWARD[kind], _BACKWARD[kind]
    if which.endswith("_ext"):
        if f.sort != SORT1:
            raise SortMismatchError(SORT1, f.sort, which)
        return Iff(bwd(fwd(f)), f)
    if f.sort != SORT2:
        raise SortMismatchError(SORT2, f.sort, which)
    return Iff(fwd(bwd(f)), f)


def member_class(
    f: Formula, which: str, frame: SortedFrame, budget: int = DEFAULT_BUDGET
) -> bool:
    """Exact membership in one of the six extent/intent formula families."""
    if which not in CLASS_SIDES:
        raise ValueError(f"which must be one of {CLASS_SIDES}, got {which!r}")
    return frame_valid(frame, _side_biconditional(f, which), budget)


def _pair_conditions(pair: LogicalConceptPair) -> list[Formula]:
    fwd, bwd = _FORWARD[pair.kind], _BACKWARD[pair.kind]
    return [
        _side_biconditional(pair.extent, f"{pair.kind.name}_ext"),
        _side_biconditional(pair.intent, f"{pair.kind.name}_int"),
        Iff(pair.extent, bwd(pair.intent)),
        Iff(fwd(pair.extent), pair.intent),
    ]


def member_pair(
    pair: LogicalConceptPair, frame: SortedFrame, budget: int = DEFAULT_BUDGET
) -> bool:
    """Both side memberships plus the two linking biconditionals."""
    return _member(FrameEvaluator(frame, _universe([pair]), budget), pair)


def _member(ev: FrameEvaluator, pair: LogicalConceptPair) -> bool:
    return all(ev.valid(c) for c in _pair_conditions(pair))


def generate_pair(seed: Formula, kind: ConceptKind) -> LogicalConceptPair:
    """The concept pair generated by a sort-1 seed via the class's adjunction.

    The result passes ``member_pair`` on every context frame: the composite
    of the class's forward and backward modalities is idempotent around the
    forward image for any relation.
    """
    if seed.sort != SORT1:
        raise SortMismatchError(SORT1, seed.sort, "generate_pair seed")
    fwd, bwd = _FORWARD[kind], _BACKWARD[kind]
    return LogicalConceptPair(bwd(fwd(seed)), fwd(seed), kind)


class TransformDirection(Enum):
    PC_OF_K_TO_OC_OF_KC = "pc_of_K_to_oc_of_Kc"
    FC_OF_K_TO_PC_OF_KC = "fc_of_K_to_pc_of_Kc"
    FC_OF_K_TO_OC_OF_KC = "fc_of_K_to_oc_of_Kc"


_TRANSFORM_SOURCE = {
    TransformDirection.PC_OF_K_TO_OC_OF_KC: ConceptKind.PC,
    TransformDirection.FC_OF_K_TO_PC_OF_KC: ConceptKind.FC,
    TransformDirection.FC_OF_K_TO_OC_OF_KC: ConceptKind.FC,
}
_TRANSFORM_TARGET = {
    TransformDirection.PC_OF_K_TO_OC_OF_KC: ConceptKind.OC,
    TransformDirection.FC_OF_K_TO_PC_OF_KC: ConceptKind.PC,
    TransformDirection.FC_OF_K_TO_OC_OF_KC: ConceptKind.OC,
}


def transform_pair(
    pair: LogicalConceptPair,
    direction: TransformDirection,
    source_frame: SortedFrame | None = None,
    target_frame: SortedFrame | None = None,
    budget: int = DEFAULT_BUDGET,
) -> LogicalConceptPair:
    """Map a pair across the complement correspondences.

    Negation swaps the property/object orientation; the window-to-diamond
    translation moves formal pairs onto the complemented context.  When
    frames are supplied, source membership and target membership (on the
    complemented frame) are verified.
    """
    if pair.kind != _TRANSFORM_SOURCE[direction]:
        raise SortMismatchError(
            _TRANSFORM_SOURCE[direction].name, pair.kind.name, "transform_pair"
        )
    if source_frame is not None and not member_pair(pair, source_frame, budget):
        raise InternalConsistencyError(
            f"pair is not in {pair.kind.name} on the source frame"
        )
    phi, psi = pair.extent, pair.intent
    if direction is TransformDirection.PC_OF_K_TO_OC_OF_KC:
        image = LogicalConceptPair(Neg(phi), Neg(psi), ConceptKind.OC)
    elif direction is TransformDirection.FC_OF_K_TO_PC_OF_KC:
        image = LogicalConceptPair(
            translate_rho(phi), Neg(translate_rho(psi)), ConceptKind.PC
        )
    else:
        image = LogicalConceptPair(
            Neg(translate_rho(phi)), translate_rho(psi), ConceptKind.OC
        )
    if target_frame is not None and not member_pair(image, target_frame, budget):
        raise InternalConsistencyError(
            f"image is not in {image.kind.name} on the target frame"
        )
    return image


def equiv_pairs(
    a: LogicalConceptPair,
    b: LogicalConceptPair,
    frame: SortedFrame,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Frame-equivalence of extent formulas; intents must agree with it.

    For pairs in a class the two tests coincide; a disagreement means a
    caller handed in a non-member and is reported as an internal
    inconsistency rather than silently resolved.
    """
    if a.kind != b.kind:
        raise SortMismatchError(a.kind.name, b.kind.name, "equiv_pairs")
    return _equivalent(FrameEvaluator(frame, _universe([a, b]), budget), a, b)


def _equivalent(
    ev: FrameEvaluator, a: LogicalConceptPair, b: LogicalConceptPair
) -> bool:
    by_extent = ev.equivalent(a.extent, b.extent)
    by_intent = ev.equivalent(a.intent, b.intent)
    if by_extent != by_intent:
        raise InternalConsistencyError(
            "extent and intent equivalence disagree; a pair is outside its class"
        )
    return by_extent


def quotient_meet(
    a: LogicalConceptPair, b: LogicalConceptPair
) -> LogicalConceptPair:
    """Canonical representative of the meet class (greatest lower bound)."""
    kind = _same_kind(a, b)
    if kind in (ConceptKind.PC, ConceptKind.FC):
        ext = And(a.extent, b.extent)
        return LogicalConceptPair(ext, _FORWARD[kind](ext), kind)
    intent = And(a.intent, b.intent)
    return LogicalConceptPair(_BACKWARD[kind](intent), intent, kind)


def quotient_join(
    a: LogicalConceptPair, b: LogicalConceptPair
) -> LogicalConceptPair:
    """Canonical representative of the join class (least upper bound)."""
    kind = _same_kind(a, b)
    if kind is ConceptKind.FC:
        intent = And(a.intent, b.intent)
        return LogicalConceptPair(_BACKWARD[kind](intent), intent, kind)
    if kind is ConceptKind.PC:
        intent = Or(a.intent, b.intent)
        return LogicalConceptPair(_BACKWARD[kind](intent), intent, kind)
    ext = Or(a.extent, b.extent)
    return LogicalConceptPair(ext, _FORWARD[kind](ext), kind)


def _same_kind(a: LogicalConceptPair, b: LogicalConceptPair) -> ConceptKind:
    if a.kind != b.kind:
        raise SortMismatchError(a.kind.name, b.kind.name, "quotient operation")
    return a.kind


# --- verification campaigns ----------------------------------------------------


@dataclass
class LawCheck:
    name: str
    passed: bool
    detail: str = ""


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


def _universe(pairs: Iterable[LogicalConceptPair]) -> set[Var]:
    out: set[Var] = set()
    for p in pairs:
        out |= variables(p.extent) | variables(p.intent)
    return out


def _equivalent_variants(pair: LogicalConceptPair) -> list[LogicalConceptPair]:
    """Distinct representatives of the same class, valid for any member pair."""
    kind = pair.kind
    ext2 = And(pair.extent, pair.extent)
    return [
        LogicalConceptPair(_BACKWARD[kind](pair.intent), pair.intent, kind),
        LogicalConceptPair(ext2, _FORWARD[kind](ext2), kind),
    ]


def verify_quotient_lattice(
    pairs: Sequence[LogicalConceptPair],
    kind: ConceptKind,
    frame: SortedFrame,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Check the quotient lattice laws on a finite family of pairs.

    Verifies membership of the inputs and of every meet/join representative,
    well-definedness of the operations on equivalent representatives,
    idempotence, commutativity, associativity, and both absorption laws, all
    up to the class's equivalence on the given frame.
    """
    report = VerificationReport(f"quotient lattice laws for {kind.name}")
    if any(p.kind != kind for p in pairs):
        report.add("input kinds", False, "pair of a different class supplied")
        return report
    ev = FrameEvaluator(frame, _universe(pairs), budget)
    for i, p in enumerate(pairs):
        if not _member(ev, p):
            report.add("membership", False, f"input pair {i} is not in {kind.name}")
            return report
    report.add("membership", True, f"{len(pairs)} pairs in class")

    def eq(x, y):
        return _equivalent(ev, x, y)

    def record(name: str, witnesses: list[str]) -> None:
        report.add(name, not witnesses, "; ".join(witnesses[:3]))

    bad: list[str] = []
    for name, op in (("meet", quotient_meet), ("join", quotient_join)):
        for i, a in enumerate(pairs):
            for j in range(i, len(pairs)):
                if not _member(ev, op(a, pairs[j])):
                    bad.append(f"{name}({i},{j}) leaves the class")
    record("operation closure", bad)

    bad = []
    for i, a in enumerate(pairs):
        if not eq(quotient_meet(a, a), a):
            bad.append(f"meet({i},{i}) not equivalent to {i}")
        if not eq(quotient_join(a, a), a):
            bad.append(f"join({i},{i}) not equivalent to {i}")
    record("idempotence", bad)

    bad = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a, b = pairs[i], pairs[j]
            if not eq(quotient_meet(a, b), quotient_meet(b, a)):
                bad.append(f"meet({i},{j}) != meet({j},{i})")
            if not eq(quotient_join(a, b), quotient_join(b, a)):
                bad.append(f"join({i},{j}) != join({j},{i})")
    record("commutativity", bad)

    bad = []
    n = len(pairs)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = pairs[i], pairs[j], pairs[k]
                if not eq(
                    quotient_meet(quotient_meet(a, b), c),
                    quotient_meet(a, quotient_meet(b, c)),
                ):
                    bad.append(f"meet not associative at ({i},{j},{k})")
                if not eq(
                    quotient_join(quotient_join(a, b), c),
                    quotient_join(a, quotient_join(b, c)),
                ):
                    bad.append(f"join not associative at ({i},{j},{k})")
    record("associativity", bad)

    bad = []
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if not eq(quotient_meet(a, quotient_join(a, b)), a):
                bad.append(f"{i} meet ({i} join {j}) != {i}")
            if not eq(quotient_join(a, quotient_meet(a, b)), a):
                bad.append(f"{i} join ({i} meet {j}) != {i}")
    record("absorption", bad)

    bad = []
    for i, a in enumerate(pairs[: min(3, len(pairs))]):
        for variant in _equivalent_variants(a):
            if not _member(ev, variant) or not eq(variant, a):
                bad.append(f"variant of {i} is not an equivalent member")
                continue
            for j, b in enumerate(pairs):
                if not eq(quotient_meet(variant, b), quotient_meet(a, b)):
                    bad.append(f"meet(variant({i}),{j}) != meet({i},{j})")
                if not eq(quotient_join(variant, b), quotient_join(a, b)):
                    bad.append(f"join(variant({i}),{j}) != join({i},{j})")
    record("well-definedness", bad)
    return report


def _map_h(pair: LogicalConceptPair) -> LogicalConceptPair:
    return LogicalConceptPair(
        translate_rho(pair.extent), Neg(translate_rho(pair.intent)), ConceptKind.PC
    )


def _map_f(pair: LogicalConceptPair) -> LogicalConceptPair:
    return LogicalConceptPair(Neg(pair.extent), Neg(pair.intent), ConceptKind.OC)


def verify_isomorphisms(
    pairs_fc: Sequence[LogicalConceptPair],
    ctx: FormalContext,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Verify the quotient-level correspondences on a generated family.

    The translation-plus-negation map sends formal pairs of the context to
    property-oriented pairs of the complement and is checked to be
    equivalence-reflecting (hence injective on classes) and a meet/join
    homomorphism; componentwise negation maps property-oriented pairs of the
    complement to object-oriented pairs of the same complement, swapping
    meets with joins; their composite therefore inverts the formal lattice
    onto the object-oriented one.  All equivalences name their frame: the
    original frame for formal pairs, the complemented frame for images.
    """
    report = VerificationReport("quotient lattice correspondences")
    if any(p.kind is not ConceptKind.FC for p in pairs_fc):
        report.add("input kinds", False, "expected formal-concept pairs")
        return report
    frame0 = context_to_frame(ctx)
    frame1 = context_to_frame(complement_context(ctx))
    universe = _universe(pairs_fc)
    ev0 = FrameEvaluator(frame0, universe, budget)
    ev1 = FrameEvaluator(frame1, universe, budget)

    for i, p in enumerate(pairs_fc):
        if not _member(ev0, p):
            report.add("membership", False, f"input pair {i} not in FC on the context")
            return report
    h_im = [_map_h(p) for p in pairs_fc]
    f_im = [_map_f(p) for p in h_im]

    report.add(
        "h into PC of complement",
        all(_member(ev1, p) for p in h_im),
    )
    report.add(
        "f into OC of complement",
        all(_member(ev1, p) for p in f_im),
    )

    ok = True
    n = len(pairs_fc)
    for i in range(n):
        for j in range(i + 1, n):
            src = _equivalent(ev0, pairs_fc[i], pairs_fc[j])
            via_h = _equivalent(ev1, h_im[i], h_im[j])
            via_f = _equivalent(ev1, f_im[i], f_im[j])
            if src != via_h or via_h != via_f:
                ok = False
    report.add("equivalence preserved and reflected (injectivity)", ok)

    ok = True
    for i in range(n):
        for j in range(n):
            a, b = pairs_fc[i], pairs_fc[j]
            if not _equivalent(
                ev1, _map_h(quotient_meet(a, b)), quotient_meet(h_im[i], h_im[j])
            ):
                ok = False
            if not _equivalent(
                ev1, _map_h(quotient_join(a, b)), quotient_join(h_im[i], h_im[j])
            ):
                ok = False
    report.add("h preserves meets and joins", ok)

    ok = True
    for i in range(n):
        for j in range(n):
            a, b = h_im[i], h_im[j]
            if not _equivalent(
                ev1, _map_f(quotient_meet(a, b)), quotient_join(f_im[i], f_im[j])
            ):
                ok = False
            if not _equivalent(
                ev1, _map_f(quotient_join(a, b)), quotient_meet(f_im[i], f_im[j])
            ):
                ok = False
    report.add("f swaps meets with joins", ok)

    ok = True
    for i in range(n):
        for j in range(n):
            a, b = pairs_fc[i], pairs_fc[j]
            if not _equivalent(
                ev1, _map_f(_map_h(quotient_meet(a, b))), quotient_join(f_im[i], f_im[j])
            ):
                ok = False
            if not _equivalent(
                ev1, _map_f(_map_h(quotient_join(a, b))), quotient_meet(f_im[i], f_im[j])
            ):
                ok = False
    report.add("composite inverts the lattice", ok)
    return report
