"""Formula-level concepts: class membership, quotient operations, isomorphisms.

A logical concept pair is a pair of formulas (extent sort, intent sort) whose
defining biconditionals are valid on a fixed context frame; its truth sets
then form a semantic concept of the matching kind in every model.  Pairs are
compared by frame-equivalence of their extent formulas, which coincides with
intent equivalence for pairs in the class; quotient meets and joins pick
canonical representatives.

The meet/join representatives combine the side that ``lattices._MEET_JOIN``
names for the masks, conjoining where it intersects and disjoining where it
unites, and derive the other side by the kind's modality.  The kind
modalities are those of ``lattices._OPERATORS``, and transforms follow the
Yao clauses of ``lattices._YAO``: the correspondence laws are one campaign
per row, read off its source and target kinds, its frame and its flips.
Equivalence checks always name their frame explicitly; nothing here assumes
a single ambient context.  A campaign lists its checks first and decides
each distinct one once, in one scan per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .context import FormalContext, OperatorKind
from .errors import InternalConsistencyError, SortMismatchError
from .lattices import (
    _MEET_JOIN,
    _OPERATORS,
    _YAO,
    ConceptKind,
    VerificationReport,
    _side_operators,
)
from .semantics import (
    DEFAULT_BUDGET,
    Check,
    FrameEvaluator,
    SortedFrame,
    complement_frame,
    context_to_frame,
    equivalence_check,
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

# the modality whose truth set is each set operator's image
_MODALITY: dict[OperatorKind, Callable[[Formula], Formula]] = {
    OperatorKind.PLUS: wbox,
    OperatorKind.MINUS: wbox_inv,
    OperatorKind.POSS: dia,
    OperatorKind.NEC_INV: box_inv,
    OperatorKind.NEC: box,
    OperatorKind.POSS_INV: dia_inv,
}
# each kind's forward (extent to intent) and backward modality
_MODALITIES = {kind: (_MODALITY[fwd], _MODALITY[bwd]) for kind, (fwd, bwd) in _OPERATORS.items()}


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


def _completed(kind: ConceptKind, side: str, f: Formula) -> LogicalConceptPair:
    """The pair whose ``side`` formula is ``f``, the other side derived from it."""
    fwd, bwd = _MODALITIES[kind]
    if side == "extent":
        return LogicalConceptPair(f, fwd(f), kind)
    return LogicalConceptPair(bwd(f), f, kind)


def _side_condition(f: Formula, kind: ConceptKind, side: str) -> tuple[Formula, Formula]:
    """The two sides of the biconditional defining one family's members."""
    first, then = _side_operators(kind, side)
    if f.sort != first.input_sort:
        raise SortMismatchError(first.input_sort, f.sort, f"{kind.name} {side}")
    return _MODALITY[then](_MODALITY[first](f)), f


def member_class(
    f: Formula, kind: ConceptKind, side: str, frame: SortedFrame, budget: int = DEFAULT_BUDGET
) -> bool:
    """Exact membership in the kind's extent or intent formula family."""
    return frame_valid(frame, Iff(*_side_condition(f, kind, side)), budget)


def _pair_conditions(pair: LogicalConceptPair) -> list[tuple[Formula, Formula]]:
    """The two linking biconditionals.  Under each valuation they imply both
    side memberships: from ``e = bwd(i)`` and ``fwd(e) = i`` follow
    ``bwd(fwd(e)) = e`` and ``fwd(bwd(i)) = i``."""
    fwd, bwd = _MODALITIES[pair.kind]
    return [(pair.extent, bwd(pair.intent)), (fwd(pair.extent), pair.intent)]


def member_pair(
    pair: LogicalConceptPair, frame: SortedFrame, budget: int = DEFAULT_BUDGET
) -> bool:
    """The two linking biconditionals, extent <-> backward(intent) and
    forward(extent) <-> intent, which imply both side memberships."""
    checks = _Campaign(frame, [pair], budget)
    verdict = checks.member(pair)
    checks.run()
    return verdict()


def generate_pair(seed: Formula, kind: ConceptKind) -> LogicalConceptPair:
    """The concept pair generated by a sort-1 seed via the class's adjunction.

    The result passes ``member_pair`` on every context frame: for any
    relation, forward after backward after forward equals forward, so the
    forward image is fixed by forward after backward.
    """
    if seed.sort != SORT1:
        raise SortMismatchError(SORT1, seed.sort, "generate_pair seed")
    forward = _MODALITIES[kind][0]
    return _completed(kind, "intent", forward(seed))


def _image(
    pair: LogicalConceptPair, clause: str, rho: dict[Formula, Formula] | None = None
) -> LogicalConceptPair:
    """A pair's image under a Yao clause: translated onto the complemented
    context when the target lies there, with ``rho`` as the translation memo,
    then negated on each flipped side."""
    _, target, complemented, (flip_extent, flip_intent) = _YAO[clause]
    ext, intent = pair.extent, pair.intent
    if complemented:
        ext, intent = translate_rho(ext, rho), translate_rho(intent, rho)
    return LogicalConceptPair(
        Neg(ext) if flip_extent else ext, Neg(intent) if flip_intent else intent, target
    )


def transform_pair(
    pair: LogicalConceptPair,
    clause: str,
    source_frame: SortedFrame | None = None,
    target_frame: SortedFrame | None = None,
    budget: int = DEFAULT_BUDGET,
) -> LogicalConceptPair:
    """Map a pair of a clause's source kind across that row of
    ``lattices._YAO`` to its target kind.

    Negation swaps the property/object orientation; the window-to-diamond
    translation moves formal pairs onto the complemented context, where the
    row's target concepts lie.  When frames are supplied, source membership
    and target membership are verified.
    """
    source = _YAO[clause][0]
    if pair.kind != source:
        raise SortMismatchError(source.name, pair.kind.name, "transform_pair")
    if source_frame is not None and not member_pair(pair, source_frame, budget):
        raise InternalConsistencyError(
            f"pair is not in {pair.kind.name} on the source frame"
        )
    image = _image(pair, clause)
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
    checks = _Campaign(frame, [a, b], budget)
    verdict = checks.equivalent(a, b)
    checks.run()
    return verdict()


def quotient_meet(a: LogicalConceptPair, b: LogicalConceptPair) -> LogicalConceptPair:
    """Canonical representative of the meet class (greatest lower bound)."""
    return _combine(a, b, 0)


def quotient_join(a: LogicalConceptPair, b: LogicalConceptPair) -> LogicalConceptPair:
    """Canonical representative of the join class (least upper bound)."""
    return _combine(a, b, 1)


def _combine(a: LogicalConceptPair, b: LogicalConceptPair, operation: int) -> LogicalConceptPair:
    """Meet (0) or join (1): the side ``_MEET_JOIN`` names, conjoined where it
    intersects and disjoined where it unites, completed to a pair."""
    if a.kind != b.kind:
        raise SortMismatchError(a.kind.name, b.kind.name, "quotient operation")
    side, intersect = _MEET_JOIN[a.kind][operation]
    connective = And if intersect else Or
    return _completed(a.kind, side, connective(getattr(a, side), getattr(b, side)))


# each quotient operation with its dual, as the campaigns name them
_OPS = (
    ("meet", quotient_meet, "join", quotient_join),
    ("join", quotient_join, "meet", quotient_meet),
)


# --- verification campaigns ----------------------------------------------------


# A pending verdict is read after its campaign has run; a law lists one witness
# label per verdict and fails with the labels of the verdicts that do not hold.
Pending = Callable[[], bool]
Law = tuple[str, list[tuple[str, Pending]]]


class _Campaign:
    """Checks on one frame: listed first, then decided by one scan.

    ``member`` and ``equivalent`` list the checks behind one verdict and
    return it; its value can be read once ``run`` has scanned the valuations
    of the pairs' variables.  A check is its own key, so each distinct one is
    listed once and every verdict reads the shared result; ``(f, f)`` holds
    without a scan, since equal formulas are one node.
    """

    def __init__(
        self, frame: SortedFrame, pairs: Iterable[LogicalConceptPair], budget: int
    ):
        universe: set[Var] = set()
        for p in pairs:
            universe |= variables(p.extent) | variables(p.intent)
        self.scanner = FrameEvaluator(frame, universe, budget)
        # whether each listed check fails; ``run`` decides what it lists
        self.failed: dict[Check, bool] = {}

    def _add(self, f: Formula, g: Formula) -> Check:
        check = equivalence_check(f, g)
        if f is not g:
            self.failed[check] = True
        return check

    def _fails(self, check: Check) -> bool:
        return check[0] is not check[1] and self.failed[check]

    def member(self, pair: LogicalConceptPair) -> Pending:
        checks = [self._add(f, g) for f, g in _pair_conditions(pair)]
        return lambda: not any(self._fails(c) for c in checks)

    def equivalent(self, a: LogicalConceptPair, b: LogicalConceptPair) -> Pending:
        by_extent = self._add(a.extent, b.extent)
        by_intent = self._add(a.intent, b.intent)

        def verdict() -> bool:
            if self._fails(by_extent) != self._fails(by_intent):
                raise InternalConsistencyError(
                    "extent and intent equivalence disagree; a pair is outside its class"
                )
            return not self._fails(by_extent)

        return verdict

    def run(self) -> None:
        found = self.scanner.scan(list(self.failed))
        self.failed = {check: c is not None for check, c in zip(self.failed, found)}


def _add_laws(report: VerificationReport, laws: Sequence[Law]) -> None:
    """One check per law, naming its first three failing witnesses."""
    for name, entries in laws:
        witnesses = [label for label, holds in entries if not holds()]
        report.add(name, not witnesses, "; ".join(witnesses[:3]))


def _equivalent_variants(pair: LogicalConceptPair) -> list[LogicalConceptPair]:
    """Distinct representatives of the same class, valid for any member pair."""
    return [
        _completed(pair.kind, "intent", pair.intent),
        _completed(pair.kind, "extent", And(pair.extent, pair.extent)),
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
    checks = _Campaign(frame, pairs, budget)
    members = [checks.member(p) for p in pairs]
    eq = checks.equivalent
    n = len(pairs)
    closure, idempotence, commutativity, associativity, absorption = [], [], [], [], []
    for name, op, _, _ in _OPS:
        for i, a in enumerate(pairs):
            for j in range(i, n):
                closure.append(
                    (f"{name}({i},{j}) leaves the class", checks.member(op(a, pairs[j])))
                )
    for i, a in enumerate(pairs):
        for name, op, _, _ in _OPS:
            idempotence.append((f"{name}({i},{i}) not equivalent to {i}", eq(op(a, a), a)))
        for j in range(i + 1, n):
            b = pairs[j]
            for name, op, _, _ in _OPS:
                commutativity.append((f"{name}({i},{j}) != {name}({j},{i})", eq(op(a, b), op(b, a))))
            for k in range(j + 1, n):
                c = pairs[k]
                for name, op, _, _ in _OPS:
                    associativity.append(
                        (f"{name} not associative at ({i},{j},{k})", eq(op(op(a, b), c), op(a, op(b, c))))
                    )
        for j, b in enumerate(pairs):
            for name, op, dual_name, dual in _OPS:
                absorption.append(
                    (f"{i} {name} ({i} {dual_name} {j}) != {i}", eq(op(a, dual(a, b)), a))
                )

    well_defined = []
    for i, a in enumerate(pairs[: min(3, n)]):
        for variant in _equivalent_variants(a):
            in_class, same = checks.member(variant), eq(variant, a)

            def variant_ok(in_class=in_class, same=same) -> bool:
                return in_class() and same()

            well_defined.append((f"variant of {i} is not an equivalent member", variant_ok))
            for j, b in enumerate(pairs):
                for name, op, _, _ in _OPS:
                    # laws on a variant that is not an equivalent member are moot
                    law = eq(op(variant, b), op(a, b))
                    well_defined.append(
                        (
                            f"{name}(variant({i}),{j}) != {name}({i},{j})",
                            lambda ok=variant_ok, law=law: not ok() or law(),
                        )
                    )

    checks.run()
    for i, member in enumerate(members):
        if not member():
            report.add("membership", False, f"input pair {i} is not in {kind.name}")
            return report
    report.add("membership", True, f"{n} pairs in class")
    _add_laws(
        report,
        [
            ("operation closure", closure),
            ("idempotence", idempotence),
            ("commutativity", commutativity),
            ("associativity", associativity),
            ("absorption", absorption),
            ("well-definedness", well_defined),
        ],
    )
    return report


def verify_isomorphisms(
    seeds: Sequence[Formula], ctx: FormalContext, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Verify each Yao clause of ``lattices._YAO`` on the families the seeds
    generate, as a correspondence of quotient lattices.

    Each clause is one campaign, read off its row: the sort-1 seeds generate
    the source family on the context, and the family and its images must lie
    in their kinds, the images on the complemented frame where the row says
    so.  The image map must preserve and reflect equivalence (so it is
    injective on classes) and preserve meets and joins, or swap them where
    the row complements extents and so reverses the order.  The other laws
    of a clause whose family or images leave their kinds are moot and are
    not read.  One translation memo serves every image.
    """
    report = VerificationReport("quotient lattice correspondences")
    rows = [
        (clause, row, [generate_pair(s, row[0]) for s in seeds]) for clause, row in _YAO.items()
    ]
    # every family has the seeds' variables
    frame = context_to_frame(ctx)
    on = [_Campaign(f, rows[0][2], budget) for f in (frame, complement_frame(frame))]
    rho: dict[Formula, Formula] = {}
    campaigns = []
    for clause, (source, target, complemented, (flip_extent, _)), pairs in rows:
        on_target = on[complemented]
        images = [_image(p, clause, rho) for p in pairs]
        where = " of complement" if complemented else ""
        members = [
            (f"pair {i} is not in {source.name}", on[0].member(p)) for i, p in enumerate(pairs)
        ]
        members += [
            (f"image of {i} is not in {target.name}{where}", on_target.member(p))
            for i, p in enumerate(images)
        ]
        kept = []
        for i, j in combinations(range(len(pairs)), 2):
            verdicts = (
                on[0].equivalent(pairs[i], pairs[j]),
                on_target.equivalent(images[i], images[j]),
            )
            kept.append(
                (f"equivalence of ({i},{j}) not kept", lambda vs=verdicts: vs[0]() == vs[1]())
            )
        homomorphism = []
        for i, a in enumerate(pairs):
            for j, b in enumerate(pairs):
                for name, op, dual_name, dual in _OPS:
                    to_name, to_op = (dual_name, dual) if flip_extent else (name, op)
                    homomorphism.append(
                        (
                            f"{clause}({name}({i},{j})) != {to_name}({clause}({i}),{clause}({j}))",
                            on_target.equivalent(
                                _image(op(a, b), clause, rho), to_op(images[i], images[j])
                            ),
                        )
                    )
        verb = "swaps meets with joins" if flip_extent else "preserves meets and joins"
        campaigns.append(
            [
                (f"{clause} maps {source.name} into {target.name}{where}", members),
                (f"{clause} preserves and reflects equivalence", kept),
                (f"{clause} {verb}", homomorphism),
            ]
        )

    for scan in on:
        scan.run()
    for membership, *laws in campaigns:
        _add_laws(report, [membership])
        if report.checks[-1].passed:
            _add_laws(report, laws)
    return report
