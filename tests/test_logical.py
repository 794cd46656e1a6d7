"""Tests for formula-level concepts, quotient operations, and isomorphisms."""

import random
import re

import pytest

from conceptlogic import FormalContext, complement_context
from conceptlogic.errors import ConceptLogicError, InternalConsistencyError, SortMismatchError
from conceptlogic.lattices import _YAO, ConceptKind, _concept_masks, build_lattice, enumerate_concepts
from conceptlogic.logical import (
    LogicalConceptPair,
    equiv_pairs,
    generate_pair,
    member_class,
    member_pair,
    quotient_join,
    quotient_meet,
    transform_pair,
    verify_isomorphisms,
    verify_quotient_lattice,
)
from conceptlogic.semantics import (
    FrameEvaluator,
    Model,
    Valuation,
    _truth_sets,
    context_to_frame,
    truth_set,
)
from conceptlogic.syntax import (
    SORT1,
    And,
    Bot,
    Formula,
    Neg,
    Or,
    Top,
    box,
    box_inv,
    dia,
    dia_inv,
    var1,
    var2,
    variables,
    wbox,
    wbox_inv,
)

import oracles
from oracles import k0

P, Q = var1("p"), var1("q")
SEEDS = [P, Q, And(P, Q), Top(SORT1), Bot(SORT1)]


# each kind's forward (extent to intent) and backward modality
KIND_MODALITIES = {
    ConceptKind.FC: (wbox, wbox_inv),
    ConceptKind.PC: (dia, box_inv),
    ConceptKind.OC: (box, dia_inv),
}


def seed_family(kind):
    return [generate_pair(s, kind) for s in SEEDS]


class TestMemberClass:
    def test_pc_ext_closure_formula(self):
        frame = context_to_frame(k0())
        assert member_class(box_inv(dia(P)), ConceptKind.PC, "extent", frame)

    def test_bare_variable_not_pc_ext(self):
        frame = context_to_frame(k0())
        assert not member_class(P, ConceptKind.PC, "extent", frame)

    def test_bot_in_fc_ext_is_frame_dependent(self):
        # the empty-set closure is the set of objects carrying every
        # attribute: nonempty on this fixture (g2 has both), so bot is out
        frame = context_to_frame(k0())
        assert not member_class(Bot(SORT1), ConceptKind.FC, "extent", frame)
        # but when no object carries every attribute, bot is in the family
        ctx = FormalContext.from_pairs(
            ("g1", "g2"), ("m1", "m2"), [("g1", "m1")]
        )
        assert member_class(Bot(SORT1), ConceptKind.FC, "extent", context_to_frame(ctx))

    def test_bot_in_pc_ext_on_k0(self):
        frame = context_to_frame(k0())
        assert member_class(Bot(SORT1), ConceptKind.PC, "extent", frame)

    def test_sort_checked(self):
        frame = context_to_frame(k0())
        with pytest.raises(SortMismatchError):
            member_class(dia(P), ConceptKind.PC, "extent", frame)

    def test_unknown_side(self):
        frame = context_to_frame(k0())
        with pytest.raises(ConceptLogicError, match=r"^side must be 'extent' or 'intent', got 'ext'$"):
            member_class(P, ConceptKind.PC, "ext", frame)


class TestMemberPair:
    def test_generated_pc_pair_on_any_frame(self):
        rng = random.Random(61)
        pair = generate_pair(P, ConceptKind.PC)
        for _ in range(15):
            frame = context_to_frame(oracles.random_context(rng, 4, 4))
            assert member_pair(pair, frame)

    def test_generated_fc_pair(self):
        frame = context_to_frame(k0())
        pair = generate_pair(P, ConceptKind.FC)
        assert pair == LogicalConceptPair(wbox_inv(wbox(P)), wbox(P), ConceptKind.FC)
        assert member_pair(pair, frame)

    def test_mismatched_pair_rejected(self):
        frame = context_to_frame(k0())
        assert not member_pair(
            LogicalConceptPair(P, dia(P), ConceptKind.PC), frame
        )

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_agrees_with_the_four_condition_definition(self, kind):
        # member_pair checks the two linking biconditionals; the definition
        # also asks both sides to be closed (or open) under the kind's
        # modalities, which the linking ones imply
        fwd, bwd = KIND_MODALITIES[kind]
        x = var2("x")
        rng = random.Random(83)
        verdicts = set()
        for _ in range(6):
            frame = context_to_frame(oracles.random_context(rng, 3, 3))
            pairs = [
                generate_pair(P, kind),
                generate_pair(And(P, Q), kind),
                LogicalConceptPair(P, fwd(P), kind),  # extent side may fail
                LogicalConceptPair(bwd(x), x, kind),  # intent side may fail
                LogicalConceptPair(bwd(fwd(P)), fwd(Q), kind),  # sides unlinked
            ]
            for pair in pairs:
                e, i = pair.extent, pair.intent
                want = all(
                    oracles.equivalent(frame, f, g)
                    for f, g in [(e, bwd(fwd(e))), (i, fwd(bwd(i))), (e, bwd(i)), (fwd(e), i)]
                )
                assert member_pair(pair, frame) == want, pair
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_top_seed_denotes_full_concept(self):
        frame = context_to_frame(k0())
        pair = generate_pair(Top(SORT1), ConceptKind.PC)
        model = Model(frame, Valuation({}))
        assert truth_set(model, pair.extent).bits == 0b11
        assert truth_set(model, pair.intent).bits == 0b11


class TestGeneratePair:
    def test_shapes(self):
        assert generate_pair(P, ConceptKind.FC) == LogicalConceptPair(
            wbox_inv(wbox(P)), wbox(P), ConceptKind.FC
        )
        assert generate_pair(And(P, Q), ConceptKind.OC) == LogicalConceptPair(
            dia_inv(box(And(P, Q))), box(And(P, Q)), ConceptKind.OC
        )

    def test_seed_sort_checked(self):
        with pytest.raises(SortMismatchError):
            generate_pair(dia(P), ConceptKind.PC)


class TestBridgeToSemanticConcepts:
    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_pair_truth_sets_are_concepts(self, kind):
        rng = random.Random(71)
        for _ in range(12):
            ctx = oracles.random_context(rng, 4, 4)
            frame = context_to_frame(ctx)
            concepts = {
                (c.extent.bits, c.intent.bits) for c in enumerate_concepts(ctx, kind)
            }
            seed = rng.choice(SEEDS)
            pair = generate_pair(seed, kind)
            val = Valuation(
                {
                    v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5}
                    for v in variables(seed)
                }
            )
            model = Model(frame, val)
            ext = truth_set(model, pair.extent).bits
            intent = truth_set(model, pair.intent).bits
            assert (ext, intent) in concepts

    def test_every_concept_is_captured(self):
        # the converse: each concept (E, I) is the truth-set pair of the
        # generated pair under p := E, checked as masks in one batch per
        # context and kind, also on contexts of 11 to 14 objects, whose
        # quotient lattice suite exceeds the valuation budget
        rng = random.Random(72)
        for n_g, n_m in [(g, m) for g in (3, 5, 8, 11, 12, 14) for m in (3, 4, 6)]:
            rows = [rng.getrandbits(n_m) for _ in range(n_g)]
            ctx = FormalContext([f"g{i}" for i in range(n_g)], [f"m{j}" for j in range(n_m)], rows)
            frame = context_to_frame(ctx)
            for kind in ConceptKind:
                pair, concepts = generate_pair(P, kind), _concept_masks(ctx, kind)
                items = [(f, {P: e}) for e, _ in concepts for f in (pair.extent, pair.intent)]
                got = _truth_sets(frame, items)
                assert list(zip(got[::2], got[1::2])) == concepts, (n_g, n_m, kind)


def random_seed_model(rng, frame):
    """A model of the frame with random truth sets for the seeds' variables."""
    worlds = frame.carrier(SORT1)
    return Model(frame, Valuation({v: {w for w in worlds if rng.random() < 0.5} for v in (P, Q)}))


class TestFormulaAndMaskLevelsAgree:
    """Pairs and their operations denote the mask-level concepts, meets, joins
    and complement correspondences."""

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_quotient_operations_denote_lattice_meets_and_joins(self, kind):
        rng = random.Random(107)
        family = seed_family(kind)
        for _ in range(12):
            ctx = oracles.random_context(rng, 4, 4)
            lattice = build_lattice(enumerate_concepts(ctx, kind), kind, ctx)
            index = {(c.extent, c.intent): i for i, c in enumerate(lattice.concepts)}
            model = random_seed_model(rng, context_to_frame(ctx))

            def concept(pair):
                return index[truth_set(model, pair.extent), truth_set(model, pair.intent)]

            for a in family:
                for b in family:
                    i, j = concept(a), concept(b)
                    assert concept(quotient_meet(a, b)) == lattice.meet(i, j), (ctx, a, b)
                    assert concept(quotient_join(a, b)) == lattice.join(i, j), (ctx, a, b)

    # each clause's source kind, target context and complemented (extent, intent)
    CLAUSES = {
        "a": (ConceptKind.FC, complement_context, (False, True)),
        "b": (ConceptKind.PC, lambda ctx: ctx, (True, True)),
        "c": (ConceptKind.FC, complement_context, (True, False)),
    }

    @pytest.mark.parametrize("clause", "abc")
    def test_images_complement_the_clause_sides(self, clause):
        source_kind, target_context, flips = self.CLAUSES[clause]
        rng = random.Random(109)
        for _ in range(12):
            ctx = oracles.random_context(rng, 4, 4)
            model = random_seed_model(rng, context_to_frame(ctx))
            target = Model(context_to_frame(target_context(ctx)), model.valuation)
            for seed in SEEDS:
                pair = generate_pair(seed, source_kind)
                image = transform_pair(pair, clause)
                for f, g, flip in zip((pair.extent, pair.intent), (image.extent, image.intent), flips):
                    source_set = truth_set(model, f)
                    want = source_set.complement() if flip else source_set
                    assert truth_set(target, g) == want, (ctx, seed)


class TestRefusals:
    @pytest.mark.parametrize("extent, intent, message", [
        (var2("x"), var2("y"), "expected sort 's1', got 's2' in pair extent"),
        (P, Q, "expected sort 's2', got 's1' in pair intent"),
    ], ids=["extent", "intent"])
    def test_pair_sides_have_their_sorts(self, extent, intent, message):
        with pytest.raises(SortMismatchError, match=f"^{re.escape(message)}$"):
            LogicalConceptPair(extent, intent, ConceptKind.FC)

    def test_transform_checks_the_source_pair(self):
        pair = LogicalConceptPair(P, wbox(P), ConceptKind.FC)
        frame = context_to_frame(k0())
        with pytest.raises(InternalConsistencyError, match="^pair is not in FC on the source frame$"):
            transform_pair(pair, "a", source_frame=frame)

    def test_equivalence_across_kinds(self):
        a, b = generate_pair(P, ConceptKind.PC), generate_pair(P, ConceptKind.OC)
        with pytest.raises(SortMismatchError, match="^expected sort 'PC', got 'OC' in equiv_pairs$"):
            equiv_pairs(a, b, context_to_frame(k0()))

    def test_quotient_lattice_of_another_kind_fails_its_input_check(self):
        pairs = [generate_pair(P, ConceptKind.PC)]
        report = verify_quotient_lattice(pairs, ConceptKind.FC, context_to_frame(k0()))
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("input kinds", False, "pair of a different class supplied")
        ]


class TestTransform:
    def test_pc_to_oc_shape(self):
        pair = generate_pair(P, ConceptKind.PC)
        image = transform_pair(pair, "b")
        assert image == LogicalConceptPair(
            Neg(box_inv(dia(P))), Neg(dia(P)), ConceptKind.OC
        )

    def test_fc_to_pc_shape(self):
        pair = generate_pair(P, ConceptKind.FC)
        image = transform_pair(pair, "a")
        assert image == LogicalConceptPair(
            box_inv(Neg(box(Neg(P)))), Neg(box(Neg(P))), ConceptKind.PC
        )

    def test_fc_to_oc_shape(self):
        pair = generate_pair(P, ConceptKind.FC)
        image = transform_pair(pair, "c")
        assert image.kind is ConceptKind.OC
        assert image.extent == Neg(box_inv(Neg(box(Neg(P)))))

    @pytest.mark.parametrize("clause", "abc")
    def test_images_verified_on_frames(self, clause):
        rng = random.Random(81)
        source_kind = ConceptKind.PC if clause == "b" else ConceptKind.FC
        for _ in range(10):
            ctx = oracles.random_context(rng, 4, 4)
            frame = context_to_frame(ctx)
            cframe = context_to_frame(complement_context(ctx))
            seed = rng.choice(SEEDS)
            pair = generate_pair(seed, source_kind)
            target = cframe if _YAO[clause][2] else frame
            image = transform_pair(
                pair, clause, source_frame=frame, target_frame=target
            )
            assert member_pair(image, target)

    def test_wrong_source_kind(self):
        pair = generate_pair(P, ConceptKind.OC)
        with pytest.raises(SortMismatchError):
            transform_pair(pair, "b")

    def test_negation_round_trip_is_equivalence_preserving(self):
        # negating twice lands back in the original class of the original
        # context and is equivalent to the starting pair there
        rng = random.Random(83)
        for _ in range(8):
            ctx = oracles.random_context(rng, 4, 4)
            frame = context_to_frame(ctx)
            pair = generate_pair(rng.choice(SEEDS), ConceptKind.PC)
            image = transform_pair(pair, "b")
            back = LogicalConceptPair(
                Neg(image.extent), Neg(image.intent), ConceptKind.PC
            )
            assert member_pair(back, frame)
            assert equiv_pairs(pair, back, frame)

    def test_membership_transfers_in_both_directions(self):
        # the mapping is an iff: a non-member source yields a non-member image
        frame = context_to_frame(k0())
        cframe = context_to_frame(complement_context(k0()))
        bad = LogicalConceptPair(P, wbox(P), ConceptKind.FC)
        assert not member_pair(bad, frame)
        image = transform_pair(bad, "a")
        assert not member_pair(image, cframe)


class TestEquivalence:
    def test_reflexive(self):
        frame = context_to_frame(k0())
        a = generate_pair(P, ConceptKind.PC)
        assert equiv_pairs(a, a, frame)

    def test_idempotent_conjunction(self):
        frame = context_to_frame(k0())
        a = generate_pair(P, ConceptKind.PC)
        b = generate_pair(And(P, P), ConceptKind.PC)
        assert equiv_pairs(a, b, frame)

    def test_top_bottom_differ_on_k0(self):
        frame = context_to_frame(k0())
        top_pair = generate_pair(Top(SORT1), ConceptKind.PC)
        bot_pair = generate_pair(Bot(SORT1), ConceptKind.PC)
        assert not equiv_pairs(top_pair, bot_pair, frame)

    def test_symmetric_transitive_on_family(self):
        frame = context_to_frame(k0())
        family = seed_family(ConceptKind.FC)
        n = len(family)
        rel = [[equiv_pairs(family[i], family[j], frame) for j in range(n)] for i in range(n)]
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                assert rel[i][j] == rel[j][i]
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]

    def test_inconsistent_pair_raises(self):
        frame = context_to_frame(k0())
        good = generate_pair(P, ConceptKind.PC)
        # same extent, corrupted intent: extent-equivalent but not intent-equivalent
        bad = LogicalConceptPair(good.extent, Neg(good.intent), ConceptKind.PC)
        with pytest.raises(InternalConsistencyError):
            equiv_pairs(good, bad, frame)


class TestQuotientOps:
    def test_fc_meet_shape(self):
        a = generate_pair(P, ConceptKind.FC)
        b = generate_pair(Q, ConceptKind.FC)
        m = quotient_meet(a, b)
        want_ext = And(wbox_inv(wbox(P)), wbox_inv(wbox(Q)))
        assert m == LogicalConceptPair(want_ext, wbox(want_ext), ConceptKind.FC)

    def test_meet_idempotent_up_to_equiv(self):
        frame = context_to_frame(k0())
        for kind in ConceptKind:
            a = generate_pair(P, kind)
            assert equiv_pairs(quotient_meet(a, a), a, frame)
            assert equiv_pairs(quotient_join(a, a), a, frame)

    def test_pc_join_of_top_and_bottom_is_top(self):
        frame = context_to_frame(k0())
        top_pair = generate_pair(Top(SORT1), ConceptKind.PC)
        bot_pair = generate_pair(Bot(SORT1), ConceptKind.PC)
        joined = quotient_join(top_pair, bot_pair)
        assert member_pair(joined, frame)
        assert equiv_pairs(joined, top_pair, frame)

    def test_kind_mismatch(self):
        with pytest.raises(SortMismatchError):
            quotient_meet(
                generate_pair(P, ConceptKind.PC), generate_pair(P, ConceptKind.OC)
            )

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_ops_stay_in_class_randomized(self, kind):
        rng = random.Random(91)
        family = seed_family(kind)
        for _ in range(8):
            frame = context_to_frame(oracles.random_context(rng, 4, 4))
            for a in family:
                for b in family:
                    assert member_pair(quotient_meet(a, b), frame)
                    assert member_pair(quotient_join(a, b), frame)


class TestSideClosureProperties:
    def test_conjunction_closure_on_closure_sides(self):
        # PC and FC extents are conjunction-closed; so are OC intents
        rng = random.Random(95)
        for _ in range(10):
            frame = context_to_frame(oracles.random_context(rng, 4, 4))
            for kind in (ConceptKind.PC, ConceptKind.FC):
                a = generate_pair(P, kind).extent
                b = generate_pair(Q, kind).extent
                assert member_class(And(a, b), kind, "extent", frame)
            oa = generate_pair(P, ConceptKind.OC).intent
            ob = generate_pair(Q, ConceptKind.OC).intent
            assert member_class(And(oa, ob), ConceptKind.OC, "intent", frame)

    def test_oc_extents_closed_under_disjunction_not_conjunction(self):
        # kernel side: unions of object-oriented extents stay in the family,
        # intersections need not
        ctx = FormalContext.from_pairs(
            ("g1", "g2", "g3"),
            ("m1", "m2"),
            [("g1", "m1"), ("g2", "m1"), ("g2", "m2"), ("g3", "m2")],
        )
        frame = context_to_frame(ctx)
        a = generate_pair(P, ConceptKind.OC).extent
        b = generate_pair(Q, ConceptKind.OC).extent
        assert member_class(Or(a, b), ConceptKind.OC, "extent", frame)
        assert not member_class(And(a, b), ConceptKind.OC, "extent", frame)

    def test_pc_intents_closed_under_disjunction_not_conjunction(self):
        ctx = FormalContext.from_pairs(
            ("g1", "g2"),
            ("m1", "m2", "m3"),
            [("g1", "m1"), ("g1", "m2"), ("g2", "m2"), ("g2", "m3")],
        )
        frame = context_to_frame(ctx)
        a = generate_pair(P, ConceptKind.PC).intent
        b = generate_pair(Q, ConceptKind.PC).intent
        assert member_class(Or(a, b), ConceptKind.PC, "intent", frame)
        assert not member_class(And(a, b), ConceptKind.PC, "intent", frame)

    def test_modal_transfer(self):
        rng = random.Random(97)
        forwards = {ConceptKind.PC: dia, ConceptKind.OC: box, ConceptKind.FC: wbox}
        for _ in range(8):
            frame = context_to_frame(oracles.random_context(rng, 4, 4))
            for kind, fwd in forwards.items():
                ext = generate_pair(And(P, Q), kind).extent
                assert member_class(fwd(ext), kind, "intent", frame)


class TestVerifyQuotientLattice:
    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_seed_family_on_k0(self, kind):
        frame = context_to_frame(k0())
        report = verify_quotient_lattice(seed_family(kind), kind, frame)
        assert report.passed, report.failures()

    def test_singleton_family(self):
        frame = context_to_frame(k0())
        report = verify_quotient_lattice(
            [generate_pair(P, ConceptKind.FC)], ConceptKind.FC, frame
        )
        assert report.passed

    def test_corrupted_pair_detected(self):
        frame = context_to_frame(k0())
        family = seed_family(ConceptKind.PC)
        family.append(LogicalConceptPair(P, dia(P), ConceptKind.PC))
        report = verify_quotient_lattice(family, ConceptKind.PC, frame)
        assert not report.passed
        assert any("membership" in c.name for c in report.failures())

    def test_randomized_contexts(self):
        rng = random.Random(101)
        for _ in range(6):
            ctx = oracles.random_context(rng, 4, 4)
            frame = context_to_frame(ctx)
            for kind in ConceptKind:
                report = verify_quotient_lattice(seed_family(kind), kind, frame)
                assert report.passed, (ctx, kind, report.failures())


class TestVerifyIsomorphisms:
    def test_k0(self):
        report = verify_isomorphisms(SEEDS, k0())
        assert report.passed, report.failures()

    def test_identity_seeds_trivial(self):
        report = verify_isomorphisms([P, P], k0())
        assert report.passed

    def test_randomized_contexts(self):
        rng = random.Random(103)
        for _ in range(5):
            ctx = oracles.random_context(rng, 4, 4)
            report = verify_isomorphisms(SEEDS, ctx)
            assert report.passed, (ctx, report.failures())

    def test_rejects_wrong_kind(self):
        # the seeds generate the families, so a seed must be of sort 1
        with pytest.raises(SortMismatchError):
            verify_isomorphisms([var2("x")], k0())


def test_a_campaign_lists_each_distinct_check_once_as_a_formula_pair(monkeypatch):
    """The lattice campaigns of each kind and the correspondence campaigns on
    k0 (one block each) hand the scanner formula pairs of one sort, each
    once, and never a pair that holds by identity."""
    calls = []
    signature = FrameEvaluator.signature

    def recorded(self, base, checks):
        calls.append(list(checks))
        return signature(self, base, checks)

    monkeypatch.setattr(FrameEvaluator, "signature", recorded)
    frame = context_to_frame(k0())
    for kind in ConceptKind:
        assert verify_quotient_lattice(seed_family(kind), kind, frame).passed
    assert verify_isomorphisms(SEEDS, k0()).passed
    # three lattice campaigns, then one per frame for the correspondences
    assert len(calls) == 5
    for checks in calls:
        assert len(set(checks)) == len(checks)
        for check in checks:
            assert type(check) is tuple and len(check) == 2
            f, g = check
            assert isinstance(f, Formula) and isinstance(g, Formula)
            assert f.sort == g.sort and f is not g
