"""Tests for frames, models, truth sets, validity, and local consequence."""

import random
import re

import pytest

from conceptlogic import FormalContext, OperatorKind, apply_operator, complement_context
from conceptlogic.errors import (
    BudgetExceededError,
    FrameError,
    ProofScriptError,
    SortMismatchError,
    ValuationError,
)
from conceptlogic.parser import parse_formula
from conceptlogic.proofs import parse_proof_script, soundness_probe
from conceptlogic.semantics import (
    Countermodel,
    FrameEvaluator,
    Model,
    SortedFrame,
    Valuation,
    complement_frame,
    consequence_countermodel,
    context_to_frame,
    equivalence_check,
    falsify,
    frame_to_context,
    frame_valid,
    local_consequence,
    satisfies,
    truth_set,
    validity_check,
)
from conceptlogic.syntax import (
    KF,
    SORT1,
    SORT2,
    And,
    Imp,
    Neg,
    Top,
    Var,
    box,
    box_inv,
    dia,
    dia_inv,
    translate_rho,
    var1,
    var2,
    wbox,
    wbox_inv,
)

import oracles
from oracles import k0
from test_syntax import random_formula

P = var1("p")
Q = var2("q")


def model_k0(p_worlds=("g1",), q_worlds=()):
    frame = context_to_frame(k0())
    val = Valuation({P: p_worlds, Q: q_worlds})
    return frame, Model(frame, val)


def names(model, f):
    ts = truth_set(model, f)
    return set(ts.members(model.frame.carrier(f.sort)))


class TestContextFrameCorrespondence:
    def test_k0_relations(self):
        frame = context_to_frame(k0())
        assert frame.relations[SORT2] == frozenset(
            {("m1", "g1"), ("m1", "g2"), ("m2", "g2")}
        )
        assert frame.relations[SORT1] == frozenset(
            {("g1", "m1"), ("g2", "m1"), ("g2", "m2")}
        )
        assert frame.bidirectional

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            ctx = oracles.random_context(rng)
            assert frame_to_context(context_to_frame(ctx)) == ctx

    def test_one_by_one_empty(self):
        ctx = FormalContext(("g1",), ("m1",), (0,))
        frame = context_to_frame(ctx)
        assert frame.relations[SORT2] == frozenset()
        assert frame.carrier(SORT1) == ("g1",)
        assert frame.carrier(SORT2) == ("m1",)

    def test_non_converse_frame_is_not_bidirectional(self):
        # constructible, but read off its relations as not bidirectional,
        # so the context and soundness readings refuse it
        frame = SortedFrame(
            {SORT1: ("a",), SORT2: ("b",)},
            {SORT1: [], SORT2: [("b", "a")]},
        )
        assert not frame.bidirectional
        with pytest.raises(FrameError, match="only bidirectional frames"):
            frame_to_context(frame)
        script = parse_proof_script("system: KB2\nvar p : 1\n1 | p -> p | pl\n")
        with pytest.raises(ProofScriptError, match="requires bidirectional frames"):
            soundness_probe(script.system(), script.lines, script.premises, [frame])
        # converse relations make it bidirectional, with no flag to set
        converse = SortedFrame(
            {SORT1: ("a",), SORT2: ("b",)},
            {SORT1: [("a", "b")], SORT2: [("b", "a")]},
        )
        assert converse.bidirectional
        assert soundness_probe(script.system(), script.lines, script.premises, [converse])

    def test_empty_carrier_rejected(self):
        with pytest.raises(FrameError):
            SortedFrame({SORT1: (), SORT2: ("b",)}, {})

    def test_duplicate_world_rejected(self):
        with pytest.raises(FrameError, match="^carrier for sort 's1' has duplicate worlds$"):
            SortedFrame({SORT1: ("a", "a"), SORT2: ("b",)}, {})

    @pytest.mark.parametrize("refused, message", [
        (
            lambda: context_to_frame(k0()).carrier("s3"),
            "expected sort 's1|s2', got 's3' in frame carrier",
        ),
        (
            lambda: equivalence_check(var1("p"), var2("x")),
            "expected sort 's1', got 's2' in equivalence check",
        ),
    ], ids=["carrier", "equivalence"])
    def test_sort_refusal_names_both_sorts(self, refused, message):
        with pytest.raises(SortMismatchError, match=f"^{re.escape(message)}$"):
            refused()

    def test_third_sort_carrier_rejected(self):
        with pytest.raises(FrameError, match="unknown sort 's3'"):
            SortedFrame({SORT1: ("a",), SORT2: ("b",), "s3": ("c",)}, {})

    def test_relation_from_unknown_sort_rejected(self):
        with pytest.raises(FrameError, match="unknown sort 's3'"):
            SortedFrame({SORT1: ("a",), SORT2: ("b",)}, {"s3": [("a", "b")]})
        with pytest.raises(FrameError, match="unknown sort 'dia'"):
            SortedFrame({SORT1: ("a",), SORT2: ("b",)}, {"dia": [("b", "a")]})

    def test_relation_to_unknown_world_rejected(self):
        carriers = {SORT1: ("a",), SORT2: ("b",)}
        with pytest.raises(FrameError, match="unknown world 'c' in the relation from 's1'"):
            SortedFrame(carriers, {SORT1: [("a", "c")]})
        with pytest.raises(FrameError, match="unknown world 'c' in the relation from 's2'"):
            SortedFrame(carriers, {SORT2: [("c", "a")]})
        # a world of the wrong sort is unknown on that side
        with pytest.raises(FrameError, match="unknown world 'a' in the relation from 's2'"):
            SortedFrame(carriers, {SORT2: [("a", "b")]})


class TestTruthSets:
    def test_dia_p(self):
        _, model = model_k0()
        assert names(model, dia(P)) == {"m1"}

    def test_window_p(self):
        _, model = model_k0()
        assert names(model, wbox(P)) == {"m1"}

    def test_box_p(self):
        _, model = model_k0()
        assert names(model, box(P)) == set()

    def test_neg_p(self):
        _, model = model_k0()
        assert names(model, Neg(P)) == {"g2"}

    def test_unassigned_variable(self):
        frame = context_to_frame(k0())
        model = Model(frame, Valuation({}))
        with pytest.raises(ValuationError) as exc:
            truth_set(model, P)
        assert "p" in str(exc.value)

    def test_unknown_world_names_the_least(self):
        frame = context_to_frame(k0())
        model = Model(frame, Valuation({P: {"g1", "zz", "ab"}}))
        with pytest.raises(ValuationError, match=r"^valuation of 'p' mentions unknown world 'ab'$"):
            truth_set(model, P)

    def test_first_bad_variable_in_sort_then_name_order(self):
        # 'a' sorts before 'p' by name, but p's sort comes first
        a2, q1 = var2("a"), var1("q")
        f = And(q1, And(wbox_inv(a2), P))
        frame = context_to_frame(k0())
        model = Model(frame, Valuation({P: {"nowhere"}}))
        with pytest.raises(ValuationError, match=r"^valuation of 'p' mentions unknown world"):
            truth_set(model, f)
        model = Model(frame, Valuation({P: {"g1"}}))
        with pytest.raises(ValuationError, match=r"^variable 'q' of sort s1 is unassigned$"):
            truth_set(model, f)

    def test_satisfies(self):
        _, model = model_k0()
        assert satisfies(model, "m1", dia(P))
        assert not satisfies(model, "m2", dia(P))
        assert satisfies(model, "g1", Top(SORT1))
        assert not satisfies(model, "g2", And(P, Neg(P)))
        # g1 is not an s2 world
        with pytest.raises(SortMismatchError, match=r"^expected sort 's2', got 's1' in world 'g1'$"):
            satisfies(model, "g1", dia(P))
        with pytest.raises(FrameError, match=r"^unknown world 'nowhere'$"):
            satisfies(model, "nowhere", P)


class TestOperatorIdentities:
    """Truth sets of modal formulas equal the set operators on truth sets."""

    CASES = [
        (dia, OperatorKind.POSS, SORT1),
        (box, OperatorKind.NEC, SORT1),
        (wbox, OperatorKind.PLUS, SORT1),
        (dia_inv, OperatorKind.POSS_INV, SORT2),
        (box_inv, OperatorKind.NEC_INV, SORT2),
        (wbox_inv, OperatorKind.MINUS, SORT2),
    ]

    @pytest.mark.parametrize("wrap,kind,sort", CASES)
    def test_identity_randomized(self, wrap, kind, sort):
        rng = random.Random(hash(kind.value) & 0xFFFF)
        for _ in range(30):
            ctx = oracles.random_context(rng, 5, 5)
            frame = context_to_frame(ctx)
            f = random_formula(rng, sort, 3)
            from conceptlogic.syntax import variables

            val = Valuation(
                {
                    v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5}
                    for v in variables(f)
                }
            )
            model = Model(frame, val)
            inner = truth_set(model, f)
            assert truth_set(model, wrap(f)) == apply_operator(kind, inner, ctx)


class TestDualClause:
    def test_unary_dual(self):
        rng = random.Random(21)
        for _ in range(25):
            ctx = oracles.random_context(rng, 4, 4)
            frame = context_to_frame(ctx)
            f = random_formula(rng, SORT1, 3)
            from conceptlogic.syntax import variables

            val = Valuation(
                {
                    v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5}
                    for v in variables(f)
                }
            )
            model = Model(frame, val)
            assert truth_set(model, dia(f)) == truth_set(
                model, Neg(box(Neg(f)))
            )


class TestFrameValidity:
    def test_axiom_b_instance_on_k0(self):
        frame = context_to_frame(k0())
        assert frame_valid(frame, parse_formula("p -> box- dia p", SORT1))
        assert frame_valid(frame, parse_formula("q -> box dia- q", SORT2))

    def test_bare_variable_invalid(self):
        frame = context_to_frame(k0())
        cm = falsify(frame, P)
        assert isinstance(cm, Countermodel)
        assert cm.assignments[0][1] == ()  # first countermodel is v(p) empty

    def test_closure_idempotence_formula(self):
        frame = context_to_frame(k0())
        f = parse_formula("box- dia (box- dia p) <-> box- dia p", SORT1)
        assert frame_valid(frame, f)

    def test_axiom_b_fails_on_non_converse_frame(self):
        frame = SortedFrame(
            {SORT1: ("a",), SORT2: ("b",)},
            {SORT1: [], SORT2: [("b", "a")]},
        )
        assert not frame.bidirectional
        assert not frame_valid(frame, parse_formula("q -> box dia- q", SORT2))

    def test_budget_refusal_counts_assignments(self):
        ctx = oracles.random_context(random.Random(5), 6, 6)
        frame = context_to_frame(ctx)
        f = parse_formula("p1:1 & p2:1 & p3:1 & p4:1", None)
        count = (1 << frame.carrier_size(SORT1)) ** 4
        with pytest.raises(BudgetExceededError) as exc:
            frame_valid(frame, f, budget=count - 1)
        assert exc.value.required == count

    def test_unused_variables_ignored(self):
        frame = context_to_frame(k0())
        # only p occurs: 4 valuations, well under any budget
        assert frame_valid(frame, Imp(P, P), budget=4)


class TestLocalConsequence:
    def test_reflexive(self):
        frame = context_to_frame(k0())
        assert local_consequence(frame, [P], P)

    def test_empty_premises_top(self):
        frame = context_to_frame(k0())
        assert local_consequence(frame, [], Top(SORT1))

    def test_serial_frame_gives_box_to_dia(self):
        frame = context_to_frame(k0())
        assert local_consequence(
            frame, [parse_formula("box- q", SORT1)], parse_formula("dia- q", SORT1)
        )

    def test_mixed_sorts_rejected(self):
        frame = context_to_frame(k0())
        with pytest.raises(SortMismatchError):
            local_consequence(frame, [P], Q)

    def test_countermodel_reported(self):
        # on a frame with an isolated object, box- q does not force dia- q
        ctx = FormalContext(("g1",), ("m1",), (0,))
        frame = context_to_frame(ctx)
        cm = consequence_countermodel(
            frame, [parse_formula("box- q", SORT1)], parse_formula("dia- q", SORT1)
        )
        assert cm is not None and cm.world == "g1"


class TestTranslationTheorem:
    def test_pointwise_equivalence_randomized(self):
        rng = random.Random(31)
        from conceptlogic.syntax import variables

        for _ in range(60):
            ctx = oracles.random_context(rng, 4, 4)
            frame = context_to_frame(ctx)
            cframe = complement_frame(frame)
            sort = rng.choice([SORT1, SORT2])
            f = random_formula(rng, sort, 4, sig=KF)
            val = Valuation(
                {
                    v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5}
                    for v in variables(f)
                }
            )
            rho_f = translate_rho(f)
            m, mc = Model(frame, val), Model(cframe, val)
            for w in frame.carrier(sort):
                assert satisfies(m, w, f) == satisfies(mc, w, rho_f)

    def test_complement_frame_stays_bidirectional(self):
        frame = context_to_frame(k0())
        assert complement_frame(frame).bidirectional

    def test_complement_frame_is_the_complement_context(self):
        rng = random.Random(41)
        for _ in range(30):
            ctx = oracles.random_context(rng)
            frame = context_to_frame(ctx)
            cframe = complement_frame(frame)
            assert frame.bidirectional and cframe.bidirectional
            assert frame_to_context(cframe) == complement_context(ctx)

    def test_validity_transfers_to_complement(self):
        # a formula is frame-valid iff its translation is valid on the
        # complemented frame, for every sampled formula and frame
        rng = random.Random(37)
        agreements = {True: 0, False: 0}
        for _ in range(80):
            ctx = oracles.random_context(rng, 3, 3)
            frame = context_to_frame(ctx)
            cframe = complement_frame(frame)
            sort = rng.choice([SORT1, SORT2])
            f = random_formula(rng, sort, 3, sig=KF, n_vars=2)
            lhs = frame_valid(frame, f)
            rhs = frame_valid(cframe, translate_rho(f))
            assert lhs == rhs
            agreements[lhs] += 1
        # the check is not vacuous: both verdicts occur across the sample
        assert agreements[True] and agreements[False]


class TestFrameEvaluator:
    def test_agrees_with_frame_valid(self):
        rng = random.Random(11)
        universe = [var1("p"), var1("q"), var2("x")]
        for _ in range(10):
            ctx = oracles.random_context(rng, 3, 3)
            frame = context_to_frame(ctx)
            ev = FrameEvaluator(frame, universe)
            for _ in range(25):
                sort = rng.choice([SORT1, SORT2])
                f = random_formula(rng, sort, 3, n_vars=2)
                # remap s2 variables into the universe
                from conceptlogic.syntax import Var, substitute, variables

                sub = {}
                for v in variables(f):
                    if v.sort == SORT2:
                        sub[v] = Var("x", SORT2)
                f = substitute(f, sub) if sub else f
                assert (ev.scan([validity_check(f)])[0] is None) == frame_valid(frame, f)

    def test_equivalence(self):
        frame = context_to_frame(k0())
        ev = FrameEvaluator(frame, [P])
        f = parse_formula("box- dia (box- dia p)", SORT1)
        g = parse_formula("box- dia p", SORT1)
        assert ev.scan([equivalence_check(f, g)])[0] is None
        assert ev.scan([equivalence_check(P, g)])[0] is not None

    def test_budget(self):
        ctx = FormalContext(tuple(f"g{i}" for i in range(6)), ("m1",), (0,) * 6)
        frame = context_to_frame(ctx)
        many = [Var(f"p{i}", SORT1) for i in range(8)]  # (2^6)^8 assignments
        with pytest.raises(BudgetExceededError):
            FrameEvaluator(frame, many, budget=1 << 10)
