"""Tests for contexts, sorted subsets, and the six set operators."""

import random

import pytest

from conceptlogic import (
    DimensionError,
    FormalContext,
    OperatorKind,
    SortedSubset,
    SortMismatchError,
    apply_operator,
    complement_context,
    duality_check,
)
from conceptlogic.context import SORT1

import oracles
from oracles import k0

OPS = {
    OperatorKind.PLUS: oracles.op_plus,
    OperatorKind.MINUS: oracles.op_minus,
    OperatorKind.POSS: oracles.op_poss,
    OperatorKind.NEC: oracles.op_nec,
    OperatorKind.POSS_INV: oracles.op_poss_inv,
    OperatorKind.NEC_INV: oracles.op_nec_inv,
}


def apply_names(kind, names, ctx):
    if kind.input_sort == SORT1:
        sub = ctx.object_subset(names)
        carrier = ctx.attributes
    else:
        sub = ctx.attribute_subset(names)
        carrier = ctx.objects
    return set(apply_operator(kind, sub, ctx).members(carrier))


class TestConstruction:
    def test_valid(self):
        ctx = k0()
        assert ctx.n_objects == 2 and ctx.n_attributes == 2
        assert ctx.incidence("g1", "m1") and not ctx.incidence("g1", "m2")

    def test_empty_carrier_rejected(self):
        with pytest.raises(DimensionError):
            FormalContext((), ("m1",), ())
        with pytest.raises(DimensionError):
            FormalContext(("g1",), (), (0,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionError):
            FormalContext(("g1", "g1"), ("m1",), (0, 0))
        with pytest.raises(DimensionError):
            FormalContext(("g1",), ("m1", "m1"), (0,))

    def test_row_count_and_width_checked(self):
        with pytest.raises(DimensionError):
            FormalContext(("g1", "g2"), ("m1",), (0,))
        with pytest.raises(DimensionError):
            FormalContext(("g1",), ("m1",), (2,))

    def test_cross_sort_name_collision_allowed(self):
        ctx = FormalContext.from_pairs(("x",), ("x",), [("x", "x")])
        assert ctx.incidence("x", "x")

    def test_subset_size_validated(self):
        with pytest.raises(DimensionError):
            SortedSubset(SORT1, 4, 2)


class TestOperatorExamples:
    """Fixture values frozen from the brute-force oracle."""

    def test_plus_empty_is_vacuous(self):
        assert apply_names(OperatorKind.PLUS, [], k0()) == {"m1", "m2"}

    def test_plus_g2(self):
        ctx = k0()
        assert oracles.op_plus(ctx, {"g2"}) == {"m1", "m2"}
        assert apply_names(OperatorKind.PLUS, ["g2"], ctx) == {"m1", "m2"}

    def test_poss_and_nec_g1(self):
        ctx = k0()
        assert oracles.op_poss(ctx, {"g1"}) == {"m1"}
        assert apply_names(OperatorKind.POSS, ["g1"], ctx) == {"m1"}
        assert oracles.op_nec(ctx, {"g1"}) == set()
        assert apply_names(OperatorKind.NEC, ["g1"], ctx) == set()

    def test_nec_inv_m1(self):
        ctx = k0()
        assert oracles.op_nec_inv(ctx, {"m1"}) == {"g1"}
        assert apply_names(OperatorKind.NEC_INV, ["m1"], ctx) == {"g1"}

    def test_sort_mismatch(self):
        ctx = k0()
        with pytest.raises(SortMismatchError):
            apply_operator(OperatorKind.PLUS, ctx.attribute_subset(["m1"]), ctx)
        with pytest.raises(SortMismatchError):
            apply_operator(OperatorKind.MINUS, ctx.object_subset(["g1"]), ctx)

    def test_size_mismatch(self):
        ctx = k0()
        stray = SortedSubset(SORT1, 0, 5)
        with pytest.raises(DimensionError):
            apply_operator(OperatorKind.POSS, stray, ctx)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_matches_oracle_on_random_contexts(self, kind):
        rng = random.Random(101 + kind.value.__hash__() % 7)
        for _ in range(40):
            ctx = oracles.random_context(rng, 5, 5)
            carrier = ctx.objects if kind.input_sort == SORT1 else ctx.attributes
            names = {x for x in carrier if rng.random() < 0.5}
            assert apply_names(kind, names, ctx) == OPS[kind](ctx, names)


class TestComplement:
    def test_k0_complement(self):
        ctx = k0()
        assert set(complement_context(ctx).pairs()) == {("g1", "m2")}

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(25):
            ctx = oracles.random_context(rng)
            assert complement_context(complement_context(ctx)) == ctx

    def test_full_becomes_empty(self):
        ctx = FormalContext.from_pairs(
            ("g1", "g2"), ("m1",), [("g1", "m1"), ("g2", "m1")]
        )
        assert complement_context(ctx).pairs() == ()


class TestDuality:
    def test_forward_pair_on_k0(self):
        ctx = k0()
        assert duality_check(OperatorKind.POSS, ctx.object_subset(["g1"]), ctx)
        assert duality_check(OperatorKind.NEC, ctx.object_subset(["g1"]), ctx)

    def test_backward_pair_on_empty(self):
        ctx = k0()
        assert duality_check(OperatorKind.POSS_INV, ctx.attribute_subset([]), ctx)

    def test_randomized_sweep(self):
        rng = random.Random(13)
        for _ in range(60):
            ctx = oracles.random_context(rng, 5, 5)
            a_names = {g for g in ctx.objects if rng.random() < 0.5}
            b_names = {m for m in ctx.attributes if rng.random() < 0.5}
            assert duality_check(OperatorKind.POSS, ctx.object_subset(a_names), ctx)
            assert duality_check(OperatorKind.NEC_INV, ctx.attribute_subset(b_names), ctx)

    def test_plus_has_no_dual_pair(self):
        ctx = k0()
        with pytest.raises(SortMismatchError):
            duality_check(OperatorKind.PLUS, ctx.object_subset([]), ctx)


class TestGaloisAndAdjunction:
    """Structural laws, exhaustively on small carriers."""

    def small_contexts(self):
        rng = random.Random(99)
        yield k0()
        for _ in range(12):
            yield oracles.random_context(rng, 4, 4)

    def test_galois_antitone_and_extensive(self):
        for ctx in self.small_contexts():
            subsets = oracles.all_subsets(ctx.objects)
            for A in subsets:
                for A2 in subsets:
                    if A <= A2:
                        assert oracles.op_plus(ctx, A2) <= oracles.op_plus(ctx, A)
                assert A <= oracles.op_minus(ctx, oracles.op_plus(ctx, A))
            for B in oracles.all_subsets(ctx.attributes):
                assert B <= oracles.op_plus(ctx, oracles.op_minus(ctx, B))

    def test_adjunctions(self):
        for ctx in self.small_contexts():
            for A in oracles.all_subsets(ctx.objects):
                for B in oracles.all_subsets(ctx.attributes):
                    assert (oracles.op_poss(ctx, A) <= B) == (
                        A <= oracles.op_nec_inv(ctx, B)
                    )
                    assert (B <= oracles.op_nec(ctx, A)) == (
                        oracles.op_poss_inv(ctx, B) <= A
                    )

    def test_closure_idempotence(self):
        for ctx in self.small_contexts():
            for A in oracles.all_subsets(ctx.objects):
                fc_once = oracles.op_minus(ctx, oracles.op_plus(ctx, A))
                assert oracles.op_minus(ctx, oracles.op_plus(ctx, fc_once)) == fc_once
                pc_once = oracles.op_nec_inv(ctx, oracles.op_poss(ctx, A))
                assert oracles.op_nec_inv(ctx, oracles.op_poss(ctx, pc_once)) == pc_once
            for B in oracles.all_subsets(ctx.attributes):
                oc_once = oracles.op_poss_inv(ctx, oracles.op_nec(ctx, oracles.op_minus(ctx, B)))
                # sanity only: composite lands back in the object carrier
                assert oc_once <= set(ctx.objects)

    def test_pointwise_duality(self):
        for ctx in self.small_contexts():
            universe_m = set(ctx.attributes)
            universe_g = set(ctx.objects)
            for A in oracles.all_subsets(ctx.objects):
                assert oracles.op_nec(ctx, A) == universe_m - oracles.op_poss(
                    ctx, universe_g - A
                )
            for B in oracles.all_subsets(ctx.attributes):
                assert oracles.op_nec_inv(ctx, B) == universe_g - oracles.op_poss_inv(
                    ctx, universe_m - B
                )
