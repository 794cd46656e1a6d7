"""Tests for concept enumeration, lattice structure, and the complement dualities."""

import dataclasses
import inspect
import random
import re

import pytest

from conceptlogic import FormalContext, OperatorKind, complement_context
from conceptlogic import lattices
from conceptlogic.context import (
    SORT1,
    SORT2,
    SortedSubset,
    _kernel,
    iter_bits,
)
from conceptlogic.errors import LatticeError, SortMismatchError
from conceptlogic.lattices import (
    ConceptKind,
    _check_bijection,
    _closure_system,
    _concept_masks,
    _side_operators,
    _lectic_key,
    build_lattice,
    closure,
    enumerate_concepts,
    verify_yao_isomorphisms,
)

import oracles
from oracles import k0

ORACLES = {
    ConceptKind.FC: oracles.formal_concepts,
    ConceptKind.PC: oracles.property_concepts,
    ConceptKind.OC: oracles.object_concepts,
}


@pytest.mark.parametrize("enum", [ConceptKind, OperatorKind])
def test_kinds_hash_by_identity(enum):
    # the kinds key the operator tables, so their hash must not be a Python call
    for member in enum:
        assert hash(member) == object.__hash__(member)


def as_name_sets(ctx, concepts):
    return {
        (frozenset(c.extent.members(ctx.objects)), frozenset(c.intent.members(ctx.attributes)))
        for c in concepts
    }


class TestClosure:
    def test_fc_extent_examples(self):
        ctx = k0()
        got = closure(ConceptKind.FC, "extent", ctx.object_subset(["g1"]), ctx)
        assert set(got.members(ctx.objects)) == {"g1", "g2"}
        got = closure(ConceptKind.FC, "extent", ctx.object_subset([]), ctx)
        assert set(got.members(ctx.objects)) == {"g2"}

    def test_pc_extent_example(self):
        ctx = k0()
        got = closure(ConceptKind.PC, "extent", ctx.object_subset(["g1"]), ctx)
        assert set(got.members(ctx.objects)) == {"g1"}

    def test_sort_checked(self):
        ctx = k0()
        with pytest.raises(SortMismatchError):
            closure(ConceptKind.FC, "extent", ctx.attribute_subset([]), ctx)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_idempotent_everywhere(self, kind):
        rng = random.Random(55)
        for _ in range(20):
            ctx = oracles.random_context(rng, 5, 5)
            for mask in range(1 << ctx.n_objects):
                sub = ctx.object_subset(
                    [ctx.objects[i] for i in range(ctx.n_objects) if mask >> i & 1]
                )
                once = closure(kind, "extent", sub, ctx)
                assert closure(kind, "extent", once, ctx) == once

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_monotone(self, kind):
        rng = random.Random(56)
        for _ in range(10):
            ctx = oracles.random_context(rng, 4, 4)
            subs = [
                ctx.object_subset(
                    [ctx.objects[i] for i in range(ctx.n_objects) if mask >> i & 1]
                )
                for mask in range(1 << ctx.n_objects)
            ]
            for a in subs:
                for b in subs:
                    if a.is_subset(b):
                        assert closure(kind, "extent", a, ctx).is_subset(
                            closure(kind, "extent", b, ctx)
                        )

    def test_closure_directions_extensive_or_deflationary(self):
        rng = random.Random(57)
        for _ in range(10):
            ctx = oracles.random_context(rng, 4, 4)
            for mask in range(1 << ctx.n_objects):
                sub = ctx.object_subset(
                    [ctx.objects[i] for i in range(ctx.n_objects) if mask >> i & 1]
                )
                assert sub.is_subset(closure(ConceptKind.FC, "extent", sub, ctx))
                assert sub.is_subset(closure(ConceptKind.PC, "extent", sub, ctx))
                assert closure(ConceptKind.OC, "extent", sub, ctx).is_subset(sub)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_intent_side_idempotent_and_directed(self, kind):
        rng = random.Random(58)
        for _ in range(10):
            ctx = oracles.random_context(rng, 4, 4)
            for mask in range(1 << ctx.n_attributes):
                sub = ctx.attribute_subset(
                    [ctx.attributes[i] for i in range(ctx.n_attributes) if mask >> i & 1]
                )
                once = closure(kind, "intent", sub, ctx)
                assert closure(kind, "intent", once, ctx) == once
                if kind is ConceptKind.PC:
                    assert once.is_subset(sub)  # kernel side
                else:
                    assert sub.is_subset(once)  # closure side


# each kind's forward and backward operator, computed from the incidence
OPERATORS = {
    ConceptKind.FC: (oracles.op_plus, oracles.op_minus),
    ConceptKind.PC: (oracles.op_poss, oracles.op_nec_inv),
    ConceptKind.OC: (oracles.op_nec, oracles.op_poss_inv),
}


class TestMaskKernels:
    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_kernels_equal_operators_and_closures_on_every_subset(self, kind):
        rng = random.Random(59)
        forward_op, backward_op = OPERATORS[kind]
        for _ in range(25):
            ctx = oracles.random_context(rng, 5, 5)
            forward, backward = (_kernel(op, ctx) for op in _side_operators(kind, "extent"))
            for mask in range(1 << ctx.n_objects):
                sub = SortedSubset(SORT1, mask, ctx.n_objects)
                image = forward_op(ctx, set(sub.members(ctx.objects)))
                closed = ctx.object_subset(backward_op(ctx, image)).bits
                assert forward(mask) == ctx.attribute_subset(image).bits
                assert backward(forward(mask)) == closed == closure(kind, "extent", sub, ctx).bits
            for mask in range(1 << ctx.n_attributes):
                sub = SortedSubset(SORT2, mask, ctx.n_attributes)
                image = backward_op(ctx, set(sub.members(ctx.attributes)))
                closed = ctx.attribute_subset(forward_op(ctx, image)).bits
                assert backward(mask) == ctx.object_subset(image).bits
                assert forward(backward(mask)) == closed == closure(kind, "intent", sub, ctx).bits

    def test_lectic_key_sorts_like_index_tuples(self):
        masks = list(range(1 << 8))
        assert sorted(masks, key=_lectic_key) == sorted(
            masks, key=lambda m: tuple(iter_bits(m))
        )


class TestEnumeration:
    def test_k0_fc(self):
        ctx = k0()
        got = as_name_sets(ctx, enumerate_concepts(ctx, ConceptKind.FC))
        assert got == {
            (frozenset({"g1", "g2"}), frozenset({"m1"})),
            (frozenset({"g2"}), frozenset({"m1", "m2"})),
        }

    def test_k0_pc(self):
        ctx = k0()
        got = as_name_sets(ctx, enumerate_concepts(ctx, ConceptKind.PC))
        assert got == {
            (frozenset(), frozenset()),
            (frozenset({"g1"}), frozenset({"m1"})),
            (frozenset({"g1", "g2"}), frozenset({"m1", "m2"})),
        }

    def test_k0_oc(self):
        ctx = k0()
        got = as_name_sets(ctx, enumerate_concepts(ctx, ConceptKind.OC))
        assert got == {
            (frozenset(), frozenset()),
            (frozenset({"g2"}), frozenset({"m2"})),
            (frozenset({"g1", "g2"}), frozenset({"m1", "m2"})),
        }

    def test_k0_matches_set_oracle(self):
        ctx = k0()
        for kind in ConceptKind:
            assert as_name_sets(ctx, enumerate_concepts(ctx, kind)) == ORACLES[kind](ctx)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_lectic_equals_bruteforce_randomized(self, kind):
        rng = random.Random(77)
        for _ in range(40):
            ctx = oracles.random_context(rng, 6, 6)
            fast = enumerate_concepts(ctx, kind)
            slow = oracles.enumerate_concepts_bruteforce(ctx, kind)
            assert fast == slow

    def test_canonical_order_is_lex_by_extent(self):
        ctx = k0()
        concepts = enumerate_concepts(ctx, ConceptKind.PC)
        keys = [c.extent.indices() for c in concepts]
        assert keys == sorted(keys)


# random contexts of each orientation: (max objects, max attributes, accept)
SHAPES = {
    "square": (8, 8, lambda n_g, n_m: min(n_g, n_m) >= 5),
    "tall": (12, 5, lambda n_g, n_m: n_g >= 2 * n_m >= 6),
    "wide": (5, 12, lambda n_g, n_m: n_m >= 2 * n_g >= 6),
}


def shaped_contexts(rng, shape, count):
    max_objects, max_attributes, accept = SHAPES[shape]
    while count:
        ctx = oracles.random_context(rng, max_objects, max_attributes)
        if accept(ctx.n_objects, ctx.n_attributes):
            count -= 1
            yield ctx


def mask_problems(ctx, kind, masks):
    """What is wrong with ``masks`` as ``_concept_masks(ctx, kind)``: a
    difference from the brute-force concepts, or a pair whose other side is
    not ``other`` of its side set in the kind's closure system."""
    side = _closure_system(ctx, kind)[0]
    other = _kernel(_side_operators(kind, ("extent", "intent")[side])[0], ctx)
    oracle = oracles.enumerate_concepts_bruteforce(ctx, kind)
    want = [(c.extent.bits, c.intent.bits) for c in oracle]
    problems = [] if masks == want else [f"{len(masks)} pairs differ from {len(want)} concepts"]
    problems += [
        f"pair {i}: other side {pair[1 - side]:#x}, other(x) is {other(pair[side]):#x}"
        for i, pair in enumerate(masks)
        if pair[1 - side] != other(pair[side])
    ]
    return problems


def over_pruning_mutant():
    """``_fcbo_masks`` skipping i when an inherited failure has any element
    below i, those of the key included, instead of one outside the key."""
    source = inspect.getsource(lattices._fcbo_masks)
    assert source.count("inherited[i] & below") == 1
    namespace = dict(vars(lattices))
    exec(source.replace("inherited[i] & below", "inherited[i] & (bit - 1)"), namespace)
    return namespace["_fcbo_masks"]


# NextClosure's closures (``then`` kernel calls) on ``contexts(96, 4)`` per
# kind, as counted for the scan that FCbO replaced
NEXT_CLOSURE_CLOSURES = {ConceptKind.FC: 224, ConceptKind.PC: 212, ConceptKind.OC: 212}


class TestConceptMasks:
    def contexts(self, seed, count):
        rng = random.Random(seed)
        for shape in SHAPES:
            yield from shaped_contexts(rng, shape, count)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_masks_equal_bruteforce_with_their_other_sides(self, kind):
        systems = set()
        for ctx in self.contexts(95, 8):
            side, flip, _, _, _, _ = _closure_system(ctx, kind)
            systems.add((side, bool(flip)))
            assert mask_problems(ctx, kind, _concept_masks(ctx, kind)) == []
        # both carrier orders; PC intents and OC extents are keyed by complements
        complemented = {ConceptKind.FC: set(), ConceptKind.PC: {1}, ConceptKind.OC: {0}}[kind]
        assert systems == {(side, side in complemented) for side in (0, 1)}

    def test_over_pruning_mutant_is_caught(self, monkeypatch):
        # it skips i wherever an inherited failure shares an element below i
        # with the key, which drops concepts on 4 to 7 of these 12 small
        # contexts per kind
        monkeypatch.setattr(lattices, "_fcbo_masks", over_pruning_mutant())
        for kind in ConceptKind:
            caught = [
                ctx
                for ctx in self.contexts(95, 4)
                if mask_problems(ctx, kind, _concept_masks(ctx, kind))
            ]
            assert len(caught) >= 3, kind

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_fcbo_closes_fewer_and_never_calls_other(self, kind, monkeypatch):
        # each candidate's other side is one OR, so the scan and the covers
        # apply only ``then``, once per closure, and inherited failures skip
        # closures NextClosure made
        calls = dict.fromkeys(OperatorKind, 0)

        def counting_kernel(op, ctx):
            kernel = _kernel(op, ctx)

            def counted(mask):
                calls[op] += 1
                return kernel(mask)

            return counted

        monkeypatch.setattr(lattices, "_kernel", counting_kernel)
        closures = found = 0
        for ctx in self.contexts(96, 4):
            side = _closure_system(ctx, kind)[0]
            then = _side_operators(kind, ("extent", "intent")[side])[1]
            calls.update(dict.fromkeys(OperatorKind, 0))
            concepts = _concept_masks(ctx, kind)
            scanned = calls[then]
            assert sum(calls.values()) == scanned >= len(concepts)
            closures += scanned
            found += len(concepts)
            lattices.ConceptLattice(kind, ctx, concepts)
            assert sum(calls.values()) == calls[then] > scanned
        assert found <= closures < NEXT_CLOSURE_CLOSURES[kind]

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_build_lattice_builds_only_the_then_kernel(self, kind):
        # the entries' other sides are checked by one OR, not an ``other`` kernel
        ctx = oracles.random_context(random.Random(61), 6, 6)
        concepts = enumerate_concepts(ctx, kind)
        fresh = FormalContext(ctx.objects, ctx.attributes, ctx.rows)
        build_lattice(concepts, kind, fresh)
        side = _closure_system(fresh, kind)[0]
        assert list(fresh._kernels) == [_side_operators(kind, ("extent", "intent")[side])[1]]


class TestLattice:
    def test_fc_k0_is_two_chain(self):
        ctx = k0()
        lat = build_lattice(enumerate_concepts(ctx, ConceptKind.FC), ConceptKind.FC, ctx)
        assert len(lat) == 2
        # lex order puts extent (0,1) = G first, so {g2} (index 1) is below G
        assert lat.covers() == [(1, 0)]

    def test_pc_k0_is_three_chain(self):
        ctx = k0()
        lat = build_lattice(enumerate_concepts(ctx, ConceptKind.PC), ConceptKind.PC, ctx)
        assert len(lat) == 3
        assert lat.covers() == [(0, 1), (1, 2)]

    def test_meet_with_top_is_identity(self):
        ctx = k0()
        for kind in ConceptKind:
            lat = build_lattice(enumerate_concepts(ctx, kind), kind, ctx)
            for i in range(len(lat)):
                assert lat.meet(lat.top, i) == i
                assert lat.join(lat.bottom, i) == i

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_lattice_laws_randomized(self, kind):
        rng = random.Random(88)
        for _ in range(15):
            ctx = oracles.random_context(rng, 5, 5)
            lat = build_lattice(enumerate_concepts(ctx, kind), kind, ctx)
            assert oracles.check_lattice_laws(lat) == []

    def test_meet_join_agree_with_order(self):
        rng = random.Random(89)
        for _ in range(10):
            ctx = oracles.random_context(rng, 4, 4)
            for kind in ConceptKind:
                lat = build_lattice(enumerate_concepts(ctx, kind), kind, ctx)
                n = len(lat)
                for i in range(n):
                    for j in range(n):
                        m = lat.meet(i, j)
                        assert lat.leq(m, i) and lat.leq(m, j)
                        for k in range(n):
                            if lat.leq(k, i) and lat.leq(k, j):
                                assert lat.leq(k, m)
                        jn = lat.join(i, j)
                        assert lat.leq(i, jn) and lat.leq(j, jn)
                        for k in range(n):
                            if lat.leq(i, k) and lat.leq(j, k):
                                assert lat.leq(jn, k)

    def test_incomplete_list_reported(self):
        # diagonal context: PC lattice is a diamond; dropping the bottom
        # leaves the meet of the two middle concepts unrepresented
        ctx = FormalContext.from_pairs(
            ("g1", "g2"), ("m1", "m2"), [("g1", "m1"), ("g2", "m2")]
        )
        concepts = enumerate_concepts(ctx, ConceptKind.PC)
        assert len(concepts) == 4
        missing_bottom = [c for c in concepts if len(c.extent) > 0]
        with pytest.raises(LatticeError):
            build_lattice(missing_bottom, ConceptKind.PC, ctx)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_incomplete_middle_reported(self, kind):
        # every kind's lattice on the diagonal context is a diamond; without
        # one of its middle concepts the rest is still a (3-chain) lattice
        ctx = FormalContext.from_pairs(
            ("g1", "g2"), ("m1", "m2"), [("g1", "m1"), ("g2", "m2")]
        )
        concepts = enumerate_concepts(ctx, kind)
        assert len(concepts) == 4
        for dropped in concepts:
            if len(dropped.extent) != 1:
                continue
            with pytest.raises(LatticeError):
                build_lattice([c for c in concepts if c != dropped], kind, ctx)

    def test_repeated_concept_reported(self):
        ctx = k0()
        concepts = enumerate_concepts(ctx, ConceptKind.FC)
        with pytest.raises(LatticeError, match=r"^entry 2 repeats entry 0$"):
            build_lattice(concepts + concepts[:1], ConceptKind.FC, ctx)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_non_concepts_reported(self, kind, shape):
        # each check reads the side set of the closure system the kind is
        # scanned in: the extent on a wide context, the intent on a tall one
        rng = random.Random(97)
        for ctx in shaped_contexts(rng, shape, 10):
            side = "extent" if shape == "wide" else "intent"
            other_side = "intent" if shape == "wide" else "extent"
            concepts = enumerate_concepts(ctx, kind)
            closed = {getattr(c, side).bits for c in concepts}
            for i, c in enumerate(concepts):
                with pytest.raises(LatticeError, match=rf"^entry {i + 1} repeats entry {i}$"):
                    build_lattice(concepts[: i + 1] + concepts[i:], kind, ctx)
                x = getattr(c, side)
                for bit in range(x.size):
                    moved = SortedSubset(x.sort, x.bits ^ 1 << bit, x.size)
                    bad = dataclasses.replace(c, **{side: moved})
                    reason = re.escape(f"{side} {list(moved.indices())} is not closed")
                    if moved.bits in closed:
                        reason = rf"{other_side} \[.*\] is not \[.*\], the image of its {side}"
                    with pytest.raises(LatticeError, match=rf"^entry {i}: {reason}$"):
                        build_lattice(concepts[:i] + [bad] + concepts[i + 1:], kind, ctx)

    def test_concept_of_another_context_reported(self):
        ctx = k0()
        wider = FormalContext(ctx.objects, ctx.attributes + ("m3",), ctx.rows)
        concepts = enumerate_concepts(wider, ConceptKind.FC)
        with pytest.raises(LatticeError, match=r"^entry 0 is not over the context's carriers$"):
            build_lattice(concepts, ConceptKind.FC, ctx)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_empty_list_reported(self, kind):
        with pytest.raises(LatticeError):
            build_lattice([], kind, k0())

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_covers_equal_oracle_randomized(self, kind):
        rng = random.Random(92)
        for shape in SHAPES:
            for ctx in shaped_contexts(rng, shape, 30):
                lat = build_lattice(enumerate_concepts(ctx, kind), kind, ctx)
                assert lat.covers() == oracles.covers(lat)

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_every_dropped_concept_reported(self, kind):
        # covers are scanned on the smaller carrier, extents on a tie; each
        # concept is that closure system's bottom or an upper cover of
        # another, so without it a candidate is missing, named by its own set
        rng = random.Random(93)
        for shape in SHAPES:
            for ctx in shaped_contexts(rng, shape, 8):
                side = "extent" if ctx.n_objects <= ctx.n_attributes else "intent"
                concepts = enumerate_concepts(ctx, kind)
                for i, dropped in enumerate(concepts):
                    named = list(getattr(dropped, side).indices())
                    with pytest.raises(LatticeError) as exc:
                        build_lattice(concepts[:i] + concepts[i + 1:], kind, ctx)
                    assert str(exc.value) == f"{side} {named} is missing: concept list incomplete"

    @pytest.mark.parametrize("kind", list(ConceptKind))
    def test_covers_close_over_the_smaller_carrier(self, kind, monkeypatch):
        calls = 0

        def counting_kernel(op, ctx):
            kernel = _kernel(op, ctx)

            def counted(mask):
                nonlocal calls
                calls += 1
                return kernel(mask)

            return counted

        monkeypatch.setattr(lattices, "_kernel", counting_kernel)
        rng = random.Random(94)
        for shape in ("tall", "wide"):
            for ctx in shaped_contexts(rng, shape, 10):
                concepts = enumerate_concepts(ctx, kind)
                calls = 0
                build_lattice(concepts, kind, ctx)
                # a closure applies two kernels
                assert calls / 2 <= len(concepts) * min(ctx.n_objects, ctx.n_attributes)

    def test_intent_order_correspondence(self):
        # FC intents shrink as extents grow; PC/OC intents grow with extents
        rng = random.Random(90)
        for _ in range(10):
            ctx = oracles.random_context(rng, 4, 4)
            for kind in ConceptKind:
                concepts = enumerate_concepts(ctx, kind)
                for a in concepts:
                    for b in concepts:
                        if a.extent.is_subset(b.extent):
                            if kind is ConceptKind.FC:
                                assert b.intent.is_subset(a.intent)
                            else:
                                assert a.intent.is_subset(b.intent)


class TestYao:
    def test_k0_all_clauses_pass(self):
        report = verify_yao_isomorphisms(k0())
        assert report.passed
        assert [c.name for c in report.checks] == ["a", "b", "c"]
        for c in report.checks:
            assert c.bijection is not None

    def test_clause_a_extents_match(self):
        ctx = k0()
        cctx = complement_context(ctx)
        fc = enumerate_concepts(ctx, ConceptKind.FC)
        pc_c = enumerate_concepts(cctx, ConceptKind.PC)
        assert {c.extent for c in fc} == {c.extent for c in pc_c}
        assert len(fc) == len(pc_c) == 2

    def test_full_incidence_degenerate(self):
        ctx = FormalContext(("g1", "g2"), ("m1",), (1, 1))
        fc = enumerate_concepts(ctx, ConceptKind.FC)
        assert len(fc) == 1
        assert verify_yao_isomorphisms(ctx).passed

    def test_failed_clause_names_its_witness(self):
        ctx = k0()
        fc = _concept_masks(ctx, ConceptKind.FC)
        pc_c = _concept_masks(complement_context(ctx), ConceptKind.PC)
        flip = (0, (1 << ctx.n_attributes) - 1)
        assert _check_bijection(fc, pc_c, flip, "a").passed
        missing = _check_bijection(fc, pc_c[1:], flip, "a")
        assert not missing.passed and missing.bijection is None
        assert missing.detail == "image of source concept 0 is not a target concept"
        extra = _check_bijection(fc[1:], pc_c, flip, "a")
        assert extra.detail == "candidate map is not a bijection (1 source, 2 target, 1 images)"

    def test_randomized_sweep(self):
        rng = random.Random(404)
        for _ in range(40):
            ctx = oracles.random_context(rng, 5, 5)
            report = verify_yao_isomorphisms(ctx)
            assert report.passed, [
                (c.name, c.detail) for c in report.checks if not c.passed
            ]
