"""Tests for contexts, sorted subsets, and the six set operators."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from conceptlogic import context
from conceptlogic.context import SORT1, SORT2, _kernel, _or_over, iter_bits, member_names
from conceptlogic.lattices import ConceptKind, build_lattice, enumerate_concepts

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

    def test_incidence_names_an_unknown_element(self):
        ctx = k0()
        with pytest.raises(DimensionError, match="unknown object 'g9'"):
            ctx.incidence("g9", "m1")
        with pytest.raises(DimensionError, match="unknown attribute 'm9'"):
            ctx.incidence("g1", "m9")
        with pytest.raises(DimensionError, match="unknown object 'm1'"):
            ctx.incidence("m1", "g1")

    def test_subset_size_validated(self):
        with pytest.raises(DimensionError):
            SortedSubset(SORT1, 4, 2)

    @pytest.mark.parametrize("refused, message", [
        (lambda: SortedSubset(SORT1, 0, -1), "negative carrier size -1"),
        (lambda: k0().object_subset(["zz"]), "unknown element 'zz'"),
        (
            lambda: SortedSubset(SORT1, 1, 2).members(("a", "b", "c")),
            "carrier has 3 elements, subset sized for 2",
        ),
        (
            lambda: FormalContext.from_pairs(("g",), ("m",), [("x", "m")]),
            "unknown object 'x' in incidence",
        ),
        (
            lambda: FormalContext.from_pairs(("g",), ("m",), [("g", "y")]),
            "unknown attribute 'y' in incidence",
        ),
    ], ids=["negative-size", "unknown-element", "members-carrier", "pair-object", "pair-attribute"])
    def test_refusal_names_its_cause(self, refused, message):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            refused()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 1 << 130) | st.sampled_from([0, 1, (1 << 64) - 1, 1 << 64]))
def test_iter_bits_lists_the_set_bits_in_increasing_order(m):
    assert list(iter_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


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


# carrier sizes on and around the byte boundaries of the lookup tables, and
# two above ``context._TABLE_LIMIT``, where the kernels OR one vector per bit
TABLE_SIZES = (1, 7, 8, 9, 15, 16, 17, 24, 25, 33, 40, 41, 64)


def _table_contexts():
    """Seeded contexts with each ``TABLE_SIZES`` carrier as objects and as
    attributes, the other carrier drawn from the same sizes."""
    rng = random.Random(24)
    for n in TABLE_SIZES:
        other = rng.choice(TABLE_SIZES)
        for n_g, n_m in ((n, other), (other, n)):
            objects = tuple(f"g{i}" for i in range(n_g))
            attributes = tuple(f"m{j}" for j in range(n_m))
            rows = tuple(rng.getrandbits(n_m) & rng.getrandbits(n_m) for _ in range(n_g))
            yield rng, FormalContext(objects, attributes, rows)


def _edge_masks(rng, n):
    """Empty, full, top bit alone and with random lower bits, and the bits on
    each side of every byte boundary below n."""
    full = (1 << n) - 1
    top = 1 << n - 1
    masks = {0, full, top, top | rng.getrandbits(n), top | rng.getrandbits(n)}
    masks.update(full & 3 << b - 1 for b in range(8, n, 8))
    return sorted(masks)


def _or_over_operator(kind, ctx):
    """``kind`` on masks through the per-bit ``_or_over``, as the table kernel
    computes it."""
    forward = kind.input_sort == SORT1
    vectors = ctx.rows if forward else ctx.cols
    full_in = (1 << len(vectors)) - 1
    full_out = (1 << (ctx.n_attributes if forward else ctx.n_objects)) - 1
    if kind in (OperatorKind.PLUS, OperatorKind.MINUS):
        negated = [full_out ^ v for v in vectors]
        return lambda mask: full_out ^ _or_over(negated, mask)
    if kind in (OperatorKind.POSS, OperatorKind.POSS_INV):
        return lambda mask: _or_over(vectors, mask)
    return lambda mask: full_out ^ _or_over(vectors, full_in ^ mask)


def _check_kernels(kind):
    """Each table kernel of ``kind`` against ``_or_over``, its
    ``_kernel_terms`` and the set operator."""
    for rng, ctx in _table_contexts():
        forward = kind.input_sort == SORT1
        carrier_in, carrier_out = (
            (ctx.objects, ctx.attributes) if forward else (ctx.attributes, ctx.objects)
        )
        n = len(carrier_in)
        table, per_bit = _kernel(kind, ctx), _or_over_operator(kind, ctx)
        vectors, skip, flip = context._kernel_terms(kind, ctx)
        edges = _edge_masks(rng, n)
        for mask in edges + [rng.getrandbits(n) for _ in range(40)]:
            assert table(mask) == per_bit(mask), (kind, ctx.n_objects, ctx.n_attributes, mask)
            assert flip ^ _or_over(vectors, skip ^ mask) == per_bit(mask)
        for mask in edges:
            names = set(SortedSubset(kind.input_sort, mask, n).members(carrier_in))
            image = SortedSubset(kind.output_sort, table(mask), len(carrier_out))
            assert set(image.members(carrier_out)) == OPS[kind](ctx, names)


def _check_names():
    """Name tables against ``SortedSubset.members``: every mask of carriers up
    to 9 elements, edge and random masks beyond."""
    for rng, ctx in _table_contexts():
        for sort, carrier in ((SORT1, ctx.objects), (SORT2, ctx.attributes)):
            n = len(carrier)
            names = member_names(carrier)
            every = range(1 << n) if n <= 9 else []
            masks = [*every, *_edge_masks(rng, n), *(rng.getrandbits(n) for _ in range(200))]
            for mask in masks:
                assert names(mask) == SortedSubset(sort, mask, n).members(carrier), (n, mask)


def _off_by_one_tables(units, empty, add):
    """``context._byte_tables`` with each chunk starting one unit late."""
    tables = []
    for base in range(0, len(units), 8):
        table = [empty]
        for unit in units[base + 1 : base + 9]:
            table += [add(x, unit) for x in table]
        tables.append(table)
    return tuple(tables)


class TestByteTables:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_kernels_equal_or_over_and_the_set_operators(self, kind):
        _check_kernels(kind)

    def test_name_tables_equal_members(self):
        _check_names()

    def test_off_by_one_chunk_base_fails_the_checks(self, monkeypatch):
        monkeypatch.setattr(context, "_byte_tables", _off_by_one_tables)
        for kind in OperatorKind:
            with pytest.raises((AssertionError, IndexError)):
                _check_kernels(kind)
        with pytest.raises((AssertionError, IndexError)):
            _check_names()

    def test_tables_built_once_per_context_and_operator(self, monkeypatch):
        byte_tables, built = context._byte_tables, []

        def counting(units, empty, add):
            built.append(empty)
            return byte_tables(units, empty, add)

        monkeypatch.setattr(context, "_byte_tables", counting)
        ctx = oracles.random_context(random.Random(25), 12, 12)
        for _ in range(2):
            for kind in ConceptKind:
                build_lattice(enumerate_concepts(ctx, kind), kind, ctx)
            for kind in OperatorKind:
                size = ctx.n_objects if kind.input_sort == SORT1 else ctx.n_attributes
                apply_operator(kind, SortedSubset(kind.input_sort, 0, size), ctx)
        assert built.count(0) == len(ctx._kernels) == len(OperatorKind)

    def test_no_operator_tables_above_the_limit(self, monkeypatch):
        built = []
        monkeypatch.setattr(context, "_byte_tables", lambda *args: built.append(args))
        n = context._TABLE_LIMIT + 1
        ctx = FormalContext(
            tuple(f"g{i}" for i in range(n)),
            tuple(f"m{j}" for j in range(n)),
            tuple(1 << i | 1 << (i * 7 % n) for i in range(n)),
        )
        for kind in OperatorKind:
            assert _kernel(kind, ctx)(1 << n - 1) == _or_over_operator(kind, ctx)(1 << n - 1)
        assert built == []
