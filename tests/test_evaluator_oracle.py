"""The bit-sliced evaluator against the per-valuation reference in oracles.py.

Every entry point that evaluates formulas on frames must give exactly the
oracle's answer, including which countermodel is reported: the first
failing valuation in product order, then the first failing world.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlogic import FormalContext, semantics
from conceptlogic.semantics import (
    _BLOCK,
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
    global_consequence,
    truth_set,
    validity_check,
)
from conceptlogic.syntax import (
    DIA,
    DIA_INV,
    FULL,
    SORT1,
    SORT2,
    And,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    Neg,
    Or,
    Top,
    Var,
    substitute,
    variables,
)

import oracles


def random_formula(rng, sort, depth, n_vars=2):
    """Random FULL formula; window modalities are box-only."""
    mods = [m for m in FULL if m.result_sort == sort]
    kinds = ["var", "bot", "top"]
    if depth > 0:
        kinds += ["neg", "and", "or", "imp", "iff"] + ["mod"] * 3 * bool(mods)
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(f"p{rng.randrange(n_vars)}", sort)
    if kind == "bot":
        return Bot(sort)
    if kind == "top":
        return Top(sort)
    if kind == "neg":
        return Neg(random_formula(rng, sort, depth - 1, n_vars))
    if kind == "mod":
        m = rng.choice(mods)
        arg = random_formula(rng, m.arg_sort, depth - 1, n_vars)
        return (Box if m.window or rng.random() < 0.5 else Dia)(m, arg)
    cls = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[kind]
    return cls(
        random_formula(rng, sort, depth - 1, n_vars),
        random_formula(rng, sort, depth - 1, n_vars),
    )


def random_independent_frame(rng):
    """A frame whose two relations are drawn independently."""
    carriers = {SORT1: ("g1", "g2", "g3"), SORT2: ("m1", "m2")}
    relations = {
        s: [(w, u) for w in carriers[s] for u in carriers[other] if rng.random() < 0.5]
        for s, other in ((SORT1, SORT2), (SORT2, SORT1))
    }
    return SortedFrame(carriers, relations)


def space(frame, formulas):
    vs = set().union(*(variables(f) for f in formulas))
    return 1 << sum(frame.carrier_size(v.sort) for v in vs)


def draw(rng, frame, sorts, n, limit=1 << 10):
    """n random formulas of the given sorts whose joint valuation space fits the oracle."""
    while True:
        formulas = [random_formula(rng, s, 3) for s in sorts[:n]]
        if space(frame, formulas) <= limit:
            return formulas


def assert_agrees(rng, frame):
    sorts = list(frame.carriers)
    sort = rng.choice(sorts)
    (f,) = draw(rng, frame, [sort], 1)
    assert falsify(frame, f) == oracles.falsify(frame, f)

    premises_and_conclusion = draw(rng, frame, [sort] * 3, rng.randint(1, 3))
    *premises, conclusion = premises_and_conclusion
    assert consequence_countermodel(frame, premises, conclusion) == (
        oracles.consequence_countermodel(frame, premises, conclusion)
    )

    mixed = draw(rng, frame, [rng.choice(sorts) for _ in range(3)], 3)
    *premises, conclusion = mixed
    assert global_consequence(frame, premises, conclusion) == (
        oracles.global_consequence(frame, premises, conclusion)
    )

    val = {
        v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5} for v in variables(f)
    }
    got = truth_set(Model(frame, Valuation(val)), f)
    assert set(got.members(frame.carrier(sort))) == oracles.extension(frame, val, f)

    f2, g = draw(rng, frame, [sort, sort], 2)
    ev = FrameEvaluator(frame, variables(f2) | variables(g) | {Var("extra", sorts[0])})
    assert (ev.scan([validity_check(f2)])[0] is None) == (oracles.falsify(frame, f2) is None)
    assert (ev.scan([equivalence_check(f2, g)])[0] is None) == oracles.equivalent(frame, f2, g)
    assert ev.scan([equivalence_check(f2, f2)])[0] is None


@pytest.mark.parametrize("seed", range(40))
def test_context_frames(seed):
    rng = random.Random(seed)
    frame = context_to_frame(oracles.random_context(rng, 3, 3))
    assert_agrees(rng, frame)


@pytest.mark.parametrize("seed", range(25))
def test_polyadic_frame(seed):
    """Frames whose two relations are drawn independently, so neither is
    the other's converse and every modality reads a non-converse frame."""
    rng = random.Random(1000 + seed)
    assert_agrees(rng, random_independent_frame(rng))


def _edge_or_random_context(rng, seed):
    """1x1 contexts empty and full, an empty incidence, or a random context."""
    if seed < 2:
        return FormalContext(("g1",), ("m1",), (seed,))
    return oracles.random_context(rng, 4, 4, density=0.0 if seed % 5 == 2 else None)


@pytest.mark.parametrize("seed", range(30))
def test_frame_from_pairs_equals_the_context_frame(seed):
    """The checked constructor on a context's pairs and their converse, and
    the mask path of ``context_to_frame``, give the same frame."""
    rng = random.Random(3000 + seed)
    ctx = _edge_or_random_context(rng, seed)
    pairs = ctx.pairs()
    built = SortedFrame(
        {SORT1: ctx.objects, SORT2: ctx.attributes},
        {SORT1: pairs, SORT2: [(m, g) for g, m in pairs]},
    )
    frame = context_to_frame(ctx)
    assert built.relations == frame.relations == {
        SORT1: frozenset(pairs), SORT2: frozenset((m, g) for g, m in pairs)
    }
    assert built.bidirectional and frame.bidirectional
    for f in draw(rng, frame, [SORT1, SORT2] * 4, 8):
        val = {v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5} for v in variables(f)}
        got = truth_set(Model(frame, Valuation(val)), f)
        assert got == truth_set(Model(built, Valuation(val)), f)
        assert set(got.members(frame.carrier(f.sort))) == oracles.extension(frame, val, f)


@pytest.mark.parametrize("seed", range(25))
def test_complement_frame_complements_each_relation(seed):
    """On frames whose two relations are drawn independently, each relation
    of the complement is the set-product complement of the original."""
    rng = random.Random(4000 + seed)
    frame = random_independent_frame(rng)
    cframe = complement_frame(frame)
    assert cframe.carriers == frame.carriers
    for s, other in ((SORT1, SORT2), (SORT2, SORT1)):
        product = set(itertools.product(frame.carrier(s), frame.carrier(other)))
        assert cframe.relations[s] == product - frame.relations[s]
    assert cframe.bidirectional == frame.bidirectional
    assert complement_frame(cframe).relations == frame.relations


def test_countermodel_in_a_later_block():
    # Only g4 has an attribute, so the formula fails exactly when p holds at
    # g4.  With p first in (sort, name) order its mask takes the high bits:
    # x, r and q hold the 13 low bits, so the first failing valuation is
    # p = {g4}, q = r = x = {} at index 8 << 13, the first of the second block.
    ctx = FormalContext.from_pairs(
        tuple(f"g{i}" for i in range(1, 7)), ("m1",), [("g4", "m1")]
    )
    frame = context_to_frame(ctx)
    p, q, r = (Var(n, SORT1) for n in "pqr")
    x = Var("x", SORT2)
    noise = And(Or(q, Neg(q)), Or(r, Neg(Dia(DIA_INV, x))))
    has_attr = Dia(DIA_INV, Top(SORT2))
    f = Neg(And(And(p, has_attr), noise))
    assert space(frame, [f]) == 1 << 19
    assert 8 << 13 == _BLOCK
    want = oracles.falsify(frame, f)
    assert want == Countermodel(((p, ("g4",)), (q, ()), (r, ()), (x, ())), "g4")
    assert falsify(frame, f) == want
    assert consequence_countermodel(frame, [Or(q, Neg(q))], f) == want
    # the premise q must hold at g4 too, which adds q's bit for g4 (bit 10)
    assert consequence_countermodel(frame, [q], f) == Countermodel(
        ((p, ("g4",)), (q, ("g4",)), (r, ()), (x, ())), "g4"
    )
    assert global_consequence(frame, [Imp(p, Neg(has_attr))], f)
    assert not global_consequence(frame, [Dia(DIA, r)], f)
    ev = FrameEvaluator(frame, [p, q, r, x])
    assert ev.scan([validity_check(f)])[0] is not None
    assert ev.scan([validity_check(Imp(And(p, has_attr), Or(Neg(noise), Neg(f))))])[0] is None


def as_check(pair):
    f, g = pair
    return validity_check(f) if g is None else equivalence_check(f, g)


def valuation_index(frame, counter):
    """Position of a countermodel's valuation in product order."""
    index = 0
    for v, worlds in counter.assignments:
        carrier = frame.carrier(v.sort)
        index = index << len(carrier) | sum(1 << carrier.index(w) for w in worlds)
    return index


def test_multi_check_scan_fails_in_different_blocks(monkeypatch):
    # Blocks of 16 over p, q on five objects: 64 blocks.  Only g5 has an
    # attribute; p takes the high five bits and q the low five.
    monkeypatch.setattr(semantics, "_BLOCK", 1 << 4)
    ctx = FormalContext.from_pairs(
        tuple(f"g{i}" for i in range(1, 6)), ("m1",), [("g5", "m1")]
    )
    frame = context_to_frame(ctx)
    p, q = Var("p", SORT1), Var("q", SORT1)
    has_attr = Dia(DIA_INV, Top(SORT2))
    pairs = [
        (Neg(And(p, has_attr)), None),  # p = {g5}: index 16 << 5, block 32
        (Neg(And(q, has_attr)), None),  # q = {g5}: index 16, block 1
        (p, q),  # q = {g1}: index 1, block 0
        (And(p, q), And(q, p)),  # never fails
        (Or(p, Neg(q)), Imp(q, p)),  # never fails
    ]
    want = oracles.scan(frame, pairs)
    assert [valuation_index(frame, c) // 16 for c in want[:3]] == [32, 1, 0]
    assert want[3:] == [None, None]

    blocks = []
    signature = FrameEvaluator.signature

    def counted(self, base, checks):
        blocks.append((base, len(checks)))
        return signature(self, base, checks)

    monkeypatch.setattr(FrameEvaluator, "signature", counted)
    scanner = FrameEvaluator(frame, [p, q])
    assert scanner.scan([as_check(pair) for pair in pairs]) == want
    # a failed check is not evaluated again: 5 pending, then 4, then 3
    assert blocks[:3] == [(0, 5), (16, 4), (32, 3)]
    assert len(blocks) == 64 and blocks[-1] == (63 * 16, 2)
    blocks.clear()
    # with every check failed the scan stops after block 32
    assert scanner.scan([as_check(pair) for pair in pairs[:3]]) == want[:3]
    assert len(blocks) == 33


@pytest.mark.parametrize("seed", range(10))
def test_multi_check_scan_against_oracle(seed, monkeypatch):
    monkeypatch.setattr(semantics, "_BLOCK", 1 << 1)
    rng = random.Random(2000 + seed)
    if seed % 2:
        frame = random_independent_frame(rng)
    else:
        frame = context_to_frame(oracles.random_context(rng, 3, 3))
    sorts = list(frame.carriers)
    formulas = draw(rng, frame, [rng.choice(sorts) for _ in range(8)], 8)
    pairs = []
    for f in formulas:
        partners = [g for g in formulas if g.sort == f.sort and g is not f]
        pairs.append((f, rng.choice(partners) if partners and rng.random() < 0.5 else None))
    universe = set().union(*(variables(f) for f in formulas))
    got = FrameEvaluator(frame, universe).scan([as_check(pair) for pair in pairs])
    assert got == oracles.scan(frame, pairs)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    block=st.sampled_from([1, 2, 3, 7, _BLOCK]),
)
def test_batched_truth_sets_equal_one_by_one_and_oracle(seed, n, block):
    """Items of mixed sorts, over variable sets that are disjoint (another
    name suffix) or overlap, with repeated formulas; a small ``_BLOCK``
    splits the batch mid-way."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        frame = context_to_frame(oracles.random_context(rng, 3, 3))
    else:
        frame = random_independent_frame(rng)
    drawn, items = [], []
    for _ in range(n):
        if drawn and rng.random() < 0.3:
            f = rng.choice(drawn)
        else:
            f = random_formula(rng, rng.choice([SORT1, SORT2]), 3, n_vars=3)
            suffix = rng.choice(["", "a", "b"])
            f = substitute(f, {v: Var(v.name + suffix, v.sort) for v in variables(f)})
            drawn.append(f)
        val = {v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5} for v in variables(f)}
        items.append((f, val))
    masks = [
        {v: sum(1 << i for i, w in enumerate(frame.carrier(v.sort)) if w in ws) for v, ws in val.items()}
        for _, val in items
    ]
    with mock.patch.object(semantics, "_BLOCK", block):
        got = semantics._truth_sets(frame, [(f, m) for (f, _), m in zip(items, masks)])
    assert len(got) == n
    for (f, val), mask in zip(items, got):
        assert type(mask) is int
        ts = truth_set(Model(frame, Valuation(val)), f)
        assert mask == ts.bits
        assert set(ts.members(frame.carrier(f.sort))) == oracles.extension(frame, val, f)

