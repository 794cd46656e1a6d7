"""The bit-sliced evaluator against the per-valuation reference in oracles.py.

Every entry point that evaluates formulas on frames must give exactly the
oracle's answer, including which countermodel is reported: the first
failing valuation in product order, then the first failing world.
"""

import random

import pytest

from conceptlogic import FormalContext
from conceptlogic.semantics import (
    _BLOCK,
    FrameEvaluator,
    Model,
    SortedFrame,
    Valuation,
    consequence_countermodel,
    context_to_frame,
    falsify,
    global_consequence,
    truth_set,
)
from conceptlogic.syntax import (
    FULL,
    SORT1,
    SORT2,
    And,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    Modality,
    Neg,
    Or,
    Signature,
    Top,
    Var,
    variables,
)

import oracles

POLY = Signature(
    ("sa", "sb", "sc"),
    (
        Modality("mix", ("sa", "sb"), "sc"),
        Modality("back", ("sc",), "sa"),
        Modality("suff", ("sa",), "sb", window=True),
    ),
)


def random_formula(rng, sig, sort, depth, n_vars=2):
    """Random formula over any signature; window modalities are box-only."""
    mods = [m for m in sig.modalities if m.result_sort == sort]
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
        return Neg(random_formula(rng, sig, sort, depth - 1, n_vars))
    if kind == "mod":
        m = rng.choice(mods)
        args = tuple(random_formula(rng, sig, s, depth - 1, n_vars) for s in m.arg_sorts)
        return (Box if m.window or rng.random() < 0.5 else Dia)(m, args)
    cls = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[kind]
    return cls(
        random_formula(rng, sig, sort, depth - 1, n_vars),
        random_formula(rng, sig, sort, depth - 1, n_vars),
    )


def random_poly_frame(rng):
    carriers = {"sa": ("a1", "a2"), "sb": ("b1", "b2"), "sc": ("c1", "c2", "c3")}
    relations = {
        "mix": [
            (c, a, b)
            for c in carriers["sc"]
            for a in carriers["sa"]
            for b in carriers["sb"]
            if rng.random() < 0.4
        ],
        "back": [(a, c) for a in carriers["sa"] for c in carriers["sc"] if rng.random() < 0.5],
        "suff": [(b, a) for b in carriers["sb"] for a in carriers["sa"] if rng.random() < 0.5],
    }
    return SortedFrame(carriers, relations, POLY)


def space(frame, formulas):
    vs = set().union(*(variables(f) for f in formulas))
    return 1 << sum(frame.carrier_size(v.sort) for v in vs)


def draw(rng, frame, sig, sorts, n, limit=1 << 10):
    """n random formulas of the given sorts whose joint valuation space fits the oracle."""
    while True:
        formulas = [random_formula(rng, sig, s, 3) for s in sorts[:n]]
        if space(frame, formulas) <= limit:
            return formulas


def assert_agrees(rng, frame, sig):
    sorts = list(frame.carriers)
    sort = rng.choice(sorts)
    (f,) = draw(rng, frame, sig, [sort], 1)
    assert falsify(frame, f) == oracles.falsify(frame, f)

    premises_and_conclusion = draw(rng, frame, sig, [sort] * 3, rng.randint(1, 3))
    *premises, conclusion = premises_and_conclusion
    assert consequence_countermodel(frame, premises, conclusion) == (
        oracles.consequence_countermodel(frame, premises, conclusion)
    )

    mixed = draw(rng, frame, sig, [rng.choice(sorts) for _ in range(3)], 3)
    *premises, conclusion = mixed
    assert global_consequence(frame, premises, conclusion) == (
        oracles.global_consequence(frame, premises, conclusion)
    )

    val = {
        v: {w for w in frame.carrier(v.sort) if rng.random() < 0.5} for v in variables(f)
    }
    got = truth_set(Model(frame, Valuation(val)), f)
    assert set(got.members(frame.carrier(sort))) == oracles.extension(frame, val, f)

    f2, g = draw(rng, frame, sig, [sort, sort], 2)
    ev = FrameEvaluator(frame, variables(f2) | variables(g) | {Var("extra", sorts[0])})
    assert ev.valid(f2) == (oracles.falsify(frame, f2) is None)
    assert ev.equivalent(f2, g) == oracles.equivalent(frame, f2, g)
    assert ev.equivalent(f2, f2)


@pytest.mark.parametrize("seed", range(40))
def test_context_frames(seed):
    rng = random.Random(seed)
    frame = context_to_frame(oracles.random_context(rng, 3, 3))
    assert_agrees(rng, frame, FULL)


@pytest.mark.parametrize("seed", range(25))
def test_polyadic_frame(seed):
    rng = random.Random(1000 + seed)
    assert_agrees(rng, random_poly_frame(rng), POLY)


def test_countermodel_in_a_later_block():
    # Only g5 has an attribute, so the formula fails exactly when p holds at
    # g5.  With p first in (sort, name) order its mask takes the high bits:
    # the first failing valuation is p = {g5}, q = r = x = {} at index
    # 16 << 11 (x, r and q hold the 11 low bits), past the first block.
    ctx = FormalContext.from_pairs(
        tuple(f"g{i}" for i in range(1, 6)), ("m1",), [("g5", "m1")]
    )
    frame = context_to_frame(ctx)
    p, q, r = (Var(n, SORT1) for n in "pqr")
    x = Var("x", SORT2)
    noise = And(Or(q, Neg(q)), Or(r, Neg(Dia(FULL.modality("dia-"), (x,)))))
    has_attr = Dia(FULL.modality("dia-"), (Top(SORT2),))
    f = Neg(And(And(p, has_attr), noise))
    assert space(frame, [f]) == 1 << 16 > _BLOCK
    assert 16 << 11 >= _BLOCK
    want = oracles.falsify(frame, f)
    assert want.assignments[0] == (p, ("g5",)) and want.world == "g5"
    assert falsify(frame, f) == want
    assert consequence_countermodel(frame, [Or(q, Neg(q))], f) == want
    assert consequence_countermodel(frame, [q], f) == (
        oracles.consequence_countermodel(frame, [q], f)
    )
    assert global_consequence(frame, [Imp(p, Neg(has_attr))], f)
    assert not global_consequence(frame, [Dia(FULL.modality("dia"), (r,))], f)
    ev = FrameEvaluator(frame, [p, q, r, x])
    assert not ev.valid(f)
    assert ev.valid(Imp(And(p, has_attr), Or(Neg(noise), Neg(f))))
