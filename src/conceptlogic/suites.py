"""Seeded verification campaigns over a given context.

Each suite returns a report object with named checks; the CLI renders them
and maps failures to exit codes.  All randomness flows from one seed, so a
fixed seed and input reproduce byte-identical output.
"""

from __future__ import annotations

import random

from .context import FormalContext, iter_bits
from .lattices import ConceptKind, LawCheck, VerificationReport
from .logical import generate_pair, verify_isomorphisms, verify_quotient_lattice
from .parser import print_formula
from .semantics import (
    DEFAULT_BUDGET,
    _describe_valuation,
    _truth_sets,
    _valuation_order,
    complement_frame,
    context_to_frame,
)
from .syntax import (
    KF,
    SORT1,
    SORT2,
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Iff,
    Imp,
    Neg,
    Or,
    Signature,
    Top,
    Var,
    translate_rho,
    variables,
)

_VAR_POOLS = {SORT1: ("p", "q", "r"), SORT2: ("x", "y", "z")}


_KINDS = ["var", "bot", "top", "neg", "and", "or", "imp", "iff", "mod"]
_KIND_WEIGHTS = [5, 1, 1, 3, 4, 2, 2, 1, 6]
_BINARY = {"and": And, "or": Or, "imp": Imp, "iff": Iff}


def random_formula(
    rng: random.Random,
    sort: str,
    max_depth: int,
    sig: Signature,
    n_vars: int = 3,
) -> Formula:
    """Random dialect formula; variable names are disjoint per sort."""
    mods = {}
    for m in sig:
        forms = mods.setdefault(m.result_sort, [])
        forms += [(Box, m)] if m.window else [(Dia, m), (Box, m)]
    return _random_formula(rng, sort, max_depth, mods, n_vars)


def _random_formula(rng: random.Random, sort: str, max_depth: int, mods, n_vars: int) -> Formula:
    """``random_formula`` with the modal forms of each result sort in ``mods``."""
    while True:
        kind = (
            rng.choices(_KINDS, _KIND_WEIGHTS)[0]
            if max_depth > 0
            else rng.choices(["var", "bot", "top"], [6, 1, 1])[0]
        )
        if kind != "mod" or sort in mods:
            break
    if kind == "var":
        return Var(_VAR_POOLS[sort][rng.randrange(n_vars)], sort)
    if kind == "bot":
        return Bot(sort)
    if kind == "top":
        return Top(sort)
    if kind == "neg":
        return Neg(_random_formula(rng, sort, max_depth - 1, mods, n_vars))
    if kind == "mod":
        cls, m = rng.choice(mods[sort])
        return cls(m, _random_formula(rng, m.arg_sort, max_depth - 1, mods, n_vars))
    return _BINARY[kind](
        _random_formula(rng, sort, max_depth - 1, mods, n_vars),
        _random_formula(rng, sort, max_depth - 1, mods, n_vars),
    )


def random_valuation(rng: random.Random, frame, vs) -> dict[Var, int]:
    """Random world masks, drawn for the variables in valuation order and,
    for each, its worlds in carrier order."""
    return {
        v: sum(1 << i for i in range(frame.carrier_size(v.sort)) if rng.random() < 0.5)
        for v in _valuation_order(vs)
    }


_TRANSLATION_SAMPLES = 100
_TRANSLATION_DEPTH = 4


def suite_translation(ctx: FormalContext, seed: int) -> VerificationReport:
    """Pointwise agreement of window formulas with their translated images.

    Draws each random window-dialect formula, then a valuation on the
    context's frame; decides all samples in one batch on the frame and all
    translations in one batch on the complemented frame.  A failure names
    the first disagreeing sample and the worlds where its truth sets differ.
    Samples are masks; names are read off them only for that failure detail.
    """
    rng = random.Random(seed)
    frame = context_to_frame(ctx)
    cframe = complement_frame(frame)
    samples = []
    for _ in range(_TRANSLATION_SAMPLES):
        sort = rng.choice([SORT1, SORT2])
        f = random_formula(rng, sort, _TRANSLATION_DEPTH, KF, n_vars=3)
        samples.append((f, random_valuation(rng, frame, variables(f))))
    left = _truth_sets(frame, samples)
    # translate_rho keeps the variables, so each valuation serves both sides
    right = _truth_sets(cframe, [(translate_rho(f), val) for f, val in samples])
    bad = [k for k, (a, b) in enumerate(zip(left, right)) if a != b]
    detail = f"{len(samples) - len(bad)}/{len(samples)} sampled formulas agree on every world"
    if bad:
        k = bad[0]
        f, val = samples[k]
        assigned = _describe_valuation(
            (v, [frame.carrier(v.sort)[i] for i in iter_bits(m)]) for v, m in val.items()
        )
        differ = [frame.carrier(f.sort)[i] for i in iter_bits(left[k] ^ right[k])]
        detail += (
            f"; first disagreement: sample {k}, sort {f.sort}, {print_formula(f)}, "
            f"{assigned}, differs at {','.join(differ)}"
        )
    check = LawCheck("pointwise agreement", not bad, detail)
    return VerificationReport("translation semantics", [check])


_SEEDS = (
    Var("p", SORT1),
    Var("q", SORT1),
    And(Var("p", SORT1), Var("q", SORT1)),
    Top(SORT1),
    Bot(SORT1),
)


def suite_lattice(
    ctx: FormalContext, budget: int = DEFAULT_BUDGET
) -> dict[ConceptKind, VerificationReport]:
    """The quotient lattice laws of each kind on the seed family, PC first."""
    frame = context_to_frame(ctx)
    return {
        kind: verify_quotient_lattice(
            [generate_pair(s, kind) for s in _SEEDS], kind, frame, budget
        )
        for kind in (ConceptKind.PC, ConceptKind.OC, ConceptKind.FC)
    }


def suite_iso(ctx: FormalContext, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Each Yao clause on the families the seeds generate."""
    return verify_isomorphisms(_SEEDS, ctx, budget)
