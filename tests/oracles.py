"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain Python sets of names and quantifies
explicitly, so it shares no code path with the bitmask implementations
it is used to check.
"""

from __future__ import annotations

import itertools
import random

from conceptlogic import FormalContext
from conceptlogic.semantics import Countermodel
from conceptlogic.syntax import And, Bot, Box, Dia, Iff, Imp, Neg, Or, Top, Var, variables


def incident(ctx: FormalContext, g: str, m: str) -> bool:
    return ctx.incidence(g, m)


def row(ctx: FormalContext, g: str) -> set[str]:
    return {m for m in ctx.attributes if incident(ctx, g, m)}


def col(ctx: FormalContext, m: str) -> set[str]:
    return {g for g in ctx.objects if incident(ctx, g, m)}


def op_plus(ctx: FormalContext, A: set[str]) -> set[str]:
    return {m for m in ctx.attributes if all(incident(ctx, g, m) for g in A)}


def op_minus(ctx: FormalContext, B: set[str]) -> set[str]:
    return {g for g in ctx.objects if all(incident(ctx, g, m) for m in B)}


def op_poss(ctx: FormalContext, A: set[str]) -> set[str]:
    return {m for m in ctx.attributes if col(ctx, m) & A}


def op_nec(ctx: FormalContext, A: set[str]) -> set[str]:
    return {m for m in ctx.attributes if col(ctx, m) <= A}


def op_poss_inv(ctx: FormalContext, B: set[str]) -> set[str]:
    return {g for g in ctx.objects if row(ctx, g) & B}


def op_nec_inv(ctx: FormalContext, B: set[str]) -> set[str]:
    return {g for g in ctx.objects if row(ctx, g) <= B}


def all_subsets(elements: tuple[str, ...]) -> list[set[str]]:
    out = []
    for mask in range(1 << len(elements)):
        out.append({elements[i] for i in range(len(elements)) if mask >> i & 1})
    return out


def formal_concepts(ctx: FormalContext) -> set[tuple[frozenset, frozenset]]:
    found = set()
    for A in all_subsets(ctx.objects):
        B = op_plus(ctx, A)
        if op_minus(ctx, B) == A:
            found.add((frozenset(A), frozenset(B)))
    return found


def property_concepts(ctx: FormalContext) -> set[tuple[frozenset, frozenset]]:
    found = set()
    for A in all_subsets(ctx.objects):
        B = op_poss(ctx, A)
        if op_nec_inv(ctx, B) == A:
            found.add((frozenset(A), frozenset(B)))
    return found


def object_concepts(ctx: FormalContext) -> set[tuple[frozenset, frozenset]]:
    found = set()
    for A in all_subsets(ctx.objects):
        B = op_nec(ctx, A)
        if op_poss_inv(ctx, B) == A:
            found.add((frozenset(A), frozenset(B)))
    return found


def random_context(rng: random.Random, max_objects: int = 6, max_attributes: int = 6,
                   density: float | None = None) -> FormalContext:
    n_g = rng.randint(1, max_objects)
    n_m = rng.randint(1, max_attributes)
    p = rng.uniform(0.2, 0.8) if density is None else density
    objects = tuple(f"g{i + 1}" for i in range(n_g))
    attributes = tuple(f"m{j + 1}" for j in range(n_m))
    pairs = [
        (g, m) for g in objects for m in attributes if rng.random() < p
    ]
    return FormalContext.from_pairs(objects, attributes, pairs)


def covers(lattice) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of a lattice by the O(n^3) definition on its extents."""
    extents = [c.extent for c in lattice.concepts]
    n = len(extents)

    def leq(i, j):
        return extents[i].is_subset(extents[j])

    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq(i, j):
                continue
            if any(k != i and k != j and leq(i, k) and leq(k, j) for k in range(n)):
                continue
            out.append((i, j))
    return out


def check_lattice_laws(lattice) -> list[str]:
    """Commutativity, associativity, absorption, idempotence; [] if all hold."""
    failures = []
    n = len(lattice)
    rng = range(n)
    for i in rng:
        if lattice.meet(i, i) != i or lattice.join(i, i) != i:
            failures.append(f"idempotence fails at {i}")
    for i in rng:
        for j in rng:
            if lattice.meet(i, j) != lattice.meet(j, i):
                failures.append(f"meet commutativity fails at ({i},{j})")
            if lattice.join(i, j) != lattice.join(j, i):
                failures.append(f"join commutativity fails at ({i},{j})")
            if lattice.meet(i, lattice.join(i, j)) != i:
                failures.append(f"absorption meet/join fails at ({i},{j})")
            if lattice.join(i, lattice.meet(i, j)) != i:
                failures.append(f"absorption join/meet fails at ({i},{j})")
    for i in rng:
        for j in rng:
            for k in rng:
                if lattice.meet(lattice.meet(i, j), k) != lattice.meet(i, lattice.meet(j, k)):
                    failures.append(f"meet associativity fails at ({i},{j},{k})")
                if lattice.join(lattice.join(i, j), k) != lattice.join(i, lattice.join(j, k)):
                    failures.append(f"join associativity fails at ({i},{j},{k})")
    return failures


def k0() -> FormalContext:
    """The 2x2 fixture used throughout the examples."""
    return FormalContext.from_pairs(
        ("g1", "g2"), ("m1", "m2"), [("g1", "m1"), ("g2", "m1"), ("g2", "m2")]
    )


# --- per-valuation reference evaluator -----------------------------------------
#
# Truth sets are plain sets of world names, valuations are enumerated one at
# a time in itertools.product order over the (sort, name)-sorted variables,
# and each variable ranges over the subsets of its carrier in mask order
# (world i <-> bit i).  Countermodels are therefore the first failing
# valuation in that order, then the first failing world in carrier order.


def extension(frame, val, f) -> set[str]:
    """Worlds of f's sort where f holds under ``val`` (Var -> set of names)."""
    carrier = frame.carrier(f.sort)
    if isinstance(f, Var):
        return set(val[f])
    if isinstance(f, Bot):
        return set()
    if isinstance(f, Top):
        return set(carrier)
    if isinstance(f, Neg):
        return set(carrier) - extension(frame, val, f.arg)
    if isinstance(f, (And, Or, Imp, Iff)):
        left = extension(frame, val, f.left)
        right = extension(frame, val, f.right)
        if isinstance(f, And):
            return left & right
        if isinstance(f, Or):
            return left | right
        if isinstance(f, Imp):
            return (set(carrier) - left) | right
        return {w for w in carrier if (w in left) == (w in right)}
    args = [extension(frame, val, a) for a in f.args]
    rel = frame.relations[f.mod.name]
    out = set()
    for w in carrier:
        succ = [t[1:] for t in rel if t[0] == w]
        if isinstance(f, Box) and f.mod.window:
            holds = all((w, u) in rel for u in args[0])
        elif isinstance(f, Dia):
            holds = any(all(u in a for u, a in zip(t, args)) for t in succ)
        else:
            holds = all(any(u in a for u, a in zip(t, args)) for t in succ)
        if holds:
            out.add(w)
    return out


def valuations(frame, formulas):
    """Every valuation of the formulas' variables, in product order."""
    vs = sorted(set().union(*(variables(f) for f in formulas)), key=lambda v: (v.sort, v.name))
    choices = []
    for v in vs:
        carrier = frame.carrier(v.sort)
        choices.append(
            [
                tuple(w for i, w in enumerate(carrier) if m >> i & 1)
                for m in range(1 << len(carrier))
            ]
        )
    for combo in itertools.product(*choices):
        yield tuple(zip(vs, combo))


def falsify(frame, f):
    return consequence_countermodel(frame, [], f)


def consequence_countermodel(frame, premises, conclusion):
    for assignments in valuations(frame, [*premises, conclusion]):
        val = dict(assignments)
        held = set(frame.carrier(conclusion.sort))
        for p in premises:
            held &= extension(frame, val, p)
        got = extension(frame, val, conclusion)
        for w in frame.carrier(conclusion.sort):
            if w in held and w not in got:
                return Countermodel(assignments, w)
    return None


def global_consequence(frame, premises, conclusion) -> bool:
    for assignments in valuations(frame, [*premises, conclusion]):
        val = dict(assignments)
        if all(extension(frame, val, p) == set(frame.carrier(p.sort)) for p in premises):
            if extension(frame, val, conclusion) != set(frame.carrier(conclusion.sort)):
                return False
    return True


def equivalent(frame, f, g) -> bool:
    return all(
        extension(frame, dict(a), f) == extension(frame, dict(a), g)
        for a in valuations(frame, [f, g])
    )


def scan(frame, pairs):
    """Per pair (f, g), the first valuation, then world, where f and g differ.

    Valuations range over the variables of all the pairs together; g = None
    stands for truth everywhere, so (f, None) asks for a countermodel to f.
    """
    formulas = [h for pair in pairs for h in pair if h is not None]
    found = [None] * len(pairs)
    for assignments in valuations(frame, formulas):
        val = dict(assignments)
        for i, (f, g) in enumerate(pairs):
            if found[i] is not None:
                continue
            carrier = frame.carrier(f.sort)
            left = extension(frame, val, f)
            right = set(carrier) if g is None else extension(frame, val, g)
            for w in carrier:
                if (w in left) != (w in right):
                    found[i] = Countermodel(assignments, w)
                    break
    return found
