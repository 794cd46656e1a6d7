"""Two-sorted relational frames, models, truth sets, and exhaustive validity.

A frame is the paper's two-sorted frame: a carrier per sort and one
relation leaving each sort, held as one successor mask per world, which
every modality into that sort reads, so the diamond and window dialects
evaluate on every frame.  A context's frame takes its rows and columns as
those masks; ``SortedFrame.relations``, as name pairs, is a view of them.

One evaluator computes every truth value here, bit-sliced over valuations:
a formula's truth is one int per world of its sort, whose bit k is its
truth at that world under the k-th valuation.  Connectives are word
operations; a diamond is the OR of the argument slices over a world's
successors, a box is its dual, and a window box is the complement of the OR
of the argument slices over non-successors.  Inside the package a valuation
is a dict from variables to world masks.  A batch of (formula, valuation)
items is one block with item k's valuation at bit k, and each truth set is
a mask read off its item's bit (``_truth_sets``).  ``truth_set`` is the one
place a ``Valuation`` of world names is checked and turned into masks, for a
one-item batch whose mask it returns as a ``SortedSubset``.  A tautology test
(``proofs``) is a one-world frame whose memo is seeded with the atoms'
truth-table columns.  Evaluation runs on ``syntax._walk``: children first,
each shared node once, no recursion.

Every exhaustive check runs on one scanner, ``FrameEvaluator``: it
enumerates all valuations of a variable set, refusing explicitly when the
assignment count exceeds the budget.  Valuations are numbered in
``itertools.product`` order over the variables sorted by (sort, name), each
ranging over its world masks, so the last variable takes the low bits.  A
check is a pair of formulas of one sort, which fails where the two differ:
validity of ``f`` is ``(f, Top)``, equivalence is ``(f, g)``, and local
consequence is the validity of the premises' implication.  The space is
streamed in fixed-size blocks, each evaluated once for a whole list of
checks; a check's reported countermodel is its lowest failing valuation,
then its lowest failing world, and the scan stops once every check has
failed.  Validity and local consequence are one-check scans; global
consequence reads its formulas' validity checks block by block.  Everything
here is pure and immutable-by-convention; models can be shared freely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .context import FormalContext, SortedSubset, _or_over, iter_bits
from .errors import (
    BudgetExceededError,
    FrameError,
    SortMismatchError,
    ValuationError,
)
from .syntax import (
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
    Top,
    Var,
    _walk,
    variables,
)

DEFAULT_BUDGET = 1 << 20

_DIRECTIONS = ((SORT1, SORT2), (SORT2, SORT1))


class SortedFrame:
    """Finite carriers per sort plus one relation leaving each sort.

    A frame is its successor masks: ``_succ[s][i]`` is the mask of the worlds
    of the other sort that world i of sort ``s`` relates to, which every
    modality whose result sort is ``s`` (diamond, box and window alike)
    reads.  The constructor takes each relation as pairs ``(w, u)``, and a
    sort missing from ``relations`` relates nothing; ``relations`` reads the
    pairs back off the masks.  Carriers are disjoint by sort tagging, so
    equal world names in different sorts are allowed.
    """

    def __init__(
        self,
        carriers: Mapping[str, Sequence[str]],
        relations: Mapping[str, Iterable[tuple[str, str]]],
    ):
        self.carriers = {s: tuple(ws) for s, ws in carriers.items()}
        for s in (SORT1, SORT2):
            if not self.carriers.get(s):
                raise FrameError(f"carrier for sort {s!r} must be non-empty")
        for s, ws in self.carriers.items():
            if s not in (SORT1, SORT2):
                raise FrameError(f"unknown sort {s!r}: carriers are for {SORT1!r} and {SORT2!r}")
            if len(set(ws)) != len(ws):
                raise FrameError(f"carrier for sort {s!r} has duplicate worlds")
        for s in relations:
            if s not in (SORT1, SORT2):
                raise FrameError(f"unknown sort {s!r}: relations leave {SORT1!r} and {SORT2!r}")
        self._succ: dict[str, tuple[int, ...]] = {}
        for s, other in _DIRECTIONS:
            source, target = self._index[s], self._index[other]
            masks = [0] * len(source)
            for w, u in relations.get(s, ()):
                if w not in source or u not in target:
                    unknown = u if w in source else w
                    raise FrameError(f"unknown world {unknown!r} in the relation from {s!r}")
                masks[source[w]] |= 1 << target[u]
            self._succ[s] = tuple(masks)

    @classmethod
    def _from_masks(cls, carriers: dict, succ: dict[str, tuple[int, ...]]) -> "SortedFrame":
        """The frame of well-formed carriers and successor masks, unchecked."""
        frame = cls.__new__(cls)
        frame.carriers, frame._succ = carriers, succ
        return frame

    @functools.cached_property
    def _index(self) -> dict[str, dict[str, int]]:
        return {s: {w: i for i, w in enumerate(ws)} for s, ws in self.carriers.items()}

    @property
    def relations(self) -> dict[str, frozenset[tuple[str, str]]]:
        """Each sort's relation as (world, world) name pairs, a view of the masks."""
        out = {}
        for s, other in _DIRECTIONS:
            targets, pairs = self.carriers[other], zip(self.carriers[s], self._succ[s])
            out[s] = frozenset((w, targets[u]) for w, mask in pairs for u in iter_bits(mask))
        return out

    @functools.cached_property
    def bidirectional(self) -> bool:
        """Whether the two relations are each other's converse: the masks
        leaving sort 2 are the columns of the context whose rows are those
        leaving sort 1."""
        ctx = FormalContext(self.carriers[SORT1], self.carriers[SORT2], self._succ[SORT1])
        return ctx.cols == self._succ[SORT2]

    def carrier(self, sort: str) -> tuple[str, ...]:
        try:
            return self.carriers[sort]
        except KeyError:
            raise SortMismatchError("|".join(self.carriers), sort, "frame carrier")

    def carrier_size(self, sort: str) -> int:
        return len(self.carrier(sort))


class Valuation:
    """Assignment of world sets to sorted propositional variables."""

    def __init__(self, assignments: Mapping[Var, Iterable[str]] | None = None):
        self._map: dict[Var, frozenset[str]] = {}
        for v, worlds in (assignments or {}).items():
            self._map[v] = frozenset(worlds)

    def worlds(self, v: Var) -> frozenset[str]:
        try:
            return self._map[v]
        except KeyError:
            raise ValuationError(f"variable {v.name!r} of sort {v.sort} is unassigned")


@dataclass
class Model:
    """A frame plus a valuation."""

    frame: SortedFrame
    valuation: Valuation


def context_to_frame(ctx: FormalContext) -> SortedFrame:
    """The bidirectional frame of a context: carriers (G, M), both dialects.

    The relation leaving the objects is the incidence and the one leaving
    the attributes its converse, so diamond/box and window formulas evaluate
    over one frame: the context's rows and columns are its successor masks.
    """
    return SortedFrame._from_masks(
        {SORT1: ctx.objects, SORT2: ctx.attributes}, {SORT1: ctx.rows, SORT2: ctx.cols}
    )


def frame_to_context(frame: SortedFrame) -> FormalContext:
    """The context of a bidirectional frame: its incidence is the relation
    leaving the objects."""
    if not frame.bidirectional:
        raise FrameError("only bidirectional frames correspond to contexts")
    return FormalContext(frame.carrier(SORT1), frame.carrier(SORT2), frame._succ[SORT1])


def complement_frame(frame: SortedFrame) -> SortedFrame:
    """Complement both relations; preserves bidirectionality."""
    full = {s: (1 << len(ws)) - 1 for s, ws in frame.carriers.items()}
    succ = {s: tuple(full[other] ^ m for m in frame._succ[s]) for s, other in _DIRECTIONS}
    return SortedFrame._from_masks(dict(frame.carriers), succ)


# Valuations per slice block when a scan streams the valuation space.
_BLOCK = 1 << 16


def _index_bit(bit: int, base: int, width: int) -> int:
    """Slice of bit ``bit`` of the indices ``base .. base + width - 1``.

    ``width`` is a power of two and ``base`` a multiple of it, so a high bit
    is constant over the block and a low bit repeats with period
    ``2 << bit``; the pattern is doubled up to the width by shifts.
    """
    half = 1 << bit
    if half >= width:
        return (1 << width) - 1 if base >> bit & 1 else 0
    column = ((1 << half) - 1) << half
    span = 2 * half
    while span < width:
        column |= column << span
        span *= 2
    return column


class _Slices:
    """The formula evaluator: memoized truth slices over a block of valuations.

    ``self(f)`` lists one int per world of ``f``'s sort, whose bit k is the
    truth of ``f`` at that world under the block's k-th valuation.  The memo
    starts out holding the variables' slices; the walk never enters a node
    in it.
    """

    def __init__(self, frame: SortedFrame, width: int, var_slices: dict[Var, list[int]]):
        self.frame = frame
        self.full = (1 << width) - 1
        self.memo: dict[Formula, list[int]] = dict(var_slices)

    def __call__(self, f: Formula) -> list[int]:
        return self.memo.get(f) or _walk(f, self.memo, self._build)

    def _build(self, f: Formula) -> list[int]:
        """``f``'s slices, from the slices of its children in the memo."""
        memo, full, cls = self.memo, self.full, type(f)
        if cls is Neg:
            return [full ^ a for a in memo[f.arg]]
        if cls is And:
            return [a & b for a, b in zip(memo[f.left], memo[f.right])]
        if cls is Or:
            return [a | b for a, b in zip(memo[f.left], memo[f.right])]
        if cls is Imp:
            return [(full ^ a) | b for a, b in zip(memo[f.left], memo[f.right])]
        if cls is Iff:
            return [full ^ a ^ b for a, b in zip(memo[f.left], memo[f.right])]
        if cls is Bot or cls is Top:
            return [0 if cls is Bot else full] * self.frame.carrier_size(f.sort)
        if cls is Var:  # a variable the memo was not seeded with
            raise ValuationError(
                f"variable {f.name!r} of sort {f.sort} is outside the evaluated variables"
            )
        return self._modal(f, memo[f.arg])

    def _modal(self, f: Dia | Box, arg: list[int]) -> list[int]:
        """One OR of argument slices per world, over its successor mask.

        A diamond ORs the slices of the successors.  A box is the dual: the
        complement of the OR of the complemented slices.  A window box
        (sufficiency: no world outside the successors satisfies the
        argument) complements the OR of the slices over the complemented
        mask.
        """
        full, masks = self.full, self.frame._succ[f.sort]
        if f.mod.window:
            every = (1 << len(arg)) - 1
            masks = [every ^ m for m in masks]
        elif type(f) is Box:
            arg = [full ^ a for a in arg]
        out = [_or_over(arg, m) for m in masks]
        return out if type(f) is Dia else [full ^ o for o in out]


def _block_slices(
    frame: SortedFrame, vs: Sequence[Var], base: int, width: int
) -> dict[Var, list[int]]:
    """Variable slices for valuations ``base .. base + width - 1`` of ``vs``.

    Valuations are numbered in ``itertools.product`` order over ``vs`` with
    each variable ranging over its world masks, so the last variable takes
    the low bits of the index and world i of a variable is one index bit.
    """
    out = {}
    bit = 0
    for v in reversed(vs):
        n = frame.carrier_size(v.sort)
        out[v] = [_index_bit(bit + i, base, width) for i in range(n)]
        bit += n
    return out


def _truth_sets(frame: SortedFrame, items: Sequence[tuple[Formula, Mapping[Var, int]]]) -> list[int]:
    """Each (formula, valuation) item's truth set as a mask over its sort's
    carrier, item k read off bit k.

    A valuation maps each variable of its formula to a world mask of the
    variable's sort.  Blocks of at most ``_BLOCK`` items share one
    ``_Slices`` memo, so a subformula common to several items is evaluated
    once.  A variable's bit k is item k's valuation of it, 0 if item k's
    formula does not use it.
    """
    out = []
    for start in range(0, len(items), _BLOCK):
        block = items[start : start + _BLOCK]
        seeds: dict[Var, list[int]] = {}
        for k, (_, valuation) in enumerate(block):
            bit = 1 << k
            for v, mask in valuation.items():
                column = seeds.setdefault(v, [0] * len(frame.carriers[v.sort]))
                for i in iter_bits(mask):
                    column[i] |= bit
        ev = _Slices(frame, len(block), seeds)
        for k, (f, _) in enumerate(block):
            out.append(sum((s >> k & 1) << i for i, s in enumerate(ev(f))))
    return out


def truth_set(model: Model, f: Formula) -> SortedSubset:
    """All worlds of sort(f) where the formula holds.

    The model's valuation becomes world masks here, for ``f``'s variables in
    (sort, name) order; an error names the first variable that is unassigned
    or mentions a world outside its sort's carrier.
    """
    frame, masks = model.frame, {}
    for v in _valuation_order(variables(f)):
        worlds, index = model.valuation.worlds(v), frame._index[v.sort]
        if unknown := worlds - index.keys():
            raise ValuationError(f"valuation of {v.name!r} mentions unknown world {min(unknown)!r}")
        masks[v] = sum(1 << index[w] for w in worlds)
    return SortedSubset(f.sort, _truth_sets(frame, [(f, masks)])[0], frame.carrier_size(f.sort))


def satisfies(model: Model, world: str, f: Formula) -> bool:
    """Truth at a single world; the world must inhabit the formula's sort."""
    index, other = model.frame._index, dict(_DIRECTIONS)[f.sort]
    if world not in index[f.sort]:
        if world not in index[other]:
            raise FrameError(f"unknown world {world!r}")
        raise SortMismatchError(f.sort, other, f"world {world!r}")
    return bool(truth_set(model, f).bits >> index[f.sort][world] & 1)


def _valuation_order(vs: Iterable[Var]) -> list[Var]:
    """The distinct variables by (sort, name).  This order numbers a scan's
    valuations, so it fixes the countermodel reported, and the suites draw
    random valuations in it."""
    return sorted(set(vs), key=lambda v: (v.sort, v.name))


def _describe_valuation(assignments: Iterable[tuple[Var, Iterable[str]]]) -> str:
    """``v(p)={a,b}; v(q)={}`` for the (variable, worlds) pairs, in order."""
    parts = [f"v({v.name})={{{','.join(ws)}}}" for v, ws in assignments]
    return "; ".join(parts) or "empty valuation"


@dataclass(frozen=True)
class Countermodel:
    """A falsifying valuation plus a world, reported on validity failure."""

    assignments: tuple[tuple[Var, tuple[str, ...]], ...]
    world: str

    def describe(self) -> str:
        return f"{_describe_valuation(self.assignments)} falsifies at world {self.world}"


# A check is a pair of formulas of one sort; it fails at each (valuation,
# world) where its two formulas differ.
Check = tuple[Formula, Formula]


def validity_check(f: Formula) -> Check:
    """Fails where ``f`` is false."""
    return f, Top(f.sort)


def equivalence_check(f: Formula, g: Formula) -> Check:
    """Fails where ``f`` and ``g`` differ."""
    if f.sort != g.sort:
        raise SortMismatchError(f.sort, g.sort, "equivalence check")
    return f, g


class FrameEvaluator:
    """The exhaustive scanner: decides a list of checks over every valuation.

    A check is a pair of formulas of one sort, and it fails at each
    valuation and world where the two differ.  For a frame and a variable
    universe, ``scan(checks)`` streams the space of all valuations of the
    universe in blocks of ``_BLOCK``, with one ``_Slices`` memo per block
    shared by every check, and returns for each check its lowest failing
    valuation, then its lowest failing world, or ``None`` if it never fails.
    A check that has failed is not evaluated again, and the scan stops once
    every check has failed.  The budget refusal happens at construction.
    """

    def __init__(
        self,
        frame: SortedFrame,
        variable_universe: Iterable[Var],
        budget: int = DEFAULT_BUDGET,
    ):
        self.frame = frame
        self.vars = _valuation_order(variable_universe)
        # each world of each variable is one bit of a valuation's index
        self.count = 1 << sum(frame.carrier_size(v.sort) for v in self.vars)
        if self.count > budget:
            raise BudgetExceededError(self.count, budget)
        self.width = min(self.count, _BLOCK)

    def scan(self, checks: Sequence[Check]) -> list[Countermodel | None]:
        found: list[Countermodel | None] = [None] * len(checks)
        pending = list(range(len(checks)))
        for base in range(0, self.count, self.width):
            if not pending:
                break
            bad = self.signature(base, [checks[i] for i in pending])
            still = []
            for i, slices in zip(pending, bad):
                any_bad = 0
                for b in slices:
                    any_bad |= b
                if any_bad:
                    found[i] = self._countermodel(checks[i][0].sort, base, slices, any_bad)
                else:
                    still.append(i)
            pending = still
        return found

    def signature(self, base: int, checks: Sequence[Check]) -> list[list[int]]:
        """Each check's failure slices on the block of valuations from ``base``:
        one int per world, the XOR of its two formulas' slices there."""
        ev = _Slices(
            self.frame, self.width, _block_slices(self.frame, self.vars, base, self.width)
        )
        return [[a ^ b for a, b in zip(ev(f), ev(g))] for f, g in checks]

    def _countermodel(
        self, sort: str, base: int, bad: list[int], any_bad: int
    ) -> Countermodel:
        lowest = any_bad & -any_bad
        world = next(w for w, b in enumerate(bad) if b & lowest)
        index = base + lowest.bit_length() - 1
        assignments = []
        for v in reversed(self.vars):
            carrier = self.frame.carrier(v.sort)
            mask = index & ((1 << len(carrier)) - 1)
            assignments.append((v, tuple(carrier[i] for i in iter_bits(mask))))
            index >>= len(carrier)
        return Countermodel(tuple(reversed(assignments)), self.frame.carrier(sort)[world])


def falsify(
    frame: SortedFrame, f: Formula, budget: int = DEFAULT_BUDGET
) -> Countermodel | None:
    """Search all valuations for a countermodel; None means frame-valid."""
    return FrameEvaluator(frame, variables(f), budget).scan([validity_check(f)])[0]


def frame_valid(frame: SortedFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Exact frame validity by exhaustive valuation enumeration."""
    return falsify(frame, f, budget) is None


def consequence_countermodel(
    frame: SortedFrame,
    premises: Sequence[Formula],
    conclusion: Formula,
    budget: int = DEFAULT_BUDGET,
) -> Countermodel | None:
    """Counterexample to local consequence on this frame, if any: a
    countermodel to ``p1 -> (p2 -> ... -> conclusion)``, which fails exactly
    where every premise holds and the conclusion does not."""
    implication = conclusion
    for p in reversed(premises):
        if p.sort != conclusion.sort:
            raise SortMismatchError(conclusion.sort, p.sort, "local consequence")
        implication = Imp(p, implication)
    return falsify(frame, implication, budget)


def local_consequence(
    frame: SortedFrame,
    premises: Sequence[Formula],
    conclusion: Formula,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Every (valuation, world) satisfying all premises satisfies the conclusion."""
    return consequence_countermodel(frame, premises, conclusion, budget) is None


def global_consequence(
    frame: SortedFrame,
    premises: Sequence[Formula],
    conclusion: Formula,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Valuations making every premise true everywhere make the conclusion so.

    Unlike local consequence this allows premises of either sort; it is the
    notion preserved by derivations that generalize over premise-derived
    lines (generalization moves between the sorts).  It is not one check: a
    valuation is read off the premises' validity checks at every world.
    """
    formulas = [*premises, conclusion]
    scanner = FrameEvaluator(frame, (v for f in formulas for v in variables(f)), budget)
    checks = [validity_check(f) for f in formulas]
    for base in range(0, scanner.count, scanner.width):
        *premise_failures, conclusion_failures = scanner.signature(base, checks)
        broken = 0  # the valuations under which some premise fails somewhere
        for slices in premise_failures:
            for b in slices:
                broken |= b
        if any(b & ~broken for b in conclusion_failures):
            return False
    return True
