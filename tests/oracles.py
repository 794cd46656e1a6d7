"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain Python sets of names and quantifies
explicitly, so it shares no code path with the bitmask implementations
it is used to check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from conceptlogic import FormalContext, SortedSubset
from conceptlogic.errors import FormulaSyntaxError
from conceptlogic.lattices import ConceptKind, SemanticConcept
from conceptlogic.parser import MODAL_TOKENS, SORT_DIGITS
from conceptlogic.semantics import Countermodel
from conceptlogic.syntax import (
    FULL,
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
    variables,
)

_DASHED_BASES = {"dia", "box", "boxm"}


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


def enumerate_concepts_bruteforce(ctx: FormalContext, kind: ConceptKind) -> list[SemanticConcept]:
    """The kind's concepts as ``enumerate_concepts`` lists them: found by the
    subset scans above and sorted by the tuple of their extent's indices."""
    scan = {
        ConceptKind.FC: formal_concepts,
        ConceptKind.PC: property_concepts,
        ConceptKind.OC: object_concepts,
    }[kind]
    concepts = [
        SemanticConcept(
            SortedSubset.from_names(SORT1, extent, ctx.objects),
            SortedSubset.from_names(SORT2, intent, ctx.attributes),
            kind,
        )
        for extent, intent in scan(ctx)
    ]
    return sorted(concepts, key=lambda c: c.extent.indices())


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
    arg = extension(frame, val, f.arg)
    rel = frame.relations[f.sort]
    out = set()
    for w in carrier:
        succ = [u for v, u in rel if v == w]
        if isinstance(f, Box) and f.mod.window:
            holds = all((w, u) in rel for u in arg)
        elif isinstance(f, Dia):
            holds = any(u in arg for u in succ)
        else:
            holds = all(u in arg for u in succ)
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


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology test, one row at a time with Python bools.

    The atoms are the variables and the maximal modal subformulas; every
    assignment of True/False to them is tried in turn.
    """
    atoms: list[Formula] = []

    def collect(g: Formula) -> None:
        if isinstance(g, (Var, Dia, Box)):
            if g not in atoms:
                atoms.append(g)
        elif isinstance(g, Neg):
            collect(g.arg)
        elif isinstance(g, (And, Or, Imp, Iff)):
            collect(g.left)
            collect(g.right)

    def value(g: Formula, row: dict) -> bool:
        if isinstance(g, (Var, Dia, Box)):
            return row[g]
        if isinstance(g, Bot):
            return False
        if isinstance(g, Top):
            return True
        if isinstance(g, Neg):
            return not value(g.arg, row)
        left, right = value(g.left, row), value(g.right, row)
        if isinstance(g, And):
            return left and right
        if isinstance(g, Or):
            return left or right
        if isinstance(g, Imp):
            return not left or right
        return left == right

    collect(f)
    return all(
        value(f, dict(zip(atoms, bits)))
        for bits in itertools.product((False, True), repeat=len(atoms))
    )


# --- the recursive-descent formula parser ------------------------------------
# The parser as it was before the one-pass stack parser replaced it: a
# per-character tokenizer, recursive descent into a concrete-syntax tree,
# a top-down sort solver and a second walk that builds the formula.  It is
# the oracle for ``conceptlogic.parser.parse_formula``.


@dataclass(frozen=True)
class _Token:
    kind: str  # 'mod', 'var', 'bot', 'top', 'punct'
    text: str
    pos: int
    sort: str | None = None  # declared sort for 'var'


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(_Token("punct", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(_Token("punct", "->", i))
            i += 2
        elif c in "()~&|":
            tokens.append(_Token("punct", c, i))
            i += 1
        elif c == "#":
            if text.startswith("#f", i):
                tokens.append(_Token("bot", "#f", i))
                i += 2
            elif text.startswith("#t", i):
                tokens.append(_Token("top", "#t", i))
                i += 2
            else:
                raise FormulaSyntaxError("expected '#f' or '#t'", i)
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word in _DASHED_BASES and i < n and text[i] == "-":
                word += "-"
                i += 1
            if word in MODAL_TOKENS:
                tokens.append(_Token("mod", word, start))
                continue
            sort = None
            if i < n and text[i] == ":":
                if i + 1 < n and text[i + 1] in SORT_DIGITS:
                    sort = SORT_DIGITS[text[i + 1]]
                    i += 2
                else:
                    raise FormulaSyntaxError("sort suffix must be ':1' or ':2'", i)
            tokens.append(_Token("var", word, start, sort))
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    return tokens


# Concrete-syntax tree: sorts are resolved in a second pass so that bare
# variables can pick up their sort from the position they occur in.


@dataclass
class _Node:
    kind: str  # 'var', 'bot', 'top', 'neg', 'and', 'or', 'imp', 'iff', 'modal'
    pos: int
    name: str = ""
    declared: str | None = None
    children: tuple["_Node", ...] = ()


class _Parser:
    def __init__(self, tokens: list[_Token], text_len: int):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.text_len)
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text == text

    def parse(self) -> _Node:
        node = self.iff()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def iff(self) -> _Node:
        parts = [self.imp()]
        positions = []
        while self.at_punct("<->"):
            positions.append(self.next().pos)
            parts.append(self.imp())
        node = parts[-1]
        for part, pos in zip(reversed(parts[:-1]), reversed(positions)):
            node = _Node("iff", pos, children=(part, node))
        return node

    def imp(self) -> _Node:
        parts = [self.or_()]
        positions = []
        while self.at_punct("->"):
            positions.append(self.next().pos)
            parts.append(self.or_())
        node = parts[-1]
        for part, pos in zip(reversed(parts[:-1]), reversed(positions)):
            node = _Node("imp", pos, children=(part, node))
        return node

    def or_(self) -> _Node:
        node = self.and_()
        while self.at_punct("|"):
            pos = self.next().pos
            node = _Node("or", pos, children=(node, self.and_()))
        return node

    def and_(self) -> _Node:
        node = self.unary()
        while self.at_punct("&"):
            pos = self.next().pos
            node = _Node("and", pos, children=(node, self.unary()))
        return node

    def unary(self) -> _Node:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.text_len)
        if tok.kind == "punct" and tok.text == "~":
            self.next()
            return _Node("neg", tok.pos, children=(self.unary(),))
        if tok.kind == "mod":
            self.next()
            return _Node("modal", tok.pos, name=tok.text, children=(self.unary(),))
        return self.atom()

    def atom(self) -> _Node:
        tok = self.next()
        if tok.kind == "var":
            return _Node("var", tok.pos, name=tok.text, declared=tok.sort)
        if tok.kind == "bot":
            return _Node("bot", tok.pos)
        if tok.kind == "top":
            return _Node("top", tok.pos)
        if tok.kind == "punct" and tok.text == "(":
            node = self.iff()
            self.expect(")")
            return node
        raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


class _SortSolver:
    """Resolve node sorts top-down; bare variables adopt positional sorts."""

    def __init__(self, sig: Signature, table: dict[str, str]):
        self.sig = sig
        self.table = table

    def solve(self, node: _Node, expected: str | None) -> str | None:
        if node.kind == "var":
            return self._solve_var(node, expected)
        if node.kind in ("bot", "top"):
            return expected
        if node.kind == "neg":
            return self.solve(node.children[0], expected)
        if node.kind == "modal":
            return self._solve_modal(node, expected)
        return self._solve_binary(node, expected)

    def _solve_var(self, node: _Node, expected: str | None) -> str | None:
        name = node.name
        if node.declared is not None:
            known = self.table.get(name)
            if known is not None and known != node.declared:
                raise FormulaSyntaxError(
                    f"variable {name!r} already has sort {known}", node.pos
                )
            if expected is not None and node.declared != expected:
                raise FormulaSyntaxError(
                    f"variable {name!r} has sort {node.declared}, "
                    f"position requires {expected}",
                    node.pos,
                )
            self.table[name] = node.declared
            return node.declared
        known = self.table.get(name)
        if known is not None:
            if expected is not None and known != expected:
                raise FormulaSyntaxError(
                    f"variable {name!r} has sort {known}, position requires {expected}",
                    node.pos,
                )
            return known
        if expected is not None:
            self.table[name] = expected
            return expected
        return None

    def _solve_modal(self, node: _Node, expected: str | None) -> str:
        _, mod = MODAL_TOKENS[node.name]
        if mod not in self.sig:
            raise FormulaSyntaxError(
                f"modality {node.name!r} is not in the signature", node.pos
            )
        if expected is not None and expected != mod.result_sort:
            raise FormulaSyntaxError(
                f"{node.name!r} yields sort {mod.result_sort}, "
                f"position requires {expected}",
                node.pos,
            )
        self.solve(node.children[0], mod.arg_sort)
        return mod.result_sort

    def _solve_binary(self, node: _Node, expected: str | None) -> str | None:
        left, right = node.children
        ls = self.solve(left, expected)
        rs = self.solve(right, expected if expected is not None else ls)
        final = expected or ls or rs
        if final is None:
            return None
        # a None result binds nothing, so a second pass is safe
        if ls is None:
            self.solve(left, final)
        elif ls != final:
            raise FormulaSyntaxError(
                f"operands have sorts {ls} and {final}", node.pos
            )
        if rs is None:
            self.solve(right, final)
        elif rs != final:
            raise FormulaSyntaxError(
                f"operands have sorts {final} and {rs}", node.pos
            )
        return final


_BINARY_CLASSES = {"and": And, "or": Or, "imp": Imp, "iff": Iff}


def _build_ast(node: _Node, sort: str, sig: Signature, table: dict[str, str]) -> Formula:
    if node.kind == "var":
        return Var(node.name, table[node.name])
    if node.kind == "bot":
        return Bot(sort)
    if node.kind == "top":
        return Top(sort)
    if node.kind == "neg":
        return Neg(_build_ast(node.children[0], sort, sig, table))
    if node.kind == "modal":
        cls, mod = MODAL_TOKENS[node.name]
        arg = _build_ast(node.children[0], mod.arg_sort, sig, table)
        return cls(mod, arg)
    left = _build_ast(node.children[0], sort, sig, table)
    right = _build_ast(node.children[1], sort, sig, table)
    return _BINARY_CLASSES[node.kind](left, right)


def _normalize_sort(sort) -> str | None:
    if sort is None:
        return None
    if sort in (SORT1, SORT2):
        return sort
    if str(sort) in SORT_DIGITS:
        return SORT_DIGITS[str(sort)]
    raise FormulaSyntaxError(f"unknown sort {sort!r}")


def parse_formula(
    text: str,
    expected_sort=None,
    sig: Signature = FULL,
    declarations: dict[str, str] | None = None,
) -> Formula:
    """Parse concrete syntax into a well-sorted formula.

    ``expected_sort`` (``"s1"``/``"s2"`` or ``1``/``2``) pins the root sort;
    without it the sort must be inferable from modalities or declared
    variables.  ``declarations`` maps variable names to sorts: it
    pre-declares them, and the sorts solved for new variables are bound into
    it, so a caller can share one table across several formulas.
    """
    expected = _normalize_sort(expected_sort)
    tokens = _tokenize(text)
    cst = _Parser(tokens, len(text)).parse()
    table = {} if declarations is None else declarations
    solver = _SortSolver(sig, table)
    result = solver.solve(cst, expected)
    if result is None:
        raise FormulaSyntaxError(
            "cannot infer the formula's sort; declare a variable sort with ':1'/':2' "
            "or supply expected_sort"
        )
    return _build_ast(cst, result, sig, table)
