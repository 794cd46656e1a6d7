"""Independent reference answers for every benchmark job.

Everything here works on plain Python sets of object and attribute names and
quantifies explicitly, in the style of ``tests/oracles.py``; nothing imports
``conceptlogic``.  The runner calls these checks after the timed phase, on
each distinct output a job produced.  A check returns ``None`` when the
output is right and a short description of the first disagreement otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from formulas import MODS, S1, sort_of, variables


@dataclass(frozen=True)
class Context:
    """A formal context: ``rows[i]`` is the attribute set of ``objects[i]``."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[frozenset, ...]

    @cached_property
    def row(self) -> dict[str, frozenset]:
        return dict(zip(self.objects, self.rows))

    @cached_property
    def col(self) -> dict[str, frozenset]:
        return {
            m: frozenset(g for g in self.objects if m in self.row[g]) for m in self.attributes
        }

    def carrier(self, sort: str) -> tuple[str, ...]:
        return self.objects if sort == S1 else self.attributes

    def cxt_text(self) -> str:
        lines = ["B", "", str(len(self.objects)), str(len(self.attributes)), ""]
        lines += self.objects
        lines += self.attributes
        for r in self.rows:
            lines.append("".join("X" if m in r else "." for m in self.attributes))
        return "\n".join(lines) + "\n"


# --- the six set operators and the three concept kinds ------------------------


def plus(ctx: Context, A) -> frozenset:
    return frozenset(m for m in ctx.attributes if all(m in ctx.row[g] for g in A))


def minus(ctx: Context, B) -> frozenset:
    return frozenset(g for g in ctx.objects if B <= ctx.row[g])


def poss(ctx: Context, A) -> frozenset:
    return frozenset(m for m in ctx.attributes if ctx.col[m] & A)


def nec(ctx: Context, A) -> frozenset:
    return frozenset(m for m in ctx.attributes if ctx.col[m] <= A)


def poss_inv(ctx: Context, B) -> frozenset:
    return frozenset(g for g in ctx.objects if ctx.row[g] & B)


def nec_inv(ctx: Context, B) -> frozenset:
    return frozenset(g for g in ctx.objects if ctx.row[g] <= B)


# kind -> (extent to intent, intent to extent)
KIND_OPS = {"fc": (plus, minus), "pc": (poss, nec_inv), "oc": (nec, poss_inv)}

BRUTE_FORCE_MAX_OBJECTS = 10


def extents_by_brute_force(ctx: Context, kind: str) -> set[frozenset]:
    """Every object subset that the kind's composite operator fixes."""
    fwd, bwd = KIND_OPS[kind]
    found = set()
    for size in range(len(ctx.objects) + 1):
        for A in combinations(ctx.objects, size):
            A = frozenset(A)
            if bwd(ctx, fwd(ctx, A)) == A:
                found.add(A)
    return found


def extents_by_generators(ctx: Context, kind: str) -> set[frozenset]:
    """The extent family as the closure of its generators.

    Formal extents are the intersections of columns, property-oriented
    extents the intersections of column complements, object-oriented
    extents the unions of columns (the empty family giving all objects, all
    objects and no object respectively).
    """
    cols = list(ctx.col.values())
    if kind == "fc":
        start, steps = frozenset(ctx.objects), [lambda E, c=c: E & c for c in cols]
    elif kind == "pc":
        start, steps = frozenset(ctx.objects), [lambda E, c=c: E - c for c in cols]
    else:
        start, steps = frozenset(), [lambda E, c=c: E | c for c in cols]
    found, frontier = {start}, [start]
    while frontier:
        E = frontier.pop()
        for step in steps:
            F = step(E)
            if F not in found:
                found.add(F)
                frontier.append(F)
    return found


def concept_set(ctx: Context, kind: str) -> set[tuple[frozenset, frozenset]]:
    """All concepts of a kind as (extent, intent) pairs of name sets; by
    brute force where that is cheap, from the generators otherwise."""
    if len(ctx.objects) <= BRUTE_FORCE_MAX_OBJECTS:
        extents = extents_by_brute_force(ctx, kind)
    else:
        extents = extents_by_generators(ctx, kind)
    fwd = KIND_OPS[kind][0]
    return {(A, fwd(ctx, A)) for A in extents}


@dataclass(frozen=True)
class ConceptListing:
    """What a concepts/lattice command printed, independent of its format."""

    concepts: list[tuple[tuple[str, ...], tuple[str, ...]]]
    covers: list[tuple[int, int]] | None = None
    top: int | None = None
    bottom: int | None = None


def expected_listing(ctx: Context, kind: str, lattice: bool) -> ConceptListing:
    index = {g: i for i, g in enumerate(ctx.objects)}
    found = sorted(concept_set(ctx, kind), key=lambda c: sorted(index[g] for g in c[0]))
    concepts = [
        (
            tuple(g for g in ctx.objects if g in A),
            tuple(m for m in ctx.attributes if m in B),
        )
        for A, B in found
    ]
    if not lattice:
        return ConceptListing(concepts)
    extents = [A for A, _ in found]
    covers = []
    for i, low in enumerate(extents):
        above = sorted((j for j, E in enumerate(extents) if low < E), key=lambda j: len(extents[j]))
        mine: list[int] = []
        for j in above:
            if not any(extents[k] < extents[j] for k in mine):
                mine.append(j)
        covers += [(i, j) for j in sorted(mine)]
    top = next(i for i, E in enumerate(extents) if all(F <= E for F in extents))
    bottom = next(i for i, E in enumerate(extents) if all(E <= F for F in extents))
    return ConceptListing(concepts, covers, top, bottom)


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


_TEXT_CONCEPT = re.compile(r"^(\d+): extent=\{([^}]*)\} intent=\{([^}]*)\}$")
_DOT_NODE = re.compile(r'^  n(\d+) \[label="\{([^}]*)\} / \{([^}]*)\}"\];$')
_DOT_EDGE = re.compile(r"^  n(\d+) -> n(\d+);$")


def parse_listing(out: str, fmt: str, kind: str, lattice: bool) -> ConceptListing:
    """Read a concepts/lattice output; raises ValueError on a malformed one."""
    lines = out.splitlines()
    concepts, covers, top, bottom = [], [], None, None
    if fmt == "text":
        head = re.fullmatch(rf"kind={kind} count=(\d+)", lines[0] if lines else "")
        if head is None:
            raise ValueError("missing 'kind=... count=...' header")
        count = int(head.group(1))
        for i, line in enumerate(lines[1 : count + 1]):
            m = _TEXT_CONCEPT.match(line)
            if m is None or int(m.group(1)) != i:
                raise ValueError(f"bad concept line {line!r}")
            concepts.append((_names(m.group(2)), _names(m.group(3))))
        rest = lines[count + 1 :]
        if lattice:
            for line in rest[:-1]:
                m = re.fullmatch(r"cover: (\d+) < (\d+)", line)
                if m is None:
                    raise ValueError(f"bad cover line {line!r}")
                covers.append((int(m.group(1)), int(m.group(2))))
            m = re.fullmatch(r"top=(\d+) bottom=(\d+)", rest[-1] if rest else "")
            if m is None:
                raise ValueError("missing 'top=... bottom=...' line")
            top, bottom = int(m.group(1)), int(m.group(2))
        elif rest:
            raise ValueError("trailing lines after the concept list")
    elif fmt == "dot":
        if lines[:2] != ["digraph lattice {", "  rankdir=BT;"] or lines[-1:] != ["}"]:
            raise ValueError("not a 'digraph lattice' document")
        for line in lines[2:-1]:
            node, edge = _DOT_NODE.match(line), _DOT_EDGE.match(line)
            if node and int(node.group(1)) == len(concepts) and not covers:
                concepts.append((_names(node.group(2)), _names(node.group(3))))
            elif edge:
                covers.append((int(edge.group(1)), int(edge.group(2))))
            else:
                raise ValueError(f"bad dot line {line!r}")
    else:
        kv = {}
        for line in lines:
            key, sep, value = line.partition("=")
            if not sep or key in kv:
                raise ValueError(f"bad structured line {line!r}")
            kv[key] = value
        if kv.get("kind") != kind:
            raise ValueError("missing or wrong 'kind'")

        def seq(prefix: str) -> tuple[str, ...]:
            return tuple(kv[f"{prefix}.{j}"] for j in range(int(kv[f"{prefix}.count"])))

        try:
            for i in range(int(kv["concepts.count"])):
                concepts.append((seq(f"concepts.{i}.extent"), seq(f"concepts.{i}.intent")))
            if lattice:
                for i in range(int(kv["covers.count"])):
                    low, high = seq(f"covers.{i}")
                    covers.append((int(low), int(high)))
                top, bottom = int(kv["top"]), int(kv["bottom"])
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
    if not lattice:
        return ConceptListing(concepts)
    return ConceptListing(concepts, covers, top, bottom)


@dataclass(frozen=True)
class ConceptsCheck:
    """``concepts`` or ``lattice`` output: fixpoints, completeness, order, covers."""

    ctx: Context
    kind: str
    fmt: str
    lattice: bool

    def __call__(self, code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        try:
            got = parse_listing(out, self.fmt, self.kind, self.lattice)
        except (ValueError, IndexError) as exc:
            return f"unreadable output: {exc}"
        fwd, bwd = KIND_OPS[self.kind]
        for i, (ext, intent) in enumerate(got.concepts):
            A, B = frozenset(ext), frozenset(intent)
            if fwd(self.ctx, A) != B or bwd(self.ctx, B) != A:
                return f"listed concept {i} is not a fixpoint"
        want = expected_listing(self.ctx, self.kind, self.lattice)
        if len(got.concepts) != len(want.concepts):
            return f"{len(got.concepts)} concepts listed, {len(want.concepts)} exist"
        if got.concepts != want.concepts:
            return "concept list differs from the reference order"
        if got.covers != want.covers:
            return "covering relation differs from the reference"
        if self.fmt != "dot" and (got.top, got.bottom) != (want.top, want.bottom):
            return "top or bottom differs from the reference"
        return None


# --- formulas ------------------------------------------------------------------


def evaluate(f: tuple, ctx: Context, val: dict[str, frozenset]) -> frozenset:
    """Truth set of a formula in the context's bidirectional frame."""
    head = f[0]
    if head == "var":
        return frozenset(val[f[1]])
    if head == "bot":
        return frozenset()
    if head == "top":
        return frozenset(ctx.carrier(f[1]))
    if head in MODS:
        e = evaluate(f[1], ctx, val)
        if head == "dia":
            return frozenset(m for m in ctx.attributes if ctx.col[m] & e)
        if head == "box":
            return frozenset(m for m in ctx.attributes if ctx.col[m] <= e)
        if head == "boxm":
            return frozenset(m for m in ctx.attributes if e <= ctx.col[m])
        if head == "dia-":
            return frozenset(g for g in ctx.objects if ctx.row[g] & e)
        if head == "box-":
            return frozenset(g for g in ctx.objects if ctx.row[g] <= e)
        return frozenset(g for g in ctx.objects if e <= ctx.row[g])
    full = frozenset(ctx.carrier(sort_of(f)))
    if head == "~":
        return full - evaluate(f[1], ctx, val)
    a, b = evaluate(f[1], ctx, val), evaluate(f[2], ctx, val)
    if head == "&":
        return a & b
    if head == "|":
        return a | b
    if head == "->":
        return (full - a) | b
    return full - (a ^ b)


def describe_countermodel(ctx: Context, val: dict[str, frozenset], names, world: str) -> str:
    """The CLI's countermodel wording, for a valuation listed in ``names`` order."""
    parts = []
    for name, sort in names:
        carrier = ctx.carrier(sort)
        parts.append(f"v({name})={{{','.join(w for w in carrier if w in val[name])}}}")
    return f"{'; '.join(parts) or 'empty valuation'} falsifies at world {world}"


def _parse_countermodel(text: str) -> tuple[dict[str, frozenset], str]:
    left, sep, world = text.rpartition(" falsifies at world ")
    if not sep:
        raise ValueError("no 'falsifies at world'")
    val = {}
    if left != "empty valuation":
        for part in left.split("; "):
            m = re.fullmatch(r"v\((\w+)\)=\{([^}]*)\}", part)
            if m is None:
                raise ValueError(f"bad assignment {part!r}")
            val[m.group(1)] = frozenset(_names(m.group(2)))
    return val, world


@dataclass(frozen=True)
class CountermodelCheck:
    """``valid``/``consequence`` refutations: the printed countermodel must
    falsify the claim when re-evaluated here, and must be the first one in
    valuation order, which the generator fixed by construction."""

    ctx: Context
    premises: tuple[tuple, ...]
    conclusion: tuple
    expected: str

    def __call__(self, code: int, out: str, err: str) -> str | None:
        word = "fails" if self.premises else "invalid"
        if code != 1:
            return f"exit code {code}, expected 1"
        if not out.startswith(word + ": ") or not out.endswith("\n"):
            return f"output does not start with '{word}: '"
        try:
            val, world = _parse_countermodel(out[len(word) + 2 : -1])
        except ValueError as exc:
            return f"unreadable countermodel: {exc}"
        names = set()
        for f in (*self.premises, self.conclusion):
            names |= {n for n, _ in variables(f)}
        if set(val) != names:
            return "countermodel does not assign exactly the formula's variables"
        if not all(world in evaluate(p, self.ctx, val) for p in self.premises):
            return "a premise fails at the reported world"
        if world in evaluate(self.conclusion, self.ctx, val):
            return "the reported countermodel satisfies the formula"
        if out[len(word) + 2 : -1] != self.expected:
            return "not the first countermodel in valuation order"
        return None


@dataclass(frozen=True)
class TruthSetCheck:
    ctx: Context
    formula: tuple
    valuation: dict

    def __call__(self, code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        ts = evaluate(self.formula, self.ctx, self.valuation)
        carrier = self.ctx.carrier(sort_of(self.formula))
        want = "{" + ",".join(w for w in carrier if w in ts) + "}\n"
        return None if out == want else f"truth set {out.strip()} differs from {want.strip()}"


@dataclass(frozen=True)
class ExactCheck:
    """A verdict fixed by a theorem: the exit code and output are known."""

    code: int
    out: str

    def __call__(self, code: int, out: str, err: str) -> str | None:
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        return None if out == self.out else f"output {out[:60]!r} differs from {self.out[:60]!r}"


@dataclass(frozen=True)
class RejectCheck:
    """A mutated proof: rejected, and at the mutated line."""

    line: int

    def __call__(self, code: int, out: str, err: str) -> str | None:
        if code != 1:
            return f"exit code {code}, expected 1"
        if not out.startswith(f"rejected at line {self.line}: "):
            return f"output {out.strip()[:60]!r} is not a rejection at line {self.line}"
        return None


@dataclass(frozen=True)
class RefusalCheck:
    """An input over the valuation budget: exit code 3 and nothing printed."""

    def __call__(self, code: int, out: str, err: str) -> str | None:
        if code != 3:
            return f"exit code {code}, expected 3"
        if out or not err.startswith("budget refused"):
            return "a refusal prints only 'budget refused' on the error stream"
        return None
