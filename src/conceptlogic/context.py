"""Finite formal contexts and the six set-level derivation/approximation operators.

A context is a finite two-sorted incidence structure (G, M, I).  Subsets of
either carrier are stored as integer bitmasks (bit i = i-th object or
attribute).  Every operator below is an OR over rows or columns, with
complements, read one byte of the input mask at a time from tables of
precomputed ORs that the context keeps, or one set bit at a time on input
carriers above ``_TABLE_LIMIT`` elements.  Contexts and subsets are
immutable and safe to share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DimensionError, SortMismatchError

# the two sorts: objects (sort 1) and attributes (sort 2)
SORT1 = "s1"
SORT2 = "s2"


def _mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order, taking the
    lowest set bit and clearing it, as ``_or_over`` walks a mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _byte_tables(units: Sequence[Any], empty: Any, add: Callable) -> tuple[list, ...]:
    """One table per 8 units, built by doubling: entry b of table k combines,
    by ``add`` from ``empty``, units 8k + i over the set bits i of b.  So a
    mask's image is one lookup per byte (Arlazarov et al.'s "Four Russians"
    tables)."""
    tables = []
    for base in range(0, len(units), 8):
        table = [empty]
        for unit in units[base : base + 8]:
            table += [add(x, unit) for x in table]
        tables.append(table)
    return tuple(tables)


def member_names(carrier: tuple[str, ...]) -> Callable[[int], tuple[str, ...]]:
    """Names of a mask's members in carrier order, as ``SortedSubset.members``,
    one table lookup per byte of the mask."""
    tables = _byte_tables([(name,) for name in carrier], (), operator.add)

    def names(mask: int) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for table in tables:
            out += table[mask & 255]
            mask >>= 8
        return out

    return names


@dataclass(frozen=True)
class SortedSubset:
    """A subset of one carrier, tagged with its sort.

    ``bits`` is a bitmask over a carrier of length ``size``; which carrier
    that is (objects or attributes of some context, or a frame carrier) is
    determined by ``sort`` plus the ambient structure.
    """

    sort: str
    bits: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise DimensionError(f"negative carrier size {self.size}")
        if not 0 <= self.bits < (1 << self.size):
            raise DimensionError(
                f"bitmask {self.bits:#x} does not fit a carrier of size {self.size}"
            )

    @classmethod
    def from_names(
        cls, sort: str, names: Iterable[str], carrier: tuple[str, ...]
    ) -> "SortedSubset":
        index = {name: i for i, name in enumerate(carrier)}
        try:
            return cls(sort, _mask_from_indices(index[n] for n in names), len(carrier))
        except KeyError as exc:
            raise DimensionError(f"unknown element {exc.args[0]!r}") from None

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def members(self, carrier: tuple[str, ...]) -> tuple[str, ...]:
        if len(carrier) != self.size:
            raise DimensionError(
                f"carrier has {len(carrier)} elements, subset sized for {self.size}"
            )
        return tuple(carrier[i] for i in iter_bits(self.bits))

    def complement(self) -> "SortedSubset":
        full = (1 << self.size) - 1
        return SortedSubset(self.sort, full ^ self.bits, self.size)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def is_subset(self, other: "SortedSubset") -> bool:
        return self.bits & ~other.bits == 0


@dataclass(frozen=True)
class FormalContext:
    """A finite context: object names, attribute names, and an incidence matrix.

    ``rows[g]`` is the bitmask of attributes incident to object ``g``.
    Carriers must be non-empty and names pairwise distinct per sort; the
    same name may appear as both an object and an attribute (the sorts are
    disjoint namespaces).
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.objects or not self.attributes:
            raise DimensionError("contexts need at least one object and one attribute")
        if len(set(self.objects)) != len(self.objects):
            raise DimensionError("object names must be pairwise distinct")
        if len(set(self.attributes)) != len(self.attributes):
            raise DimensionError("attribute names must be pairwise distinct")
        if len(self.rows) != len(self.objects):
            raise DimensionError(
                f"{len(self.rows)} incidence rows for {len(self.objects)} objects"
            )
        full = (1 << len(self.attributes)) - 1
        for g, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise DimensionError(f"row {g} does not fit {len(self.attributes)} attributes")

    @classmethod
    def from_pairs(
        cls,
        objects: Iterable[str],
        attributes: Iterable[str],
        incidence: Iterable[tuple[str, str]],
    ) -> "FormalContext":
        objects = tuple(objects)
        attributes = tuple(attributes)
        gi = {name: i for i, name in enumerate(objects)}
        mi = {name: i for i, name in enumerate(attributes)}
        rows = [0] * len(objects)
        for g, m in incidence:
            if g not in gi:
                raise DimensionError(f"unknown object {g!r} in incidence")
            if m not in mi:
                raise DimensionError(f"unknown attribute {m!r} in incidence")
            rows[gi[g]] |= 1 << mi[m]
        return cls(objects, attributes, tuple(rows))

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Column masks: ``cols[m]`` is the bitmask of objects incident to m."""
        cols = [0] * len(self.attributes)
        for g, row in enumerate(self.rows):
            for m in iter_bits(row):
                cols[m] |= 1 << g
        return tuple(cols)

    @cached_property
    def _kernels(self) -> dict["OperatorKind", Callable[[int], int]]:
        """Each operator's mask kernel, built by ``_kernel`` on first use."""
        return {}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def incidence(self, g: str, m: str) -> bool:
        if g not in self.objects:
            raise DimensionError(f"unknown object {g!r}")
        if m not in self.attributes:
            raise DimensionError(f"unknown attribute {m!r}")
        return bool(self.rows[self.objects.index(g)] >> self.attributes.index(m) & 1)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.objects[g], self.attributes[m])
            for g in range(self.n_objects)
            for m in iter_bits(self.rows[g])
        )

    def object_subset(self, names: Iterable[str] = ()) -> SortedSubset:
        return SortedSubset.from_names(SORT1, names, self.objects)

    def attribute_subset(self, names: Iterable[str] = ()) -> SortedSubset:
        return SortedSubset.from_names(SORT2, names, self.attributes)


class OperatorKind(Enum):
    """The six set operators: derivation (+, -) and approximation pairs."""

    PLUS = "plus"
    MINUS = "minus"
    POSS = "poss"
    NEC = "nec"
    POSS_INV = "poss_inv"
    NEC_INV = "nec_inv"

    # members are singletons: hash by identity, without ``Enum.__hash__``'s
    # Python-level call
    __hash__ = object.__hash__

    @property
    def input_sort(self) -> str:
        return SORT1 if self in _FORWARD else SORT2

    @property
    def output_sort(self) -> str:
        return SORT2 if self in _FORWARD else SORT1


_FORWARD = {OperatorKind.PLUS, OperatorKind.POSS, OperatorKind.NEC}


def apply_operator(kind: OperatorKind, subset: SortedSubset, ctx: FormalContext) -> SortedSubset:
    """Apply one of +, -, poss, nec, poss_inv, nec_inv to a sorted subset.

    Forward operators take object sets to attribute sets; the *_inv and
    minus operators go the other way.  Pure function of its arguments.
    """
    if subset.sort != kind.input_sort:
        raise SortMismatchError(kind.input_sort, subset.sort, f"operator {kind.value}")
    expected = ctx.n_objects if kind.input_sort == SORT1 else ctx.n_attributes
    if subset.size != expected:
        raise DimensionError(
            f"subset sized for {subset.size}, carrier has {expected} elements"
        )
    out_size = ctx.n_attributes if kind.output_sort == SORT2 else ctx.n_objects
    return SortedSubset(kind.output_sort, _kernel(kind, ctx)(subset.bits), out_size)


def _or_over(vectors: Sequence[int], mask: int) -> int:
    """The OR of ``vectors[i]`` over the set bits i of ``mask``.

    ``semantics._modal`` uses it because its vectors are per-call argument
    slices, so a byte table of them would never be reused; ``_kernel`` uses
    it above ``_TABLE_LIMIT``.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= vectors[low.bit_length() - 1]
        mask ^= low
    return out


# The largest input carrier that ``_kernel`` builds byte tables for.  A table
# lookup costs one step per byte of the mask and the per-bit loop one per set
# bit; on seeded square contexts of 48 elements and more, enumeration and
# covers ran slower with tables than without.
_TABLE_LIMIT = 40


def _lookup(tables: tuple[list[int], ...], flip: int) -> Callable[[int], int]:
    """``flip`` XOR the OR of one entry per byte of a mask, in ``_byte_tables``."""

    def lookup(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return flip ^ out

    return lookup


def _kernel_terms(kind: OperatorKind, ctx: FormalContext) -> tuple[tuple[int, ...], int, int]:
    """``(vectors, skip, flip)``: ``kind`` maps a mask to ``flip`` XOR the OR
    of ``vectors[i]`` over the set bits i of ``skip ^ mask``.

    The vectors are the rows (the forward kinds) or columns (the backward
    kinds) of the context.  ``poss(A)`` ORs the rows of A; ``nec(A)``
    complements the OR of the rows outside A; ``A+`` (the AND of the rows of
    A) complements the OR of their complements.  ``poss_inv``, ``nec_inv``
    and ``-`` mirror these on columns.
    """
    forward = kind in _FORWARD
    vectors = ctx.rows if forward else ctx.cols
    full_out = (1 << (ctx.n_attributes if forward else ctx.n_objects)) - 1
    if kind is OperatorKind.PLUS or kind is OperatorKind.MINUS:
        vectors = tuple(full_out ^ v for v in vectors)
    positive = kind is OperatorKind.POSS or kind is OperatorKind.POSS_INV
    nec = kind is OperatorKind.NEC or kind is OperatorKind.NEC_INV
    return vectors, (1 << len(vectors)) - 1 if nec else 0, 0 if positive else full_out


def _kernel(kind: OperatorKind, ctx: FormalContext) -> Callable[[int], int]:
    """``kind`` on bitmasks, as ``_kernel_terms`` states it.

    Each kernel is built once per context and kind.  Up to ``_TABLE_LIMIT``
    input elements n it reads the ORs from ceil(n / 8) byte tables of 256
    output masks each; the tables of ``nec`` are those of ``poss`` reversed,
    since entry b of a reversed table is the entry of b's complement within
    its byte.  Above the limit it ORs one vector per set bit with
    ``_or_over``.
    """
    kernel = ctx._kernels.get(kind)
    if kernel is None:
        vectors, skip, flip = _kernel_terms(kind, ctx)
        if len(vectors) > _TABLE_LIMIT:
            kernel = lambda mask: flip ^ _or_over(vectors, skip ^ mask)
        else:
            tables = _byte_tables(vectors, 0, operator.or_)
            if skip:
                tables = tuple(table[::-1] for table in tables)
            kernel = _lookup(tables, flip)
        ctx._kernels[kind] = kernel
    return kernel


def complement_context(ctx: FormalContext) -> FormalContext:
    """Same carriers, incidence bitwise negated.  Involutive."""
    full = (1 << ctx.n_attributes) - 1
    return FormalContext(ctx.objects, ctx.attributes, tuple(full ^ r for r in ctx.rows))


_DUAL_PAIRS = {
    OperatorKind.POSS: (OperatorKind.POSS, OperatorKind.NEC),
    OperatorKind.NEC: (OperatorKind.POSS, OperatorKind.NEC),
    OperatorKind.POSS_INV: (OperatorKind.POSS_INV, OperatorKind.NEC_INV),
    OperatorKind.NEC_INV: (OperatorKind.POSS_INV, OperatorKind.NEC_INV),
}


def duality_check(kind: OperatorKind, subset: SortedSubset, ctx: FormalContext) -> bool:
    """Check nec(S) == ~poss(~S) for the directed pair that ``kind`` names.

    Accepts any of poss/nec/poss_inv/nec_inv and tests the matching pair;
    plus/minus do not form a possibility/necessity pair.
    """
    if kind not in _DUAL_PAIRS:
        raise SortMismatchError("poss|nec|poss_inv|nec_inv", kind.value, "duality_check")
    poss_kind, nec_kind = _DUAL_PAIRS[kind]
    lhs = apply_operator(nec_kind, subset, ctx)
    rhs = apply_operator(poss_kind, subset.complement(), ctx).complement()
    return lhs == rhs
