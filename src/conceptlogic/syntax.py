"""Many-sorted modal formula ASTs, signatures, and the window-to-diamond translation.

Formulas are immutable trees; every node carries its sort, and ill-sorted
trees cannot be constructed.  Boolean connectives join formulas of one sort;
modalities move between sorts according to their declared arity.  A modality
comes in a diamond form (existential) and a box form (universal); *window*
modalities are box-only and get the sufficiency semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .context import SORT1, SORT2
from .errors import SignatureError, SortMismatchError


@dataclass(frozen=True)
class Modality:
    """A modality symbol with arity ``arg_sorts -> result_sort``.

    ``window`` marks the sufficiency interpretation (box form only, unary).
    ``converse`` names the partner modality in a bidirectional signature.
    """

    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str
    window: bool = False
    converse: str | None = None

    def __post_init__(self) -> None:
        if not self.arg_sorts:
            raise SignatureError(f"modality {self.name!r} needs arity >= 1")
        if self.window and len(self.arg_sorts) != 1:
            raise SignatureError(f"window modality {self.name!r} must be unary")

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass(frozen=True)
class Signature:
    """Sort names plus modality declarations; modality names are unique."""

    sorts: tuple[str, ...]
    modalities: tuple[Modality, ...]

    def __post_init__(self) -> None:
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise SignatureError("modality names must be unique")
        for m in self.modalities:
            for s in (*m.arg_sorts, m.result_sort):
                if s not in self.sorts:
                    raise SignatureError(f"modality {m.name!r} uses unknown sort {s!r}")
            if m.converse is not None and m.converse not in names:
                raise SignatureError(
                    f"modality {m.name!r} names unknown converse {m.converse!r}"
                )

    def modality(self, name: str) -> Modality:
        for m in self.modalities:
            if m.name == name:
                return m
        raise SignatureError(f"unknown modality {name!r}")

    def has(self, name: str) -> bool:
        return any(m.name == name for m in self.modalities)


DIA = Modality("dia", (SORT1,), SORT2, converse="dia-")
DIA_INV = Modality("dia-", (SORT2,), SORT1, converse="dia")
WBOX = Modality("boxm", (SORT1,), SORT2, window=True, converse="boxm-")
WBOX_INV = Modality("boxm-", (SORT2,), SORT1, window=True, converse="boxm")

RS = Signature((SORT1, SORT2), (DIA, DIA_INV))
KF = Signature((SORT1, SORT2), (WBOX, WBOX_INV))
FULL = Signature((SORT1, SORT2), (DIA, DIA_INV, WBOX, WBOX_INV))


class Formula:
    """Base class for formula nodes.  All subclasses are frozen dataclasses."""

    sort: str

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Neg(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Imp(self, other)

    def __str__(self) -> str:  # concrete syntax lives in parser.py
        from .parser import print_formula

        return print_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str
    sort: str


@dataclass(frozen=True)
class Bot(Formula):
    sort: str


@dataclass(frozen=True)
class Top(Formula):
    sort: str


def _require_same_sort(left: Formula, right: Formula, what: str) -> str:
    if left.sort != right.sort:
        raise SortMismatchError(left.sort, right.sort, what)
    return left.sort


@dataclass(frozen=True)
class Neg(Formula):
    arg: Formula
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort", self.arg.sort)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort", _require_same_sort(self.left, self.right, "&"))


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort", _require_same_sort(self.left, self.right, "|"))


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort", _require_same_sort(self.left, self.right, "->"))


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort", _require_same_sort(self.left, self.right, "<->"))


def _check_modal_args(mod: Modality, args: tuple[Formula, ...]) -> None:
    if len(args) != mod.arity:
        raise SortMismatchError(
            f"{mod.arity} arguments", f"{len(args)}", f"modality {mod.name}"
        )
    for expected, arg in zip(mod.arg_sorts, args):
        if arg.sort != expected:
            raise SortMismatchError(expected, arg.sort, f"modality {mod.name}")


@dataclass(frozen=True)
class Dia(Formula):
    """Existential modal node; window modalities have no diamond form."""

    mod: Modality
    args: tuple[Formula, ...]
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        if self.mod.window:
            raise SignatureError(f"window modality {self.mod.name!r} is box-only")
        _check_modal_args(self.mod, self.args)
        object.__setattr__(self, "sort", self.mod.result_sort)


@dataclass(frozen=True)
class Box(Formula):
    """Universal modal node; for window modalities this is the sufficiency form."""

    mod: Modality
    args: tuple[Formula, ...]
    sort: str = field(init=False)

    def __post_init__(self) -> None:
        _check_modal_args(self.mod, self.args)
        object.__setattr__(self, "sort", self.mod.result_sort)


# Convenience constructors for the two-sorted dialects.

def var1(name: str) -> Var:
    return Var(name, SORT1)


def var2(name: str) -> Var:
    return Var(name, SORT2)


def dia(f: Formula) -> Dia:
    return Dia(DIA, (f,))


def box(f: Formula) -> Box:
    return Box(DIA, (f,))


def dia_inv(f: Formula) -> Dia:
    return Dia(DIA_INV, (f,))


def box_inv(f: Formula) -> Box:
    return Box(DIA_INV, (f,))


def wbox(f: Formula) -> Box:
    return Box(WBOX, (f,))


def wbox_inv(f: Formula) -> Box:
    return Box(WBOX_INV, (f,))


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield every subformula, root first."""
    yield f
    if isinstance(f, Neg):
        yield from subformulas(f.arg)
    elif isinstance(f, (And, Or, Imp, Iff)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Dia, Box)):
        for a in f.args:
            yield from subformulas(a)


def variables(f: Formula) -> set[Var]:
    return {g for g in subformulas(f) if isinstance(g, Var)}


def modalities(f: Formula) -> set[Modality]:
    return {g.mod for g in subformulas(f) if isinstance(g, (Dia, Box))}


def substitute(f: Formula, mapping: Mapping[Var, Formula]) -> Formula:
    """Uniform substitution: replace variables by formulas of the same sort."""
    for v, g in mapping.items():
        if v.sort != g.sort:
            raise SortMismatchError(v.sort, g.sort, f"substitution for {v.name}")
    return _substitute(f, mapping)


def _substitute(f: Formula, mapping: Mapping[Var, Formula]) -> Formula:
    if isinstance(f, Var):
        return mapping.get(f, f)
    if isinstance(f, (Bot, Top)):
        return f
    if isinstance(f, Neg):
        return Neg(_substitute(f.arg, mapping))
    if isinstance(f, And):
        return And(_substitute(f.left, mapping), _substitute(f.right, mapping))
    if isinstance(f, Or):
        return Or(_substitute(f.left, mapping), _substitute(f.right, mapping))
    if isinstance(f, Imp):
        return Imp(_substitute(f.left, mapping), _substitute(f.right, mapping))
    if isinstance(f, Iff):
        return Iff(_substitute(f.left, mapping), _substitute(f.right, mapping))
    if isinstance(f, Dia):
        return Dia(f.mod, tuple(_substitute(a, mapping) for a in f.args))
    if isinstance(f, Box):
        return Box(f.mod, tuple(_substitute(a, mapping) for a in f.args))
    raise TypeError(f"unknown formula node {f!r}")


def normalize(f: Formula) -> Formula:
    """Expand Top/Or/Imp/Iff into the {Bot, Neg, And, Dia, Box} core.

    Proof checking compares formulas in this normal form, so scripts may
    freely use the defined connectives.
    """
    if isinstance(f, (Var, Bot)):
        return f
    if isinstance(f, Top):
        return Neg(Bot(f.sort))
    if isinstance(f, Neg):
        return Neg(normalize(f.arg))
    if isinstance(f, And):
        return And(normalize(f.left), normalize(f.right))
    if isinstance(f, Or):
        return Neg(And(Neg(normalize(f.left)), Neg(normalize(f.right))))
    if isinstance(f, Imp):
        return Neg(And(normalize(f.left), Neg(normalize(f.right))))
    if isinstance(f, Iff):
        left, right = normalize(f.left), normalize(f.right)
        return And(
            Neg(And(left, Neg(right))),
            Neg(And(right, Neg(left))),
        )
    if isinstance(f, Dia):
        return Dia(f.mod, tuple(normalize(a) for a in f.args))
    if isinstance(f, Box):
        return Box(f.mod, tuple(normalize(a) for a in f.args))
    raise TypeError(f"unknown formula node {f!r}")


_RHO_IMAGE = {WBOX.name: DIA, WBOX_INV.name: DIA_INV}


def translate_rho(f: Formula) -> Formula:
    """Translate a window-dialect formula into the diamond dialect.

    Variables and Boolean connectives are unchanged; the window box over
    s1 becomes box-not, and its converse becomes inverse-box-not.  The
    result has the same sort as the input.
    """
    if isinstance(f, (Var, Bot, Top)):
        return f
    if isinstance(f, Neg):
        return Neg(translate_rho(f.arg))
    if isinstance(f, And):
        return And(translate_rho(f.left), translate_rho(f.right))
    if isinstance(f, Or):
        return Or(translate_rho(f.left), translate_rho(f.right))
    if isinstance(f, Imp):
        return Imp(translate_rho(f.left), translate_rho(f.right))
    if isinstance(f, Iff):
        return Iff(translate_rho(f.left), translate_rho(f.right))
    if isinstance(f, Box) and f.mod.name in _RHO_IMAGE:
        target = _RHO_IMAGE[f.mod.name]
        return Box(target, (Neg(translate_rho(f.args[0])),))
    if isinstance(f, (Dia, Box)):
        raise SignatureError(
            f"modality {f.mod.name!r} is not in the window dialect"
        )
    raise TypeError(f"unknown formula node {f!r}")
