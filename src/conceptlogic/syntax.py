"""Two-sorted modal formula ASTs, the four modalities, and the window-to-diamond translation.

Formulas are immutable, hash-consed nodes: a constructor returns the live
node with the same class and children when there is one, so a formula is a
DAG of shared nodes, structurally equal formulas are the same object, and
``==`` and ``hash`` are identity, never a walk (Filliatre and Conchon,
"Type-Safe Modular Hash-Consing", 2006).  The intern table holds nodes
weakly, so a node lives only as long as its users.  Every node carries its
sort, one of ``SORT1`` (objects) and ``SORT2`` (attributes), and ill-sorted
formulas cannot be constructed.  Boolean connectives join formulas of one
sort; a modality is unary and takes a formula of its argument sort to one of
its result sort.  A modality comes in a diamond form (existential) and a box
form (universal); *window* modalities are box-only and get the sufficiency
semantics.  There are four modalities, the constants ``DIA`` and its
converse ``DIA_INV`` of KB, and the window modality ``WBOX`` and its
converse ``WBOX_INV`` of KF (Gargov, Passy and Tinchev, 1987); a signature
is an ordered tuple of them (``RS``, ``KF``, ``FULL``).

Every formula traversal (normalization, substitution, translation, variables,
evaluation, tautologies) runs on one walk, ``_walk``: an explicit stack, so
depth costs no recursion, and a memo as its visited set, so a shared node is
visited once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping
from weakref import ref

from .context import SORT1, SORT2
from .errors import SignatureError, SortMismatchError


@dataclass(frozen=True, eq=False)
class Modality:
    """A unary modality symbol from ``arg_sort`` to ``result_sort``.

    ``window`` marks the sufficiency interpretation (box form only).  A
    frame interprets every modality into sort ``s`` by its one relation
    leaving ``s``, so the converse of a modality is the one of the other
    direction with the same ``window`` flag.

    The logics fix the vocabulary: ``DIA``, ``DIA_INV``, ``WBOX`` and
    ``WBOX_INV`` are the only modalities.  ``==`` and ``hash`` are
    identity, so a modal node's intern key hashes without a Python-level
    call.
    """

    name: str
    arg_sort: str
    result_sort: str
    window: bool = False


DIA = Modality("dia", SORT1, SORT2)
DIA_INV = Modality("dia-", SORT2, SORT1)
WBOX = Modality("boxm", SORT1, SORT2, window=True)
WBOX_INV = Modality("boxm-", SORT2, SORT1, window=True)

# A signature is an ordered tuple of modalities: random draws and axiom
# schemes follow its order.
Signature = tuple[Modality, ...]
RS: Signature = (DIA, DIA_INV)
KF: Signature = (WBOX, WBOX_INV)
FULL: Signature = RS + KF
# the modalities by name, as proof records cite them (``ug dia 3``)
MODALITIES = {m.name: m for m in FULL}


class Formula:
    """Base class for formula nodes.

    Nodes are interned: a constructor returns the live node with the same
    class and children if there is one, so structurally equal formulas are
    one object, and equality and hashing are identity.  Nodes are
    immutable; ``_nf`` caches ``normalize``.
    """

    __slots__ = ("sort", "_nf", "_key", "__weakref__")
    # Weak references to the live nodes, by (class, *children).  The class
    # holds it, so a node reaches it while the interpreter tears modules down.
    _interned: dict[tuple, ref] = {}

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"formula nodes are immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"formula nodes are immutable (cannot delete {name!r})")

    def __del__(self) -> None:
        # When the cyclic collector frees a node, its weak reference is dead
        # already, and a node built since then may own the entry.
        entry = self._interned.get(self._key)
        if entry is not None and entry() in (None, self):
            del self._interned[self._key]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r}, sort={self.sort!r})"

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


_INTERNED = Formula._interned
_set = object.__setattr__
# ``_nf`` of a node that is its own normal form (the node itself would be a
# reference cycle, which only the cyclic collector frees)
_NORMAL = True


def _node(key: tuple, sort: str, nf=None) -> Formula:
    """A new node of class ``key[0]``, registered under ``key``."""
    node = object.__new__(key[0])
    _set(node, "sort", sort)
    _set(node, "_nf", nf)
    _set(node, "_key", key)
    _INTERNED[key] = ref(node)
    return node


class Var(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str, sort: str) -> "Var":
        key = (cls, name, sort)
        entry = _INTERNED.get(key)
        node = entry and entry()
        if node is None:
            node = _node(key, sort, _NORMAL)
            _set(node, "name", name)
        return node


class Bot(Formula):
    __slots__ = ()

    def __new__(cls, sort: str) -> "Bot":
        key = (cls, sort)
        entry = _INTERNED.get(key)
        return entry and entry() or _node(key, sort, _NORMAL)


class Top(Formula):
    __slots__ = ()

    def __new__(cls, sort: str) -> "Top":
        key = (cls, sort)
        entry = _INTERNED.get(key)
        return entry and entry() or _node(key, sort)


class Neg(Formula):
    __slots__ = ("arg",)

    def __new__(cls, arg: Formula) -> "Neg":
        key = (cls, arg)
        entry = _INTERNED.get(key)
        node = entry and entry()
        if node is None:
            node = _node(key, arg.sort)
            _set(node, "arg", arg)
        return node


class _Binary(Formula):
    """A Boolean connective joining two formulas of one sort."""

    __slots__ = ("left", "right")
    _symbol = ""

    def __new__(cls, left: Formula, right: Formula) -> "_Binary":
        key = (cls, left, right)
        entry = _INTERNED.get(key)
        node = entry and entry()
        if node is None:
            if left.sort != right.sort:
                raise SortMismatchError(left.sort, right.sort, cls._symbol)
            node = _node(key, left.sort)
            _set(node, "left", left)
            _set(node, "right", right)
        return node


class And(_Binary):
    __slots__ = ()
    _symbol = "&"


class Or(_Binary):
    __slots__ = ()
    _symbol = "|"


class Imp(_Binary):
    __slots__ = ()
    _symbol = "->"


class Iff(_Binary):
    __slots__ = ()
    _symbol = "<->"


class _Modal(Formula):
    """A modal node: one child ``arg``, like ``Neg``, under a modality tag."""

    __slots__ = ("mod", "arg")

    def __new__(cls, mod: Modality, arg: Formula) -> "_Modal":
        key = (cls, mod, arg)
        entry = _INTERNED.get(key)
        node = entry and entry()
        if node is None:
            if cls is Dia and mod.window:
                raise SignatureError(f"window modality {mod.name!r} is box-only")
            if arg.sort != mod.arg_sort:
                raise SortMismatchError(mod.arg_sort, arg.sort, f"modality {mod.name}")
            node = _node(key, mod.result_sort)
            _set(node, "mod", mod)
            _set(node, "arg", arg)
        return node


class Dia(_Modal):
    """Existential modal node; window modalities have no diamond form."""

    __slots__ = ()


class Box(_Modal):
    """Universal modal node; for window modalities this is the sufficiency form."""

    __slots__ = ()


# Convenience constructors for the two-sorted dialects.

def var1(name: str) -> Var:
    return Var(name, SORT1)


def var2(name: str) -> Var:
    return Var(name, SORT2)


def dia(f: Formula) -> Dia:
    return Dia(DIA, f)


def box(f: Formula) -> Box:
    return Box(DIA, f)


def dia_inv(f: Formula) -> Dia:
    return Dia(DIA_INV, f)


def box_inv(f: Formula) -> Box:
    return Box(DIA_INV, f)


def wbox(f: Formula) -> Box:
    return Box(WBOX, f)


def wbox_inv(f: Formula) -> Box:
    return Box(WBOX_INV, f)


_LEAVES = frozenset({Var, Bot, Top})
# on the walk's stack: the node below it has its children in the memo
_READY = object()


def _walk(root: Formula, memo, build: Callable[[Formula], object], leaves=_LEAVES):
    """``memo[root]``, filling ``memo[g] = build(g)`` for each node g it needs.

    The walk keeps an explicit stack, so nesting depth costs no recursion.
    The memo is the visited set: a node in it is never entered, so each
    shared node is built once, and a caller stops the walk at chosen nodes
    by seeding the memo with them.  A node is built after its children, left
    to right, and ``build`` reads their results from the memo.  Nodes whose
    class is in ``leaves`` (leaf or modal classes) are built without
    entering their children.  Any other node is binary, or unary (``Neg``
    or a modal node) with its one child in ``arg``.
    """
    stack = [root]
    while stack:
        f = stack.pop()
        if f is _READY:
            f = stack.pop()
        elif f in memo:
            continue
        elif isinstance(f, _Binary):
            stack += f, _READY, f.right, f.left
            continue
        elif type(f) not in leaves:
            stack += f, _READY, f.arg
            continue
        memo[f] = build(f)
    return memo[root]


def _rebuild(f: Formula, images) -> Formula:
    """``f`` with each child replaced by its image in ``images``."""
    if isinstance(f, _Binary):
        return type(f)(images[f.left], images[f.right])
    if isinstance(f, Neg):
        return Neg(images[f.arg])
    if isinstance(f, _Modal):
        return type(f)(f.mod, images[f.arg])
    return f


def variables(f: Formula) -> set[Var]:
    classes: dict[Formula, type] = {}
    _walk(f, classes, type)
    return {g for g, cls in classes.items() if cls is Var}


def substitute(f: Formula, mapping: Mapping[Var, Formula]) -> Formula:
    """Uniform substitution: replace variables by formulas of the same sort."""
    for v, g in mapping.items():
        if v.sort != g.sort:
            raise SortMismatchError(v.sort, g.sort, f"substitution for {v.name}")
    images = dict(mapping)
    return _walk(f, images, lambda g: _rebuild(g, images))


class _NormalForms:
    """The ``_nf`` slots of the nodes, read as the memo of ``normalize``."""

    def __contains__(self, f: Formula) -> bool:
        return f._nf is not None

    def __getitem__(self, f: Formula) -> Formula:
        return f if f._nf is _NORMAL else f._nf

    def __setitem__(self, f: Formula, out: Formula) -> None:
        _set(out, "_nf", _NORMAL)
        if out is not f:
            _set(f, "_nf", out)


_NORMAL_FORMS = _NormalForms()


def normalize(f: Formula) -> Formula:
    """Expand Top/Or/Imp/Iff into the {Bot, Neg, And, Dia, Box} core.

    Proof checking compares formulas in this normal form, so scripts may
    freely use the defined connectives.  The result is kept on the node, and
    a normal form is its own normal form, so each shared node is expanded
    once.
    """
    nf = f._nf
    if nf is None:
        return _walk(f, _NORMAL_FORMS, _expand)
    return f if nf is _NORMAL else nf


def _expand(f: Formula) -> Formula:
    """The normal form of ``f``, from the normal forms of its children."""
    nf = _NORMAL_FORMS
    if isinstance(f, Top):
        return Neg(Bot(f.sort))
    if isinstance(f, Or):
        return Neg(And(Neg(nf[f.left]), Neg(nf[f.right])))
    if isinstance(f, Imp):
        return Neg(And(nf[f.left], Neg(nf[f.right])))
    if isinstance(f, Iff):
        left, right = nf[f.left], nf[f.right]
        return And(Neg(And(left, Neg(right))), Neg(And(right, Neg(left))))
    return _rebuild(f, nf)


_RHO_IMAGE = {WBOX: DIA, WBOX_INV: DIA_INV}


def translate_rho(f: Formula, images: dict[Formula, Formula] | None = None) -> Formula:
    """Translate a window-dialect formula into the diamond dialect.

    Variables and Boolean connectives are unchanged; the window box over
    s1 becomes box-not, and its converse becomes inverse-box-not.  The
    result has the same sort as the input.  A caller's ``images`` dict is
    filled as the memo, so formulas translated with one dict translate each
    shared subformula once.
    """
    images = {} if images is None else images

    def image(g: Formula) -> Formula:
        if not isinstance(g, _Modal):
            return _rebuild(g, images)
        target = _RHO_IMAGE.get(g.mod)
        if target is None or isinstance(g, Dia):
            raise SignatureError(f"modality {g.mod.name!r} is not in the window dialect")
        return Box(target, Neg(images[g.arg]))

    return _walk(f, images, image)
