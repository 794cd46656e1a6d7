"""Concrete syntax for two-sorted modal formulas.

Grammar (prefix modalities, low-ASCII tokens)::

    formula := iff
    iff     := imp ('<->' imp)*          right associative
    imp     := or ('->' or)*             right associative
    or      := and ('|' and)*            left associative
    and     := unary ('&' unary)*        left associative
    unary   := '~' unary | MOD unary | atom
    atom    := VAR | '#f' | '#t' | '(' formula ')'
    MOD     := 'dia' | 'box' | 'dia-' | 'box-' | 'boxm' | 'boxm-'

Variables declare their sort with a ``:1`` / ``:2`` suffix at first use or
through a declaration table; elsewhere the sort is inferred from position
(modalities fix argument sorts, Boolean connectives preserve them).  The
printer emits minimal parentheses and round-trips through ``parse_formula``.

The parser reads the text once: one compiled token pattern driven by
``re.finditer``, and an operator-precedence loop with an operand stack and
an operator stack, so nesting depth costs no recursion.  Sorts are solved
in the same pass.  The sort a position requires is known when the position
is reached: inside a modality's operand it is the modality's argument sort,
and elsewhere it is the root sort.  Prefix operators are applied as soon as
their operand is complete, binary operators when an operator of lower
precedence (or of equal precedence, for the left-associative ``&`` and
``|``) or a closing parenthesis arrives.  When the root sort is not given,
the first operand at the root level that has a sort (a declared or suffixed
variable, or a modality) fixes it.  If a bare variable or a constant comes
before that, the pass finishes without building the root level, and the
text is read a second time with the sort it found.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError
from .syntax import (
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
)

MODAL_TOKENS: dict[str, tuple[type, str]] = {
    "dia": (Dia, "dia"),
    "box": (Box, "dia"),
    "dia-": (Dia, "dia-"),
    "box-": (Box, "dia-"),
    "boxm": (Box, "boxm"),
    "boxm-": (Box, "boxm-"),
}

# sort digits as written in text: ``p:1``, ``var p : 1`` in scripts, ``--sort 1``
SORT_DIGITS = {"1": SORT1, "2": SORT2}

# One token per match, after optional white space; the group that matched
# names it.  A modal word takes a directly following '-', and comes before
# the variable patterns, which would take it.  A variable with a ':' needs a
# sort digit after it.  Any other character that is not white space is an
# error token.
_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<lparen>\()|(?P<rparen>\))|(?P<neg>~)"
    r"|(?P<and>&)|(?P<or>\|)|(?P<imp>->)|(?P<iff><->)"
    r"|(?P<mod>(?:dia|boxm|box)(?:-|(?!\w)))"
    r"|(?P<var>[^\W\d]\w*)(?![\w:])"
    r"|(?P<sorted>[^\W\d]\w*:[12])"
    r"|(?P<colon>[^\W\d]\w*:)"
    r"|(?P<const>#[ft])"
    r"|(?P<bad>\S))"
)

# Operator-stack entries are (tag, ...): a binary operator's tag is its
# precedence, and prefix operators rank above all of them.
_PAREN, _IFF, _IMP, _OR, _AND, _NEG, _MOD = range(7)
_BINARY = {
    "iff": (_IFF, Iff),
    "imp": (_IMP, Imp),
    "or": (_OR, Or),
    "and": (_AND, And),
}
_NEG_ENTRY = (_NEG,)

# the sort a root-level position needs when the root sort is not given
_ROOT = object()


def reads_as_variable(name: str) -> bool:
    """Whether the tokenizer reads ``name`` as one variable; a modal word
    such as ``dia`` or ``box`` it reads as a modality."""
    m = _TOKEN.fullmatch(name)
    return m is not None and m.group("var") == name


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
    table = {} if declarations is None else declarations
    if expected is not None:
        return _parse(text, expected, sig, table)[0]
    formula, root_sort = _parse(text, _ROOT, sig, table)
    if formula is not None:
        return formula
    if root_sort is None:
        raise FormulaSyntaxError(
            "cannot infer the formula's sort; declare a variable sort with ':1'/':2' "
            "or supply expected_sort"
        )
    return _parse(text, root_sort, sig, table)[0]


def _parse(
    text: str, root, sig: Signature, table: dict[str, str]
) -> tuple[Formula | None, str | None]:
    """One pass over ``text``: the formula and the root sort.

    ``root`` is the root sort, or ``_ROOT`` when it is unknown.  Then the
    root sort is taken from the first root-level operand that has one, and
    root-level operands read before it are ``None``, as is every formula
    built from them; the caller reads the text again with the sort found.
    """
    root_sort = None if root is _ROOT else root
    operands: list[Formula | None] = []
    ops: list[tuple] = []
    level = want = root  # sort of the current level, sort the next operand needs
    operand = True  # an operand comes next
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if not operand:
            entry = _BINARY.get(kind)
            if entry is not None:
                tag = entry[0]
                while ops and (ops[-1][0] > tag or ops[-1][0] == tag >= _OR):
                    _reduce(operands, ops.pop()[1])
                ops.append(entry)
                want = level
                operand = True
                continue
            if kind != "rparen":
                raise _bad(m) if kind == "bad" else _trailing(m, ops)
            while ops and ops[-1][0] != _PAREN:
                _reduce(operands, ops.pop()[1])
            if not ops:
                raise FormulaSyntaxError("unexpected trailing input ')'", m.start(kind))
            level = ops.pop()[1]
            x = operands.pop()
        elif kind == "var" or kind == "sorted":
            name = m.group(kind)
            if not name.isascii() and not (name[0].isalpha() or name[0] == "_"):
                raise FormulaSyntaxError(f"unexpected character {name[0]!r}", m.start(kind))
            need = root_sort if want is _ROOT else want
            if kind == "var":
                known = table.get(name)
                sort = need if known is None else known
            else:
                name, sort = name[:-2], SORT_DIGITS[name[-1]]
                known = table.get(name)
                if known is not None and known != sort:
                    raise FormulaSyntaxError(
                        f"variable {name!r} already has sort {known}", m.start(kind)
                    )
            if need is not None and sort != need:
                raise FormulaSyntaxError(
                    f"variable {name!r} has sort {sort}, position requires {need}",
                    m.start(kind),
                )
            if sort is None:
                x = None
            else:
                if known is None:
                    table[name] = sort
                if want is _ROOT:
                    root_sort = sort
                x = Var(name, sort)
        elif kind == "lparen":
            ops.append((_PAREN, level))
            level = want
            continue
        elif kind == "neg":
            ops.append(_NEG_ENTRY)
            continue
        elif kind == "mod":
            word = m.group(kind)
            cls, mod_name = MODAL_TOKENS[word]
            if not sig.has(mod_name):
                raise FormulaSyntaxError(
                    f"modality {word!r} is not in the signature", m.start(kind)
                )
            mod = sig.modality(mod_name)
            need = root_sort if want is _ROOT else want
            if need is None:
                root_sort = mod.result_sort
            elif need != mod.result_sort:
                raise FormulaSyntaxError(
                    f"{word!r} yields sort {mod.result_sort}, position requires {need}",
                    m.start(kind),
                )
            ops.append((_MOD, cls, mod))
            want = mod.arg_sort
            continue
        elif kind == "const":
            need = root_sort if want is _ROOT else want
            if need is None:
                x = None
            else:
                x = Bot(need) if m.group(kind) == "#f" else Top(need)
        elif kind == "colon":
            raise FormulaSyntaxError("sort suffix must be ':1' or ':2'", m.end(kind) - 1)
        elif kind == "bad":
            raise _bad(m)
        else:
            raise FormulaSyntaxError(f"unexpected token {m.group(kind)!r}", m.start(kind))
        # an operand is complete: apply the prefix operators in front of it
        while ops and ops[-1][0] >= _NEG:
            entry = ops.pop()
            if entry[0] == _MOD:
                x = entry[1](entry[2], x)
            elif x is not None:
                x = Neg(x)
        operands.append(x)
        want = level
        operand = False
    if operand:
        raise FormulaSyntaxError("unexpected end of input", len(text))
    while ops:
        entry = ops.pop()
        if entry[0] == _PAREN:
            raise FormulaSyntaxError("unexpected end of input", len(text))
        _reduce(operands, entry[1])
    return operands[0], root_sort


def _reduce(operands: list[Formula | None], cls: type) -> None:
    right = operands.pop()
    left = operands[-1]
    operands[-1] = None if left is None or right is None else cls(left, right)


def _bad(m: re.Match) -> FormulaSyntaxError:
    c, pos = m.group("bad"), m.start("bad")
    if c == "#":
        return FormulaSyntaxError("expected '#f' or '#t'", pos)
    return FormulaSyntaxError(f"unexpected character {c!r}", pos)


def _trailing(m: re.Match, ops: list[tuple]) -> FormulaSyntaxError:
    """A token where a binary operator or ')' belongs."""
    kind = m.lastgroup
    tok, pos = m.group(kind), m.start(kind)
    if kind in ("sorted", "colon"):
        tok = tok[: tok.index(":")]
    if any(e[0] == _PAREN for e in ops):
        return FormulaSyntaxError(f"expected ')', found {tok!r}", pos)
    return FormulaSyntaxError(f"unexpected trailing input {tok!r}", pos)


_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5

# binary connective: its infix text, its precedence, and the precedences its
# left and right operands need (one more on the side it does not associate to)
_BINARY_PRINT = {
    And: (" & ", _PREC_AND, _PREC_AND, _PREC_AND + 1),
    Or: (" | ", _PREC_OR, _PREC_OR, _PREC_OR + 1),
    Imp: (" -> ", _PREC_IMP, _PREC_IMP + 1, _PREC_IMP),
    Iff: (" <-> ", _PREC_IFF, _PREC_IFF + 1, _PREC_IFF),
}

_MODAL_PRINT = {v: k + " " for k, v in MODAL_TOKENS.items()}


def print_formula(f: Formula) -> str:
    """Render a formula; inverse of ``parse_formula`` up to whitespace.

    An explicit stack holds the pending tokens and (formula, required
    precedence) pairs; the tokens go into one list, joined once.
    """
    tokens: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tokens.append(item)
            continue
        g, required = item
        cls, level = type(g), _PREC_UNARY
        if cls is Var or cls is Bot or cls is Top:
            parts = [g.name if cls is Var else "#f" if cls is Bot else "#t"]
        elif cls is Neg:
            parts = ["~", (g.arg, _PREC_UNARY)]
        elif cls in _BINARY_PRINT:
            symbol, level, left, right = _BINARY_PRINT[cls]
            parts = [(g.left, left), symbol, (g.right, right)]
        else:  # a modality without a modal word shows its class and name
            word = _MODAL_PRINT.get((cls, g.mod.name)) or f"{cls.__name__}:{g.mod.name} "
            parts = [word, (g.arg, _PREC_UNARY)]
        if level < required:
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(tokens)
