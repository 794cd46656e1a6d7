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
Polyadic modalities have no concrete syntax; build them programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_DASHED_BASES = {"dia", "box", "boxm"}
# sort digits as written in text: ``p:1``, ``var p : 1`` in scripts, ``--sort 1``
SORT_DIGITS = {"1": SORT1, "2": SORT2}


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
        _, mod_name = MODAL_TOKENS[node.name]
        if not self.sig.has(mod_name):
            raise FormulaSyntaxError(
                f"modality {node.name!r} is not in the signature", node.pos
            )
        mod = self.sig.modality(mod_name)
        if expected is not None and expected != mod.result_sort:
            raise FormulaSyntaxError(
                f"{node.name!r} yields sort {mod.result_sort}, "
                f"position requires {expected}",
                node.pos,
            )
        self.solve(node.children[0], mod.arg_sorts[0])
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
        cls, mod_name = MODAL_TOKENS[node.name]
        mod = sig.modality(mod_name)
        arg = _build_ast(node.children[0], mod.arg_sorts[0], sig, table)
        return cls(mod, (arg,))
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


_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5

_MODAL_PRINT = {
    (Dia, "dia"): "dia",
    (Box, "dia"): "box",
    (Dia, "dia-"): "dia-",
    (Box, "dia-"): "box-",
    (Box, "boxm"): "boxm",
    (Box, "boxm-"): "boxm-",
}


def print_formula(f: Formula) -> str:
    """Render a formula; inverse of ``parse_formula`` up to whitespace."""
    return _render(f, 0)


def _render(f: Formula, prec: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bot):
        return "#f"
    if isinstance(f, Top):
        return "#t"
    if isinstance(f, Neg):
        return _wrap(f"~{_render(f.arg, _PREC_UNARY)}", _PREC_UNARY, prec)
    if isinstance(f, And):
        s = f"{_render(f.left, _PREC_AND)} & {_render(f.right, _PREC_AND + 1)}"
        return _wrap(s, _PREC_AND, prec)
    if isinstance(f, Or):
        s = f"{_render(f.left, _PREC_OR)} | {_render(f.right, _PREC_OR + 1)}"
        return _wrap(s, _PREC_OR, prec)
    if isinstance(f, Imp):
        s = f"{_render(f.left, _PREC_IMP + 1)} -> {_render(f.right, _PREC_IMP)}"
        return _wrap(s, _PREC_IMP, prec)
    if isinstance(f, Iff):
        s = f"{_render(f.left, _PREC_IFF + 1)} <-> {_render(f.right, _PREC_IFF)}"
        return _wrap(s, _PREC_IFF, prec)
    if isinstance(f, (Dia, Box)):
        key = (type(f), f.mod.name)
        if key in _MODAL_PRINT and f.mod.arity == 1:
            s = f"{_MODAL_PRINT[key]} {_render(f.args[0], _PREC_UNARY)}"
            return _wrap(s, _PREC_UNARY, prec)
        # generic polyadic form, for display only
        tag = f.mod.name if isinstance(f, Dia) else f"{f.mod.name}^box"
        args = ", ".join(_render(a, 0) for a in f.args)
        return f"{tag}({args})"
    raise TypeError(f"unknown formula node {f!r}")


def _wrap(s: str, level: int, required: int) -> str:
    return f"({s})" if level < required else s
