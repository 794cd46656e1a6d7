"""The stack parser against the recursive-descent oracle in ``oracles.py``.

Random formula texts, with random spacing, redundant parentheses, sort
suffixes present or not, pre-filled declaration tables, constants, all six
modal tokens, and stray or truncated tokens: both parsers either raise
``FormulaSyntaxError`` or return the same formula and leave equal tables.

Sequences of texts that share parenthesised groups, read as one proof
script reads them (one declarations table, one group memo), give the same
formulas, errors and tables as the texts read one by one without a memo.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conceptlogic.errors import FormulaSyntaxError
from conceptlogic.parser import MODAL_TOKENS, _Groups, _read, parse_formula, print_formula
from conceptlogic.syntax import FULL, KF, RS, SORT1, SORT2, Formula
from test_syntax import random_formula

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None, database=None)

NAMES = ("p", "q", "x", "y")
SPACE = st.sampled_from(["", " ", " ", "  ", "\t"])
STRAY = ("(", ")", "~", "&", "|", "->", "<->", "<-", "-", "#", "#x", ":", "p:", "q:3", "1", "$")


@st.composite
def atoms(draw):
    name = draw(st.sampled_from(NAMES))
    kind = draw(st.sampled_from(["var", "var", "suffixed", "const"]))
    if kind == "var":
        return name
    if kind == "suffixed":
        return f"{name}:{draw(st.sampled_from('12'))}"
    return draw(st.sampled_from(["#f", "#t"]))


def compounds(children):
    prefix = st.tuples(st.sampled_from(["~", *MODAL_TOKENS]), SPACE, children).map("".join)
    binary = st.tuples(
        children, SPACE, st.sampled_from(["&", "|", "->", "<->"]), SPACE, children
    ).map("".join)
    parens = st.tuples(SPACE, children, SPACE).map(lambda t: f"({t[0]}{t[1]}{t[2]})")
    return st.one_of(prefix, binary, parens)


TEXTS = st.recursive(atoms(), compounds, max_leaves=12)


@st.composite
def damaged(draw, texts=TEXTS):
    """A formula text, sometimes cut short or with a stray token spliced in."""
    text = draw(texts)
    how = draw(st.sampled_from(["keep", "keep", "truncate", "insert", "delete"]))
    if how == "keep" or not text:
        return text
    i = draw(st.integers(0, len(text)))
    if how == "truncate":
        return text[:i]
    if how == "insert":
        return text[:i] + draw(st.sampled_from(STRAY)) + text[i:]
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + text[j:]


def outcome(parse, text, sort, sig, table):
    try:
        return parse(text, sort, sig, table)
    except FormulaSyntaxError:
        return FormulaSyntaxError


@SETTINGS
@given(
    text=damaged(),
    sort=st.sampled_from([None, None, 1, 2, SORT1, SORT2]),
    sig=st.sampled_from([FULL, FULL, KF, RS]),
    table=st.dictionaries(st.sampled_from(NAMES), st.sampled_from([SORT1, SORT2]), max_size=3),
)
def test_stack_parser_agrees_with_oracle(text, sort, sig, table):
    ours, theirs = dict(table), dict(table)
    got = outcome(parse_formula, text, sort, sig, ours)
    want = outcome(oracles.parse_formula, text, sort, sig, theirs)
    assert got is want
    if want is not FormulaSyntaxError:
        assert ours == theirs


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    sort=st.sampled_from([SORT1, SORT2]),
    depth=st.integers(0, 7),
)
def test_parse_of_print_is_the_same_node(seed, sort, depth):
    f = random_formula(random.Random(seed), sort, depth)
    assert parse_formula(print_formula(f), sort) is f


# groups that a sequence of texts shares: constant-only ones read at either
# sort, the others have their sort fixed by a variable or a modality
GROUPS = st.one_of(
    st.sampled_from(["(#t)", "(#f)", "(~#t)", "(#t & #f)", "((#f))"]),
    TEXTS.map(lambda t: f"({t})"),
)


@st.composite
def shared_texts(draw):
    """A few formula texts built from one small pool of groups."""
    pool = draw(st.lists(GROUPS, min_size=1, max_size=4))
    group = st.sampled_from(pool)
    operand = st.one_of(
        group,
        group,
        atoms(),
        st.tuples(st.sampled_from(["~", *MODAL_TOKENS]), SPACE, group).map("".join),
        group.map(lambda g: f"({g})"),
    )
    texts = []
    for _ in range(draw(st.integers(1, 6))):
        parts = draw(st.lists(operand, min_size=1, max_size=3))
        for part in parts[1:]:
            parts[0] += draw(st.sampled_from([" & ", " | ", " -> ", " <-> ", "&"])) + part
        text = draw(st.sampled_from(["{}", "{}", "({})", "~({})"])).format(parts[0])
        texts.append(draw(damaged(st.just(text))))
    return texts


def result(parse):
    """The formula ``parse()`` returns, or the message and column it raises."""
    try:
        return parse()
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


@SETTINGS
@given(
    texts=shared_texts(),
    sorts=st.lists(st.sampled_from([None, None, None, SORT1, SORT2]), min_size=6, max_size=6),
    sig=st.sampled_from([FULL, FULL, KF, RS]),
    table=st.dictionaries(st.sampled_from(NAMES), st.sampled_from([SORT1, SORT2]), max_size=3),
)
def test_group_memo_changes_no_result(texts, sorts, sig, table):
    with_memo, without = dict(table), dict(table)
    groups = _Groups(sum(map(len, texts)))
    for text, sort in zip(texts, sorts):
        theirs = dict(without)
        got = result(lambda: _read(text, sort, sig, with_memo, groups))
        want = result(lambda: parse_formula(text, sort, sig, without))
        assert got is want if isinstance(want, Formula) else got == want
        assert with_memo == without
        oracle = outcome(oracles.parse_formula, text, sort, sig, theirs)
        if isinstance(want, Formula):
            assert (oracle, theirs) == (want, without)
        else:
            assert oracle is FormulaSyntaxError


class _CountedText(str):
    """A text that counts the characters its slices copy."""

    copied = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.copied += len(range(*key.indices(len(self))))
        return str.__getitem__(self, key)


@pytest.mark.parametrize(
    "core, sort", [("p:1 -> p:1", None), ("#t", SORT2), ("dia p:1 & (#f | dia (p))", None)]
)
def test_group_memo_copies_linear_text(core, sort):
    depth = 2000
    texts = [_CountedText("(" * depth + core + ")" * depth) for _ in range(3)]
    budget = sum(map(len, texts))
    groups, table = _Groups(budget), {}
    first, *rest = [_read(text, sort, FULL, table, groups) for text in texts]
    assert all(f is first for f in rest)
    assert sum(text.copied for text in texts) <= 3 * budget
