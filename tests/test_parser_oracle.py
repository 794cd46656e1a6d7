"""The stack parser against the recursive-descent oracle in ``oracles.py``.

Random formula texts, with random spacing, redundant parentheses, sort
suffixes present or not, pre-filled declaration tables, constants, all six
modal tokens, and stray or truncated tokens: both parsers either raise
``FormulaSyntaxError`` or return the same formula and leave equal tables.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conceptlogic.errors import FormulaSyntaxError
from conceptlogic.parser import MODAL_TOKENS, parse_formula, print_formula
from conceptlogic.syntax import FULL, KF, RS, SORT1, SORT2
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
def damaged(draw):
    """A formula text, sometimes cut short or with a stray token spliced in."""
    text = draw(TEXTS)
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
