"""Tests for formula construction, parsing, printing, and the rho translation."""

import gc
import io
import random
import re
from pathlib import Path

import pytest

from conceptlogic import syntax
from conceptlogic.cli import run_cli
from conceptlogic.errors import FormulaSyntaxError, SignatureError, SortMismatchError
from conceptlogic.parser import parse_formula, print_formula
from conceptlogic.proofs import system_K
from conceptlogic.suites import random_formula as suite_random_formula
from conceptlogic.syntax import (
    DIA,
    DIA_INV,
    FULL,
    KF,
    RS,
    SORT1,
    SORT2,
    WBOX,
    WBOX_INV,
    And,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    Neg,
    Or,
    Top,
    Var,
    box,
    box_inv,
    dia,
    normalize,
    substitute,
    translate_rho,
    var1,
    var2,
    variables,
    wbox,
    wbox_inv,
)

P = var1("p")
Q = var2("q")


class TestConstruction:
    def test_repr_names_class_text_and_sort(self):
        assert repr(dia(P)) == "Dia('dia p', sort='s2')"
        f = P
        for _ in range(10**5):
            f = Neg(f)
        assert repr(f) == f"Neg({'~' * 10**5 + 'p'!r}, sort='s1')"

    def test_sorts_cached(self):
        assert P.sort == SORT1
        assert wbox(P).sort == SORT2
        assert box_inv(Q).sort == SORT1

    def test_connectives_require_same_sort(self):
        with pytest.raises(SortMismatchError):
            And(P, Q)
        with pytest.raises(SortMismatchError):
            Imp(P, dia(P))

    def test_modal_arg_sorts_checked(self):
        with pytest.raises(SortMismatchError):
            dia(Q)
        with pytest.raises(SortMismatchError):
            wbox_inv(P)

    def test_window_modalities_are_box_only(self):
        with pytest.raises(SignatureError):
            Dia(WBOX, P)


# What seeds 5, 10 and 11 draw at depth 4 from each signature and sort.
# Formulas of FULL interleave the modalities of one result sort in the
# signature's order, so another order draws other formulas.
PINNED_DRAWS = {
    ("RS", SORT1): [
        "(dia- dia p <-> q) | box- ((x | x) & box p)",
        "(#f | box- x) & q | ~#t",
        "box- (#f & z) & ((q | p) & (#t & r)) & box- (x | #f -> x)",
    ],
    ("RS", SORT2): [
        "(dia dia- x <-> y) | box ((p | p) & box- x)",
        "(#f | box p) & y | ~#t",
        "box (#f & r) & ((y | x) & (#t & z)) & box (p | #f -> p)",
    ],
    ("KF", SORT1): [
        "(boxm- boxm p <-> q) | boxm- ((x | x) & boxm p)",
        "(#f | boxm- x) & q | ~#t",
        "boxm- (#f & z) & ((q | p) & (#t & r)) & boxm- (x | #f -> x)",
    ],
    ("KF", SORT2): [
        "(boxm boxm- x <-> y) | boxm ((p | p) & boxm- x)",
        "(#f | boxm p) & y | ~#t",
        "boxm (#f & r) & ((y | x) & (#t & z)) & boxm (p | #f -> p)",
    ],
    ("FULL", SORT1): [
        "(boxm- (y -> #f) <-> #t) | p",
        "(#f | box- x) & q | ~#t",
        "box- (#f & z) & ((q | p) & (#t & r)) & box- (x | #f -> x)",
    ],
    ("FULL", SORT2): [
        "(boxm (q -> #f) <-> #t) | x",
        "(#f | box p) & y | ~#t",
        "box (#f & r) & ((y | x) & (#t & z)) & box (p | #f -> p)",
    ],
}


class TestVocabulary:
    """The signatures are ordered: random draws and axiom schemes follow them."""

    def test_signatures_are_ordered_tuples(self):
        assert RS == (DIA, DIA_INV)
        assert KF == (WBOX, WBOX_INV)
        assert FULL == (DIA, DIA_INV, WBOX, WBOX_INV)

    @pytest.mark.parametrize("name, sort", list(PINNED_DRAWS))
    def test_random_draws_follow_the_order(self, name, sort):
        sig = {"RS": RS, "KF": KF, "FULL": FULL}[name]
        drawn = [
            print_formula(suite_random_formula(random.Random(s), sort, 4, sig)) for s in (5, 10, 11)
        ]
        assert drawn == PINNED_DRAWS[name, sort]

    def test_schemes_follow_the_order(self):
        assert [s.name for s in system_K().schemes] == [
            "PL", "K_dia", "K_dia-", "Dual_dia", "Dual_dia-"
        ]


class TestInterning:
    def test_equal_constructions_are_one_node(self):
        assert Var("p", SORT1) is Var("p", SORT1)
        assert Var("p", SORT1) is not Var("p", SORT2)
        assert Imp(P, wbox_inv(Q)) is Imp(var1("p"), wbox_inv(var2("q")))
        assert parse_formula("p -> boxm- q", SORT1) is Imp(P, wbox_inv(Q))

    def test_normalize_is_idempotent_by_identity(self):
        for f in (Imp(P, Or(P, Top(SORT1))), Iff(wbox(P), Neg(Q)), And(P, Neg(P)), Q):
            nf = normalize(f)
            assert normalize(nf) is nf
            assert normalize(f) is nf

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            P.name = "q"
        with pytest.raises(AttributeError):
            del Neg(P).arg

    def test_ill_sorted_constructions_still_raise(self):
        with pytest.raises(SortMismatchError):
            Or(P, Q)
        with pytest.raises(SortMismatchError):
            Iff(Bot(SORT1), Top(SORT2))
        with pytest.raises(SortMismatchError):
            box(Q)
        with pytest.raises(SignatureError):
            Dia(WBOX, P)
        # a failed construction registers nothing
        with pytest.raises(SortMismatchError):
            And(var1("fresh"), var2("fresh2"))
        assert not any(k[0] is And and k[1] is var1("fresh") for k in syntax._INTERNED)

    def test_deep_chain_needs_no_recursion(self):
        depth = 10**4
        f = g = P
        for _ in range(depth):
            f, g = Neg(f), Neg(g)
        assert f is g and f == g and hash(f) == hash(g)
        assert parse_formula("~" * depth + "p", SORT1) is f
        del f, g

    def test_table_does_not_outlive_its_nodes(self):
        script = str(Path(__file__).parent / "data" / "proofs" / "kf_k1_mp.prf")

        def check():
            assert run_cli(["check-proof", script], io.StringIO(), io.StringIO()) == 0
            gc.collect()
            return len(syntax._INTERNED)

        gc.collect()
        before = len(syntax._INTERNED)
        after_first = check()
        for _ in range(9):
            check()
        assert check() <= after_first
        # nothing parsed from the script outlives the call
        assert after_first == before


class TestSubstitution:
    def test_substitute_replaces_matching_sort(self):
        f = Imp(P, box_inv(dia(P)))
        g = substitute(f, {P: And(P, P)})
        assert g == Imp(And(P, P), box_inv(dia(And(P, P))))

    def test_substitute_rejects_sort_changing(self):
        with pytest.raises(SortMismatchError):
            substitute(P, {P: Q})


class TestNormalize:
    def test_imp_expands(self):
        assert normalize(Imp(P, P)) == Neg(And(P, Neg(P)))

    def test_top_expands(self):
        assert normalize(Top(SORT1)) == Neg(Bot(SORT1))

    def test_or_iff_expand(self):
        f = normalize(Or(P, P))
        assert f == Neg(And(Neg(P), Neg(P)))
        g = normalize(Iff(P, P))
        assert g == And(Neg(And(P, Neg(P))), Neg(And(P, Neg(P))))


class TestParsing:
    def test_single_modality(self):
        f = parse_formula("dia p", SORT2)
        assert f == dia(var1("p"))

    def test_nested_window(self):
        f = parse_formula("boxm- (boxm p)", SORT1)
        assert f == wbox_inv(wbox(var1("p")))
        # parentheses are optional: modal args chain as unary
        assert parse_formula("boxm- boxm p", SORT1) == f

    def test_sort_clash_reported(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p & dia p", None)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p & dia p", SORT1)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p & dia p", SORT2)

    def test_suffix_declarations(self):
        f = parse_formula("p:1 -> q:1", None)
        assert f == Imp(var1("p"), var1("q"))
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p:1 & p:2", None)

    def test_declaration_table(self):
        f = parse_formula("p & q", None, declarations={"p": SORT2, "q": SORT2})
        assert f == And(var2("p"), var2("q"))

    def test_declaration_table_collects_solved_sorts(self):
        table = {}
        parse_formula("p:1 & dia- x", None, declarations=table)
        assert table == {"p": SORT1, "x": SORT2}
        assert parse_formula("x", None, declarations=table) == var2("x")

    def test_unknown_sort_is_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p & q", None)

    @pytest.mark.parametrize("text, sort, message", [
        ("p", "s3", "unknown sort 's3'"),
        ("\u00b2", 1, "unexpected character '\u00b2' (at column 1)"),
    ], ids=["sort", "superscript"])
    def test_refusal_names_its_cause(self, text, sort, message):
        with pytest.raises(FormulaSyntaxError, match=f"^{re.escape(message)}$"):
            parse_formula(text, sort)

    def test_expected_sort_fills_in(self):
        assert parse_formula("p", 1) == var1("p")
        assert parse_formula("p", 2) == var2("p")

    def test_signature_restricts_tokens(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("boxm p", SORT2, sig=RS)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("dia p", SORT2, sig=KF)

    def test_constants(self):
        assert parse_formula("#f", SORT1) == Bot(SORT1)
        assert parse_formula("#t -> #f", SORT2) == Imp(Top(SORT2), Bot(SORT2))

    def test_precedence_and_associativity(self):
        f = parse_formula("p -> q -> r", SORT1)
        assert f == Imp(var1("p"), Imp(var1("q"), var1("r")))
        g = parse_formula("p & q | r", SORT1)
        assert g == Or(And(var1("p"), var1("q")), var1("r"))
        h = parse_formula("~p & q", SORT1)
        assert h == And(Neg(var1("p")), var1("q"))

    def test_syntax_errors_carry_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("p &", SORT1)
        assert "column" in str(exc.value)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(p", SORT1)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p $ q", SORT1)


_VAR_POOLS = {SORT1: "pqr", SORT2: "xyz"}


def random_formula(rng, sort, depth, sig=FULL, n_vars=3):
    """Random dialect formula of the given sort (test generator).

    Variable names are drawn from disjoint per-sort pools, matching the
    requirement that propositional variable families do not overlap.
    """
    mods_to = {}
    for m in sig:
        if not m.window:
            mods_to.setdefault(m.result_sort, []).append((Dia, m))
            mods_to.setdefault(m.result_sort, []).append((Box, m))
        else:
            mods_to.setdefault(m.result_sort, []).append((Box, m))
    choices = ["var", "bot", "top", "neg", "and", "or", "imp", "iff", "mod"]
    weights = [5, 1, 1, 3, 3, 2, 2, 1, 5]
    while True:
        pick = rng.choices(choices, weights)[0] if depth > 0 else rng.choices(
            ["var", "bot", "top"], [6, 1, 1]
        )[0]
        if pick == "mod" and sort not in mods_to:
            continue
        break
    if pick == "var":
        return Var(_VAR_POOLS[sort][rng.randrange(n_vars)], sort)
    if pick == "bot":
        return Bot(sort)
    if pick == "top":
        return Top(sort)
    if pick == "neg":
        return Neg(random_formula(rng, sort, depth - 1, sig, n_vars))
    if pick == "mod":
        cls, m = rng.choice(mods_to[sort])
        return cls(m, random_formula(rng, m.arg_sort, depth - 1, sig, n_vars))
    cls = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[pick]
    return cls(
        random_formula(rng, sort, depth - 1, sig, n_vars),
        random_formula(rng, sort, depth - 1, sig, n_vars),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_parse_print_identity(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            sort = rng.choice([SORT1, SORT2])
            f = random_formula(rng, sort, rng.randint(0, 5))
            assert parse_formula(print_formula(f), sort) == f


class TestRho:
    def test_window_clause(self):
        assert translate_rho(wbox(P)) == box(Neg(P))

    def test_inverse_window_clause(self):
        assert translate_rho(wbox_inv(Q)) == box_inv(Neg(Q))

    def test_identity_on_propositional_skeleton(self):
        f = And(P, Neg(P))
        assert translate_rho(f) == f

    def test_composed_clauses(self):
        # derived by composing the two window clauses by hand
        f = wbox_inv(wbox(P))
        assert translate_rho(f) == box_inv(Neg(box(Neg(P))))

    def test_sort_preserved(self):
        rng = random.Random(4)
        for _ in range(80):
            sort = rng.choice([SORT1, SORT2])
            f = random_formula(rng, sort, 4, sig=KF)
            assert translate_rho(f).sort == sort

    def test_rejects_foreign_modalities(self):
        with pytest.raises(SignatureError):
            translate_rho(dia(P))

    @pytest.mark.parametrize("word, sort", [
        ("box", "2"), ("box-", "1"), ("dia", "2"), ("dia-", "1"),
    ])
    def test_refusal_names_the_word_given(self, word, sort):
        # a box over the diamond's relation is named by its own word
        out, err = io.StringIO(), io.StringIO()
        variable = "p" if sort == "2" else "x"
        code = run_cli(["translate", "--formula", f"{word} {variable}", "--sort", sort], out, err)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"error: modality '{word}' is not in the window dialect\n"


class TestHelpers:
    def test_variables(self):
        f = Imp(P, box_inv(dia(P)))
        assert variables(f) == {P}
