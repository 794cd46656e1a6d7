"""Tests for the proof kernel: tautologies, axiom matching, checking, translation."""

import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlogic.cli import run_cli
from conceptlogic.errors import BudgetExceededError, ProofScriptError
from conceptlogic.formats import load_context
from conceptlogic.proofs import (
    AxiomRef,
    MPRef,
    PremiseRef,
    ProofLine,
    ProofScript,
    UGRef,
    _fields,
    check_proof,
    get_system,
    is_tautology,
    match_axiom,
    parse_proof_script,
    serialize_proof_script,
    soundness_probe,
    system_KB2,
    system_KF,
    translate_proof,
)
from conceptlogic.semantics import context_to_frame, frame_valid
from conceptlogic.syntax import (
    KF,
    SORT1,
    SORT2,
    And,
    Bot,
    Iff,
    Imp,
    Neg,
    Or,
    Top,
    Var,
    box,
    box_inv,
    dia,
    dia_inv,
    normalize,
    substitute,
    translate_rho,
    var1,
    var2,
    wbox,
    wbox_inv,
)

import oracles
from test_syntax import random_formula

DATA = Path(__file__).parent / "data" / "proofs"

P, Q, R = var1("p"), var1("q"), var1("r")
X, Y = var2("x"), var2("y")


def load(name):
    return parse_proof_script((DATA / name).read_text())


class TestTautology:
    def test_identity(self):
        assert is_tautology(Imp(P, P))

    def test_excluded_middle_with_window_atom(self):
        assert is_tautology(Or(wbox(P), Neg(wbox(P))))

    def test_non_tautology(self):
        assert not is_tautology(Imp(P, Q))
        assert not is_tautology(P)

    def test_modal_atoms_are_opaque(self):
        # box p -> box p is a tautology, box (p -> p) alone is not
        assert is_tautology(Imp(box(P), box(P)))
        assert not is_tautology(box(Imp(P, P)))

    def test_bot_and_top(self):
        assert is_tautology(Neg(Bot(SORT1)))
        assert is_tautology(Imp(Bot(SORT1), P))

    def test_atom_budget(self):
        f = Bot(SORT1)
        for i in range(30):
            f = Or(f, Var(f"v{i}", SORT1))
        with pytest.raises(BudgetExceededError):
            is_tautology(f)

    def test_atom_budget_counts_distinct_atoms(self):
        # 20 variables and 5 modal atoms, each occurring several times
        xs = [var2(f"x{i}") for i in range(5)]
        atoms = [Var(f"v{i}", SORT1) for i in range(20)] + [dia_inv(x) for x in xs]
        f = Top(SORT1)
        for a in atoms:
            f = Iff(And(a, f), Or(f, a))
        with pytest.raises(BudgetExceededError) as refused:
            is_tautology(And(f, Neg(f)))
        assert (refused.value.required, refused.value.budget) == (2**25, 2**24)

    def test_agrees_with_row_by_row_oracle(self):
        rng = random.Random(2024)
        verdicts = []
        for _ in range(300):
            f = _random_skeleton(rng)
            got = is_tautology(f)
            assert got == oracles.is_tautology(f), f
            assert is_tautology(normalize(f)) == got
            verdicts.append(got)
        assert 30 <= verdicts.count(True) <= 270


def _random_skeleton(rng: random.Random):
    """A sort-1 formula over at most 10 atoms: variables, and modal atoms
    that reuse those variables and recur in the formula."""
    ps = [var1(f"p{i}") for i in range(rng.randint(1, 5))]
    xs = [var2("x"), var2("y")]
    inner = [dia(rng.choice(ps)), Neg(dia(rng.choice(ps))), rng.choice(xs)]
    wrap = [dia_inv, box_inv, wbox_inv]
    modal = [rng.choice(wrap)(rng.choice(inner)) for _ in range(rng.randint(0, 5))]
    atoms = ps + modal

    def grow(depth):
        if rng.random() < 0.05:
            return rng.choice([Top(SORT1), Bot(SORT1)])
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(atoms)
        kind = rng.choice([Neg, And, Or, Imp, Iff])
        if kind is Neg:
            return Neg(grow(depth - 1))
        return kind(grow(depth - 1), grow(depth - 1))

    f = grow(rng.randint(1, 5))
    # tautologies that a truth table must see through
    shape = rng.randrange(4)
    if shape == 1:
        return Or(f, Neg(f))
    if shape == 2:
        return Imp(And(f, grow(2)), f)
    if shape == 3:
        return Iff(f, Neg(Neg(f)))
    return f


class TestMatchAxiom:
    def test_b1_window_instance(self):
        kf = system_KF()
        got = match_axiom(Imp(P, wbox_inv(wbox(P))), kf)
        assert got is not None and got[0] == "B1"
        assert got[1] == {Var("ph1", SORT1): P}

    def test_b2_diamond_instance(self):
        kb2 = system_KB2()
        got = match_axiom(Imp(X, box(dia_inv(X))), kb2)
        assert got is not None and got[0] == "B2"

    def test_dual_instance(self):
        kb2 = system_KB2()
        got = match_axiom(Iff(dia(P), Neg(box(Neg(P)))), kb2)
        assert got is not None and got[0] == "Dual_dia"

    def test_pl_has_priority(self):
        kb2 = system_KB2()
        got = match_axiom(Imp(P, P), kb2)
        assert got == ("PL", {})

    def test_no_match(self):
        kb2 = system_KB2()
        assert match_axiom(Imp(P, Q), kb2) is None

    def test_inconsistent_binding_rejected(self):
        kf = system_KF()
        # p -> boxm- boxm q is not a B1 instance (metavariable mismatch)
        assert match_axiom(Imp(P, wbox_inv(wbox(Q))), kf) is None

    def test_k_axiom_instance(self):
        kb2 = system_KB2()
        f = Imp(box(Imp(P, Q)), Imp(box(P), box(Q)))
        got = match_axiom(f, kb2)
        assert got is not None and got[0] == "K_dia"


class TestCorpusProofs:
    @pytest.mark.parametrize(
        "name",
        ["antitone_kb2.prf", "kf_b1.prf", "kf_b2.prf", "kf_ug.prf", "kf_k1_mp.prf", "kf_k2.prf"],
    )
    def test_accepted(self, name):
        script = load(name)
        verdict = script.check()
        assert verdict.accepted, (verdict.line, verdict.reason)

    def test_antitone_conclusion(self):
        script = load("antitone_kb2.prf")
        assert script.lines[-1].formula == Imp(box(Neg(Q)), box(Neg(P)))

    def test_single_citation_off_by_one_rejected(self):
        script = load("antitone_kb2.prf")
        lines = list(script.lines)
        lines[2] = ProofLine(3, lines[2].formula, MPRef(2, 2))
        verdict = check_proof(lines, script.premises, script.system())
        assert not verdict.accepted and verdict.line == 3

    def test_round_trip_serialization(self):
        for name in ["antitone_kb2.prf", "kf_k1_mp.prf"]:
            script = load(name)
            again = parse_proof_script(serialize_proof_script(script))
            assert again.system_id == script.system_id
            assert again.premises == script.premises
            assert again.lines == script.lines


class TestCheckProof:
    def test_empty_script(self):
        assert not check_proof([], [], system_KB2()).accepted

    def test_premise_formula_must_match(self):
        kb2 = system_KB2()
        lines = [ProofLine(1, P, PremiseRef(1))]
        assert check_proof(lines, [P], kb2).accepted
        assert not check_proof(lines, [Q], kb2).accepted
        assert not check_proof(lines, [], kb2).accepted

    def test_mp_requires_exact_shape(self):
        kb2 = system_KB2()
        lines = [
            ProofLine(1, P, PremiseRef(1)),
            ProofLine(2, Imp(P, Q), PremiseRef(2)),
            ProofLine(3, Q, MPRef(1, 2)),
        ]
        assert check_proof(lines, [P, Imp(P, Q)], kb2).accepted
        swapped = [lines[0], lines[1], ProofLine(3, Q, MPRef(2, 1))]
        assert not check_proof(swapped, [P, Imp(P, Q)], kb2).accepted

    def test_mp_accepts_defined_connective_spelling(self):
        # the implication premise may be spelled in its negative normal form
        kb2 = system_KB2()
        as_neg = Neg(And(P, Neg(Q)))
        lines = [
            ProofLine(1, P, PremiseRef(1)),
            ProofLine(2, as_neg, PremiseRef(2)),
            ProofLine(3, Q, MPRef(1, 2)),
        ]
        assert check_proof(lines, [P, as_neg], kb2).accepted

    def test_standard_ug_inserts_argument(self):
        kb2 = system_KB2()
        lines = [
            ProofLine(1, Imp(P, P), AxiomRef("PL")),
            ProofLine(2, box(Imp(P, P)), UGRef("dia", 1)),
        ]
        assert check_proof(lines, [], kb2).accepted
        bad = [lines[0], ProofLine(2, box(Imp(P, Q)), UGRef("dia", 1))]
        assert not check_proof(bad, [], kb2).accepted

    def test_window_ug_needs_negated_source(self):
        kf = system_KF()
        lines = [
            ProofLine(1, Neg(And(P, Neg(P))), AxiomRef("PL")),
            ProofLine(2, wbox(And(P, Neg(P))), UGRef("boxm", 1)),
        ]
        assert check_proof(lines, [], kf).accepted
        bad = [
            ProofLine(1, Imp(P, P), AxiomRef("PL")),
            ProofLine(2, wbox(Imp(P, P)), UGRef("boxm", 1)),
        ]
        assert not check_proof(bad, [], kf).accepted

    def test_named_axiom_with_substitution_verified(self):
        kf = system_KF()
        inst = Imp(And(P, Q), wbox_inv(wbox(And(P, Q))))
        good = [ProofLine(1, inst, AxiomRef("B1", (("ph1", And(P, Q)),)))]
        assert check_proof(good, [], kf).accepted
        bad = [ProofLine(1, inst, AxiomRef("B1", (("ph1", P),)))]
        assert not check_proof(bad, [], kf).accepted

    def test_substitution_entry_must_name_a_metavariable(self):
        script = parse_proof_script("system: KB2\nvar p : 1\n1 | p -> p | axiom | zz = p\n")
        verdict = script.check()
        assert not verdict.accepted and verdict.line == 1
        assert verdict.reason == "substitution entry zz names no metavariable of scheme PL"

    def test_unnamed_axiom_substitution_checked(self):
        text = "system: KB2\nvar p : 1\nvar q : 1\n1 | p -> box- dia p | axiom | ph = {}\n"
        verdict = parse_proof_script(text.format("q")).check()
        assert not verdict.accepted and verdict.line == 1
        assert verdict.reason == "substitution for ph does not reproduce the line"
        assert parse_proof_script(text.format("p")).check().accepted

    def test_unknown_scheme_name(self):
        kf = system_KF()
        lines = [ProofLine(1, Imp(P, P), AxiomRef("K_dia"))]
        verdict = check_proof(lines, [], kf)
        assert not verdict.accepted and "no scheme" in verdict.reason

    def test_line_numbering_enforced(self):
        kb2 = system_KB2()
        lines = [ProofLine(2, Imp(P, P), AxiomRef("PL"))]
        assert not check_proof(lines, [], kb2).accepted

    def test_unused_line_preserves_acceptance(self):
        script = load("antitone_kb2.prf")
        padded = list(script.lines[:3])
        padded.append(ProofLine(4, Imp(Q, Q), AxiomRef("PL")))  # unused
        for line in script.lines[3:]:
            j = line.justification
            if isinstance(j, MPRef):
                j = MPRef(
                    j.antecedent + (1 if j.antecedent >= 4 else 0),
                    j.implication + (1 if j.implication >= 4 else 0),
                )
            elif isinstance(j, UGRef):
                j = UGRef(j.modality, j.source + (1 if j.source >= 4 else 0))
            padded.append(ProofLine(line.index + 1, line.formula, j))
        assert check_proof(padded, script.premises, script.system()).accepted


class TestSoundness:
    def frames(self, count=6, seed=5):
        rng = random.Random(seed)
        return [
            context_to_frame(oracles.random_context(rng, 4, 4)) for _ in range(count)
        ]

    def test_corpus_conclusions_sound(self):
        for name in ["kf_b1.prf", "kf_b2.prf", "kf_ug.prf"]:
            script = load(name)
            assert soundness_probe(
                script.system(), script.lines, script.premises, self.frames()
            )

    def test_antitone_sound_with_premises(self):
        script = load("antitone_kb2.prf")
        assert soundness_probe(
            script.system(), script.lines, script.premises, self.frames()
        )

    def test_generalized_premise_is_read_globally(self):
        # ug preserves truth at every world, not at one: p entails box- box p
        # globally but not locally, so the probe must read the premise globally
        script = parse_proof_script(
            "system: KB2\nvar p : 1\npremise: p\n"
            "1 | p | premise 1\n2 | box p | ug dia 1\n3 | box- box p | ug dia- 2\n"
        )
        k0 = context_to_frame(load_context(str(DATA.parent / "k0.cxt")))
        assert soundness_probe(script.system(), script.lines, script.premises, [k0])

    def test_axiom_instances_frame_valid(self):
        rng = random.Random(17)
        frames = self.frames(4, seed=18)
        for system in (system_KB2(), system_KF()):
            sig = system.sig
            for scheme in system.schemes:
                if scheme.pattern is None:
                    continue
                for _ in range(5):
                    from conceptlogic.syntax import variables

                    mapping = {
                        mv: random_formula(rng, mv.sort, 2, sig=sig, n_vars=2)
                        for mv in variables(scheme.pattern)
                    }
                    inst = substitute(scheme.pattern, mapping)
                    for frame in frames:
                        assert frame_valid(frame, inst), (scheme.name, inst)


class TestTranslation:
    @pytest.mark.parametrize(
        "name", ["kf_b1.prf", "kf_b2.prf", "kf_ug.prf", "kf_k1_mp.prf", "kf_k2.prf"]
    )
    def test_translated_scripts_accepted(self, name):
        script = load(name)
        image = translate_proof(script)
        assert image.system_id == "KB2"
        verdict = image.check()
        assert verdict.accepted, (name, verdict.line, verdict.reason)
        want = normalize(translate_rho(script.lines[-1].formula))
        assert normalize(image.lines[-1].formula) == want
        assert image.premises == [translate_rho(p) for p in script.premises]

    @pytest.mark.parametrize(
        "name", ["kf_b1.prf", "kf_b2.prf", "kf_ug.prf", "kf_k1_mp.prf", "kf_k2.prf"]
    )
    def test_translated_scripts_are_pinned(self, name):
        # the emitted derivation, line for line, as serialized text
        image = serialize_proof_script(translate_proof(load(name)))
        assert image == (DATA / "translated" / name).read_text()

    def test_axiom_images_are_kb2_theorems(self):
        # every window axiom scheme, randomly instantiated, single-line script
        rng = random.Random(23)
        kf = system_KF()
        from conceptlogic.syntax import variables

        for scheme in kf.schemes:
            if scheme.pattern is None:
                continue
            for _ in range(6):
                mapping = {
                    mv: random_formula(rng, mv.sort, 2, sig=KF, n_vars=2)
                    for mv in variables(scheme.pattern)
                }
                inst = substitute(scheme.pattern, mapping)
                script = ProofScript(
                    "KF", [], [ProofLine(1, inst, AxiomRef(scheme.name))]
                )
                image = translate_proof(script)
                assert image.check().accepted, scheme.name

    def test_rejects_non_window_scripts(self):
        script = load("antitone_kb2.prf")
        with pytest.raises(ProofScriptError):
            translate_proof(script)


class TestScriptParsing:
    def test_parse_errors_carry_line(self):
        with pytest.raises(ProofScriptError) as exc:
            parse_proof_script("system: KB2\n1 | p:1 -> | mp 1 2\n")
        assert exc.value.line == 2
        with pytest.raises(ProofScriptError):
            parse_proof_script("1 | p:1 | nonsense 1\n")
        with pytest.raises(ProofScriptError):
            parse_proof_script("system: NOPE\n")

    def test_constants_are_not_comments(self):
        script = parse_proof_script(
            "system: KF  # window system\n"
            "var p : 1\n"
            "premise: p & #t\n"
            "# a whole-line comment\n"
            "1 | p & #t | premise 1\n"
            "2 | p -> (#f -> p) | pl  # trailing comment\n"
        )
        assert script.premises == [And(P, Top(SORT1))]
        assert [line.formula for line in script.lines] == [
            And(P, Top(SORT1)),
            Imp(P, Imp(Bot(SORT1), P)),
        ]
        assert script.check().accepted

    def test_lines_starting_with_hash_are_comments(self):
        script = parse_proof_script(
            "#t and #f are constants\n"
            "system: KF\n"
            "   #f | p | premise 1\n"
            "var p : 1\n"
            "#t\n"
            "1 | p -> (#f -> p) | pl\n"
        )
        assert script.system_id == "KF"
        assert [line.formula for line in script.lines] == [Imp(P, Imp(Bot(SORT1), P))]
        assert script.check().accepted

    def test_serialized_constants_read_back(self):
        script = ProofScript("KF", [], [ProofLine(1, Imp(P, Imp(Bot(SORT1), P)), AxiomRef("PL"))])
        assert script.check().accepted
        again = parse_proof_script(serialize_proof_script(script))
        assert again.lines == script.lines

    def test_system_header_must_lead(self):
        with pytest.raises(ProofScriptError):
            parse_proof_script("premise: p:1\nsystem: KF\n")

    @pytest.mark.parametrize(
        "record, extra, message",
        [
            ("3 | p | premise 1", " | ph = p", "'premise' takes no substitution"),
            ("3 | q | mp 1 2", " | ph = p", "'mp' takes no substitution"),
            ("3 | box p | ug dia 1", " | ph = p", "'ug' takes no substitution"),
            ("3 | p -> p | axiom PL", " junk words", "'axiom' takes at most a scheme name"),
        ],
        ids=["premise-subst", "mp-subst", "ug-subst", "axiom-extra-words"],
    )
    def test_text_the_checker_would_not_read_is_refused(self, tmp_path, record, extra, message):
        head = "system: KB2\nvar p : 1\nvar q : 1\npremise: p\npremise: p -> q\n"
        head += "1 | p | premise 1\n2 | p -> q | premise 2\n"
        assert parse_proof_script(head + record + "\n").check().accepted
        with pytest.raises(ProofScriptError, match=message) as exc:
            parse_proof_script(head + record + extra + "\n")
        assert exc.value.line == 8
        path = tmp_path / "extra.prf"
        path.write_text(head + record + extra + "\n")
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["check-proof", str(path)], out, err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"error: line 8: {message}\n")

    @pytest.mark.parametrize(
        "record, message",
        [
            ("3 | q | mp ² 2", "'mp' takes two line numbers"),
            ("3 | p | premise ³", "'premise' takes one premise number"),
            ("3 | box p | ug dia ¹", "'ug' takes a modality and a line number"),
            ("١ | q | mp 1 2", "bad line index '١'"),
            ("1_0 | q | mp 1 2", "bad line index '1_0'"),
        ],
        ids=["mp-superscript", "premise-superscript", "ug-superscript", "index-arabic", "index-underscore"],
    )
    def test_numbers_are_ascii_digits(self, tmp_path, record, message):
        head = "system: KB2\nvar p : 1\nvar q : 1\npremise: p\npremise: p -> q\n"
        head += "1 | p | premise 1\n2 | p -> q | premise 2\n"
        with pytest.raises(ProofScriptError, match=message) as exc:
            parse_proof_script(head + record + "\n")
        assert exc.value.line == 8
        path = tmp_path / "number.prf"
        path.write_text(head + record + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["check-proof", str(path)], out, err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"error: line 8: {message}\n")

    @pytest.mark.parametrize(
        "script",
        [
            "1 | p:1 -> p:1 | pl\nvar p : 2\n2 | p -> p | pl\n",
            "var p : 1\nvar p : 2\n1 | p -> p | pl\n",
        ],
        ids=["after-use", "after-header"],
    )
    def test_var_header_may_not_change_a_sort(self, tmp_path, script):
        lineno = script.count("\n", 0, script.index("var p : 2")) + 1
        message = "variable 'p' already has sort s1"
        with pytest.raises(ProofScriptError, match=message) as exc:
            parse_proof_script(script)
        assert exc.value.line == lineno
        path = tmp_path / "rebind.prf"
        path.write_text(script)
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["check-proof", str(path)], out, err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"error: line {lineno}: {message}\n")

    def test_var_header_may_repeat_a_sort(self):
        script = parse_proof_script("1 | p:1 -> p:1 | pl\nvar p : 1\n2 | p -> p | pl\n")
        assert script.lines[0].formula is script.lines[1].formula
        assert script.check().accepted

    @pytest.mark.parametrize(
        "record, fields",
        [
            ("1 | p | pl", ["1", "p", "pl"]),
            ("1 | (p | q) | pl", ["1", "(p | q)", "pl"]),
            ("2 | ((p | q) | (r | s)) | axiom | ph = (p | q)",
             ["2", "((p | q) | (r | s))", "axiom", "ph = (p | q)"]),
            ("3 | (p | (q | r) | pl", ["3", "(p | (q | r) | pl"]),
            ("4 | p) | q | pl", ["4", "p)", "q", "pl"]),
            ("5 | ) ( | p | pl", ["5", ") (", "p", "pl"]),
            ("6 | (p)) | (q | r", ["6", "(p))", "(q | r"]),
            ("((|)|x", ["((|)|x"]),
            ("|", ["", ""]),
            ("", [""]),
        ],
        ids=["plain", "or-in-parens", "nested", "unclosed", "stray-close", "close-open",
             "over-closed", "deep-unclosed", "bare-bar", "empty"],
    )
    def test_fields_split_outside_parentheses(self, record, fields):
        assert _fields(record) == fields

    def test_generic_system_k(self):
        sys_k = get_system("K")
        assert sys_k.id == "K"
        got = match_axiom(Iff(dia(P), Neg(box(Neg(P)))), sys_k)
        assert got is not None and got[0] == "Dual_dia"


def _random_script(system_id: str, rng: random.Random) -> ProofScript:
    """A script of any shape, not a derivation: each formula is a disjunction
    with a variable in it, and axiom lines may carry substitutions."""
    system = get_system(system_id)

    def formula():
        sort = rng.choice([SORT1, SORT2])
        f = random_formula(rng, sort, rng.randint(0, 3), sig=system.sig, n_vars=2)
        return Or(f, var1("p") if sort == SORT1 else var2("x"))

    lines = []
    for index in range(1, rng.randint(1, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            name = rng.choice([None, *(s.name for s in system.schemes)])
            mvs = rng.sample(["ph", "ph1", "ps2"], rng.randint(0, 2))
            subst = tuple((mv, formula()) for mv in mvs)
            j = AxiomRef(name, subst or None)
        elif kind == 1:
            j = PremiseRef(rng.randint(1, 3))
        elif kind == 2:
            j = MPRef(rng.randint(1, 9), rng.randint(1, 9))
        else:
            j = UGRef(rng.choice(system.sig).name, rng.randint(1, 9))
        lines.append(ProofLine(index, formula(), j))
    return ProofScript(system_id, [formula() for _ in range(rng.randint(0, 2))], lines)


class TestScriptRoundTrip:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(["K", "KB2", "KF"]), st.integers(0, 2**32 - 1))
    def test_parse_of_serialize_is_the_script(self, system_id, seed):
        script = _random_script(system_id, random.Random(seed))
        assert parse_proof_script(serialize_proof_script(script)) == script

    def test_disjunction_record(self):
        script = ProofScript("KB2", [], [ProofLine(1, Or(P, Neg(P)), AxiomRef("PL"))])
        text = serialize_proof_script(script)
        assert text.endswith("1 | (p | ~p) | pl\n")
        assert parse_proof_script(text) == script and script.check().accepted

    def test_substitution_is_written_and_declared(self):
        inst = Imp(Or(X, Y), box(dia_inv(Or(X, Y))))
        script = ProofScript("KB2", [], [ProofLine(1, inst, AxiomRef("B2", (("ps", Or(X, Y)),)))])
        text = serialize_proof_script(script)
        assert text == (
            "system: KB2\nvar x : 2\nvar y : 2\n"
            "1 | (x | y -> box dia- (x | y)) | axiom B2 | ps = (x | y)\n"
        )
        assert parse_proof_script(text) == script and script.check().accepted

    def test_unwritable_scripts_are_refused(self):
        both = ProofScript("KB2", [Var("p", SORT2)], [ProofLine(1, P, PremiseRef(1))])
        with pytest.raises(ProofScriptError, match="used at both sorts"):
            serialize_proof_script(both)
        constant = ProofScript("KB2", [], [ProofLine(1, Top(SORT2), AxiomRef("PL"))])
        with pytest.raises(ProofScriptError, match="fixes the sort"):
            serialize_proof_script(constant)

    @pytest.mark.parametrize("word", ["dia", "box", "boxm"])
    def test_modal_word_variable_names_are_refused(self, word):
        v = Var(word, SORT1)
        script = ProofScript("KB2", [], [ProofLine(1, Or(v, Neg(v)), AxiomRef("PL"))])
        with pytest.raises(ProofScriptError, match="does not read back as a variable name"):
            serialize_proof_script(script)
        with pytest.raises(ProofScriptError, match=f"'{word}' is not a variable name") as exc:
            parse_proof_script(f"system: KB2\nvar {word} : 1\n1 | (p:1 | ~p) | pl\n")
        assert exc.value.line == 2
