"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is either frozen from a hand computation, checked
against an independent brute-force oracle, or an exactness requirement
(zero mismatches over a seeded random corpus).
"""

import io
import json
import random
import time
from pathlib import Path

import pytest

from conceptlogic import FormalContext, OperatorKind, apply_operator
from conceptlogic.cli import run_cli
from conceptlogic.context import iter_bits
from conceptlogic.errors import FrameError, ProofScriptError
from conceptlogic.formats import parse_csv, parse_cxt, serialize_csv, serialize_cxt
from conceptlogic.lattices import (
    ConceptKind,
    enumerate_concepts,
    verify_yao_isomorphisms,
)
from conceptlogic.proofs import (
    parse_proof_script,
    soundness_probe,
    system_KB2,
    system_KF,
    translate_proof,
)
from conceptlogic.semantics import (
    Model,
    SortedFrame,
    Valuation,
    context_to_frame,
    frame_to_context,
    frame_valid,
    satisfies,
    truth_set,
)
from conceptlogic.suites import (
    random_formula,
    random_valuation,
    suite_iso,
    suite_lattice,
)
from conceptlogic.syntax import (
    FULL,
    KF,
    SORT1,
    SORT2,
    Imp,
    Neg,
    Or,
    Var,
    box,
    box_inv,
    dia,
    dia_inv,
    substitute,
    translate_rho,
    variables,
    wbox,
    wbox_inv,
)

from oracles import enumerate_concepts_bruteforce, random_context

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def report(n: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {n}: {detail}"


def k0() -> FormalContext:
    return parse_cxt((DATA / "k0.cxt").read_text())


def named(frame, masks) -> Valuation:
    """The valuation of world names that a valuation of world masks stands for."""
    return Valuation({v: [frame.carrier(v.sort)[i] for i in iter_bits(m)] for v, m in masks.items()})


@pytest.fixture(scope="module")
def corpus_200():
    rng = random.Random(1734)
    return [random_context(rng, 6, 6) for _ in range(200)]


def names(ctx, concepts):
    return {
        (frozenset(c.extent.members(ctx.objects)), frozenset(c.intent.members(ctx.attributes)))
        for c in concepts
    }


def test_criterion_1_k0_fixture():
    ctx = k0()
    start = time.monotonic()
    fc = enumerate_concepts(ctx, ConceptKind.FC)
    pc = enumerate_concepts(ctx, ConceptKind.PC)
    oc = enumerate_concepts(ctx, ConceptKind.OC)
    elapsed = time.monotonic() - start
    ok = (
        names(ctx, fc)
        == {
            (frozenset({"g1", "g2"}), frozenset({"m1"})),
            (frozenset({"g2"}), frozenset({"m1", "m2"})),
        }
        and names(ctx, pc)
        == {
            (frozenset(), frozenset()),
            (frozenset({"g1"}), frozenset({"m1"})),
            (frozenset({"g1", "g2"}), frozenset({"m1", "m2"})),
        }
        and names(ctx, oc)
        == {
            (frozenset(), frozenset()),
            (frozenset({"g2"}), frozenset({"m2"})),
            (frozenset({"g1", "g2"}), frozenset({"m1", "m2"})),
        }
        and elapsed < 1.0
    )
    report(1, ok, f"2 FC / 3 PC / 3 OC concepts on the fixture in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(corpus_200):
    mismatches = 0
    for ctx in corpus_200:
        for kind in ConceptKind:
            if enumerate_concepts(ctx, kind) != enumerate_concepts_bruteforce(ctx, kind):
                mismatches += 1
    report(
        2,
        mismatches == 0,
        f"lectic enumeration equals brute force on 200 contexts x 3 kinds "
        f"({mismatches} mismatches)",
    )


def test_criterion_3_complement_isomorphisms(corpus_200):
    failures = []
    for i, ctx in enumerate(corpus_200):
        rep = verify_yao_isomorphisms(ctx)
        if not rep.passed:
            failures.append(i)
        elif any(c.bijection is None for c in rep.checks):
            failures.append(i)
    report(
        3,
        not failures,
        f"clauses a/b/c with explicit bijections on 200 contexts "
        f"(failed contexts: {failures[:3] if failures else 'none'})",
    )


_IDENTITY_CASES = {
    SORT1: [
        (dia, OperatorKind.POSS),
        (box, OperatorKind.NEC),
        (wbox, OperatorKind.PLUS),
    ],
    SORT2: [
        (dia_inv, OperatorKind.POSS_INV),
        (box_inv, OperatorKind.NEC_INV),
        (wbox_inv, OperatorKind.MINUS),
    ],
}


def test_criterion_4_truth_set_identities():
    rng = random.Random(2041)
    violations = 0
    for _ in range(500):
        ctx = random_context(rng, 5, 5)
        frame = context_to_frame(ctx)
        sort = rng.choice([SORT1, SORT2])
        f = random_formula(rng, sort, 4, FULL, n_vars=3)
        model = Model(frame, named(frame, random_valuation(rng, frame, variables(f))))
        inner = truth_set(model, f)
        for wrap, kind in _IDENTITY_CASES[sort]:
            if truth_set(model, wrap(f)) != apply_operator(kind, inner, ctx):
                violations += 1
    report(
        4,
        violations == 0,
        f"modal truth sets equal set operators on 500 random formulas "
        f"({violations} violations)",
    )


def test_criterion_5_translation_semantics():
    rng = random.Random(2042)
    violations = 0
    from conceptlogic import complement_context

    for _ in range(500):
        ctx = random_context(rng, 5, 5)
        frame = context_to_frame(ctx)
        cframe = context_to_frame(complement_context(ctx))
        sort = rng.choice([SORT1, SORT2])
        f = random_formula(rng, sort, 4, KF, n_vars=3)
        val = named(frame, random_valuation(rng, frame, variables(f)))
        rho_f = translate_rho(f)
        model, cmodel = Model(frame, val), Model(cframe, val)
        for w in frame.carrier(sort):
            if satisfies(model, w, f) != satisfies(cmodel, w, rho_f):
                violations += 1
    report(
        5,
        violations == 0,
        f"window/translated satisfaction agrees at every world of 500 sampled "
        f"models ({violations} violations)",
    )


def test_criterion_6_soundness_sweep():
    rng = random.Random(2043)
    frames = [context_to_frame(random_context(rng, 3, 3)) for _ in range(50)]
    invalid = 0
    checked = 0
    for system in (system_KB2(), system_KF()):
        for scheme in system.schemes:
            for i in range(200):
                frame = frames[i % len(frames)]
                if scheme.pattern is None:
                    # tautology scheme: substitution instance of a template
                    base = random_formula(rng, rng.choice([SORT1, SORT2]), 2, system.sig, 2)
                    inst = Or(base, Neg(base))
                else:
                    mapping = {
                        mv: random_formula(rng, mv.sort, 2, system.sig, 2)
                        for mv in variables(scheme.pattern)
                    }
                    inst = substitute(scheme.pattern, mapping)
                checked += 1
                if not frame_valid(frame, inst, budget=1 << 14):
                    invalid += 1
    # a frame whose second relation is not the converse of the first
    non_converse = SortedFrame(
        {SORT1: ("a",), SORT2: ("b",)},
        {SORT1: [], SORT2: [("b", "a")]},
    )
    falsified = not frame_valid(non_converse, Imp(Var("q", SORT2), box(dia_inv(Var("q", SORT2)))))
    with pytest.raises(FrameError):
        frame_to_context(non_converse)
    script = parse_proof_script("system: KB2\nvar p : 1\n1 | p -> p | pl\n")
    with pytest.raises(ProofScriptError):
        soundness_probe(script.system(), script.lines, script.premises, [non_converse])
    ok = invalid == 0 and falsified and not non_converse.bidirectional
    report(
        6,
        ok,
        f"{checked} axiom instances frame-valid across 50 bidirectional frames; "
        f"non-converse frame falsifies a converse axiom, reads as not bidirectional "
        f"and is refused as a context and by the soundness probe",
    )


ANTITONE = DATA / "proofs" / "antitone_kb2.prf"

# one-token edits of the antitone script, each of which must be rejected
MUTATIONS = [
    (6, "premise 1", "premise 2"),
    (6, "p -> q", "q -> p"),
    (7, "~q -> ~p", "~q -> p"),
    (8, "mp 1 2", "mp 2 2"),
    (8, "mp 1 2", "mp 1 1"),
    (8, "mp 1 2", "mp 1 3"),
    (8, "~q -> ~p", "~p -> ~q"),
    (9, "ug dia 3", "ug dia 2"),
    (9, "ug dia 3", "ug dia- 3"),
    (9, "box", "dia"),
    (10, "axiom K_dia", "axiom K_dia-"),
    (10, "axiom K_dia", "axiom B1"),
    (10, "box ~q", "box ~p"),
    (10, "->", "&"),
    (11, "mp 4 5", "mp 3 5"),
    (11, "mp 4 5", "mp 4 4"),
    (11, "box ~q", "box q"),
    (7, "pl", "axiom B1"),
    (6, "1 |", "2 |"),
    (5, "q", "p"),
]


def _mutate(text: str, line_no: int, old: str, new: str) -> str:
    lines = text.splitlines()
    target = lines[line_no - 1]
    assert old in target, (line_no, old)
    lines[line_no - 1] = target.replace(old, new, 1)
    return "\n".join(lines) + "\n"


def test_criterion_7_proof_kernel():
    text = ANTITONE.read_text()
    base = parse_proof_script(text)
    accepted = base.check().accepted
    surviving = []
    for i, (line_no, old, new) in enumerate(MUTATIONS):
        mutant = parse_proof_script(_mutate(text, line_no, old, new))
        if mutant.check().accepted:
            surviving.append(i)
    kf_names = ["kf_b1.prf", "kf_b2.prf", "kf_ug.prf", "kf_k1_mp.prf", "kf_k2.prf"]
    translation_ok = True
    for name in kf_names:
        script = parse_proof_script((DATA / "proofs" / name).read_text())
        if not script.check().accepted:
            translation_ok = False
            continue
        image = translate_proof(script)
        if not image.check().accepted:
            translation_ok = False
    ok = accepted and not surviving and translation_ok
    report(
        7,
        ok,
        f"antitone derivation accepted; {len(MUTATIONS)}/20 mutations rejected "
        f"(survivors: {surviving or 'none'}); translated window proofs accepted",
    )


def test_criterion_8_quotient_structures():
    rng = random.Random(2044)
    failures = []
    for i in range(20):
        ctx = random_context(rng, 4, 4)
        for rep in suite_lattice(ctx).values():
            if not rep.passed:
                failures.append((i, rep.title, [c.name for c in rep.failures()]))
        iso = suite_iso(ctx)
        if not iso.passed:
            failures.append((i, iso.title, [c.name for c in iso.failures()]))
    report(
        8,
        not failures,
        f"lattice laws for all three quotients and both correspondence maps "
        f"pass on 20 contexts (failures: {failures[:2] if failures else 'none'})",
    )


def test_criterion_9_io_round_trips_and_transcripts():
    cxt_files = sorted(DATA.glob("*.cxt"))
    csv_files = sorted(DATA.glob("*.csv"))
    corpus_ok = len(cxt_files) + len(csv_files) >= 10
    for path in cxt_files:
        text = path.read_text()
        if serialize_cxt(parse_cxt(text)) != text:
            corpus_ok = False
    for path in csv_files:
        text = path.read_text()
        if serialize_csv(parse_csv(text)) != text:
            corpus_ok = False
    with open(GOLDEN / "manifest.json") as fh:
        manifest = json.load(fh)
    transcripts_ok = True
    for case in manifest:
        out = io.StringIO()
        code = run_cli(case["args"], out, io.StringIO())
        want = (GOLDEN / f"{case['name']}.txt").read_text()
        if out.getvalue() != want or code != case["exit"]:
            transcripts_ok = False
    report(
        9,
        corpus_ok and transcripts_ok,
        f"{len(cxt_files)} CXT + {len(csv_files)} CSV files round-trip bit-exactly; "
        f"{len(manifest)} golden transcripts byte-identical",
    )
