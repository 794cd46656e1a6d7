"""Hilbert-style proof checking for the two-sorted modal systems.

Three systems are provided: the base system K over a relational signature
(propositional tautologies, the distribution axioms, the duality axioms,
modus ponens, and universal generalization), the bidirectional system KB2
(K over the diamond dialect plus the converse axioms B1/B2), and the window
system KF (its own distribution and converse axioms, with generalization in
the refutation form: from not-phi infer window-phi).

Formulas are compared after normalization into the {bot, not, and, diamond,
box} core, so scripts may use the defined connectives freely.  Propositional
tautologies are decided by truth table on the propositional skeleton, with
each outermost modal subformula abstracted as an atom.  The table is one
scan of the formula evaluator (``semantics._Slices``) on a one-world frame:
all rows at once as bit columns, with the atoms' columns seeded into its memo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, ProofScriptError, SignatureError
from .parser import SORT_DIGITS, parse_formula, print_formula
from .semantics import (
    DEFAULT_BUDGET,
    SortedFrame,
    _index_bit,
    _Slices,
    frame_valid,
    global_consequence,
    local_consequence,
)
from .syntax import (
    DIA,
    DIA_INV,
    KF as KF_SIG,
    RS,
    SORT1,
    SORT2,
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Iff,
    Imp,
    Modality,
    Neg,
    Signature,
    Top,
    Var,
    _RHO_IMAGE,
    _walk,
    box,
    box_inv,
    dia,
    dia_inv,
    normalize,
    translate_rho,
    variables,
    wbox,
    wbox_inv,
)

MAX_TAUTOLOGY_ATOMS = 24
# a truth table is a scan of a frame with one world per sort and no relations
_ONE_WORLD = SortedFrame({SORT1: ("w",), SORT2: ("w",)}, {})
_SKELETON_LEAVES = frozenset({Var, Bot, Top, Dia, Box})
_ATOMS = frozenset({Var, Dia, Box})


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology test on the propositional skeleton of ``f``.

    The atoms are the variables and the outermost modal nodes.  All 2^k
    rows are evaluated at once on the one-world frame: atom i's column has
    bit r set iff bit i of r is, and the skeleton is a tautology iff its
    column is full.  The atoms are seeded into the evaluator's memo, so no
    modal node is entered.
    """
    # the skeleton's nodes, children first
    classes: dict[Formula, type] = {}
    _walk(f, classes, type, _SKELETON_LEAVES)
    atoms = [g for g, cls in classes.items() if cls in _ATOMS]
    k = len(atoms)
    if k > MAX_TAUTOLOGY_ATOMS:
        raise BudgetExceededError(1 << k, 1 << MAX_TAUTOLOGY_ATOMS)
    rows = 1 << k
    columns = {atom: [_index_bit(i, 0, rows)] for i, atom in enumerate(atoms)}
    ev = _Slices(_ONE_WORLD, rows, columns)
    memo, build = ev.memo, ev._build
    for g, cls in classes.items():  # in that order, so no second walk is needed
        if cls not in _ATOMS:
            memo[g] = build(g)
    return memo[f] == [ev.full]


@dataclass(frozen=True)
class AxiomScheme:
    """A named axiom pattern; metavariables are the pattern's variables.

    ``pattern`` is None for the tautology scheme PL, which is matched
    semantically rather than structurally.
    """

    name: str
    pattern: Formula | None

    def normalized(self) -> Formula | None:
        return None if self.pattern is None else normalize(self.pattern)


@dataclass(frozen=True)
class ProofSystem:
    id: str
    sig: Signature
    schemes: tuple[AxiomScheme, ...]


def _match(pattern: Formula, f: Formula, binding: dict[Var, Formula]) -> bool:
    """One-sided structural match of a normalized pattern against ``f``."""
    pairs = [(pattern, f)]
    while pairs:
        p, g = pairs.pop()
        if isinstance(p, Var):
            if p.sort != g.sort or binding.setdefault(p, g) is not g:
                return False
        elif type(g) is not type(p) or (isinstance(p, Bot) and g is not p):
            return False
        elif isinstance(p, And):
            pairs += (p.right, g.right), (p.left, g.left)
        elif isinstance(p, (Dia, Box)) and g.mod != p.mod:
            return False
        elif isinstance(p, (Neg, Dia, Box)):
            pairs.append((p.arg, g.arg))
        else:  # pragma: no cover
            raise TypeError(f"non-core pattern node {p!r}")
    return True


def match_axiom(
    f: Formula, system: ProofSystem
) -> tuple[str, dict[Var, Formula]] | None:
    """First scheme (in declaration order) that ``f`` instantiates, if any."""
    for scheme, binding in _matches(normalize(f), system.schemes):
        return scheme.name, binding
    return None


def _matches(nf: Formula, schemes: Iterable[AxiomScheme]):
    """Yield (scheme, binding) for every scheme the normalized ``nf`` instantiates."""
    for scheme in schemes:
        if scheme.pattern is None:
            if is_tautology(nf):
                yield scheme, {}
            continue
        binding: dict[Var, Formula] = {}
        if _match(scheme.normalized(), nf, binding):
            yield scheme, binding


def _k_scheme(mod: Modality) -> AxiomScheme:
    ph, ps = Var("ph1", mod.arg_sort), Var("ps", mod.arg_sort)
    pattern = Imp(Box(mod, Imp(ph, ps)), Imp(Box(mod, ph), Box(mod, ps)))
    return AxiomScheme(f"K_{mod.name}", pattern)


def _dual_scheme(mod: Modality) -> AxiomScheme:
    ph = Var("ph1", mod.arg_sort)
    return AxiomScheme(f"Dual_{mod.name}", Iff(Dia(mod, ph), Neg(Box(mod, Neg(ph)))))


def system_K(sig: Signature, id: str = "K") -> ProofSystem:
    """The base system over a relational signature (no window modalities)."""
    if any(m.window for m in sig.modalities):
        raise SignatureError("system K is defined over relational signatures only")
    schemes = [AxiomScheme("PL", None)]
    schemes += (_k_scheme(mod) for mod in sig.modalities)
    schemes += (_dual_scheme(mod) for mod in sig.modalities)
    return ProofSystem(id, sig, tuple(schemes))


def system_KB2() -> ProofSystem:
    """K over the diamond dialect plus both converse axioms."""
    base = system_K(RS, "KB2")
    p, q = Var("ph", SORT1), Var("ps", SORT2)
    b1 = AxiomScheme("B1", Imp(p, box_inv(dia(p))))
    b2 = AxiomScheme("B2", Imp(q, box(dia_inv(q))))
    return ProofSystem("KB2", RS, base.schemes + (b1, b2))


def system_KF() -> ProofSystem:
    """The window system: its own distribution/converse axioms, refutation UG."""
    a, b = Var("ph1", SORT1), Var("ph2", SORT1)
    x, y = Var("ps1", SORT2), Var("ps2", SORT2)
    schemes = (
        AxiomScheme("PL", None),
        AxiomScheme(
            "K1",
            Imp(wbox(And(a, Neg(b))), Imp(wbox(Neg(a)), wbox(Neg(b)))),
        ),
        AxiomScheme("B1", Imp(a, wbox_inv(wbox(a)))),
        AxiomScheme(
            "K2",
            Imp(wbox_inv(And(x, Neg(y))), Imp(wbox_inv(Neg(x)), wbox_inv(Neg(y)))),
        ),
        AxiomScheme("B2", Imp(x, wbox(wbox_inv(x)))),
    )
    return ProofSystem("KF", KF_SIG, schemes)


_SYSTEMS: dict[str, Callable[[], ProofSystem]] = {
    "K": lambda: system_K(RS),
    "KB2": system_KB2,
    "KF": system_KF,
}


def get_system(name: str) -> ProofSystem:
    try:
        return _SYSTEMS[name.upper()]()
    except KeyError:
        raise ProofScriptError(f"unknown proof system {name!r}")


# --- proof lines and checking -------------------------------------------------


@dataclass(frozen=True)
class AxiomRef:
    name: str | None = None
    subst: tuple[tuple[str, Formula], ...] | None = None


@dataclass(frozen=True)
class PremiseRef:
    pid: int


@dataclass(frozen=True)
class MPRef:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class UGRef:
    modality: str
    source: int


Justification = AxiomRef | PremiseRef | MPRef | UGRef


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    line: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _reject(index: int, reason: str) -> Verdict:
    return Verdict(False, index, reason)


def check_proof(
    lines: Sequence[ProofLine],
    premises: Sequence[Formula],
    system: ProofSystem,
) -> Verdict:
    """Validate every line of a Hilbert derivation.

    A line is an axiom instance (uniform substitution into a scheme, or a
    propositional tautology), one of the declared premises, modus ponens from
    two earlier lines in (antecedent, implication) order, or universal
    generalization: for relational modalities the cited line is the boxed
    argument; for window modalities it is the negation of the boxed
    argument.
    """
    if not lines:
        return Verdict(False, None, "empty script")
    norm_premises = [normalize(p) for p in premises]
    norm_lines: list[Formula] = []
    for expected, line in enumerate(lines, start=1):
        if line.index != expected:
            return _reject(line.index, f"expected line index {expected}")
        nf = normalize(line.formula)
        j = line.justification
        if isinstance(j, AxiomRef):
            verdict = _check_axiom(nf, j, system, line.index)
        elif isinstance(j, PremiseRef):
            if not 1 <= j.pid <= len(norm_premises):
                verdict = _reject(line.index, f"no premise {j.pid}")
            elif norm_premises[j.pid - 1] != nf:
                verdict = _reject(line.index, f"formula differs from premise {j.pid}")
            else:
                verdict = Verdict(True)
        elif isinstance(j, MPRef):
            verdict = _check_mp(nf, j, norm_lines, line.index)
        elif isinstance(j, UGRef):
            verdict = _check_ug(nf, j, norm_lines, system, line.index)
        else:  # pragma: no cover
            verdict = _reject(line.index, "unknown justification")
        if not verdict.accepted:
            return verdict
        norm_lines.append(nf)
    return Verdict(True)


def _check_axiom(nf: Formula, j: AxiomRef, system: ProofSystem, index: int) -> Verdict:
    schemes = system.schemes
    if j.name is not None:
        schemes = tuple(s for s in schemes if s.name == j.name)
        if not schemes:
            return _reject(index, f"system {system.id} has no scheme {j.name!r}")
    refusal = None
    for scheme, binding in _matches(nf, schemes):
        why = _substitution_refusal(j.subst, binding, scheme)
        if why is None:
            return Verdict(True)
        refusal = refusal or why
    if refusal is not None:
        return _reject(index, refusal)
    if j.name is None:
        return _reject(index, "matches no axiom scheme")
    if schemes[0].pattern is None:
        return _reject(index, "not a propositional tautology")
    return _reject(index, f"not an instance of scheme {j.name!r}")


def _substitution_refusal(
    subst: tuple[tuple[str, Formula], ...] | None,
    binding: dict[Var, Formula],
    scheme: AxiomScheme,
) -> str | None:
    """Why a declared substitution does not fit a matched scheme, if it does not."""
    bound = {mv.name: got for mv, got in binding.items()}
    for name, want in subst or ():
        if name not in bound:
            return f"substitution entry {name} names no metavariable of scheme {scheme.name}"
        if normalize(want) != bound[name]:
            return f"substitution for {name} does not reproduce the line"
    return None


def _check_mp(nf: Formula, j: MPRef, earlier: list[Formula], index: int) -> Verdict:
    for ref in (j.antecedent, j.implication):
        if not 1 <= ref < index:
            return _reject(index, f"reference {ref} is not an earlier line")
    antecedent = earlier[j.antecedent - 1]
    implication = earlier[j.implication - 1]
    if antecedent.sort != nf.sort:
        return _reject(
            index, f"line {j.antecedent} has sort {antecedent.sort}, this line {nf.sort}"
        )
    if implication != normalize(Imp(antecedent, nf)):
        return _reject(
            index,
            f"line {j.implication} is not (line {j.antecedent}) -> (this line)",
        )
    return Verdict(True)


def _check_ug(
    nf: Formula, j: UGRef, earlier: list[Formula], system: ProofSystem, index: int
) -> Verdict:
    if not 1 <= j.source < index:
        return _reject(index, f"reference {j.source} is not an earlier line")
    if not system.sig.has(j.modality):
        return _reject(index, f"system {system.id} has no modality {j.modality!r}")
    mod = system.sig.modality(j.modality)
    if not isinstance(nf, Box) or nf.mod != mod:
        return _reject(index, f"conclusion is not a {j.modality!r}-box formula")
    source = earlier[j.source - 1]
    if mod.window:
        if source != Neg(nf.arg):
            return _reject(
                index,
                f"line {j.source} is not the negation of the boxed argument",
            )
    elif nf.arg != source:
        return _reject(index, f"the boxed argument differs from line {j.source}")
    return Verdict(True)


def conclusion_of(lines: Sequence[ProofLine]) -> Formula:
    return lines[-1].formula


def establishes(
    lines: Sequence[ProofLine],
    premises: Sequence[Formula],
    target: Formula,
    system: ProofSystem,
) -> bool:
    """Does an accepted script prove ``target`` from ``premises``?

    Either the script cites the premises directly and concludes the target,
    or it is premise-free and concludes (p1 & ... & pn) -> target for some
    premises pi; both styles are recognized.
    """
    if not check_proof(lines, premises, system).accepted:
        return False
    last = normalize(conclusion_of(lines))
    if last == normalize(target):
        return True
    norm_premises = {normalize(p) for p in premises}
    # conjunction-implication form: peel the antecedent into conjuncts
    nf = last
    want = normalize(target)
    if isinstance(nf, Neg) and isinstance(nf.arg, And) and isinstance(nf.arg.right, Neg):
        antecedent, consequent = nf.arg.left, nf.arg.right.arg
        if consequent == want:
            conjuncts = _flatten_and(antecedent)
            return all(c in norm_premises for c in conjuncts)
    return False


def _flatten_and(f: Formula) -> list[Formula]:
    conjuncts, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += g.right, g.left
        else:
            conjuncts.append(g)
    return conjuncts


def delete_line(lines: Sequence[ProofLine], index: int) -> list[ProofLine]:
    """Remove an uncited line and renumber the remaining references."""
    cited = set()
    for line in lines:
        j = line.justification
        if isinstance(j, MPRef):
            cited |= {j.antecedent, j.implication}
        elif isinstance(j, UGRef):
            cited.add(j.source)
    if index in cited:
        raise ProofScriptError(f"line {index} is cited elsewhere")

    def shift(ref: int) -> int:
        return ref - 1 if ref > index else ref

    out = []
    for line in lines:
        if line.index == index:
            continue
        j = line.justification
        if isinstance(j, MPRef):
            j = MPRef(shift(j.antecedent), shift(j.implication))
        elif isinstance(j, UGRef):
            j = UGRef(j.modality, shift(j.source))
        out.append(ProofLine(shift(line.index), line.formula, j))
    return out


def soundness_probe(
    system: ProofSystem,
    lines: Sequence[ProofLine],
    premises: Sequence[Formula],
    frames: Iterable[SortedFrame],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check the conclusion of an accepted proof semantically on given frames.

    Premise-free proofs must be frame-valid everywhere.  Proofs from
    premises are checked as local consequences when the premises share the
    conclusion's sort; with mixed sorts no local reading exists (the
    premises live in the other carrier), so global consequence is used,
    which is the notion cross-sort generalization preserves.
    """
    verdict = check_proof(lines, premises, system)
    if not verdict.accepted:
        raise ProofScriptError(f"script rejected: {verdict.reason}", verdict.line)
    conclusion = conclusion_of(lines)
    same_sort = all(p.sort == conclusion.sort for p in premises)
    for frame in frames:
        if not frame.bidirectional:
            raise ProofScriptError("soundness probe requires bidirectional frames")
        if premises and same_sort:
            if not local_consequence(frame, list(premises), conclusion, budget):
                return False
        elif premises:
            if not global_consequence(frame, list(premises), conclusion, budget):
                return False
        else:
            if not frame_valid(frame, conclusion, budget):
                return False
    return True


# --- proof script files -------------------------------------------------------

# One record per numbered line:  INDEX | FORMULA | RULE [| SUBST]
# Rules: 'axiom [NAME]', 'pl', 'premise N', 'mp I J', 'ug MOD I'.
# Headers: 'system: NAME', 'var NAME : 1|2', 'premise: FORMULA', '#' comments.
# A line whose first non-blank character is '#' is a comment; no record or
# header starts with one.  Elsewhere a '#' starts a comment unless it is the
# constant '#f' or '#t'.
_COMMENT = re.compile(r"#(?![ft](?!\w))")


@dataclass
class ProofScript:
    system_id: str
    premises: list[Formula] = field(default_factory=list)
    lines: list[ProofLine] = field(default_factory=list)

    def system(self) -> ProofSystem:
        return get_system(self.system_id)

    def check(self) -> Verdict:
        return check_proof(self.lines, self.premises, self.system())


_RULE_RE = re.compile(r"^\s*(\S+)(.*)$")


def parse_proof_script(text: str, default_system: str = "KB2") -> ProofScript:
    system_id = default_system
    declarations: dict[str, str] = {}
    premises: list[Formula] = []
    lines: list[ProofLine] = []
    sig: Signature | None = None

    def ensure_sig() -> Signature:
        nonlocal sig
        if sig is None:
            sig = get_system(system_id).sig
        return sig

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(raw, 1)[0].strip()
        if not stripped or raw.lstrip().startswith("#"):
            continue
        if stripped.lower().startswith("system:"):
            if premises or lines:
                raise ProofScriptError("system header must come first", lineno)
            system_id = stripped.split(":", 1)[1].strip()
            get_system(system_id)  # validate early
            continue
        if stripped.lower().startswith("var "):
            m = re.match(r"var\s+(\w+)\s*:\s*([12])$", stripped)
            if not m:
                raise ProofScriptError("expected 'var NAME : 1|2'", lineno)
            declarations[m.group(1)] = SORT_DIGITS[m.group(2)]
            continue
        if stripped.lower().startswith("premise:"):
            body = stripped.split(":", 1)[1].strip()
            try:
                premises.append(
                    parse_formula(body, None, ensure_sig(), declarations)
                )
            except Exception as exc:
                raise ProofScriptError(f"bad premise formula: {exc}", lineno)
            continue
        parts = [p.strip() for p in stripped.split("|")]
        if len(parts) not in (3, 4):
            raise ProofScriptError(
                "expected 'INDEX | FORMULA | RULE' with an optional '| SUBST'", lineno
            )
        try:
            index = int(parts[0])
        except ValueError:
            raise ProofScriptError(f"bad line index {parts[0]!r}", lineno)
        try:
            formula = parse_formula(parts[1], None, ensure_sig(), declarations)
        except Exception as exc:
            raise ProofScriptError(f"bad formula: {exc}", lineno)
        justification = _parse_rule(
            parts[2], parts[3] if len(parts) == 4 else None, ensure_sig(), declarations, lineno
        )
        lines.append(ProofLine(index, formula, justification))
    return ProofScript(system_id, premises, lines)


def _parse_rule(
    rule_text: str,
    subst_text: str | None,
    sig: Signature,
    declarations: dict[str, str],
    lineno: int,
) -> Justification:
    match = _RULE_RE.match(rule_text)
    if not match:
        raise ProofScriptError("missing rule", lineno)
    rule = match.group(1).lower()
    rest = match.group(2).split()
    if rule == "pl":
        if rest:
            raise ProofScriptError("'pl' takes no arguments", lineno)
        return AxiomRef("PL")
    if rule == "axiom":
        name = rest[0] if rest else None
        subst = None
        if subst_text:
            pairs = []
            for item in subst_text.split(","):
                if "=" not in item:
                    raise ProofScriptError("substitution items look like 'mv = FORMULA'", lineno)
                mv, body = item.split("=", 1)
                try:
                    pairs.append(
                        (mv.strip(), parse_formula(body.strip(), None, sig, declarations))
                    )
                except Exception as exc:
                    raise ProofScriptError(f"bad substitution formula: {exc}", lineno)
            subst = tuple(pairs)
        return AxiomRef(name, subst)
    if rule == "premise":
        if len(rest) != 1 or not rest[0].isdigit():
            raise ProofScriptError("'premise' takes one premise number", lineno)
        return PremiseRef(int(rest[0]))
    if rule == "mp":
        if len(rest) != 2 or not all(r.isdigit() for r in rest):
            raise ProofScriptError("'mp' takes two line numbers", lineno)
        return MPRef(int(rest[0]), int(rest[1]))
    if rule == "ug":
        if len(rest) == 2 and rest[1].isdigit():
            return UGRef(rest[0], int(rest[1]))
        raise ProofScriptError("'ug' takes a modality and a line number", lineno)
    raise ProofScriptError(f"unknown rule {rule!r}", lineno)


def serialize_proof_script(script: ProofScript) -> str:
    digit = {sort: d for d, sort in SORT_DIGITS.items()}
    out = [f"system: {script.system_id}"]
    declared: set[str] = set()
    for f in script.premises + [l.formula for l in script.lines]:
        for v in sorted(variables(f), key=lambda v: v.name):
            if v.name not in declared:
                declared.add(v.name)
                out.append(f"var {v.name} : {digit[v.sort]}")
    for p in script.premises:
        out.append(f"premise: {print_formula(p)}")
    for line in script.lines:
        j = line.justification
        if isinstance(j, AxiomRef):
            rule = "pl" if j.name == "PL" else ("axiom" + (f" {j.name}" if j.name else ""))
        elif isinstance(j, PremiseRef):
            rule = f"premise {j.pid}"
        elif isinstance(j, MPRef):
            rule = f"mp {j.antecedent} {j.implication}"
        else:
            rule = f"ug {j.modality} {j.source}"
        out.append(f"{line.index} | {print_formula(line.formula)} | {rule}")
    return "\n".join(out) + "\n"


# --- translation of window-system proofs into the diamond system --------------


class _Emitter:
    def __init__(self):
        self.lines: list[ProofLine] = []

    def emit(self, formula: Formula, justification: Justification) -> int:
        index = len(self.lines) + 1
        self.lines.append(ProofLine(index, formula, justification))
        return index


def _expand_converse(
    em: _Emitter, a: Formula, mod: Modality, back: Modality, axiom: str
) -> int:
    """Derive ``a -> back-box ~mod-box ~a`` from the converse axiom
    ``a -> back-box mod-dia a``, duality and distribution: the image of the
    window axiom B1 (``mod`` dia, ``back`` dia-) or B2 (the other way)."""

    def back_box(f: Formula) -> Box:
        return Box(back, f)

    da, nbn = Dia(mod, a), Neg(Box(mod, Neg(a)))
    l1 = em.emit(Imp(a, back_box(da)), AxiomRef(axiom))
    l2 = em.emit(Iff(da, nbn), AxiomRef(f"Dual_{mod.name}"))
    l3 = em.emit(Imp(Iff(da, nbn), Imp(da, nbn)), AxiomRef("PL"))
    l4 = em.emit(Imp(da, nbn), MPRef(l2, l3))
    l5 = em.emit(back_box(Imp(da, nbn)), UGRef(back.name, l4))
    l6 = em.emit(
        Imp(back_box(Imp(da, nbn)), Imp(back_box(da), back_box(nbn))),
        AxiomRef(f"K_{back.name}"),
    )
    l7 = em.emit(Imp(back_box(da), back_box(nbn)), MPRef(l5, l6))
    goal = Imp(a, back_box(nbn))
    l8 = em.emit(
        Imp(Imp(a, back_box(da)), Imp(Imp(back_box(da), back_box(nbn)), goal)),
        AxiomRef("PL"),
    )
    l9 = em.emit(Imp(Imp(back_box(da), back_box(nbn)), goal), MPRef(l1, l8))
    return em.emit(goal, MPRef(l7, l9))


def _expand_k_window(
    em: _Emitter, a: Formula, b: Formula, boxer, ug_mod: str, k_name: str
) -> int:
    x = Neg(And(a, Neg(b)))
    y = Imp(Neg(Neg(a)), Neg(Neg(b)))
    l1 = em.emit(Imp(x, y), AxiomRef("PL"))
    l2 = em.emit(boxer(Imp(x, y)), UGRef(ug_mod, l1))
    l3 = em.emit(
        Imp(boxer(Imp(x, y)), Imp(boxer(x), boxer(y))), AxiomRef(k_name)
    )
    l4 = em.emit(Imp(boxer(x), boxer(y)), MPRef(l2, l3))
    z = Imp(boxer(Neg(Neg(a))), boxer(Neg(Neg(b))))
    l5 = em.emit(Imp(boxer(y), z), AxiomRef(k_name))
    goal = Imp(boxer(x), z)
    l6 = em.emit(
        Imp(Imp(boxer(x), boxer(y)), Imp(Imp(boxer(y), z), goal)), AxiomRef("PL")
    )
    l7 = em.emit(Imp(Imp(boxer(y), z), goal), MPRef(l4, l6))
    return em.emit(goal, MPRef(l5, l7))


def translate_proof(script: ProofScript) -> ProofScript:
    """Line-wise translation of an accepted window-system proof into KB2.

    Premises, tautologies, and modus ponens map one-to-one; the refutation
    generalizations become plain generalizations; each window axiom instance
    expands into a short mechanical derivation from the translated KB2
    axioms (converse axiom plus duality, or distribution twice).
    """
    if script.system_id.upper() != "KF":
        raise ProofScriptError("only window-system scripts are translated")
    system = script.system()
    verdict = script.check()
    if not verdict.accepted:
        raise ProofScriptError(f"script rejected: {verdict.reason}", verdict.line)
    em = _Emitter()
    final_index: dict[int, int] = {}
    premises = [translate_rho(p) for p in script.premises]
    for line in script.lines:
        j = line.justification
        image = translate_rho(line.formula)
        if isinstance(j, PremiseRef):
            final_index[line.index] = em.emit(image, j)
        elif isinstance(j, MPRef):
            final_index[line.index] = em.emit(
                image, MPRef(final_index[j.antecedent], final_index[j.implication])
            )
        elif isinstance(j, UGRef):
            target = _RHO_IMAGE.get(j.modality)
            if target is None:
                raise ProofScriptError(f"unexpected modality {j.modality!r}", line.index)
            final_index[line.index] = em.emit(
                image, UGRef(target.name, final_index[j.source])
            )
        elif isinstance(j, AxiomRef):
            matched = match_axiom(line.formula, system)
            if matched is None:
                raise ProofScriptError("axiom line matches no scheme", line.index)
            name, binding = matched
            by_name = {v.name: translate_rho(f) for v, f in binding.items()}
            if name == "PL":
                final_index[line.index] = em.emit(image, AxiomRef("PL"))
            elif name == "B1":
                final_index[line.index] = _expand_converse(
                    em, by_name["ph1"], DIA, DIA_INV, "B1"
                )
            elif name == "B2":
                final_index[line.index] = _expand_converse(
                    em, by_name["ps1"], DIA_INV, DIA, "B2"
                )
            elif name == "K1":
                final_index[line.index] = _expand_k_window(
                    em, by_name["ph1"], by_name["ph2"], box, "dia", "K_dia"
                )
            elif name == "K2":
                final_index[line.index] = _expand_k_window(
                    em, by_name["ps1"], by_name["ps2"], box_inv, "dia-", "K_dia-"
                )
            else:  # pragma: no cover
                raise ProofScriptError(f"unhandled scheme {name!r}", line.index)
        else:  # pragma: no cover
            raise ProofScriptError("unknown justification", line.index)
    return ProofScript("KB2", premises, em.lines)
