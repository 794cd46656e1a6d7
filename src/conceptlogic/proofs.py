"""Hilbert-style proof checking for the two-sorted modal systems.

Three systems are provided: the base system K over the diamond dialect
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

from .errors import BudgetExceededError, ConceptLogicError, ProofScriptError
from .parser import SORT_DIGITS, parse_formula, print_formula, reads_as_variable
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


def system_K() -> ProofSystem:
    """The base system over the diamond dialect ``RS``."""
    schemes = [AxiomScheme("PL", None)]
    schemes += (_k_scheme(mod) for mod in RS.modalities)
    schemes += (_dual_scheme(mod) for mod in RS.modalities)
    return ProofSystem("K", RS, tuple(schemes))


def system_KB2() -> ProofSystem:
    """K over the diamond dialect plus both converse axioms."""
    p, q = Var("ph", SORT1), Var("ps", SORT2)
    b1 = AxiomScheme("B1", Imp(p, box_inv(dia(p))))
    b2 = AxiomScheme("B2", Imp(q, box(dia_inv(q))))
    return ProofSystem("KB2", RS, system_K().schemes + (b1, b2))


def system_KF() -> ProofSystem:
    """The window system: its own distribution/converse axioms, refutation UG."""
    a, b = Var("ph1", SORT1), Var("ph2", SORT1)
    x, y = Var("ps1", SORT2), Var("ps2", SORT2)
    schemes = (
        AxiomScheme("PL", None),
        AxiomScheme("K1", Imp(wbox(And(a, Neg(b))), Imp(wbox(Neg(a)), wbox(Neg(b))))),
        AxiomScheme("B1", Imp(a, wbox_inv(wbox(a)))),
        AxiomScheme("K2", Imp(wbox_inv(And(x, Neg(y))), Imp(wbox_inv(Neg(x)), wbox_inv(Neg(y))))),
        AxiomScheme("B2", Imp(x, wbox(wbox_inv(x)))),
    )
    return ProofSystem("KF", KF_SIG, schemes)


_SYSTEMS = {"K": system_K(), "KB2": system_KB2(), "KF": system_KF()}


def get_system(name: str) -> ProofSystem:
    system = _SYSTEMS.get(name.upper())
    if system is None:
        raise ProofScriptError(f"unknown proof system {name!r}")
    return system


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
    conclusion = lines[-1].formula
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
# Rules: 'axiom [NAME]', 'pl' (short for 'axiom PL'), 'premise N', 'mp I J',
# 'ug MOD I'.  SUBST is 'mv = FORMULA, ...'.  A '|' inside parentheses is a
# disjunction, not a separator.
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


def _fields(record: str) -> list[str]:
    """The record split on each '|' that is outside parentheses."""
    fields: list[str] = []
    for piece in record.split("|"):
        if fields and fields[-1].count("(") > fields[-1].count(")"):
            fields[-1] += "|" + piece
        else:
            fields.append(piece)
    return [f.strip() for f in fields]


def parse_proof_script(text: str, default_system: str = "KB2") -> ProofScript:
    system_id, sig = default_system, None
    declarations: dict[str, str] = {}
    premises: list[Formula] = []
    lines: list[ProofLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(raw, 1)[0].strip()
        if not stripped or raw.lstrip().startswith("#"):
            continue
        if stripped.lower().startswith("system:"):
            if premises or lines:
                raise ProofScriptError("system header must come first", lineno)
            system_id = stripped.split(":", 1)[1].strip()
            sig = get_system(system_id).sig
            continue
        if stripped.lower().startswith("var "):
            m = re.match(r"var\s+(\w+)\s*:\s*([12])$", stripped)
            if not m:
                raise ProofScriptError("expected 'var NAME : 1|2'", lineno)
            if not reads_as_variable(m.group(1)):
                raise ProofScriptError(f"{m.group(1)!r} is not a variable name", lineno)
            declarations[m.group(1)] = SORT_DIGITS[m.group(2)]
            continue
        if sig is None:
            sig = get_system(system_id).sig
        if stripped.lower().startswith("premise:"):
            body = stripped.split(":", 1)[1].strip()
            try:
                premises.append(parse_formula(body, None, sig, declarations))
            except ConceptLogicError as exc:
                raise ProofScriptError(f"bad premise formula: {exc}", lineno)
            continue
        parts = _fields(stripped)
        if len(parts) not in (3, 4):
            raise ProofScriptError(
                "expected 'INDEX | FORMULA | RULE' with an optional '| SUBST'", lineno
            )
        try:
            index = int(parts[0])
        except ValueError:
            raise ProofScriptError(f"bad line index {parts[0]!r}", lineno)
        try:
            formula = parse_formula(parts[1], None, sig, declarations)
        except ConceptLogicError as exc:
            raise ProofScriptError(f"bad formula: {exc}", lineno)
        justification = _parse_rule(
            parts[2], parts[3] if len(parts) == 4 else None, sig, declarations, lineno
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
    if rule in ("pl", "axiom"):
        if rule == "pl" and rest:
            raise ProofScriptError("'pl' takes no arguments", lineno)
        if len(rest) > 1:
            raise ProofScriptError("'axiom' takes at most a scheme name", lineno)
        name = "PL" if rule == "pl" else rest[0] if rest else None
        if not subst_text:
            return AxiomRef(name)
        pairs = []
        for item in subst_text.split(","):
            if "=" not in item:
                raise ProofScriptError("substitution items look like 'mv = FORMULA'", lineno)
            mv, body = item.split("=", 1)
            try:
                pairs.append((mv.strip(), parse_formula(body.strip(), None, sig, declarations)))
            except ConceptLogicError as exc:
                raise ProofScriptError(f"bad substitution formula: {exc}", lineno)
        return AxiomRef(name, tuple(pairs))
    if subst_text and rule in ("premise", "mp", "ug"):
        raise ProofScriptError(f"'{rule}' takes no substitution", lineno)
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


def _field(f: Formula) -> str:
    """``f`` as a record field: parenthesized if it holds a disjunction's '|'."""
    text = print_formula(f)
    return f"({text})" if "|" in text else text


def serialize_proof_script(script: ProofScript) -> str:
    """Script text that ``parse_proof_script`` reads back as an equal script.

    A variable name used at both sorts or that the tokenizer does not read
    as a variable (a modal word such as ``dia``), or a formula with no
    variable or modality to fix its sort, cannot be written and raises
    ``ProofScriptError``.
    """
    digit = {sort: d for d, sort in SORT_DIGITS.items()}
    formulas = list(script.premises)
    for line in script.lines:
        formulas.append(line.formula)
        formulas += (f for _, f in getattr(line.justification, "subst", None) or ())
    sorts: dict[str, str] = {}
    for f in formulas:
        names = sorted(variables(f), key=lambda v: v.name)
        if not names:
            classes: dict[Formula, type] = {}
            _walk(f, classes, type)
            if {Dia, Box}.isdisjoint(classes.values()):
                text = print_formula(f)
                raise ProofScriptError(f"no variable or modality fixes the sort of {text}")
        for v in names:
            if not reads_as_variable(v.name):
                raise ProofScriptError(f"{v.name!r} does not read back as a variable name")
            if sorts.setdefault(v.name, v.sort) != v.sort:
                raise ProofScriptError(f"variable {v.name!r} is used at both sorts")
    out = [f"system: {script.system_id}"]
    out += (f"var {name} : {digit[sort]}" for name, sort in sorts.items())
    out += (f"premise: {print_formula(p)}" for p in script.premises)
    for line in script.lines:
        j = line.justification
        if isinstance(j, AxiomRef):
            rule = "pl" if j.name == "PL" else "axiom" + (f" {j.name}" if j.name else "")
            if j.subst:
                rule += " | " + ", ".join(f"{mv} = {_field(f)}" for mv, f in j.subst)
        elif isinstance(j, PremiseRef):
            rule = f"premise {j.pid}"
        elif isinstance(j, MPRef):
            rule = f"mp {j.antecedent} {j.implication}"
        else:
            rule = f"ug {j.modality} {j.source}"
        out.append(f"{line.index} | {_field(line.formula)} | {rule}")
    return "\n".join(out) + "\n"


# --- translation of window-system proofs into the diamond system --------------


class _Derivation:
    """A derivation under construction: its primitive rules, and the derived
    rules that the window-axiom images are built from.  Each method emits
    its lines and returns the index of the last; ``mp`` and the derived
    rules read the formulas of the cited lines, which must be the
    builder's own ``Imp`` lines where an implication is cited."""

    def __init__(self):
        self.lines: list[ProofLine] = []

    def emit(self, formula: Formula, justification: Justification) -> int:
        self.lines.append(ProofLine(len(self.lines) + 1, formula, justification))
        return len(self.lines)

    def formula(self, i: int) -> Formula:
        return self.lines[i - 1].formula

    def mp(self, i: int, j: int) -> int:
        """From line i and line j, ``i -> c``, derive c."""
        return self.emit(self.formula(j).right, MPRef(i, j))

    def pl_mp(self, i: int, f: Formula) -> int:
        """From line i and the tautology ``(line i) -> f``, derive f."""
        return self.mp(i, self.emit(Imp(self.formula(i), f), AxiomRef("PL")))

    def lift(self, mod: Modality, i: int) -> int:
        """From line i, ``a -> b``, derive ``[mod] a -> [mod] b``."""
        f = self.formula(i)
        ug = self.emit(Box(mod, f), UGRef(mod.name, i))
        k = Imp(Box(mod, f), Imp(Box(mod, f.left), Box(mod, f.right)))
        return self.mp(ug, self.emit(k, AxiomRef(f"K_{mod.name}")))

    def chain(self, i: int, j: int) -> int:
        """From line i, ``a -> b``, and line j, ``b -> c``, derive ``a -> c``."""
        ab, bc = self.formula(i), self.formula(j)
        pl = self.emit(Imp(ab, Imp(bc, Imp(ab.left, bc.right))), AxiomRef("PL"))
        return self.mp(j, self.mp(i, pl))


def _expand_converse(d: _Derivation, axiom: str, a: Formula, mod: Modality) -> int:
    """The image of window axiom B1 (``mod`` dia) or B2 (dia-):
    ``a -> back-box ~mod-box ~a`` from the converse axiom ``a -> back-box
    mod-dia a``, where back is the converse of ``mod``, by duality."""
    back, da, nbn = RS.modality(mod.converse), Dia(mod, a), Neg(Box(mod, Neg(a)))
    converse = d.emit(Imp(a, Box(back, da)), AxiomRef(axiom))
    dual = d.emit(Iff(da, nbn), AxiomRef(f"Dual_{mod.name}"))
    return d.chain(converse, d.lift(back, d.pl_mp(dual, Imp(da, nbn))))


def _expand_k_window(d: _Derivation, a: Formula, b: Formula, mod: Modality) -> int:
    """The image of window axiom K1 (``mod`` dia) or K2 (dia-): distribution
    of ``[mod]`` over ``~(a & ~b) -> ~~a -> ~~b``, applied twice."""
    x, y = Neg(And(a, Neg(b))), Imp(Neg(Neg(a)), Neg(Neg(b)))
    outer = d.lift(mod, d.emit(Imp(x, y), AxiomRef("PL")))
    inner = Imp(Box(mod, y), Imp(Box(mod, y.left), Box(mod, y.right)))
    return d.chain(outer, d.emit(inner, AxiomRef(f"K_{mod.name}")))


# window axiom -> its KB2 derivation, from the translated metavariable binding
_EXPANSIONS: dict[str, Callable[[_Derivation, dict[str, Formula]], int]] = {
    "B1": lambda d, m: _expand_converse(d, "B1", m["ph1"], DIA),
    "B2": lambda d, m: _expand_converse(d, "B2", m["ps1"], DIA_INV),
    "K1": lambda d, m: _expand_k_window(d, m["ph1"], m["ph2"], DIA),
    "K2": lambda d, m: _expand_k_window(d, m["ps1"], m["ps2"], DIA_INV),
}


def translate_proof(script: ProofScript) -> ProofScript:
    """Line-wise translation of an accepted window-system proof into KB2.

    Premises, tautologies, and modus ponens map one-to-one; the refutation
    generalizations become plain generalizations; each window axiom instance
    expands into a short derivation from the translated KB2 axioms (converse
    axiom plus duality, or distribution twice), built from the derived rules
    of ``_Derivation``.
    """
    if script.system_id.upper() != "KF":
        raise ProofScriptError("only window-system scripts are translated")
    verdict = script.check()
    if not verdict.accepted:
        raise ProofScriptError(f"script rejected: {verdict.reason}", verdict.line)
    d = _Derivation()
    at: dict[int, int] = {}  # window line -> the index of its image
    for line in script.lines:
        j = line.justification
        if isinstance(j, AxiomRef):
            name, binding = match_axiom(line.formula, script.system())
            if name in _EXPANSIONS:
                m = {v.name: translate_rho(f) for v, f in binding.items()}
                at[line.index] = _EXPANSIONS[name](d, m)
                continue
            j = AxiomRef("PL")
        elif isinstance(j, MPRef):
            j = MPRef(at[j.antecedent], at[j.implication])
        elif isinstance(j, UGRef):
            j = UGRef(_RHO_IMAGE[j.modality].name, at[j.source])
        at[line.index] = d.emit(translate_rho(line.formula), j)
    return ProofScript("KB2", [translate_rho(p) for p in script.premises], d.lines)
