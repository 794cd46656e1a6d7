"""Seeded inputs and jobs for the four benchmark workloads.

``build_jobs(workload, seed, workdir, size)`` writes the workload's input
files into ``workdir`` and returns its jobs in pass order.  A job is one CLI
invocation plus the reference check for its output.  The same seed always
gives the same files and jobs.

Job costs are pinned by construction (concept counts, valuation-space bits,
countermodel positions, script lengths and tautology widths), because a run
averages over a few dozen distinct inputs and free-running random sizes
would make the figures depend on the seed more than on the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from formulas import (
    BINARY,
    FULL_MODS,
    KF_MODS,
    MODS,
    RS_MODS,
    S1,
    S2,
    VAR_POOL,
    conj,
    disj_free,
    iff,
    imp,
    neg,
    show,
    sort_of,
    var,
    variables,
)
from reference import (
    ConceptsCheck,
    Context,
    CountermodelCheck,
    ExactCheck,
    RefusalCheck,
    RejectCheck,
    TruthSetCheck,
    describe_countermodel,
)

WORKLOADS = ("lattice", "modal-valid", "modal-refute", "proof")


@dataclass(frozen=True)
class Job:
    cls: str
    argv: tuple[str, ...]
    check: Callable[[int, str, str], str | None]


# Input sizes per workload.  "full" is what the benchmark measures; "tiny"
# keeps every job kind but shrinks it, for the benchmark's own tests.
SIZES = {
    "full": {
        "lattice": {
            "concepts_targets": (500, 600, 700, 800, 900, 1000, 1100, 1200),
            "concepts_shapes": ((28, 14), (14, 28), (18, 18)),
            "lattice_targets": (30, 35, 40, 45, 50, 55, 60),
            "lattice_shapes": ((14, 8), (8, 14), (10, 10)),
            "yao_targets": (120, 160, 200),
            "yao_shapes": ((18, 10), (10, 18), (13, 13)),
        },
        # frame shape by the number of metavariables (or 1 for a pair side)
        "modal-valid": {"replicas": 2, "shapes": {1: (5, 5), 2: (2, 3)}, "suites": 3, "suite_shape": (3, 3)},
        "modal-refute": {
            "bits": (6, 8, 10),
            "replicas": {"early": 2, "mid": 4, "late": 8},
            # more late consequence jobs at the largest space, so that the
            # tail percentile falls inside one group of many like jobs
            "tail_extra": 8,
            "evals": 128,
            "suites": 6,
            "refusals": 4,
        },
        "proof": {"widths": (8, 9, 10, 11, 12, 8, 9, 10, 11, 12, 13, 14), "groups": 6, "translated": 4, "mutants": 12},
    },
    "tiny": {
        "lattice": {
            "concepts_targets": (10,),
            "concepts_shapes": ((8, 5), (5, 8), (6, 6)),
            "lattice_targets": (6,),
            "lattice_shapes": ((5, 3), (3, 5), (4, 4)),
            "yao_targets": (6,),
            "yao_shapes": ((6, 4),),
        },
        "modal-valid": {"replicas": 1, "shapes": {1: (3, 2), 2: (2, 2)}, "suites": 1, "suite_shape": (2, 2)},
        "modal-refute": {"bits": (8,), "replicas": {"early": 1, "mid": 1, "late": 1}, "tail_extra": 1, "evals": 3, "suites": 1, "refusals": 2},
        "proof": {"widths": (8, 9), "groups": 2, "translated": 1, "mutants": 3},
    },
}


def build_jobs(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Job]:
    """Generate, write and order one workload's inputs."""
    rng = random.Random(f"{workload}:{seed}")
    serial = iter(range(1_000_000))

    def write(suffix: str, text: str) -> str:
        path = workdir / f"in{next(serial):04d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    make_jobs = {
        "lattice": _lattice_jobs,
        "modal-valid": _modal_valid_jobs,
        "modal-refute": _modal_refute_jobs,
        "proof": _proof_jobs,
    }[workload]
    by_class = make_jobs(rng, write, SIZES[size][workload])
    return interleave(by_class)


def interleave(by_class: dict[str, list[Job]]) -> list[Job]:
    """Spread each class evenly over the pass, so any prefix has the full mix."""
    keyed = []
    for order, jobs in enumerate(by_class.values()):
        for k, job in enumerate(jobs):
            keyed.append(((k + 0.5) / len(jobs), order, job))
    keyed.sort(key=lambda t: t[:2])
    return [job for _, _, job in keyed]


# --- contexts ------------------------------------------------------------------


def random_context(rng, n_objects: int, n_attributes: int, density: float) -> Context:
    objects = tuple(f"g{i + 1}" for i in range(n_objects))
    attributes = tuple(f"m{j + 1}" for j in range(n_attributes))
    rows = tuple(
        frozenset(m for m in attributes if rng.random() < density) for _ in objects
    )
    return Context(objects, attributes, rows)


def count_concepts(ctx: Context, kind: str, limit: int) -> int:
    """Concept count by bitmask NextClosure, stopping once past ``limit``.

    PC(K) and OC(K) have as many concepts as FC of the complement of K, so
    one formal-concept counter serves all three kinds.
    """
    index = {m: j for j, m in enumerate(ctx.attributes)}
    full_m = (1 << len(index)) - 1
    rows = [sum(1 << index[m] for m in r) for r in ctx.rows]
    if kind != "fc":
        rows = [full_m ^ r for r in rows]
    n = len(rows)
    cols = [sum(1 << g for g in range(n) if rows[g] >> j & 1) for j in range(len(index))]
    full_g = (1 << n) - 1

    def close(extent: int) -> int:
        intent, a = full_m, extent
        while a:
            low = a & -a
            intent &= rows[low.bit_length() - 1]
            a ^= low
        out, b = full_g, intent
        while b:
            low = b & -b
            out &= cols[low.bit_length() - 1]
            b ^= low
        return out

    current, count = close(0), 1
    while count <= limit:
        for i in range(n - 1, -1, -1):
            if current >> i & 1:
                continue
            low = (1 << i) - 1
            candidate = close((current & low) | (1 << i))
            if candidate & low & ~current == 0:
                current = candidate
                count += 1
                break
        else:
            return count
    return count


def context_with_concepts(
    rng, shape: tuple[int, int], kind: str, target: int, tolerance: float = 0.05
) -> Context:
    """A random context of the shape whose concept count is within the band.

    The fill (incidence density for FC, its complement for PC/OC) walks
    toward the band, below 0.8 where the count still grows with it; every
    draw comes from ``rng``, so the result is seeded.
    """
    lo, hi = int(target * (1 - tolerance)), int(target * (1 + tolerance)) + 1
    fill, step = 0.6, 0.1
    for _ in range(500):
        ctx = random_context(rng, *shape, fill if kind == "fc" else 1 - fill)
        n = count_concepts(ctx, kind, hi)
        if lo <= n <= hi:
            return ctx
        fill = min(max(fill + (step if n < lo else -step), 0.1), 0.8)
        step = max(step * 0.8, 0.01)
    raise RuntimeError(f"no {shape} context with about {target} {kind} concepts")


# --- lattice -------------------------------------------------------------------

KINDS = ("fc", "pc", "oc")


def _lattice_jobs(rng, write, p) -> dict[str, list[Job]]:
    jobs: dict[str, list[Job]] = {"concepts": [], "lattice": [], "yao": []}
    for command, formats in (("concepts", ("text", "structured")), ("lattice", ("text", "dot", "structured"))):
        targets = p[f"{command}_targets"]
        for i, (kind, fmt, shape) in enumerate(product(KINDS, formats, p[f"{command}_shapes"])):
            ctx = context_with_concepts(rng, shape, kind, targets[i % len(targets)])
            jobs[command].append(
                Job(
                    f"{command}-{fmt}",
                    (command, "--kind", kind, "--format", fmt, write(".cxt", ctx.cxt_text())),
                    ConceptsCheck(ctx, kind, fmt, lattice=command == "lattice"),
                )
            )
    for shape, target in product(p["yao_shapes"], p["yao_targets"]):
        ctx = context_with_concepts(rng, shape, "pc", target)
        jobs["yao"].append(
            Job(
                "verify-yao",
                ("verify", "--suite", "yao", write(".cxt", ctx.cxt_text())),
                ExactCheck(0, "a: pass\nb: pass\nc: pass\n"),
            )
        )
    return jobs


# --- modal-valid ---------------------------------------------------------------

# Axiom schemes of KB2 and KF: (system, name, metavariable sorts, constructor).
# Every instance is valid on every context frame, which is what the
# soundness of both systems says.
SCHEMES = (
    ("KB2", "K_dia", (S1, S1), lambda a, b: imp(("box", imp(a, b)), imp(("box", a), ("box", b)))),
    ("KB2", "K_dia-", (S2, S2), lambda a, b: imp(("box-", imp(a, b)), imp(("box-", a), ("box-", b)))),
    ("KB2", "Dual_dia", (S1,), lambda a: iff(("dia", a), neg(("box", neg(a))))),
    ("KB2", "Dual_dia-", (S2,), lambda a: iff(("dia-", a), neg(("box-", neg(a))))),
    ("KB2", "B1", (S1,), lambda a: imp(a, ("box-", ("dia", a)))),
    ("KB2", "B2", (S2,), lambda a: imp(a, ("box", ("dia-", a)))),
    ("KF", "K1", (S1, S1), lambda a, b: imp(("boxm", conj(a, neg(b))), imp(("boxm", neg(a)), ("boxm", neg(b))))),
    ("KF", "B1", (S1,), lambda a: imp(a, ("boxm-", ("boxm", a)))),
    ("KF", "K2", (S2, S2), lambda a, b: imp(("boxm-", conj(a, neg(b))), imp(("boxm-", neg(a)), ("boxm-", neg(b))))),
    ("KF", "B2", (S2,), lambda a: imp(a, ("boxm", ("boxm-", a)))),
)

# concept kind -> (forward modality, backward modality) of its adjunction
ADJUNCTIONS = {"pc": ("dia", "box-"), "oc": ("box", "dia-"), "fc": ("boxm", "boxm-")}


def sort_arg(f: tuple) -> str:
    return "1" if sort_of(f) == S1 else "2"


def _filler(rng, sort: str, k: int, mods: tuple[str, ...]) -> tuple:
    """``v op M w`` for metavariable ``k`` of ``sort``: v is its ``k``-th
    variable of that sort and w its ``k``-th of the other, so the shape and
    the variables are fixed and only the connective and modality are drawn."""
    other = S2 if sort == S1 else S1
    mod = rng.choice([m for m in mods if MODS[m][1] == sort])
    return (rng.choice(BINARY), var(VAR_POOL[sort][k], sort), (mod, var(VAR_POOL[other][k], other)))


def _axiom_instance(rng, scheme: int) -> tuple:
    system, _, sorts, build = SCHEMES[scheme]
    mods = RS_MODS if system == "KB2" else KF_MODS
    return build(*(_filler(rng, s, k, mods) for k, s in enumerate(sorts)))


def _pair_side(rng, kind: str, side: str) -> tuple:
    """One side of a generated concept pair of ``kind``."""
    fwd, bwd = ADJUNCTIONS[kind]
    f = (fwd, _filler(rng, S1, 0, FULL_MODS))
    return (bwd, f) if side == "ext" else f


def _modal_valid_jobs(rng, write, p) -> dict[str, list[Job]]:
    """Every job's command, scheme or pair kind, and frame shape are fixed;
    the seed draws the connectives, modalities and incidences.  So a job's
    valuation space and formula size, and with them its cost, do not depend
    on the seed."""
    jobs: dict[str, list[Job]] = {"valid": [], "member": [], "suite": []}
    for _ in range(p["replicas"]):
        for scheme, (_, _, sorts, _) in enumerate(SCHEMES):
            f = _axiom_instance(rng, scheme)
            ctx = random_context(rng, *p["shapes"][len(sorts)], 0.5)
            jobs["valid"].append(
                Job(
                    "valid-axiom",
                    ("valid", "--formula", show(f), "--sort", sort_arg(f), write(".cxt", ctx.cxt_text())),
                    ExactCheck(0, "valid\n"),
                )
            )
        for kind, side in product(KINDS, ("ext", "int")):
            f = _pair_side(rng, kind, side)
            ctx = random_context(rng, *p["shapes"][1], 0.5)
            jobs["member"].append(
                Job(
                    "member-pair",
                    ("member", "--class", kind, "--side", side, "--formula", show(f), write(".cxt", ctx.cxt_text())),
                    ExactCheck(0, "true\n"),
                )
            )
    for _ in range(p["suites"]):
        for suite, out in (
            ("lattice", "lattice pc: pass\nlattice oc: pass\nlattice fc: pass\n"),
            ("iso", "iso: pass\n"),
        ):
            ctx = random_context(rng, *p["suite_shape"], 0.5)
            jobs["suite"].append(
                Job(f"verify-{suite}", ("verify", "--suite", suite, write(".cxt", ctx.cxt_text())), ExactCheck(0, out))
            )
    return jobs


# --- modal-refute --------------------------------------------------------------

# Where each position class puts the first countermodel, as a share of the
# valuation order.
POSITION_SHARE = {"early": 1 / 16, "mid": 9 / 16, "late": 15 / 16}
POSITIONS = tuple(POSITION_SHARE)
# Frame shape (objects, attributes) per valuation-space size: a refutation
# formula has one variable of each sort, so its space has g + m bits.
REFUTE_SHAPES = {6: (4, 2), 8: (5, 3), 10: (6, 4)}
INTO = {sort: tuple(m for m in FULL_MODS if MODS[m][1] == sort) for sort in (S1, S2)}


def _countermodel_context(rng, n_objects: int, n_attributes: int, first: int) -> tuple[Context, str]:
    """A context whose smallest column complement is ``first``.

    Masks have bit i for object i.  One random attribute gets exactly
    ``first`` as its column complement; every other column complement is
    ``first`` plus at least one more object, so it is a larger number.
    Returns the context and that attribute.
    """
    objects = tuple(f"g{i + 1}" for i in range(n_objects))
    attributes = tuple(f"m{j + 1}" for j in range(n_attributes))
    rest = ((1 << n_objects) - 1) & ~first
    star = rng.randrange(n_attributes)
    complements = []
    for j in range(n_attributes):
        extra = 0
        while j != star and not extra:
            extra = rng.getrandbits(n_objects) & rest
        complements.append(first | extra)
    rows = tuple(
        frozenset(a for a, c in zip(attributes, complements) if not c >> i & 1)
        for i in range(n_objects)
    )
    return Context(objects, attributes, rows), attributes[star]


def _seeded_skeleton(rng, left: tuple, right: tuple) -> tuple:
    """``op(M op(left, N right), M op(~left, N ~right))`` of sort 2, with each
    connective and modality drawn from ``rng``.  The shape, the variables and
    the number of distinct subformulas are fixed, so one valuation costs the
    same whatever the draw; only the connectives differ."""
    into_s1, into_s2 = INTO[S1], INTO[S2]

    def half(a: tuple, b: tuple) -> tuple:
        return (rng.choice(into_s2), (rng.choice(BINARY), a, (rng.choice(into_s1), b)))

    return (rng.choice(BINARY), half(left, right), half(neg(left), neg(right)))


def _refutation_job(rng, write, bits: int, position: str, consequence: bool) -> Job:
    """``valid`` or ``consequence`` on ``~boxm ~p | (rho & x)``.

    ``boxm ~p`` holds at attribute m exactly when p contains every object
    outside m's column, and ``rho & x`` is false while x is empty.  So every
    valuation before the smallest column complement for p satisfies the
    formula, and the first countermodel is that p with every other variable
    empty, at the attribute whose column complement it is.  The context puts
    it at the position class's share of the valuation order.  ``rho`` and
    the premise ``~x | M op(~p, N x)`` have a fixed shape over p and x, so a
    job's cost is set by its space size and position, not by the draw.
    """
    p, x = var("p", S1), var("x", S2)
    conclusion = ("|", neg(("boxm", neg(p))), conj(_seeded_skeleton(rng, p, x), x))
    premises = ()
    if consequence:
        side = (rng.choice(INTO[S2]), (rng.choice(BINARY), neg(p), (rng.choice(INTO[S1]), x)))
        premises = (("|", neg(x), side),)
    checked = conj(premises[0], conclusion) if consequence else conclusion
    g, m = REFUTE_SHAPES[bits]
    first = min(max(round(POSITION_SHARE[position] * (1 << g)), 1), (1 << g) - 2)
    ctx, world = _countermodel_context(rng, g, m, first)
    names = variables(checked)
    val = {name: frozenset() for name, _ in names}
    val["p"] = frozenset(o for i, o in enumerate(ctx.objects) if first >> i & 1)
    order = sorted(names, key=lambda v: (v[1], v[0]))
    expected = describe_countermodel(ctx, val, order, world)
    path = write(".cxt", ctx.cxt_text())
    if consequence:
        argv = ("consequence", "--premise", show(premises[0]), "--conclusion", show(conclusion), "--sort", "2", path)
    else:
        argv = ("valid", "--formula", show(conclusion), "--sort", "2", path)
    return Job(
        f"{argv[0]}-{position}", argv, CountermodelCheck(ctx, premises, conclusion, expected)
    )


def _modal_refute_jobs(rng, write, p) -> dict[str, list[Job]]:
    jobs: dict[str, list[Job]] = {"refute": [], "eval": [], "suite": [], "refusal": []}
    for bits, position, consequence in product(p["bits"], POSITIONS, (False, True)):
        for _ in range(p["replicas"][position]):
            jobs["refute"].append(_refutation_job(rng, write, bits, position, consequence))
    for _ in range(p["tail_extra"]):
        jobs["refute"].append(_refutation_job(rng, write, max(p["bits"]), "late", True))
    p1, q1, x2, y2 = var("p", S1), var("q", S1), var("x", S2), var("y", S2)
    for i in range(p["evals"]):
        # a fixed shape over four variables, so every eval costs about the same
        f = _seeded_skeleton(rng, (rng.choice(BINARY), p1, q1), (rng.choice(BINARY), x2, y2))
        f = (rng.choice(INTO[S1]), f) if i % 2 else neg(f)
        ctx = random_context(rng, 7, 7, 0.4)
        val, assigns = {}, []
        for name, s in sorted(variables(f)):
            val[name] = frozenset(w for w in ctx.carrier(s) if rng.random() < 0.5)
            worlds = ",".join(w for w in ctx.carrier(s) if w in val[name])
            assigns += ["--assign", f"{name}={worlds}"]
        path = write(".cxt", ctx.cxt_text())
        jobs["eval"].append(
            Job("eval", ("eval", "--formula", show(f), "--sort", sort_arg(f), *assigns, path), TruthSetCheck(ctx, f, val))
        )
    for _ in range(p["suites"]):
        ctx = random_context(rng, 6, 6, 0.5)
        jobs["suite"].append(
            Job(
                "verify-translation",
                ("verify", "--suite", "translation", "--seed", str(rng.randrange(1000)), write(".cxt", ctx.cxt_text())),
                ExactCheck(0, "translation pointwise agreement: pass (100/100 sampled formulas agree on every world)\n"),
            )
        )
    # over budget: four variables on an 8x8 frame is 2**32 valuations, and a
    # 2**8 space against an explicit budget of 64
    wide = conj(conj(var("p", S1), var("q", S1)), ("dia-", conj(var("x", S2), var("y", S2))))
    for i in range(p["refusals"]):
        ctx = random_context(rng, 8, 8, 0.5)
        path = write(".cxt", ctx.cxt_text())
        if i % 2 == 0:
            argv = ("valid", "--formula", show(wide), "--sort", "1", path)
        else:
            argv = ("consequence", "--budget", "64", "--premise", "p:1", "--conclusion", "dia- x:2", "--sort", "1", path)
        jobs["refusal"].append(Job("budget-refusal", argv, RefusalCheck()))
    return jobs


# --- proof ---------------------------------------------------------------------


def _core(rng, sort: str, depth: int) -> tuple:
    """A KF formula in the {not, and, box} core, so normalizing keeps it.

    The shape is fixed by ``depth`` (``v & ~w`` at depth 1, and
    ``core & box core`` of the other sort below that) and only the variables
    are drawn, so a script's size does not depend on the seed."""
    if depth == 0:
        return var(VAR_POOL[sort][rng.randrange(4)], sort)
    if depth == 1:
        return conj(_core(rng, sort, 0), neg(_core(rng, sort, 0)))
    other, box = (S2, "boxm-") if sort == S1 else (S1, "boxm")
    return conj(_core(rng, sort, depth - 1), (box, _core(rng, other, depth - 1)))


def _conj_all(fs: list[tuple]) -> tuple:
    out = fs[0]
    for f in fs[1:]:
        out = conj(out, f)
    return out


def _wide_tautology(rng, k: int) -> tuple[tuple, tuple]:
    """A hypothetical-syllogism chain over ``k`` distinct skeleton atoms.

    Returns the tautology ``(A1->A2 & ... & Ak-1->Ak) -> (A1->Ak)`` and its
    non-tautological twin ending in ``Ak -> A1``, which a truth table first
    refutes half-way through its ``2**k`` rows.
    """
    atoms = {show(var(n, S1)): var(n, S1) for n in ("p", "q", "r", "s")}
    while len(atoms) < k:
        f = ("boxm-", _core(rng, S2, 1))
        atoms.setdefault(show(f), f)
    chain = list(atoms.values())[:k]
    rng.shuffle(chain)
    links = _conj_all([imp(chain[i], chain[i + 1]) for i in range(k - 1)])
    return imp(links, imp(chain[0], chain[-1])), imp(links, imp(chain[-1], chain[0]))


def _kf_lines(rng, groups: int, width: int) -> tuple[list[list], int, tuple]:
    """A premise-free KF derivation as [formula, rule] lines.

    Each group chains three monotonicity steps (tautology, refutation
    generalization, distribution axiom K1 or K2, modus ponens), folds the
    chain by hypothetical syllogism, and adds two converse axiom instances
    left unnamed, so the checker has to find their scheme.
    One ``pl`` line of ``width`` skeleton atoms opens the middle group; its
    index and non-tautological twin are returned for mutants.
    """
    lines: list[list] = []

    def emit(f: tuple, rule: str) -> int:
        lines.append([f, rule])
        return len(lines)

    wide_twin, wide_line = None, 0
    for g in range(groups):
        if g == groups // 2:
            wide, wide_twin = _wide_tautology(rng, width)
            wide_line = emit(wide, "pl")
        box, axiom, sort = rng.choice((("boxm", "K1", S1), ("boxm-", "K2", S2)))
        a = _core(rng, sort, 1)
        facts = []
        for _ in range(3):
            c = disj_free(a, _core(rng, sort, 1))
            l1 = emit(neg(conj(a, neg(c))), "pl")
            l2 = emit((box, conj(a, neg(c))), f"ug {box} {l1}")
            then = imp((box, neg(a)), (box, neg(c)))
            l3 = emit(imp(lines[l2 - 1][0], then), f"axiom {axiom}")
            facts.append(((box, neg(a)), (box, neg(c)), emit(then, f"mp {l2} {l3}")))
            a = c
        start, middle, at = facts[0]
        for _, end, line in facts[1:]:
            t = emit(imp(imp(start, middle), imp(imp(middle, end), imp(start, end))), "pl")
            m1 = emit(imp(imp(middle, end), imp(start, end)), f"mp {at} {t}")
            at = emit(imp(start, end), f"mp {line} {m1}")
            middle = end
        b1 = _core(rng, S1, 2)
        emit(imp(b1, ("boxm-", ("boxm", b1))), "axiom")
        b2 = _core(rng, S2, 2)
        emit(imp(b2, ("boxm", ("boxm-", b2))), "axiom")
    return lines, wide_line, wide_twin


def _script_text(lines: list[list]) -> str:
    body = [f"{i} | {show(f)} | {rule}" for i, (f, rule) in enumerate(lines, start=1)]
    return "system: KF\n" + "\n".join(body) + "\n"


def _swap_mp(text: str, target: float) -> tuple[str, int]:
    """Swap the citations of the ``mp`` line nearest ``target`` (a fraction
    of the script).  An implication line never equals an implication whose
    antecedent is itself, so the checker must reject exactly that line."""
    rows = text.splitlines()
    numbered = [i for i, r in enumerate(rows) if r[:1].isdigit()]
    mp = [i for i in numbered if " | mp " in rows[i]]
    pick = min(mp, key=lambda i: abs(i - numbered[int(target * (len(numbered) - 1))]))
    head, _, refs = rows[pick].rpartition(" | mp ")
    first, second = refs.split()
    rows[pick] = f"{head} | mp {second} {first}"
    return "\n".join(rows) + "\n", int(rows[pick].split(" | ", 1)[0])


def _proof_jobs(rng, write, p) -> dict[str, list[Job]]:
    from conceptlogic.proofs import parse_proof_script, serialize_proof_script, translate_proof

    accepted = ExactCheck(0, "accepted\n")
    jobs: dict[str, list[Job]] = {"kf": [], "kb2": [], "mutant": []}
    scripts = []
    for width in p["widths"]:
        lines, wide_line, wide_twin = _kf_lines(rng, p["groups"], width)
        text = _script_text(lines)
        scripts.append((text, lines, wide_line, wide_twin))
        jobs["kf"].append(Job("check-kf", ("check-proof", write(".prf", text)), accepted))
    translated = []
    for text, *_ in scripts[: p["translated"]]:
        kb2 = serialize_proof_script(translate_proof(parse_proof_script(text)))
        translated.append(kb2)
        jobs["kb2"].append(Job("check-kb2", ("check-proof", write(".prf", kb2)), accepted))
    for i in range(p["mutants"]):
        kind = i % 3
        if kind == 0:
            _, lines, wide_line, wide_twin = scripts[i % len(scripts)]
            lines = [list(l) for l in lines]
            lines[wide_line - 1][0] = wide_twin
            text, line = _script_text(lines), wide_line
        elif kind == 1:
            text, line = _swap_mp(scripts[i % len(scripts)][0], (0.15, 0.4, 0.85)[i // 3 % 3])
        else:
            text, line = _swap_mp(translated[i % len(translated)], (0.15, 0.4, 0.85)[i // 3 % 3])
        jobs["mutant"].append(Job("check-mutant", ("check-proof", write(".prf", text)), RejectCheck(line)))
    return jobs
