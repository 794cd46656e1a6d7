"""The benchmark's own two-sorted formula terms: random generation and printing.

Formulas are nested tuples, independent of ``conceptlogic``'s classes, so the
generators and the reference evaluator share no code with the program under
test:

    ("var", name, sort)   ("bot", sort)   ("top", sort)   ("~", f)
    (op, f, g)            for op in "&", "|", "->", "<->"
    (mod, f)              for mod in MODS

Every variable is printed with its sort suffix (``p:1``), so the CLI never has
to infer a sort from position.
"""

from __future__ import annotations

S1, S2 = "s1", "s2"

# modality -> (argument sort, result sort)
MODS = {
    "dia": (S1, S2),
    "box": (S1, S2),
    "boxm": (S1, S2),
    "dia-": (S2, S1),
    "box-": (S2, S1),
    "boxm-": (S2, S1),
}
RS_MODS = ("dia", "box", "dia-", "box-")
KF_MODS = ("boxm", "boxm-")
FULL_MODS = tuple(MODS)
BINARY = ("&", "|", "->", "<->")
VAR_POOL = {S1: ("p", "q", "r", "s"), S2: ("x", "y", "z", "w")}


def var(name: str, sort: str) -> tuple:
    return ("var", name, sort)


def neg(f: tuple) -> tuple:
    return ("~", f)


def conj(f: tuple, g: tuple) -> tuple:
    return ("&", f, g)


def imp(f: tuple, g: tuple) -> tuple:
    return ("->", f, g)


def iff(f: tuple, g: tuple) -> tuple:
    return ("<->", f, g)


def disj_free(f: tuple, g: tuple) -> tuple:
    """``f or g`` spelled without ``|``, which proof scripts use as a separator."""
    return neg(conj(neg(f), neg(g)))


def sort_of(f: tuple) -> str:
    head = f[0]
    if head == "var":
        return f[2]
    if head in ("bot", "top"):
        return f[1]
    if head in MODS:
        return MODS[head][1]
    return sort_of(f[1])


def show(f: tuple) -> str:
    """Concrete syntax accepted by ``conceptlogic``'s parser."""
    head = f[0]
    if head == "var":
        return f"{f[1]}:{1 if f[2] == S1 else 2}"
    if head == "bot":
        return "#f"
    if head == "top":
        return "#t"
    if head == "~":
        return "~" + show(f[1])
    if head in MODS:
        return f"{head} {show(f[1])}"
    return f"({show(f[1])} {head} {show(f[2])})"


def variables(f: tuple) -> set[tuple[str, str]]:
    """The (name, sort) pairs of the variables occurring in ``f``."""
    head = f[0]
    if head == "var":
        return {(f[1], f[2])}
    if head in ("bot", "top"):
        return set()
    out: set[tuple[str, str]] = set()
    for g in f[1:]:
        out |= variables(g)
    return out


def random_formula(
    rng,
    sort: str,
    depth: int,
    mods: tuple[str, ...] = FULL_MODS,
    n_vars: int = 2,
    binary: tuple[str, ...] = BINARY,
    constants: bool = True,
) -> tuple:
    """A random well-sorted formula of at most ``depth`` connectives deep."""
    into = [m for m in mods if MODS[m][1] == sort]
    leaves = ["var"] * 6 + (["bot", "top"] if constants else [])
    if depth <= 0:
        pick = rng.choice(leaves)
    else:
        pick = rng.choice(leaves[:5] + ["~"] * 3 + ["bin"] * 5 + (["mod"] * 6 if into else []))
    if pick == "var":
        return var(VAR_POOL[sort][rng.randrange(n_vars)], sort)
    if pick in ("bot", "top"):
        return (pick, sort)
    if pick == "~":
        return neg(random_formula(rng, sort, depth - 1, mods, n_vars, binary, constants))
    if pick == "mod":
        mod = rng.choice(into)
        arg = random_formula(rng, MODS[mod][0], depth - 1, mods, n_vars, binary, constants)
        return (mod, arg)
    op = rng.choice(binary)
    return (
        op,
        random_formula(rng, sort, depth - 1, mods, n_vars, binary, constants),
        random_formula(rng, sort, depth - 1, mods, n_vars, binary, constants),
    )
