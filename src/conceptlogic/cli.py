"""Command-line interface.

Commands: ``concepts``, ``lattice``, ``eval``, ``valid``, ``consequence``,
``translate``, ``member``, ``check-proof``, ``verify``.  Results go to the
output stream and diagnostics to the error stream.  Exit codes: 0 when the
command succeeds and any checked property holds, 1 when a property fails,
2 on usage or parse errors, 3 when an exhaustive check refuses its budget.
``concepts`` and ``lattice`` write from the enumerated (extent, intent)
masks and build no typed concept.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress

from .context import member_names
from .errors import BudgetExceededError, ConceptLogicError
from .formats import export_dot, load_context, read_text
from .lattices import ConceptKind, ConceptLattice, _concept_masks, verify_yao_isomorphisms
from .logical import member_class
from .parser import parse_formula, print_formula
from .proofs import parse_proof_script
from .semantics import (
    DEFAULT_BUDGET,
    Model,
    Valuation,
    consequence_countermodel,
    context_to_frame,
    falsify,
    truth_set,
)
from .suites import suite_iso, suite_lattice, suite_translation
from .syntax import translate_rho, variables

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _CommandParser(argparse.ArgumentParser):
    """Reports arguments its subcommand does not take under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _budget(text: str) -> int:
    """A ``--budget`` value, an int of at least 0 (0 refuses every check)."""
    with suppress(ValueError):
        if (value := int(text)) >= 0:
            return value
    raise argparse.ArgumentTypeError(f"budget must be an int of at least 0, got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built on the first ``run_cli`` call of a process.

    Reusing it is safe: ``parse_args`` starts each call from a fresh
    namespace, ``action="append"`` copies its default list before it
    appends, and argparse looks up ``sys.stdout``/``sys.stderr`` only when
    it prints.  Handlers are bound here, once.
    """
    parser = argparse.ArgumentParser(
        prog="conceptlogic",
        description="Concept lattices and two-sorted modal logics over formal contexts",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name, handler, help, *arguments):
        """A subcommand taking exactly ``arguments``, (name, options) pairs,
        all of which ``handler`` reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, options in arguments:
            p.add_argument(flag, **options)

    kind = ("--kind", dict(choices=["fc", "pc", "oc"], required=True))
    formula = ("--formula", dict(required=True))
    sort = ("--sort", dict(choices=["1", "2"], required=True))
    budget = ("--budget", dict(type=_budget, default=DEFAULT_BUDGET))
    context = ("context", dict(help="context file (.cxt or .csv)"))

    command(
        "concepts", _cmd_concepts, "enumerate concepts of a context",
        kind, ("--format", dict(choices=["text", "structured"], default="text")), context,
    )
    command(
        "lattice", _cmd_concepts, "concept lattice with covering relation",
        kind, ("--format", dict(choices=["text", "dot", "structured"], default="text")), context,
    )
    assign = dict(
        action="append", default=[], metavar="VAR=w1,w2",
        help="assign worlds to a variable (repeatable)",
    )
    command(
        "eval", _cmd_eval, "truth set of a formula in a model",
        formula, sort, ("--assign", assign), context,
    )
    command(
        "valid", _cmd_valid, "frame validity by exhaustive valuations",
        formula, sort, budget, context,
    )
    command(
        "consequence", _cmd_consequence, "local semantic consequence on a frame",
        ("--premise", dict(action="append", default=[], dest="premises")),
        ("--conclusion", dict(required=True)), sort, budget, context,
    )
    command("translate", _cmd_translate, "window dialect into diamond dialect", formula, sort)
    command(
        "member", _cmd_member, "membership in a concept formula family",
        ("--class", dict(dest="cls", choices=["pc", "oc", "fc"], required=True)),
        ("--side", dict(choices=["ext", "int"], required=True)), formula, budget, context,
    )
    command(
        "check-proof", _cmd_check_proof, "check a proof script",
        ("script", dict(help="proof script file")),
        ("--system", dict(choices=["K", "KB2", "KF"], default=None)),
    )
    suites = ["yao", "translation", "lattice", "iso", "all"]
    command(
        "verify", _cmd_verify, "run verification suites on a context",
        ("--suite", dict(choices=suites, default="all")),
        ("--seed", dict(type=int, default=0)), budget, context,
    )
    return parser


def _text_lines(ctx, kind: ConceptKind, masks, lattice):
    objects, attributes = member_names(ctx.objects), member_names(ctx.attributes)
    yield f"kind={kind.value} count={len(masks)}\n"
    for i, (extent, intent) in enumerate(masks):
        yield (
            f"{i}: extent={{{','.join(objects(extent))}}} "
            f"intent={{{','.join(attributes(intent))}}}\n"
        )
    if lattice is not None:
        yield from (f"cover: {low} < {high}\n" for low, high in lattice.covers())
        yield f"top={lattice.top} bottom={lattice.bottom}\n"


def _structured_lines(ctx, kind: ConceptKind, masks, lattice):
    # each member's line is key + rank + name; names carry their newline
    objects, attributes = (
        member_names(tuple(name + "\n" for name in carrier))
        for carrier in (ctx.objects, ctx.attributes)
    )
    ranks = [f".{j}=" for j in range(max(ctx.n_objects, ctx.n_attributes))]
    yield f"kind={kind.value}\nconcepts.count={len(masks)}\n"
    for i, (extent, intent) in enumerate(masks):
        for side, names in (("extent", objects(extent)), ("intent", attributes(intent))):
            key = f"concepts.{i}.{side}"
            members = key + key.join(map(operator.add, ranks, names)) if names else ""
            yield f"{key}.count={len(names)}\n{members}"
    if lattice is not None:
        covers = lattice.covers()
        yield f"covers.count={len(covers)}\n"
        for i, (low, high) in enumerate(covers):
            yield f"covers.{i}.count=2\ncovers.{i}.0={low}\ncovers.{i}.1={high}\n"
        yield f"top={lattice.top}\nbottom={lattice.bottom}\n"


def _cmd_concepts(args: argparse.Namespace, out) -> int:
    """``concepts``, and ``lattice``, which adds covers, top and bottom; each
    format is written line by line as it is produced, from the concepts'
    (extent, intent) masks, which the enumeration already lists in order."""
    ctx = load_context(args.context)
    kind = ConceptKind(args.kind)
    masks = _concept_masks(ctx, kind)
    lattice = ConceptLattice(kind, ctx, masks) if args.command == "lattice" else None
    if args.format == "dot":
        out.write(export_dot(lattice))
    else:
        lines = _structured_lines if args.format == "structured" else _text_lines
        out.writelines(lines(ctx, kind, masks, lattice))
    return EXIT_OK


def _parse_assignments(args: argparse.Namespace, f):
    by_name = {v.name: v for v in variables(f)}
    assignments = {}
    for item in args.assign:
        if "=" not in item:
            raise ConceptLogicError(f"assignment {item!r} is not VAR=worlds")
        name, worlds = item.split("=", 1)
        name = name.strip()
        if name not in by_name:
            raise ConceptLogicError(f"variable {name!r} does not occur in the formula")
        v = by_name[name]
        if v in assignments:
            raise ConceptLogicError(f"variable {name!r} is assigned more than once")
        assignments[v] = [w.strip() for w in worlds.split(",") if w.strip()]
    missing = [v.name for v in by_name.values() if v not in assignments]
    if missing:
        raise ConceptLogicError(
            f"unassigned variables: {', '.join(sorted(missing))} (use --assign)"
        )
    return Valuation(assignments)


def _cmd_eval(args: argparse.Namespace, out) -> int:
    ctx = load_context(args.context)
    frame = context_to_frame(ctx)
    f = parse_formula(args.formula, args.sort)
    val = _parse_assignments(args, f)
    ts = truth_set(Model(frame, val), f)
    print("{" + ",".join(ts.members(frame.carrier(f.sort))) + "}", file=out)
    return EXIT_OK


def _cmd_valid(args: argparse.Namespace, out) -> int:
    ctx = load_context(args.context)
    frame = context_to_frame(ctx)
    f = parse_formula(args.formula, args.sort)
    counter = falsify(frame, f, args.budget)
    if counter is None:
        print("valid", file=out)
        return EXIT_OK
    print(f"invalid: {counter.describe()}", file=out)
    return EXIT_PROPERTY_FAILED


def _cmd_consequence(args: argparse.Namespace, out) -> int:
    ctx = load_context(args.context)
    frame = context_to_frame(ctx)
    premises = [parse_formula(p, args.sort) for p in args.premises]
    conclusion = parse_formula(args.conclusion, args.sort)
    counter = consequence_countermodel(frame, premises, conclusion, args.budget)
    if counter is None:
        print("holds", file=out)
        return EXIT_OK
    print(f"fails: {counter.describe()}", file=out)
    return EXIT_PROPERTY_FAILED


def _cmd_translate(args: argparse.Namespace, out) -> int:
    f = parse_formula(args.formula, args.sort)
    print(print_formula(translate_rho(f)), file=out)
    return EXIT_OK


def _cmd_member(args: argparse.Namespace, out) -> int:
    ctx = load_context(args.context)
    frame = context_to_frame(ctx)
    side, sort = ("extent", "1") if args.side == "ext" else ("intent", "2")
    f = parse_formula(args.formula, sort)
    ok = member_class(f, ConceptKind(args.cls), side, frame, args.budget)
    print("true" if ok else "false", file=out)
    return EXIT_OK if ok else EXIT_PROPERTY_FAILED


def _cmd_check_proof(args: argparse.Namespace, out) -> int:
    script = parse_proof_script(read_text(args.script), default_system=args.system or "KB2")
    if args.system and script.system_id.upper() != args.system.upper():
        raise ConceptLogicError(
            f"script declares system {script.system_id}, --system says {args.system}"
        )
    verdict = script.check()
    if verdict.accepted:
        print("accepted", file=out)
        return EXIT_OK
    where = "" if verdict.line is None else f" at line {verdict.line}"
    print(f"rejected{where}: {verdict.reason}", file=out)
    return EXIT_PROPERTY_FAILED


def _check_line(check) -> str:
    status = "pass" if check.passed else "fail"
    return f"{check.name}: {status} ({check.detail})" if check.detail else f"{check.name}: {status}"


def _print_failures(heading: str, report, out) -> None:
    print(f"{heading}: {'pass' if report.passed else 'fail'}", file=out)
    for check in report.failures():
        print(f"  {_check_line(check)}", file=out)


def _cmd_verify(args: argparse.Namespace, out) -> int:
    ctx = load_context(args.context)
    failed = False
    if args.suite in ("yao", "all"):
        report = verify_yao_isomorphisms(ctx)
        for check in report.checks:
            print(_check_line(check), file=out)
        failed |= not report.passed
    if args.suite in ("translation", "all"):
        report = suite_translation(ctx, args.seed)
        for check in report.checks:
            print(f"translation {_check_line(check)}", file=out)
        failed |= not report.passed
    if args.suite in ("lattice", "all"):
        for kind, report in suite_lattice(ctx, args.budget).items():
            _print_failures(f"lattice {kind.value}", report, out)
            failed |= not report.passed
    if args.suite in ("iso", "all"):
        report = suite_iso(ctx, args.budget)
        _print_failures("iso", report, out)
        failed |= not report.passed
    return EXIT_PROPERTY_FAILED if failed else EXIT_OK


def run_cli(argv, out=None, err=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints usage errors and --help to sys.stdout/sys.stderr
        with redirect_stdout(out), redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args, out)
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=err)
        return EXIT_BUDGET
    except (ConceptLogicError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
