"""Per-layer tracing of ``conceptlogic`` from outside the program.

``Tracer.install`` rebinds every public function of each layer module in
every ``conceptlogic`` module that holds it.  ``from .x import f`` copies
the binding, so ``conceptlogic.cli.falsify``, ``conceptlogic.logical.frame_valid``
and ``conceptlogic.proofs.normalize`` are rebound as well as the home
module's own name.  A self-recursive function keeps its home binding, so a
span covers one outside call, not every level of the recursion.  The two
methods in ``METHODS`` are wrapped on their class.

Each call records a span (id, name, start, end, parent id, job id) in
memory; ``write`` saves them as tab-separated text.  Calls, total time and
self time (total minus the time of child spans) are summed per name while
running, together with the work counters below.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli",
    "formats",
    "parser",
    "syntax",
    "context",
    "lattices",
    "semantics",
    "logical",
    "proofs",
    "suites",
)
METHODS = (("semantics", "FrameEvaluator", "signature"), ("lattices", "ConceptLattice", "covers"))

# (name, unit, better): what the traced run reports.  ``<span>.calls``,
# ``.total_s`` and ``.self_s`` read the span sums; the rest are counters and
# ratios computed in ``Tracer.metrics``.
PER_LAYER = (
    ("context.apply_operator.calls", "count", "lower"),
    ("context.apply_operator.total_s", "s", "lower"),
    ("lattices.closure.calls", "count", "lower"),
    ("lattices.closure.total_s", "s", "lower"),
    ("lattices.build_lattice.self_s", "s", "lower"),
    ("lattices.covers.total_s", "s", "lower"),
    ("lattices.enumerate_concepts.self_s", "s", "lower"),
    ("lattices.concepts_found", "count", "higher"),
    ("lattices.closures_per_concept", "ratio", "lower"),
    ("lattices.verify_yao_isomorphisms.total_s", "s", "lower"),
    ("formats.export_dot.total_s", "s", "lower"),
    ("semantics.falsify.calls", "count", "lower"),
    ("semantics.falsify.total_s", "s", "lower"),
    ("semantics.valuations_required", "count", "lower"),
    ("semantics.valuations_per_s", "1/s", "higher"),
    ("semantics.signature.calls", "count", "lower"),
    ("semantics.signature.self_s", "s", "lower"),
    ("logical.member_class.total_s", "s", "lower"),
    ("logical.verify_quotient_lattice.total_s", "s", "lower"),
    ("logical.verify_isomorphisms.total_s", "s", "lower"),
    ("semantics.consequence_countermodel.total_s", "s", "lower"),
    ("semantics.truth_set.calls", "count", "lower"),
    ("semantics.truth_set.total_s", "s", "lower"),
    ("suites.suite_translation.total_s", "s", "lower"),
    ("semantics.budget_refusals", "count", "higher"),
    ("proofs.check_proof.calls", "count", "lower"),
    ("proofs.check_proof.self_s", "s", "lower"),
    ("proofs.lines_checked", "count", "higher"),
    ("proofs.lines_per_s", "1/s", "higher"),
    ("proofs.match_axiom.total_s", "s", "lower"),
    ("syntax.normalize.calls", "count", "lower"),
    ("syntax.normalize.total_s", "s", "lower"),
    ("proofs.is_tautology.calls", "count", "lower"),
    ("proofs.is_tautology.total_s", "s", "lower"),
    ("proofs.parse_proof_script.total_s", "s", "lower"),
    ("parser.parse_formula.calls", "count", "lower"),
    ("parser.parse_formula.total_s", "s", "lower"),
    ("syntax.translate_rho.total_s", "s", "lower"),
    ("formats.load_context.calls", "count", "lower"),
    ("formats.load_context.total_s", "s", "lower"),
    ("cli.run_cli.calls", "count", "higher"),
    ("cli.run_cli.self_s", "s", "lower"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.traced_jobs_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

_ENUMERATE = "lattices.enumerate_concepts"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, name, time in child spans]
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self._originals: dict[str, object] = {}

    # --- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans) + len(stack), name, 0.0]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append(
                    (frame[0], name, start, end, -1 if parent is None else parent[0], tracer.job)
                )
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[2]
                tracer._count(name, args, None if error else result, error, parent)
            return result

        return traced

    def _count(self, name: str, args, result, error, parent) -> None:
        c = self.counters
        if error is not None:
            if (
                type(error).__name__ == "BudgetExceededError"
                and name.startswith("semantics.")
                and not (parent and parent[1].startswith("semantics."))
            ):
                c["budget_refusals"] += 1
            return
        if name == _ENUMERATE:
            c["concepts_found"] += len(result)
        elif name == "lattices.closure" and any(f[1] == _ENUMERATE for f in self.stack):
            c["closures_in_enumeration"] += 1
        elif name == "semantics.falsify":
            frame, formula = args[0], args[1]
            count = 1
            for v in self._originals["syntax.variables"](formula):
                count <<= frame.carrier_size(v.sort)
            c["valuations_required"] += count
        elif name == "proofs.check_proof":
            c["lines_checked"] += len(args[0]) if result.accepted else (result.line or 0)

    # --- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the currently imported ``conceptlogic``."""
        modules = [
            m
            for n, m in sys.modules.items()
            if m is not None and (n == "conceptlogic" or n.startswith("conceptlogic."))
        ]
        for layer in LAYERS:
            home = sys.modules[f"conceptlogic.{layer}"]
            for attr, fn in list(vars(home).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != home.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = fn
                traced = self._wrap(name, fn)
                recursive = attr in fn.__code__.co_names
                for m in modules:
                    if getattr(m, attr, None) is fn and not (m is home and recursive):
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, traced)
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"conceptlogic.{layer}"], cls_name)
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # --- reporting ------------------------------------------------------------

    def metrics(self, untraced_jobs_per_s: float, traced_jobs_per_s: float) -> dict[str, float]:
        c = self.counters
        found = c["concepts_found"]
        falsify_s = self.total["semantics.falsify"]
        check_s = self.total["proofs.check_proof"]
        derived = {
            "lattices.concepts_found": found,
            "lattices.closures_per_concept": c["closures_in_enumeration"] / found if found else 0.0,
            "semantics.valuations_required": c["valuations_required"],
            "semantics.valuations_per_s": c["valuations_required"] / falsify_s if falsify_s else 0.0,
            "semantics.budget_refusals": c["budget_refusals"],
            "proofs.lines_checked": c["lines_checked"],
            "proofs.lines_per_s": c["lines_checked"] / check_s if check_s else 0.0,
            "trace.untraced_jobs_per_s": untraced_jobs_per_s,
            "trace.traced_jobs_per_s": traced_jobs_per_s,
            "trace.overhead": untraced_jobs_per_s / traced_jobs_per_s,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
                continue
            span, stat = name.rsplit(".", 1)
            table = {"calls": self.calls, "total_s": self.total, "self_s": self.self_time}[stat]
            out[name] = table.get(span, 0)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")
