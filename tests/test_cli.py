"""CLI tests: golden transcripts, exit-code contract, and error channels."""

import argparse
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlogic import FormalContext, cli, lattices
from conceptlogic.cli import _check_line, run_cli
from conceptlogic.formats import load_context, serialize_cxt
from conceptlogic.lattices import ConceptKind, LawCheck
from conceptlogic.parser import parse_formula, print_formula
from conceptlogic.semantics import context_to_frame
from conceptlogic.suites import random_valuation
from conceptlogic.syntax import And, Imp, Neg, dia, dia_inv, var1, wbox, wbox_inv

from oracles import random_context

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
GOLDEN = DATA / "golden"
K0 = str(DATA / "k0.cxt")

with open(GOLDEN / "manifest.json") as fh:
    MANIFEST = json.load(fh)


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(args, out, err)
    return code, out.getvalue(), err.getvalue()


class TestGoldenTranscripts:
    @pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
    def test_byte_exact(self, case):
        code, out, _ = invoke(case["args"])
        want = (GOLDEN / f"{case['name']}.txt").read_text()
        assert out == want
        assert code == case["exit"]

    @pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
    def test_byte_exact_in_a_fresh_process(self, case):
        # one parser per process, built for this one call
        done = subprocess.run(
            [sys.executable, "-m", "conceptlogic.cli", *case["args"]],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            timeout=60,
        )
        assert done.stdout == (GOLDEN / f"{case['name']}.txt").read_bytes()
        assert done.returncode == case["exit"]

    @pytest.mark.parametrize("case", MANIFEST[-2:], ids=["yao", "all-seed7"])
    def test_deterministic_across_runs(self, case):
        first = invoke(case["args"])
        second = invoke(case["args"])
        assert first == second


def _text_lattice(text):
    """(kind, concepts, covers, top, bottom) read from ``lattice`` text output."""
    head, *lines, ends = text.splitlines()
    kind, count = (field.split("=")[1] for field in head.split())
    concepts = [line.split(": ", 1)[1] for line in lines if not line.startswith("cover: ")]
    assert len(concepts) == int(count)
    concepts = [
        tuple(tuple(filter(None, side.split("=")[1][1:-1].split(","))) for side in c.split())
        for c in concepts
    ]
    covers = [tuple(map(int, line[7:].split(" < "))) for line in lines if line.startswith("cover: ")]
    top, bottom = (int(field.split("=")[1]) for field in ends.split())
    return kind, concepts, covers, top, bottom


def _structured_lattice(text):
    """The same five items read from ``lattice --format structured`` output."""
    pairs = [line.split("=", 1) for line in text.splitlines()]
    keys = dict(pairs)
    assert len(keys) == len(pairs)

    def array(key):
        return [keys[f"{key}.{i}"] for i in range(int(keys[f"{key}.count"]))]

    concepts = [
        tuple(tuple(array(f"concepts.{i}.{side}")) for side in ("extent", "intent"))
        for i in range(int(keys["concepts.count"]))
    ]
    covers = [tuple(map(int, array(f"covers.{i}"))) for i in range(int(keys["covers.count"]))]
    return keys["kind"], concepts, covers, int(keys["top"]), int(keys["bottom"])


class TestLatticeFormats:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_text_and_structured_list_the_same_lattice(self, tmp_path_factory, seed):
        ctx = random_context(random.Random(seed), 5, 5)
        path = tmp_path_factory.getbasetemp() / "random.cxt"
        path.write_text(serialize_cxt(ctx))
        for kind in ConceptKind:
            argv = ["lattice", "--kind", kind.value, str(path)]
            code, text, _ = invoke(argv)
            assert code == 0
            code, structured, _ = invoke([*argv[:3], "--format", "structured", str(path)])
            assert code == 0
            lattice = lattices.build_lattice(lattices.enumerate_concepts(ctx, kind), kind, ctx)
            want = (
                kind.value,
                [
                    (c.extent.members(ctx.objects), c.intent.members(ctx.attributes))
                    for c in lattice.concepts
                ],
                lattice.covers(),
                lattice.top,
                lattice.bottom,
            )
            assert _text_lattice(text) == _structured_lattice(structured) == want


class TestExitCodes:
    def test_missing_file_is_usage_error(self):
        code, out, err = invoke(["concepts", "--kind", "fc", "nope.cxt"])
        assert code == 2 and out == "" and "error" in err

    def test_malformed_context_is_usage_error(self):
        bad = DATA / "golden" / "manifest.json"  # not a context document
        code, _, err = invoke(["concepts", "--kind", "fc", str(bad)])
        assert code == 2 and err

    def test_formula_parse_error(self):
        code, _, err = invoke(
            ["valid", "--formula", "p &", "--sort", "1", str(DATA / "k0.cxt")]
        )
        assert code == 2 and "error" in err

    def test_unknown_flag(self):
        code, _, _ = invoke(["concepts", "--nope", str(DATA / "k0.cxt")])
        assert code == 2

    def test_budget_refusal_is_exit_3(self):
        code, out, err = invoke(
            [
                "valid",
                "--formula",
                "a:1 & b:1 & c:1 & d:1 & e:1 & f:1",
                "--sort",
                "1",
                "--budget",
                "8",
                str(DATA / "k0.cxt"),
            ]
        )
        assert code == 3 and out == "" and "budget" in err

    def test_property_failure_is_exit_1(self):
        code, out, _ = invoke(
            ["valid", "--formula", "p", "--sort", "1", str(DATA / "k0.cxt")]
        )
        assert code == 1 and out.startswith("invalid")

    def test_rejected_proof_is_exit_1(self):
        script = DATA / "proofs" / "antitone_kb2.prf"
        mutated = script.read_text().replace("mp 4 5", "mp 5 4")
        tmp = DATA / "proofs" / "_tmp_mutant.prf"
        tmp.write_text(mutated)
        try:
            code, out, _ = invoke(["check-proof", str(tmp)])
            assert code == 1 and out.startswith("rejected at line 6")
        finally:
            tmp.unlink()

    @pytest.mark.parametrize("suffix, command", [
        (".cxt", ["concepts", "--kind", "fc"]),
        (".csv", ["concepts", "--kind", "fc"]),
        (".prf", ["check-proof"]),
    ])
    def test_non_utf8_file_is_usage_error(self, tmp_path, suffix, command):
        path = tmp_path / f"latin1{suffix}"
        path.write_bytes(b"B\n\nna\xefve\n")
        code, out, err = invoke([*command, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text", [None, "system: KF\n# no proof lines\n"], ids=["devnull", "header-and-comment"]
    )
    def test_empty_proof_script_names_no_line(self, tmp_path, text):
        path = os.devnull
        if text is not None:
            path = tmp_path / "empty.prf"
            path.write_text(text)
        assert invoke(["check-proof", str(path)]) == (1, "rejected: empty script\n", "")

    def test_system_mismatch_reported(self):
        script = DATA / "proofs" / "kf_b1.prf"
        code, _, err = invoke(["check-proof", str(script), "--system", "KB2"])
        assert code == 2 and "declares system" in err


# One run per command that reaches every read of its arguments.
FULL_RUNS = {
    "concepts": ["concepts", "--kind", "fc", "--format", "structured", K0],
    "lattice": ["lattice", "--kind", "pc", "--format", "dot", K0],
    "eval": ["eval", "--formula", "dia p", "--sort", "2", "--assign", "p=g1", K0],
    "valid": ["valid", "--formula", "p", "--sort", "1", "--budget", "64", K0],
    "consequence": [
        "consequence", "--premise", "box- q", "--conclusion", "dia- q", "--sort", "1",
        "--budget", "64", K0,
    ],
    "translate": ["translate", "--formula", "boxm- boxm p", "--sort", "1"],
    "member": [
        "member", "--class", "fc", "--side", "ext", "--formula", "#f", "--budget", "64", K0,
    ],
    "check-proof": ["check-proof", str(DATA / "proofs" / "kf_b1.prf"), "--system", "KF"],
    "verify": ["verify", "--suite", "all", "--seed", "7", "--budget", "4096", K0],
}

# (command, flag, value): flags a command once accepted and never read
REMOVED_FLAGS = [
    ("concepts", "--budget", "5"), ("concepts", "--seed", "1"),
    ("lattice", "--budget", "5"), ("lattice", "--seed", "1"),
    ("eval", "--budget", "5"), ("eval", "--seed", "1"), ("eval", "--format", "text"),
    ("valid", "--seed", "1"), ("valid", "--format", "text"),
    ("consequence", "--seed", "1"), ("consequence", "--format", "text"),
    ("translate", "--budget", "5"), ("translate", "--seed", "1"),
    ("translate", "--format", "text"),
    ("member", "--seed", "1"), ("member", "--format", "text"),
    ("check-proof", "--budget", "5"),
    ("verify", "--format", "text"),
]


class TestArguments:
    """Each command accepts exactly the arguments its handler reads, and
    argparse's own output goes to ``run_cli``'s streams."""

    def test_every_accepted_argument_is_read(self, monkeypatch, capfd):
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if sys._getframe(1).f_globals.get("__name__") == cli.__name__:
                    read.add(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(argparse, "Namespace", Recording)
        parser = cli._build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert set(commands) == set(FULL_RUNS)
        unread = []
        for name, argv in FULL_RUNS.items():
            read.clear()
            code, _, err = invoke(argv)
            assert code in (0, 1) and err == "", (argv, err)
            for action in commands[name]._actions:
                if action.dest not in read | {"help", "command", "handler"}:
                    unread.append(f"{name} {(action.option_strings or [action.dest])[0]}")
        assert not unread, f"{len(unread)} arguments never read: {', '.join(unread)}"
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (FULL_RUNS[name] + [flag, value], f"unrecognized arguments: {flag} {value}")
            for name, flag, value in REMOVED_FLAGS
        ]
        + [(["concepts", "--kind", "fc", "--format", "dot", K0], "invalid choice: 'dot'")],
        ids=[f"{name} {flag}" for name, flag, _ in REMOVED_FLAGS] + ["concepts --format dot"],
    )
    def test_argument_not_taken_is_usage_error(self, argv, complaint, capfd):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: conceptlogic {argv[0]} ")
        assert f"conceptlogic {argv[0]}: error: " in err and complaint in err
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_goes_to_out(self, argv, capfd):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: conceptlogic") and "--help" in out
        assert capfd.readouterr() == ("", "")

    def test_main_prints_usage_errors_on_stderr(self):
        done = subprocess.run(
            [sys.executable, "-m", "conceptlogic.cli", *FULL_RUNS["translate"], "--seed", "1"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=30,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: conceptlogic")
        assert "unrecognized arguments: --seed 1" in done.stderr


# Calls run one after another in one process: every command, a usage error
# before a valid call, both help texts, and the appending flags given and
# then left out.
MIXED_SEQUENCE = [
    *FULL_RUNS.values(),
    ["valid", "--formula", "p", "--sort", "3", K0],
    ["valid", "--formula", "p", "--sort", "1", K0],
    ["--help"],
    ["verify", "--help"],
    ["consequence", "--premise", "p", "--conclusion", "p", "--sort", "1", K0],
    ["consequence", "--conclusion", "p", "--sort", "1", K0],
    ["eval", "--formula", "p", "--sort", "1", "--assign", "p=g1", K0],
    ["eval", "--formula", "p", "--sort", "1", K0],
    ["check-proof", os.devnull],
    ["concepts", "--kind", "fc", "nope.cxt"],
    ["translate", "--formula", "~boxm- x", "--sort", "1"],
]

_FIRST_CALL_SCRIPT = """
import io
from conceptlogic import cli
print(cli._build_parser.cache_info().currsize)
for _ in range(3):
    cli.run_cli(["translate", "--formula", "p", "--sort", "1"], io.StringIO(), io.StringIO())
info = cli._build_parser.cache_info()
print(info.currsize, info.misses)
"""


class TestParserReuse:
    """``run_cli`` builds its parser on its first call and reuses it."""

    def test_import_does_not_build_the_parser(self):
        done = subprocess.run(
            [sys.executable, "-c", _FIRST_CALL_SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=30,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n1 1\n", "")

    def test_mixed_sequence_prints_what_fresh_parsers_print(self):
        invoke(MIXED_SEQUENCE[0])
        built = cli._build_parser.cache_info().misses
        shared = [invoke(argv) for argv in MIXED_SEQUENCE]
        assert cli._build_parser.cache_info().misses == built
        fresh = []
        for argv in MIXED_SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(invoke(argv))
        assert shared == fresh
        codes = [code for code, _, _ in shared[len(FULL_RUNS):]]
        assert codes == [2, 1, 0, 0, 0, 1, 0, 2, 1, 2, 0]
        assert shared[-4][1:] == ("", "error: unassigned variables: p (use --assign)\n")


# Arbitrary lines, and the lines a context document is made of, for the
# fuzzers below.
TEXT_LINES = st.text(max_size=12).map(lambda t: t.replace("\n", ""))
NAMES = ["g1", "g2", "g3", "m1", "m2", "m3", "", " ", "X", "a,b", "\u00e9", "# c", "g1 "]
SIZES = st.sampled_from([1, 1, 2, 2, 3, 0])


def _mutated(draw, lines):
    """``lines`` with up to three lines replaced, deleted or inserted."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        lines[i:i + draw(st.integers(0, 1))] = draw(st.lists(TEXT_LINES, max_size=1))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n", " "]))


@st.composite
def cxt_documents(draw):
    n, m = draw(SIZES), draw(SIZES)
    lines = ["B", "", str(n), str(m), ""]
    lines += [draw(st.sampled_from(NAMES)) for _ in range(n + m)]
    lines += ["".join(draw(st.sampled_from("XXXX....x ")) for _ in range(m)) for _ in range(n)]
    return _mutated(draw, lines)


@st.composite
def csv_documents(draw):
    n, m = draw(SIZES), draw(SIZES)
    cells = st.sampled_from(["1", "0", "1", "0", "X", ".", "x", " 1", "2", ""])
    lines = [",".join(["", *(draw(st.sampled_from(NAMES)) for _ in range(m))])]
    for _ in range(n):
        lines.append(",".join([draw(st.sampled_from(NAMES)), *(draw(cells) for _ in range(m))]))
    return _mutated(draw, lines)


PREFIX_WORDS = ["dia", "box", "dia-", "box-", "boxm", "boxm-", "~"]
BINARY_WORDS = ["&", "|", "->", "<->"]
FORMULA_TOKENS = [
    "p", "q", "p:1", "x:2", "y", "p:2", "q:3", *PREFIX_WORDS, *BINARY_WORDS,
    "(", ")", "#t", "#f", "-", ":", "1", "",
]
# well-formed up to sorts, with parentheses around every binary connective
GRAMMATICAL_FORMULAS = st.recursive(
    st.sampled_from(["p", "q", "x", "y", "p:1", "x:2", "q:2", "#t", "#f"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(PREFIX_WORDS), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(BINARY_WORDS), inner).map(lambda t: "(%s %s %s)" % t),
    ),
    max_leaves=6,
)
FORMULA_TEXTS = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map(" ".join),
    GRAMMATICAL_FORMULAS,
)


def assert_exit_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    # a result goes to the output stream, a refusal to the error stream
    assert (out == "") == (err != "") == (code >= 2)


class TestInputFuzz:
    """Arbitrary text as a context file or a formula keeps the exit-code
    contract; thousands of calls share the one parser."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.one_of(st.text(max_size=60), cxt_documents()))
    def test_any_cxt_keeps_the_exit_contract(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.cxt"
        path.write_text(text, encoding="utf-8")
        assert_exit_contract(*invoke(["concepts", "--kind", "fc", str(path)]))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.one_of(st.text(max_size=60), csv_documents()))
    def test_any_csv_keeps_the_exit_contract(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        assert_exit_contract(*invoke(["concepts", "--kind", "fc", str(path)]))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(FORMULA_TEXTS, st.sampled_from(["1", "2"]))
    def test_any_formula_keeps_the_exit_contract(self, text, sort):
        assert_exit_contract(*invoke(["valid", "--formula", text, "--sort", sort, K0]))
        assert_exit_contract(*invoke(["translate", "--formula", text, "--sort", sort]))


DEEP = 10**5

# Runs every memoized formula walk on a 64-level DAG of ``f = f & f``: 64
# distinct nodes, 2^64 paths.  A walk that visits a shared node once per path
# does not finish.  (Printing it would emit 2^64 tokens, so it is left out.)
_SHARED_DAG_SCRIPT = """
from conceptlogic.formats import load_context
from conceptlogic.proofs import is_tautology
from conceptlogic.semantics import context_to_frame, falsify
from conceptlogic.syntax import (
    Neg, Or, normalize, substitute, translate_rho, var1, var2, variables, wbox_inv,
)
p, x = var1("p"), var2("x")
f = Or(p, wbox_inv(x))
for _ in range(64):
    f = f & f
assert variables(f) == {p, x}
nf = normalize(f)
assert normalize(nf) is nf and normalize(f) is nf
assert variables(substitute(f, {p: Neg(p)})) == {p, x}
assert variables(translate_rho(f)) == {p, x}
assert not is_tautology(f) and is_tautology(Or(f, Neg(f)))
assert falsify(context_to_frame(load_context(%r)), f) is not None
print("ok")
"""


class TestDeepFormulas:
    """Every formula walk is iterative: depth costs no recursion, and a
    shared node is visited once."""

    def test_print_parse_round_trip(self):
        p = var1("p")
        steps = [Neg, lambda f: And(f, p), lambda f: Imp(p, f), lambda f: dia_inv(dia(f)),
                 lambda f: wbox_inv(wbox(f)), lambda f: And(p, Neg(f))]
        f = p
        for i in range(DEEP):
            f = steps[i % len(steps)](f)
        text = print_formula(f)
        assert parse_formula(text, 1) is f
        assert text.count("(") > DEEP // len(steps)

    def test_valid_gives_a_verdict(self):
        code, out, err = invoke(
            ["valid", "--formula", "~" * DEEP + "p", "--sort", "1", str(DATA / "k0.cxt")]
        )
        assert (code, err) == (1, "")
        assert out.startswith("invalid: ")

    def test_translate(self):
        code, out, err = invoke(
            ["translate", "--formula", "boxm- boxm " * (DEEP // 2) + "p", "--sort", "1"]
        )
        assert (code, err) == (0, "")
        assert out == "box- ~box ~" * (DEEP // 2) + "p\n"

    def test_check_proof_with_a_deep_pl_line(self, tmp_path):
        script = tmp_path / "deep.prf"
        script.write_text(f"system: KF\nvar p : 1\n1 | {'~~' * (DEEP // 2)}(p -> p) | pl\n")
        assert invoke(["check-proof", str(script)]) == (0, "accepted\n", "")

    def test_shared_dag_is_walked_once_per_node(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _SHARED_DAG_SCRIPT % str(DATA / "k0.cxt")],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


class TestEvalAssignments:
    def test_unassigned_variable_rejected(self):
        code, _, err = invoke(
            ["eval", "--formula", "dia p", "--sort", "2", str(DATA / "k0.cxt")]
        )
        assert code == 2 and "unassigned" in err

    def test_unknown_variable_rejected(self):
        code, _, err = invoke(
            [
                "eval",
                "--formula",
                "dia p",
                "--sort",
                "2",
                "--assign",
                "z=g1",
                str(DATA / "k0.cxt"),
            ]
        )
        assert code == 2 and "does not occur" in err

    def test_repeated_assignment_rejected(self):
        code, out, err = invoke(
            ["eval", "--formula", "p", "--sort", "1", "--assign", "p=g1", "--assign", "p=g2", K0]
        )
        assert (code, out) == (2, "")
        assert err == "error: variable 'p' is assigned more than once\n"

    def test_empty_assignment_is_empty_set(self):
        code, out, _ = invoke(
            [
                "eval",
                "--formula",
                "boxm p",
                "--sort",
                "2",
                "--assign",
                "p=",
                str(DATA / "k0.cxt"),
            ]
        )
        # every attribute relates vacuously to the empty truth set
        assert code == 0 and out.strip() == "{m1,m2}"


class TestVerifySuites:
    def test_random_valuation_ignores_variable_order(self):
        # the translation suite draws a valuation for a set of variables,
        # whose iteration order varies with the interpreter's hash seed
        frame = context_to_frame(load_context(str(DATA / "mixed5.cxt")))
        p, q = var1("p"), var1("q")
        first = random_valuation(random.Random(0), frame, [p, q])
        second = random_valuation(random.Random(0), frame, [q, p])
        assert {v: first.worlds(v) for v in (p, q)} == {v: second.worlds(v) for v in (p, q)}

    @pytest.mark.parametrize("suite", ["yao", "translation", "lattice", "iso"])
    def test_individual_suites_pass_on_k0(self, suite):
        code, out, _ = invoke(
            ["verify", "--suite", suite, "--seed", "3", str(DATA / "k0.cxt")]
        )
        assert code == 0, out
        assert "fail" not in out

    def test_failed_iso_law_names_its_witnesses(self, monkeypatch):
        # with f (clause b) the identity the images stay property-oriented,
        # so f cannot swap meets with joins
        identity = (ConceptKind.PC, ConceptKind.PC, False, (False, False))
        monkeypatch.setitem(lattices._YAO, "b", identity)
        code, out, _ = invoke(["verify", "--suite", "iso", str(DATA / "k0.cxt")])
        assert code == 1
        assert (
            "  f swaps meets with joins: fail (f(meet(h(0),h(1))) != "
            "join(f(h(0)),f(h(1)));"
        ) in out
        assert "()" not in out

    def test_failed_yao_clause_names_its_witness(self, monkeypatch):
        # against K itself, the complement-flipping clauses find no image
        monkeypatch.setattr(lattices, "complement_context", lambda ctx: ctx)
        code, out, _ = invoke(["verify", "--suite", "yao", str(DATA / "k0.cxt")])
        assert code == 1
        assert out == (
            "a: fail (image of source concept 0 is not a target concept)\n"
            "b: pass\n"
            "c: fail (image of source concept 0 is not a target concept)\n"
        )

    def test_check_without_detail_prints_no_parentheses(self):
        assert _check_line(LawCheck("law", False)) == "law: fail"
        assert _check_line(LawCheck("law", True, "3 pairs")) == "law: pass (3 pairs)"

    def test_lattice_suite_on_ten_objects_stays_small(self, tmp_path):
        # p and q over ten objects give 2^20 valuations, the default budget;
        # the suite streams them, so its peak does not grow with the space
        rng = random.Random(1)
        objects = tuple(f"g{i}" for i in range(1, 11))
        attributes = ("m1", "m2", "m3")
        pairs = [(g, m) for g in objects for m in attributes if rng.random() < 0.5]
        path = tmp_path / "ten.cxt"
        path.write_text(serialize_cxt(FormalContext.from_pairs(objects, attributes, pairs)))
        # a fresh parent process, so its children's peak is this run's alone
        probe = (
            "import resource, subprocess, sys\n"
            "done = subprocess.run([sys.executable, '-m', 'conceptlogic.cli', 'verify',"
            " '--suite', 'lattice', sys.argv[1]], capture_output=True)\n"
            "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", probe, str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        code, peak_kib = map(int, done.stdout.split())
        assert code == 0
        assert peak_kib < 60 * 1024  # ru_maxrss is in KiB on Linux


# What the fuzzer draws proof scripts from: per dialect, formulas that parse
# in it, plus ones that parse in neither; headers and rule words, mostly well
# formed; integer operands that may name no line; and record indices that are
# mostly in sequence.
DIAMOND_FORMULAS = [
    "p:1 -> p:1", "(p:1 -> q:1) -> (~q:1 -> ~p:1)", "box (p:1 -> p:1)", "box ~q:1 -> box ~p:1",
    "p:1 -> box- dia p:1", "x:2 -> box dia- x:2", "#t", "dia p:1 | ~dia p:1", "p:1",
]
WINDOW_FORMULAS = [
    "p:1 -> p:1", "~(p:1 & ~p:1)", "boxm (p:1 & ~p:1)", "boxm ~p:1", "p:1 -> boxm- boxm p:1",
    "x:2 -> boxm boxm- x:2", "boxm- x:2", "#f",
]
BROKEN_FORMULAS = ["p &", "dia", "", "p", "q:3"]
SCRIPT_HEADERS = [
    "var p : 1", "var x : 2", "premise: p:1 -> q:1", "premise: p &", "var r : 3",
    "#t and #f are constants",
]
SCRIPT_RULES = (
    ["pl", "axiom", "axiom K_dia", "axiom B1", "axiom K1", "premise", "mp", "mp"] * 2
    + ["ug dia", "ug dia-", "ug boxm", "ug boxm-"] * 2
    + ["ug nope", "ug", "modus"]
)
SUBSTITUTIONS = ["ph1 = p:1", "ps = q:1", "ps1 = x:2", "x = p", "ph1 p"]


@st.composite
def proof_scripts(draw):
    system = draw(st.sampled_from(["KB2", "KF", "K"] * 3 + ["S5", None]))
    lines = [] if system is None else [f"system: {system}"]
    formulas = (WINDOW_FORMULAS if system == "KF" else DIAMOND_FORMULAS) * 6 + BROKEN_FORMULAS
    records = 0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(SCRIPT_HEADERS)))
            continue
        records += 1
        index = draw(st.sampled_from([str(records)] * 10 + ["0", "x"]))
        operands = draw(st.lists(st.integers(0, records + 1), max_size=3))
        rule = " ".join([draw(st.sampled_from(SCRIPT_RULES)), *map(str, operands)])
        record = f"{index} | {draw(st.sampled_from(formulas))} | {rule}"
        if draw(st.integers(0, 4)) == 0:
            record += f" | {draw(st.sampled_from(SUBSTITUTIONS))}"
        lines.append(record)
    return "\n".join(lines) + "\n"


class TestProofScriptFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(proof_scripts())
    def test_any_script_keeps_the_exit_contract(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.prf"
        path.write_text(text)
        assert_exit_contract(*invoke(["check-proof", str(path)]))

    def test_ug_with_three_operands_is_a_script_error(self, tmp_path):
        path = tmp_path / "ug3.prf"
        path.write_text("system: KB2\nvar p : 1\n1 | p -> p | pl\n2 | box (p -> p) | ug dia 1 3\n")
        code, out, err = invoke(["check-proof", str(path)])
        assert (code, out) == (2, "")
        assert "'ug' takes a modality and a line number" in err
