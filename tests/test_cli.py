"""CLI tests: golden transcripts, exit-code contract, and error channels."""

import io
import json
import random
from pathlib import Path

import pytest

from conceptlogic.cli import run_cli
from conceptlogic.formats import load_context
from conceptlogic.semantics import context_to_frame
from conceptlogic.suites import random_valuation
from conceptlogic.syntax import var1

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

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

    @pytest.mark.parametrize("case", MANIFEST[-2:], ids=["yao", "all-seed7"])
    def test_deterministic_across_runs(self, case):
        first = invoke(case["args"])
        second = invoke(case["args"])
        assert first == second


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

    def test_system_mismatch_reported(self):
        script = DATA / "proofs" / "kf_b1.prf"
        code, _, err = invoke(["check-proof", str(script), "--system", "KB2"])
        assert code == 2 and "declares system" in err

    def test_deep_nesting_is_usage_error(self):
        code, out, err = invoke(
            ["valid", "--formula", "~" * 1200 + "p", "--sort", "1", str(DATA / "k0.cxt")]
        )
        assert code == 2 and out == ""
        assert err == "error: formula nested too deeply\n"


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
        assert dict(first.items()) == dict(second.items())

    @pytest.mark.parametrize("suite", ["yao", "translation", "lattice", "iso"])
    def test_individual_suites_pass_on_k0(self, suite):
        code, out, _ = invoke(
            ["verify", "--suite", suite, "--seed", "3", str(DATA / "k0.cxt")]
        )
        assert code == 0, out
        assert "fail" not in out
