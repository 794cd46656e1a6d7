"""Tests for context document parsing/serialization and lattice export."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptlogic import FormalContext
from conceptlogic.errors import CxtFormatError
from conceptlogic.formats import (
    export_dot,
    load_context,
    parse_csv,
    parse_cxt,
    serialize_csv,
    serialize_cxt,
)
from conceptlogic.lattices import ConceptKind, build_lattice, enumerate_concepts

from oracles import k0

DATA = Path(__file__).parent / "data"

K0_DOC = "B\n\n2\n2\n\ng1\ng2\nm1\nm2\nX.\nXX\n"


class TestCxt:
    def test_parse_k0(self):
        ctx = parse_cxt(K0_DOC)
        assert ctx == k0()

    def test_round_trip_is_bit_exact(self):
        assert serialize_cxt(parse_cxt(K0_DOC)) == K0_DOC

    def test_corpus_round_trips(self):
        for path in sorted(DATA.glob("*.cxt")):
            text = path.read_text()
            assert serialize_cxt(parse_cxt(text)) == text, path.name

    def test_bad_cell_reports_line(self):
        doc = K0_DOC.replace("XX", "XY")
        with pytest.raises(CxtFormatError) as exc:
            parse_cxt(doc)
        assert exc.value.line == 11

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("X?X\n...\n", "line 11: incidence cells are 'X' or '.', found '?'"),
            ("X.X\n..x\n", "line 12: incidence cells are 'X' or '.', found 'x'"),
            ("X.X\n.y?\n", "line 12: incidence cells are 'X' or '.', found 'y'"),
        ],
        ids=["middle", "end", "first-of-two"],
    )
    def test_bad_cell_names_its_character_and_line(self, rows, message):
        doc = "B\n\n2\n3\n\ng1\ng2\nm1\nm2\nm3\n" + rows
        with pytest.raises(CxtFormatError, match=f"^{re.escape(message)}$"):
            parse_cxt(doc)

    def test_bad_header(self):
        with pytest.raises(CxtFormatError):
            parse_cxt("A\n\n1\n1\n\ng\nm\nX\n")
        with pytest.raises(CxtFormatError):
            parse_cxt("B\n\nzero\n1\n\ng\nm\nX\n")

    @pytest.mark.parametrize("count", ["1_0", "\uff12", "+3"])
    def test_count_is_ascii_digits_only(self, count):
        # int() reads each of these as a number; the serializer writes none
        doc = f"B\n\n{count}\n1\n\n" + "".join(f"g{i}\n" for i in range(10)) + "m1\n"
        with pytest.raises(CxtFormatError, match="lines 3-4 must be") as exc:
            parse_cxt(doc + "X\n" * 10)
        assert exc.value.line == 3

    def test_wrong_row_width(self):
        with pytest.raises(CxtFormatError):
            parse_cxt("B\n\n1\n2\n\ng\nm1\nm2\nX\n")

    def test_truncated(self):
        with pytest.raises(CxtFormatError):
            parse_cxt("B\n\n2\n2\n\ng1\ng2\nm1\nm2\nX.\n")


class TestCsv:
    def test_parse_k0(self):
        assert parse_csv(",m1,m2\ng1,1,0\ng2,1,1\n") == k0()

    def test_x_dot_cells_accepted(self):
        assert parse_csv(",m1,m2\ng1,X,.\ng2,X,X\n") == k0()

    def test_round_trip_is_bit_exact(self):
        for path in sorted(DATA.glob("*.csv")):
            text = path.read_text()
            assert serialize_csv(parse_csv(text)) == text, path.name

    def test_bad_cell(self):
        with pytest.raises(CxtFormatError) as exc:
            parse_csv(",m1\ng1,2\n")
        assert exc.value.line == 2

    def test_bad_cell_names_its_cell_and_line(self):
        with pytest.raises(CxtFormatError, match=r"^line 3: cells are 1/0 or X/\., found 'y'$"):
            parse_csv(",m1,m2,m3\ng1,1,0,X\ng2,1, y ,z\n")

    def test_ragged_row(self):
        with pytest.raises(CxtFormatError):
            parse_csv(",m1,m2\ng1,1\n")

    def test_load_dispatches_on_extension(self):
        assert load_context(str(DATA / "k0.cxt")) == k0()
        assert load_context(str(DATA / "k0.csv")) == k0()


# every character str.splitlines breaks on, stated independently of the code
LINE_BREAKS = set("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
CHARS = st.one_of(st.sampled_from(sorted(LINE_BREAKS) + list("ab ,\t")), st.characters())
NAMES = st.text(CHARS, max_size=4)


@st.composite
def contexts(draw):
    objects = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    attributes = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    row = st.integers(0, 2 ** len(attributes) - 1)
    rows = draw(st.lists(row, min_size=len(objects), max_size=len(objects)))
    return FormalContext(tuple(objects), tuple(attributes), tuple(rows))


def round_trip(parse, serialize, ctx, cannot_carry):
    """parse(serialize(ctx)) is ctx, unless ctx has a name the format cannot
    carry, and then serializing refuses it."""
    if any(cannot_carry(name) for name in ctx.objects + ctx.attributes):
        with pytest.raises(CxtFormatError, match="cannot carry the name"):
            serialize(ctx)
    else:
        assert parse(serialize(ctx)) == ctx


class TestRoundTrips:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(contexts())
    def test_cxt(self, ctx):
        round_trip(parse_cxt, serialize_cxt, ctx, lambda n: not LINE_BREAKS.isdisjoint(n))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(contexts())
    def test_csv(self, ctx):
        def cannot_carry(n):
            return not LINE_BREAKS.isdisjoint(n) or "," in n or n != n.strip()

        round_trip(parse_csv, serialize_csv, ctx, cannot_carry)


class TestDot:
    def lattice(self, kind):
        ctx = k0()
        return build_lattice(enumerate_concepts(ctx, kind), kind, ctx)

    def test_fc_two_nodes_one_edge(self):
        dot = export_dot(self.lattice(ConceptKind.FC))
        assert dot.count("[label=") == 2
        assert dot.count("->") == 1

    def test_pc_three_nodes_two_edges(self):
        dot = export_dot(self.lattice(ConceptKind.PC))
        assert dot.count("[label=") == 3
        assert dot.count("->") == 2

    def test_single_concept_no_edges(self):
        ctx = FormalContext(("g1",), ("m1",), (1,))
        lat = build_lattice(enumerate_concepts(ctx, ConceptKind.FC), ConceptKind.FC, ctx)
        dot = export_dot(lat)
        assert dot.count("[label=") == 1
        assert "->" not in dot

    def test_deterministic(self):
        a = export_dot(self.lattice(ConceptKind.OC))
        b = export_dot(self.lattice(ConceptKind.OC))
        assert a == b

    def test_label_escaping(self):
        ctx = FormalContext(('g"1',), ("m1",), (1,))
        lat = build_lattice(enumerate_concepts(ctx, ConceptKind.FC), ConceptKind.FC, ctx)
        assert '\\"' in export_dot(lat)

