"""Context documents (CXT and CSV) and DOT export.

The CXT layout: line 1 is the marker ``B``, line 2 blank, lines 3-4 the
object and attribute counts, line 5 blank, then object names, attribute
names, and one incidence row per object over the characters ``X`` and ``.``.
CSV files carry attribute names in the first row, object names in the first
column, and cells ``1``/``0`` or ``X``/``.``; the serializer always emits
``1``/``0``.  Parsing then serializing reproduces a well-formed document
byte-for-byte (CXT) or normalizes the cell style (CSV).  Serializing then
parsing gives the same context: a serializer raises ``CxtFormatError`` for a
name its format cannot carry, which is one with a line break, or in CSV one
with a comma or with leading or trailing white space.
"""

from __future__ import annotations

from .context import FormalContext
from .errors import ConceptLogicError, CxtFormatError
from .lattices import ConceptLattice


def parse_cxt(text: str) -> FormalContext:
    """Parse a Burmeister-style context document."""
    lines = text.splitlines()

    def get(i: int) -> str:
        if i >= len(lines):
            raise CxtFormatError("unexpected end of file", len(lines))
        return lines[i]

    if get(0).strip() != "B":
        raise CxtFormatError("first line must be 'B'", 1)
    if get(1).strip():
        raise CxtFormatError("second line must be blank", 2)
    try:
        n_objects = int(get(2).strip())
        n_attributes = int(get(3).strip())
    except ValueError:
        raise CxtFormatError("lines 3-4 must be the object and attribute counts", 3)
    if n_objects < 1 or n_attributes < 1:
        raise CxtFormatError("counts must be at least 1", 3)
    if get(4).strip():
        raise CxtFormatError("fifth line must be blank", 5)
    base = 5
    objects = tuple(get(base + i) for i in range(n_objects))
    attributes = tuple(get(base + n_objects + i) for i in range(n_attributes))
    row_base = base + n_objects + n_attributes
    rows = []
    for i in range(n_objects):
        row = get(row_base + i).rstrip()
        if len(row) != n_attributes:
            raise CxtFormatError(
                f"incidence row has {len(row)} cells, expected {n_attributes}",
                row_base + i + 1,
            )
        for c in row:
            if c not in "X.":
                raise CxtFormatError(
                    f"incidence cells are 'X' or '.', found {c!r}", row_base + i + 1
                )
        rows.append([c == "X" for c in row])
    tail = lines[row_base + n_objects :]
    if any(t.strip() for t in tail):
        raise CxtFormatError("trailing content after incidence rows", row_base + n_objects + 1)
    return FormalContext.from_bools(objects, attributes, rows)


def _check_names(ctx: FormalContext, fmt: str, cannot_carry) -> None:
    for name in ctx.objects + ctx.attributes:
        if cannot_carry(name):
            raise CxtFormatError(f"{fmt} cannot carry the name {name!r}")


def _breaks_line(name: str) -> bool:
    return "".join(name.splitlines()) != name  # each line break splitlines knows


def serialize_cxt(ctx: FormalContext) -> str:
    _check_names(ctx, "CXT", _breaks_line)
    lines = ["B", "", str(ctx.n_objects), str(ctx.n_attributes), ""]
    lines.extend(ctx.objects)
    lines.extend(ctx.attributes)
    for g in range(ctx.n_objects):
        row = ctx.rows[g]
        lines.append(
            "".join("X" if row >> m & 1 else "." for m in range(ctx.n_attributes))
        )
    return "\n".join(lines) + "\n"


_TRUE_CELLS = {"1", "x"}
_FALSE_CELLS = {"0", "."}


def parse_csv(text: str) -> FormalContext:
    """Context from CSV: header row of attributes, leading object column."""
    lines = [l for l in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise CxtFormatError("empty document", 1)
    header = lines[0].split(",")
    attributes = tuple(h.strip() for h in header[1:])
    if not attributes:
        raise CxtFormatError("header row has no attribute names", 1)
    objects = []
    matrix = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(attributes) + 1:
            raise CxtFormatError(
                f"row has {len(cells) - 1} cells, expected {len(attributes)}", lineno
            )
        objects.append(cells[0])
        row = []
        for c in cells[1:]:
            low = c.lower()
            if low in _TRUE_CELLS:
                row.append(True)
            elif low in _FALSE_CELLS:
                row.append(False)
            else:
                raise CxtFormatError(
                    f"cells are 1/0 or X/., found {c!r}", lineno
                )
        matrix.append(row)
    if not objects:
        raise CxtFormatError("no object rows", 2)
    return FormalContext.from_bools(objects, attributes, matrix)


def serialize_csv(ctx: FormalContext) -> str:
    _check_names(ctx, "CSV", lambda n: _breaks_line(n) or "," in n or n != n.strip())
    lines = ["," + ",".join(ctx.attributes)]
    for g, name in enumerate(ctx.objects):
        row = ctx.rows[g]
        cells = ["1" if row >> m & 1 else "0" for m in range(ctx.n_attributes)]
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def read_text(path: str) -> str:
    """A document's UTF-8 text; undecodable bytes are an error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConceptLogicError(f"{path} is not UTF-8 text ({exc})") from None


def load_context(path: str) -> FormalContext:
    """Dispatch on extension: .cxt or .csv."""
    text = read_text(path)
    if path.lower().endswith(".csv"):
        return parse_csv(text)
    return parse_cxt(text)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(lattice: ConceptLattice) -> str:
    """Hasse diagram in DOT syntax: one node per concept, covering edges only."""
    ctx = lattice.ctx
    out = ["digraph lattice {", "  rankdir=BT;"]
    for i, c in enumerate(lattice.concepts):
        extent = ",".join(c.extent.members(ctx.objects))
        intent = ",".join(c.intent.members(ctx.attributes))
        label = _dot_escape(f"{{{extent}}} / {{{intent}}}")
        out.append(f'  n{i} [label="{label}"];')
    for low, high in lattice.covers():
        out.append(f"  n{low} -> n{high};")
    out.append("}")
    return "\n".join(out) + "\n"
