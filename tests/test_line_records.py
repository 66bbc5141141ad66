"""Differential test: TSV records as their lines against the lists of their cells.

A streamed TSV record is its data line, which each per-header reader splits
only as far as the columns it reads. The reference is the plain list of a
line's cells, ``line.split(separator)``, which is what a record was before.
The logs are conn.logs of ``randgen`` flows under a random ``#separator``
(tab, ``|``, a space, or ``||``, which can overlap a cell's own ``|``), with
``\\r`` before some newlines, empty last cells, label columns appended or
moved in among the others (a relabeled log), and a short or long row.
Every reader, ``write_labeled``'s output and each error's row number must
match the reference.
"""

from __future__ import annotations

import io
import random
from itertools import chain

import pytest

from conftest import CONN_FIELDS
from randgen import flow_to_cells, make_flow

from zeeklabel.errors import LogFormatError
from zeeklabel.zeekio import (
    LABEL_FIELDS, ZeekLogReader, cells_getter, field_getter, first_getter, read_log, row_field, row_set_field,
    write_labeled,
)

SEPARATORS = ["\t", "|", " ", "||"]
ODD_CELLS = ["", "-", "(empty)", "a,b", "|x", "x|", "|", "x\r", "(empty),-"]
PAIRS = [("Malicious", "From_malicious"), ("Benign", "(empty)"), ("(empty)", "(empty)")]


def _case(rng: random.Random):
    """A log's text, its separator, its fields, and each data line's reference cells."""
    sep = rng.choice(SEPARATORS)
    fields = list(CONN_FIELDS)
    if rng.random() < 0.5:  # a relabeled log: its label columns, anywhere
        for name in LABEL_FIELDS:
            fields.insert(rng.randrange(len(fields) + 1), name)
    rows = []
    for _ in range(rng.randrange(1, 12)):
        cells = dict(zip(CONN_FIELDS, flow_to_cells(make_flow(rng))))
        cells.update(zip(LABEL_FIELDS, rng.choice(PAIRS)))
        row = [cells[name] for name in fields]
        odd = list(row)
        for _ in range(rng.randrange(3)):
            odd[rng.randrange(len(row))] = rng.choice(ODD_CELLS)
        if rng.random() < 0.3:
            odd[-1] = ""  # an empty last cell
        # a cell may hold part of the separator, as long as the row keeps its field count
        rows.append(odd if sep.join(odd).count(sep) == len(fields) - 1 else row)
    ends = [rng.choice(["\n", "\n", "\r\n"]) for _ in rows]
    lines = [
        "#separator " + "".join(f"\\x{ord(c):02x}" for c in sep),
        f"#set_separator{sep},", f"#empty_field{sep}(empty)", f"#unset_field{sep}-", f"#path{sep}conn",
        "#fields" + sep + sep.join(fields), "#types" + sep + sep.join(["string"] * len(fields)),
    ]
    text = "".join(line + "\n" for line in lines) + "".join(sep.join(row) + end for row, end in zip(rows, ends))
    # a \r stays in the last cell; a cell holding the separator splits where split() says
    references = [(sep.join(row) + end[:-1]).split(sep) for row, end in zip(rows, ends)]
    return text + "#close\n", sep, fields, references


@pytest.mark.parametrize("seed", range(300))
def test_line_records_read_and_write_as_their_cells(seed):
    rng = random.Random(seed)
    text, sep, fields, references = _case(rng)
    reader = ZeekLogReader(io.StringIO(text))
    header = reader.header
    lines = list(chain.from_iterable(reader.blocks()))
    assert [line.split(sep) for line in lines] == references
    null = {"-", "(empty)", ""}
    names = [*dict.fromkeys(fields), "no_such_column"]
    for name in names:
        idx = header.index_of(name)
        get = field_getter(header, "tsv", name)
        verbatim = first_getter(header, "tsv", (name,))(lines)
        members = first_getter(header, "tsv", (name,), members=True)(lines)
        for line, cells, cell, got in zip(lines, references, verbatim, members, strict=True):
            want = None if idx is None or cells[idx] in null else cells[idx]
            assert get(line) == want == row_field(cells, header, name) == row_field(line, header, name)
            assert cell == (None if idx is None else cells[idx])
            assert got == (None if idx is None else [] if want is None else want.split(","))
            assert (got or []) == row_set_field(cells, header, name) == row_set_field(line, header, name)
    for _ in range(5):
        chosen = tuple(rng.sample(names[:-1], rng.randrange(2, 6)))
        get = cells_getter(header, "tsv", chosen)
        first = first_getter(header, "tsv", (names[-1], *chosen[:2]))
        assert get(lines) == [tuple(cells[header.index_of(name)] for name in chosen) for cells in references]
        assert cells_getter(header, "tsv", chosen[:1])(lines) == [cells[header.index_of(chosen[0])] for cells in references]
        assert first(lines) == [cells[header.index_of(chosen[0])] for cells in references]

    # write_labeled over lines against a writer of the cell lists
    pairs = [rng.choice(PAIRS) for _ in lines]
    out = io.StringIO()
    reader = ZeekLogReader(io.StringIO(text))
    it = iter(pairs)
    counts = write_labeled(out, reader, reader.blocks(), lambda block: [next(it) for _ in block])
    added = [name for name in LABEL_FIELDS if name not in fields]
    want = []
    for line in header.preamble:
        if line.startswith("#fields") or line.startswith("#types"):
            line = sep.join([line, *(added if line.startswith("#fields") else ["string"] * len(added))])
        want.append(line + "\n")
    for cells, pair in zip(references, pairs):
        cells = list(cells)
        for k, name in enumerate(LABEL_FIELDS):
            if name in fields:
                cells[header.index_of(name)] = pair[k]
        want.append(sep.join(cells + [pair[LABEL_FIELDS.index(name)] for name in added]) + "\n")
    assert out.getvalue() == "".join(want) + "#close\n"
    assert counts == {pair: pairs.count(pair) for pair in pairs}
    table = read_log(io.StringIO(text))
    assert table.records == references and list(table.iter_rows()) == lines


@pytest.mark.parametrize("seed", range(100))
def test_a_short_or_long_row_is_reported_at_its_row(seed):
    rng = random.Random(seed)
    text, sep, fields, references = _case(rng)
    lines = [line + "\n" for line in text.split("\n")[:-1]]
    data_at = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = rng.choice(references)
    bad = cells[: rng.randrange(1, len(cells))] if rng.random() < 0.5 else cells + [""] * rng.randrange(1, 3)
    k = rng.randrange(len(data_at) + 1)
    lines.insert(data_at[k] if k < len(data_at) else len(lines) - 1, sep.join(bad) + "\n")
    reader = ZeekLogReader(io.StringIO("".join(lines)))
    with pytest.raises(LogFormatError) as err:
        list(chain.from_iterable(reader.blocks()))
    got = len(sep.join(bad).split(sep))
    assert str(err.value) == f"<log>: row {k + 1}: expected {len(fields)} fields, got {got}"
