"""Reading and writing Zeek logs without disturbing them.

Both on-disk shapes are supported: classic tab-separated logs with their
``#``-directive header block, and JSON-lines logs (one object per line).
TSV is treated as the canonical form; headers and data cells are kept
verbatim so a labeled file is byte-identical to its input apart from the
two appended columns. JSON-lines rows are re-serialized from the original
objects with the two label keys added.

The module also owns the rule-facing view of a conn.log record: a
:class:`Flow` maps rule columns (srcIP, Bytes, Date, ...) onto Zeek's field
names and memoizes each column's typed value, with an explicit unset notion.
"""

from __future__ import annotations

import datetime
import ipaddress
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import LogFormatError, UsageError

UNSET_DEFAULT = "-"
EMPTY_DEFAULT = "(empty)"
LABEL_FIELDS = ("label", "detailed_label")

_UTC = datetime.timezone.utc


@dataclass
class ZeekHeader:
    """Parsed header metadata plus the raw directive lines for round-trips."""

    separator: str = "\t"
    set_separator: str = ","
    empty_field: str = EMPTY_DEFAULT
    unset_field: str = UNSET_DEFAULT
    path: str | None = None
    fields: list[str] = field(default_factory=list)
    types: list[str] | None = None
    preamble: list[str] = field(default_factory=list)

    def index_of(self, name: str) -> int | None:
        try:
            return self.fields.index(name)
        except ValueError:
            return None


@dataclass(slots=True)
class Row:
    """One data record of a table: the cells of a TSV row, or a JSON row's object."""

    cells: list[str] | None
    obj: dict | None


@dataclass
class ZeekLogTable:
    """A whole log held in memory; records are lists of verbatim string cells."""

    header: ZeekHeader
    records: list[list[str]]
    objects: list[dict] | None
    trailer: list[str]
    format: str  # "tsv" | "json"

    def __len__(self) -> int:
        return len(self.records)

    def iter_rows(self) -> Iterator[Row]:
        for i, cells in enumerate(self.records):
            yield Row(cells, self.objects[i] if self.objects is not None else None)


def _unescape_separator(text: str) -> str:
    # the #separator directive spells the byte as an escape, e.g. \x09
    return text.encode("ascii").decode("unicode_escape")


def _json_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value: object, header: ZeekHeader) -> str:
    if value is None:
        return header.unset_field
    if isinstance(value, list):
        if not value:
            return header.empty_field
        return header.set_separator.join(_json_scalar(v) for v in value)
    return _json_scalar(value)


def utf8_error(source: str, lines_read: int, exc: UnicodeDecodeError) -> LogFormatError:
    """The error for a non-UTF-8 byte met after ``lines_read`` whole lines.

    A text stream decodes the chunk that continues the first line not yet
    read, so the byte sits that many newlines into the chunk past that line.
    """
    lineno = lines_read + 1
    if isinstance(exc.object, bytes):
        lineno += exc.object.count(b"\n", 0, exc.start)
    return LogFormatError(f"{source}: line {lineno}: not valid UTF-8")


class ZeekLogReader:
    """Streaming reader; header is available right after construction.

    For JSON-lines input the field list starts from the first object's keys
    and grows as later objects introduce new ones.
    """

    def __init__(self, stream: IO[str], source: str = "<log>") -> None:
        self._stream = stream
        self.source = source
        self.header = ZeekHeader()
        self.trailer: list[str] = []
        self.format = ""
        self._pending: str | None = None
        self._lineno = 0
        self._read_preamble()

    def _next_line(self) -> str | None:
        try:
            line = self._stream.readline()
        except UnicodeDecodeError as exc:
            raise utf8_error(self.source, self._lineno, exc) from None
        if line == "":
            return None
        self._lineno += 1
        return line.rstrip("\n")

    def _read_preamble(self) -> None:
        line = self._next_line()
        while line is not None and not line.strip():
            line = self._next_line()
        if line is None:
            raise LogFormatError(f"{self.source}: empty input")
        if line.lstrip().startswith("{"):
            self.format = "json"
            self._pending = line
            self.header.fields = list(self._parse_json(line, self._lineno))
            return
        if not line.startswith("#separator"):
            raise LogFormatError(
                f"{self.source}: not a Zeek log (expected '#separator' or a "
                f"JSON object on the first line)"
            )
        self.format = "tsv"
        h = self.header
        while line is not None and line.startswith("#"):
            h.preamble.append(line)
            if line.startswith("#separator "):
                h.separator = _unescape_separator(line[len("#separator ") :])
            else:
                parts = line.split(h.separator)
                name = parts[0]
                if name == "#set_separator" and len(parts) > 1:
                    h.set_separator = parts[1]
                elif name == "#empty_field" and len(parts) > 1:
                    h.empty_field = parts[1]
                elif name == "#unset_field" and len(parts) > 1:
                    h.unset_field = parts[1]
                elif name == "#path" and len(parts) > 1:
                    h.path = parts[1]
                elif name == "#fields":
                    h.fields = parts[1:]
                elif name == "#types":
                    h.types = parts[1:]
            line = self._next_line()
        if not h.fields:
            raise LogFormatError(f"{self.source}: missing #fields line")
        if h.types is not None and len(h.types) != len(h.fields):
            raise LogFormatError(
                f"{self.source}: #fields and #types disagree "
                f"({len(h.fields)} vs {len(h.types)})"
            )
        self._pending = line

    def _parse_json(self, line: str, lineno: int) -> dict:
        try:
            obj = json.loads(line)
        except ValueError:
            raise LogFormatError(f"{self.source}: line {lineno}: invalid JSON") from None
        if not isinstance(obj, dict):
            raise LogFormatError(
                f"{self.source}: line {lineno}: expected a JSON object"
            )
        return obj

    def records(self) -> Iterator[list[str] | dict]:
        """The data rows: a list of cells per TSV line, the object per JSON line.

        A TSV line splits back to its exact text with ``header.separator``.
        """
        if self.format == "tsv":
            return self._tsv_records()
        return self._json_records()

    def _tsv_records(self) -> Iterator[list[str]]:
        line, self._pending = self._pending, None
        if line is None:
            return
        sep = self.header.separator
        n_fields = len(self.header.fields)
        trailer = self.trailer
        # lines before the pending one; rows and trailer lines count the rest
        lines_before = self._lineno - 1
        rowno = 0
        lines = chain((line,), self._stream)
        try:
            for line in lines:
                line = line.rstrip("\n")
                if line[:1] == "#":
                    # footer directives (#close); everything after is kept verbatim
                    trailer.append(line)
                    trailer.extend(rest.rstrip("\n") for rest in lines)
                    return
                cells = line.split(sep)
                rowno += 1
                if len(cells) != n_fields:
                    raise LogFormatError(
                        f"{self.source}: row {rowno}: expected {n_fields} "
                        f"fields, got {len(cells)}"
                    )
                yield cells
        except UnicodeDecodeError as exc:
            raise utf8_error(self.source, lines_before + rowno + len(trailer), exc) from None

    def _json_records(self) -> Iterator[dict]:
        line, self._pending = self._pending, None
        if line is None:
            return
        fields = self.header.fields
        known = set(fields)
        lineno = self._lineno
        parse = self._parse_json
        try:
            for lineno, line in enumerate(chain((line,), self._stream), lineno):
                if not line.strip():
                    continue
                obj = parse(line, lineno)
                if not known.issuperset(obj):
                    for key in obj:
                        if key not in known:
                            known.add(key)
                            fields.append(key)
                yield obj
        except UnicodeDecodeError as exc:
            raise utf8_error(self.source, lineno, exc) from None


def read_log(stream: IO[str], source: str = "<log>") -> ZeekLogTable:
    """Read a whole log into a table.

    JSON-lines input gets a synthetic header whose fields are the union of
    keys in first-appearance order; missing keys surface as the unset marker.
    """
    reader = ZeekLogReader(stream, source)
    rows = list(reader.records())
    header = reader.header
    if reader.format == "json":
        records = [
            [
                _json_cell(obj[name], header) if name in obj else header.unset_field
                for name in header.fields
            ]
            for obj in rows
        ]
        return ZeekLogTable(header, records, rows, reader.trailer, "json")  # type: ignore[arg-type]
    return ZeekLogTable(header, rows, None, reader.trailer, "tsv")  # type: ignore[arg-type]


# rows a writer joins into one write; bounds its buffer however long the log
WRITE_CHUNK_ROWS = 256

_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


class ZeekLogWriter:
    """Streaming writer that appends label columns while copying everything else."""

    def __init__(
        self,
        stream: IO[str],
        header: ZeekHeader,
        fmt: str,
        label_fields: tuple[str, str] = LABEL_FIELDS,
    ) -> None:
        self._stream = stream
        self._header = header
        self._format = fmt
        self._label_fields = label_fields
        if fmt == "tsv":
            self._write_preamble()

    def _write_preamble(self) -> None:
        h = self._header
        sep = h.separator
        lines = h.preamble or self._synthesized_preamble()
        for line in lines:
            if line.startswith("#fields" + sep) or line == "#fields":
                line = line + sep + sep.join(self._label_fields)
            elif line.startswith("#types" + sep) or line == "#types":
                line = line + sep + sep.join(["string"] * len(self._label_fields))
            self._stream.write(line + "\n")

    def _synthesized_preamble(self) -> list[str]:
        # used only for programmatically built tables (no original header text)
        h = self._header
        sep = h.separator
        out = [
            "#separator " + "".join(f"\\x{ord(c):02x}" for c in sep),
            "#set_separator" + sep + h.set_separator,
            "#empty_field" + sep + h.empty_field,
            "#unset_field" + sep + h.unset_field,
        ]
        if h.path is not None:
            out.append("#path" + sep + h.path)
        out.append("#fields" + sep + sep.join(h.fields))
        if h.types is not None:
            out.append("#types" + sep + sep.join(h.types))
        return out

    def write_rows(
        self, records: Iterable[list[str] | dict], pair_of: Callable
    ) -> dict[tuple[str, str], int]:
        """Write each record with the label pair ``pair_of(record)`` appended.

        ``records`` are what :meth:`ZeekLogReader.records` yields. Returns
        how many rows got each pair.
        """
        write = self._stream.write
        counts: dict[tuple[str, str], int] = {}
        buf: list[str] = []
        if self._format == "tsv":
            sep = self._header.separator
            join = sep.join
            tails: dict[tuple[str, str], str] = {}
            for cells in records:
                pair = pair_of(cells)
                tail = tails.get(pair)
                if tail is None:
                    tail = tails[pair] = f"{sep}{pair[0]}{sep}{pair[1]}\n"
                    counts[pair] = 0
                counts[pair] += 1
                buf.append(join(cells) + tail)
                if len(buf) == WRITE_CHUNK_ROWS:
                    write("".join(buf))
                    buf.clear()
        else:
            label_key, detail_key = self._label_fields
            for obj in records:
                pair = pair_of(obj)
                counts[pair] = counts.get(pair, 0) + 1
                buf.append(_encode_json({**obj, label_key: pair[0], detail_key: pair[1]}) + "\n")
                if len(buf) == WRITE_CHUNK_ROWS:
                    write("".join(buf))
                    buf.clear()
        write("".join(buf))
        return counts

    def finish(self, trailer: list[str] | None = None) -> None:
        for line in trailer or []:
            self._stream.write(line + "\n")


def write_log(
    table: ZeekLogTable, labels: list[tuple[str, str]], stream: IO[str]
) -> None:
    """Write a table with one (label, detailed_label) pair per record."""
    if len(labels) != len(table.records):
        raise UsageError(
            f"{len(labels)} label pairs for {len(table.records)} records"
        )
    writer = ZeekLogWriter(stream, table.header, table.format)
    pairs = iter(labels)
    records = table.objects if table.format == "json" else table.records
    writer.write_rows(records, lambda _: next(pairs))  # type: ignore[arg-type]
    writer.finish(table.trailer)


@contextmanager
def replace_on_success(path: Path) -> Iterator[IO[str]]:
    """Write ``path`` through a temp file beside it, moved in place on success.

    The temp name does not end in ``.log``, so a directory scan for logs never
    picks it up; on any error it is removed and ``path`` is left untouched.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def row_field(row: Row, header: ZeekHeader, name: str) -> str | None:
    """A single field as verbatim text, or None when unset/absent."""
    if row.obj is not None:
        value = row.obj.get(name)
        if value is None:
            return None
        text = _json_cell(value, header)
    else:
        idx = header.index_of(name)
        if idx is None:
            return None
        text = row.cells[idx]  # type: ignore[index]
    if text == header.unset_field or text == header.empty_field or text == "":
        return None
    return text


def row_set_field(row: Row, header: ZeekHeader, name: str) -> list[str]:
    """A set/vector field as a list of member strings (empty when unset)."""
    if row.obj is not None:
        value = row.obj.get(name)
        if value is None:
            return []
        if isinstance(value, list):
            return [_json_scalar(v) for v in value]
        text = _json_scalar(value)
        if text in (header.unset_field, header.empty_field, ""):
            return []
        return [text]
    cell = row_field(row, header, name)
    if cell is None:
        return []
    return cell.split(header.set_separator)


def field_getter(header: ZeekHeader, fmt: str, name: str) -> Callable[[list[str] | dict], str | None]:
    """``row_field`` for one column, resolved once: a function of a record.

    The records are what :meth:`ZeekLogReader.records` yields for ``fmt``.
    """
    null = frozenset((header.unset_field, header.empty_field, ""))
    if fmt == "json":

        def get(obj):
            value = obj.get(name)
            if value is None:
                return None
            text = value if type(value) is str else _json_cell(value, header)
            return None if text in null else text

        return get
    idx = header.index_of(name)
    if idx is None:
        return lambda cells: None

    def cell(cells):
        text = cells[idx]
        return None if text in null else text

    return cell


def set_getter(header: ZeekHeader, fmt: str, name: str) -> Callable[[list[str] | dict], list[str]]:
    """``row_set_field`` for one column, resolved once: a function of a record."""
    null = frozenset((header.unset_field, header.empty_field, ""))
    if fmt == "json":

        def members(obj):
            value = obj.get(name)
            if value is None:
                return []
            if type(value) is list:
                return [_json_scalar(v) for v in value]
            text = _json_scalar(value)
            return [] if text in null else [text]

        return members
    get = field_getter(header, fmt, name)
    set_sep = header.set_separator

    def split(cells):
        text = get(cells)
        return [] if text is None else text.split(set_sep)

    return split


def _to_float(value) -> float | None:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _to_int(value) -> int | None:
    if isinstance(value, int):
        return None if isinstance(value, bool) else value
    try:
        return int(float(value))
    except (TypeError, ValueError, OverflowError):
        return None


def _lower(value) -> str | None:
    return None if value is None else str(value).lower()


def _address(value) -> str | None:
    # IPv4 text is kept as written: ipaddress accepts only the canonical
    # dotted quad, so no other spelling can equal a rule's address anyway
    if value is None:
        return None
    text = str(value)
    if ":" not in text:
        return text
    try:
        return str(ipaddress.ip_address(text))
    except ValueError:
        return None


def _utc_date(ts: float | None) -> datetime.date | None:
    if ts is None:
        return None
    try:
        return datetime.datetime.fromtimestamp(ts, tz=_UTC).date()
    except (OverflowError, OSError, ValueError):
        return None


def _volume(flow: "Flow", orig: str, resp: str) -> int:
    return (_to_int(flow.cell(orig)) or 0) + (_to_int(flow.cell(resp)) or 0)


# rule column -> its typed value on a flow
_READERS = {
    "Date": lambda flow: _utc_date(flow.value("start")),
    "start": lambda flow: _to_float(flow.cell("ts")),
    "Duration": lambda flow: _to_float(flow.cell("duration")),
    "Proto": lambda flow: _lower(flow.cell("proto")),
    "srcIP": lambda flow: _address(flow.cell("id.orig_h")),
    "srcPort": lambda flow: _to_int(flow.cell("id.orig_p")),
    "dstIP": lambda flow: _address(flow.cell("id.resp_h")),
    "dstPort": lambda flow: _to_int(flow.cell("id.resp_p")),
    "State": lambda flow: _lower(flow.cell("conn_state")),
    "Tos": lambda flow: _to_int(flow.cell("tos")),
    "Packets": lambda flow: _volume(flow, "orig_pkts", "resp_pkts"),
    "Bytes": lambda flow: _volume(flow, "orig_bytes", "resp_bytes"),
}


class Flow(dict):
    """One conn.log record as a memo of its rule-column values.

    ``value(column)`` (or ``flow[column]``) reads a rule column's typed value
    on first use and keeps it, so each cell is converted at most once per row
    however many conditions test it. None means unset: the cell is unset or
    absent or does not parse as its type. Packets/Bytes count unset halves as
    0, so a partially logged flow still has a volume. Date is the UTC date of
    ``start``. Proto and State are lowercased, IPs are address text in
    canonical form.
    """

    __slots__ = ("_record", "_schema")

    def __init__(self, record: list[str] | dict, schema: "ConnSchema") -> None:
        self._record = record
        self._schema = schema

    def __missing__(self, column: str):
        value = self[column] = _READERS[column](self)
        return value

    value = dict.__getitem__

    def cell(self, name: str):
        """A conn.log field as the row holds it; None when unset or absent."""
        schema = self._schema
        record = self._record
        if type(record) is list:
            idx = schema.indices.get(name)
            if idx is None:
                return None
            value = record[idx]
        else:
            value = record.get(name)  # type: ignore[union-attr]
            if not isinstance(value, str):
                return value
        return None if value in schema.null_cells else value


class ConnSchema:
    """Precomputed column lookup for viewing a table's rows as flows."""

    def __init__(self, header: ZeekHeader, fmt: str) -> None:
        if "uid" not in header.fields:
            raise LogFormatError("flow table has no uid field")
        self.format = fmt
        self.null_cells = frozenset({header.unset_field, header.empty_field, ""})
        self.indices: dict[str, int] = {}
        for i, name in enumerate(header.fields):
            self.indices.setdefault(name, i)

    def view(self, row: Row) -> Flow:
        return Flow(row.cells if row.obj is None else row.obj, self)  # type: ignore[arg-type]
