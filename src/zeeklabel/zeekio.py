"""Reading and writing Zeek logs without disturbing them.

Both on-disk shapes are supported: classic tab-separated logs with their
``#``-directive header block, and JSON-lines logs (one object per line).
TSV is treated as the canonical form; headers and data cells are kept
verbatim so a labeled file is byte-identical to its input apart from the
two appended columns. JSON-lines rows are re-serialized from the original
objects with the two label keys added.

Cells are read through readers resolved once per header (:func:`field_getter`,
:func:`set_getter`), and so are rule columns: :class:`ConnSchema` builds one
per column (srcIP, Bytes, Date, ...) from the field's reader and a converter,
and a :class:`Flow` memoizes one record's typed values, with unset as None.
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


@dataclass
class ZeekLogTable:
    """A whole log held in memory, as the records :meth:`ZeekLogReader.records` yields."""

    header: ZeekHeader
    records: list[list[str] | dict]
    trailer: list[str]
    format: str  # "tsv" | "json"

    def __len__(self) -> int:
        return len(self.records)

    def iter_rows(self) -> Iterator[list[str] | dict]:
        return iter(self.records)


def _unescape_separator(text: str) -> str | None:
    # the #separator directive spells the byte as an escape, e.g. \x09
    try:
        return text.encode("ascii").decode("unicode_escape") or None
    except UnicodeError:
        return None


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
                text = line[len("#separator ") :]
                sep = _unescape_separator(text)
                if sep is None:
                    raise LogFormatError(
                        f"{self.source}: line {self._lineno}: invalid #separator {text!r}"
                    )
                h.separator = sep
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
    """Read a whole log into a table of the records the streaming reader yields.

    A TSV record is the list of a line's verbatim cells, a JSON-lines record
    the line's object as parsed. For JSON lines the header's fields are the
    union of keys in first-appearance order; a key an object lacks reads as
    unset through :func:`row_field`.
    """
    reader = ZeekLogReader(stream, source)
    records = list(reader.records())
    return ZeekLogTable(reader.header, records, reader.trailer, reader.format)


# rows a writer joins into one write; bounds its buffer however long the log
WRITE_CHUNK_ROWS = 256

_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


class ZeekLogWriter:
    """Streaming writer that appends label columns while copying everything else."""

    def __init__(self, stream: IO[str], header: ZeekHeader, fmt: str) -> None:
        self._stream = stream
        self._header = header
        self._format = fmt
        if fmt == "tsv":
            self._write_preamble()

    def _write_preamble(self) -> None:
        # the header comes from a reader, which kept its directive lines verbatim
        sep = self._header.separator
        for line in self._header.preamble:
            if line.startswith("#fields" + sep) or line == "#fields":
                line = line + sep + sep.join(LABEL_FIELDS)
            elif line.startswith("#types" + sep) or line == "#types":
                line = line + sep + sep.join(["string"] * len(LABEL_FIELDS))
            self._stream.write(line + "\n")

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
            label_key, detail_key = LABEL_FIELDS
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
    writer.write_rows(table.records, lambda _: next(pairs))
    writer.finish(table.trailer)


@contextmanager
def replace_all_on_success() -> Iterator[Callable[[Path], IO[str]]]:
    """Write files through temp files beside them, all moved in place on success.

    ``open_output(path)`` opens the temp file of ``path``; the caller closes
    it. A temp name does not end in ``.log``, so a scan for logs skips it. On
    any error every temp file is removed and no ``path`` is touched; a crash
    between two renames can still leave some outputs new and others old.
    """
    moves: list[tuple[Path, Path]] = []

    def open_output(path: Path) -> IO[str]:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        moves.append((tmp, path))
        return open(tmp, "w", encoding="utf-8")

    try:
        yield open_output
        for tmp, path in moves:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)
        raise


def row_field(record: list[str] | dict, header: ZeekHeader, name: str) -> str | None:
    """A single field of a record as verbatim text, or None when unset/absent."""
    if isinstance(record, dict):
        value = record.get(name)
        if value is None:
            return None
        text = _json_cell(value, header)
    else:
        idx = header.index_of(name)
        if idx is None:
            return None
        text = record[idx]
    if text == header.unset_field or text == header.empty_field or text == "":
        return None
    return text


def row_set_field(record: list[str] | dict, header: ZeekHeader, name: str) -> list[str]:
    """A set/vector field of a record as a list of member strings (empty when unset)."""
    if isinstance(record, dict):
        value = record.get(name)
        if value is None:
            return []
        if isinstance(value, list):
            return [_json_scalar(v) for v in value]
        text = _json_scalar(value)
        if text in (header.unset_field, header.empty_field, ""):
            return []
        return [text]
    cell = row_field(record, header, name)
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
    get = field_getter(header, fmt, name)
    if fmt == "json":

        def members(obj):
            value = obj.get(name)
            if type(value) is list:
                return [_json_scalar(v) for v in value]
            text = get(obj)
            return [] if text is None else [text]

        return members
    set_sep = header.set_separator

    def split(cells):
        text = get(cells)
        return [] if text is None else text.split(set_sep)

    return split


def _to_float(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _to_int(text: str) -> int | None:
    # int() first keeps counters past 2**53 exact; int(float()) takes "80.0" and "1e3"
    try:
        return int(text)
    except ValueError:
        try:
            return int(float(text))
        except (ValueError, OverflowError):
            return None


def _address(text: str) -> str | None:
    # IPv4 text is kept as written: ipaddress accepts only the canonical
    # dotted quad, so no other spelling can equal a rule's address anyway
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


class Flow(dict):
    """One conn.log record as a memo of its rule-column values.

    ``value(column)`` (or ``flow[column]``) reads a rule column's typed value
    through its schema's per-header reader on first use and keeps it, so each
    column is converted at most once per row however many conditions test it.
    None means unset: the cell is unset or absent or does not parse as its
    type. Packets/Bytes count unset halves as 0, so a partially logged flow
    still has a volume. Date is the UTC date of ``start``. Proto and State are
    lowercased, IPs are address text in canonical form.
    """

    __slots__ = ("_record", "_schema")

    def __init__(self, record: list[str] | dict, schema: "ConnSchema") -> None:
        self._record = record
        self._schema = schema

    def __missing__(self, column: str):
        value = self[column] = self._schema.readers[column](self._record)
        return value

    value = dict.__getitem__


class ConnSchema:
    """The rule columns of one conn.log layout, each resolved once to a reader.

    ``readers[column]`` maps a record of ``header`` and ``fmt`` to the column's
    typed value: the field's text from :func:`field_getter`, converted. So a
    JSON value reads as the text Zeek's TSV writer prints for it.
    """

    def __init__(self, header: ZeekHeader, fmt: str) -> None:
        def read(name: str, convert: Callable) -> Callable:
            get = field_getter(header, fmt, name)
            return lambda record: None if (text := get(record)) is None else convert(text)

        def total(orig: str, resp: str) -> Callable:
            orig_of, resp_of = read(orig, _to_int), read(resp, _to_int)
            return lambda record: (orig_of(record) or 0) + (resp_of(record) or 0)

        start = read("ts", _to_float)
        self.readers: dict[str, Callable[[list[str] | dict], object]] = {
            "Date": lambda record: _utc_date(start(record)),
            "start": start,
            "Duration": read("duration", _to_float),
            "Proto": read("proto", str.lower),
            "srcIP": read("id.orig_h", _address),
            "srcPort": read("id.orig_p", _to_int),
            "dstIP": read("id.resp_h", _address),
            "dstPort": read("id.resp_p", _to_int),
            "State": read("conn_state", str.lower),
            "Tos": read("tos", _to_int),
            "Packets": total("orig_pkts", "resp_pkts"),
            "Bytes": total("orig_bytes", "resp_bytes"),
        }

    def view(self, record: list[str] | dict) -> Flow:
        return Flow(record, self)
