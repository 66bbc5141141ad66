"""Reading and writing Zeek logs without disturbing them.

Both on-disk shapes are supported: classic tab-separated logs with their
``#``-directive header block, and JSON-lines logs (one object per line).
TSV is treated as the canonical form; headers and data cells are kept
verbatim so a labeled file is byte-identical to its input apart from the
two label columns, appended or, in a relabeled log, rewritten. JSON-lines
rows are re-serialized from the original objects with the two label keys set.

Cells are read through readers resolved once per header (:func:`field_getter`,
:func:`set_getter`).
"""

from __future__ import annotations

import errno
import json
import logging
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import LogFormatError, UsageError

logger = logging.getLogger(__name__)

UNSET_DEFAULT = "-"
EMPTY_DEFAULT = "(empty)"
LABEL_FIELDS = ("label", "detailed_label")


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
        """The position of column ``name``; of a repeated name, the last one.

        Every column reader resolves its name here: an older zeeklabel
        appended a relabeled log's new label columns after the stale ones,
        and ``json.loads`` also keeps a repeated key's last value.
        """
        try:
            return len(self.fields) - 1 - self.fields[::-1].index(name)
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
        # a log with no rows has its #close right after the header: a trailer line
        while line is not None and line.startswith("#") and not line.startswith("#close"):
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
                    for column, count in Counter(h.fields).items():
                        if count > 1:
                            logger.warning(
                                "%s: column %r appears %d times in #fields; reading the last",
                                self.source, column, count,
                            )
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


def write_labeled(
    stream: IO[str],
    log: ZeekLogReader | ZeekLogTable,
    records: Iterable[list[str] | dict],
    pair_of: Callable[[list[str] | dict], tuple[str, str]],
) -> dict[tuple[str, str], int]:
    """Write ``log`` with the label pair ``pair_of(record)`` of each record.

    ``records`` are what :meth:`ZeekLogReader.records` yields for ``log``. A
    TSV log's directive lines are copied verbatim, with the label columns it
    lacks appended to ``#fields`` and ``#types``; a label column it already
    has (a relabeled log) gets the new value in place. A JSON object's label
    keys are overwritten too. The trailer is written last, as a reader fills
    it only once its records are read. Returns how many rows got each pair.
    """
    header = log.header
    write = stream.write
    counts: dict[tuple[str, str], int] = {}
    buf: list[str] = []
    if log.format == "tsv":
        sep = header.separator
        # (cell, pair member) of each label column the log already has
        present = [(i, LABEL_FIELDS.index(name)) for i, name in enumerate(header.fields) if name in LABEL_FIELDS]
        added = [k for k, name in enumerate(LABEL_FIELDS) if name not in header.fields]
        for line in header.preamble:
            if line.startswith("#fields" + sep) or line == "#fields":
                line = sep.join([line, *(LABEL_FIELDS[k] for k in added)])
            elif line.startswith("#types" + sep) or line == "#types":
                line = sep.join([line, *(["string"] * len(added))])
            write(line + "\n")
        join = sep.join
        tails: dict[tuple[str, str], str] = {}
        for cells in records:
            pair = pair_of(cells)
            tail = tails.get(pair)
            if tail is None:
                tail = tails[pair] = "".join(sep + pair[k] for k in added) + "\n"
                counts[pair] = 0
            counts[pair] += 1
            if present:
                cells = cells.copy()
                for i, k in present:
                    cells[i] = pair[k]
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
    write("".join(line + "\n" for line in log.trailer))
    return counts


def write_log(
    table: ZeekLogTable, labels: list[tuple[str, str]], stream: IO[str]
) -> None:
    """Write a table with one (label, detailed_label) pair per record."""
    if len(labels) != len(table.records):
        raise UsageError(
            f"{len(labels)} label pairs for {len(table.records)} records"
        )
    pairs = iter(labels)
    write_labeled(stream, table, table.records, lambda _: next(pairs))


@contextmanager
def replace_all_on_success() -> Iterator[Callable[[Path], IO[str]]]:
    """Write files through temp files beside them, all moved in place on success.

    ``open_output(path)`` opens the temp file of ``path``, and refuses a
    ``path`` that is a directory; the caller closes it. A temp name does not
    end in ``.log``, so a scan for logs skips it. On any error every temp file
    is removed and no ``path`` is touched; a crash between two renames can
    still leave some outputs new and others old.
    """
    moves: list[tuple[Path, Path]] = []

    def open_output(path: Path) -> IO[str]:
        if path.is_dir():  # the final rename would fail, after other outputs moved
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            out = open(tmp, "w", encoding="utf-8")
        except OSError as exc:
            exc.filename = str(path)  # the output asked for, not its temp name
            raise
        moves.append((tmp, path))
        return out

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


def first_getter(
    header: ZeekHeader, fmt: str, names: tuple[str, ...], getter: Callable = field_getter
) -> Callable[[list[str] | dict], object]:
    """``getter`` for the first of ``names`` a record has: a function of a record.

    It returns None for a record with none of ``names``. A TSV log's records
    all have its header's columns, so the column is chosen once; a JSON
    object is judged on its own keys, as Zeek's JSON writer omits unset fields.
    """
    if fmt == "json":
        getters = [(name, getter(header, fmt, name)) for name in names]

        def first(obj):
            for name, get in getters:
                if name in obj:
                    return get(obj)
            return None

        return first
    for name in names:
        if name in header.fields:
            return getter(header, fmt, name)
    return lambda cells: None


def _to_float(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None
