"""Reading and writing Zeek logs without disturbing them.

Both on-disk shapes are supported: classic tab-separated logs with their
``#``-directive header block, and JSON-lines logs (one object per line).
TSV is treated as the canonical form; headers and data cells are kept
verbatim so a labeled file is byte-identical to its input apart from the
two label columns, appended or, in a relabeled log, rewritten, with two
limits: logs are read with universal newlines, so a CRLF log's copy has LF
line ends and a lone ``\r`` in a TSV cell ends its line (the row then fails
its field count). A JSON-lines object is written as its own text with the
two label keys spliced in before its closing brace; only an object that
already has a label key is encoded anew, compactly, with those keys
overwritten in place. A second ``#separator`` block, as ``cat`` makes of
two logs, is refused rather than read as header or kept as trailer.

Records are read, looked up and written a block at a time, so the work per
row runs inside ``map``: :meth:`ZeekLogReader.blocks` reads ``BLOCK_BYTES`` of
text at a time into a list of TSV data lines without their ``\n``, checked
for their field count, or of the objects the decoder built from JSON lines,
whose exact texts and line numbers the reader holds in ``texts`` until the
next block. Every stream is read with surrogate escapes (:func:`surrogate_escaped`),
so a byte that is not UTF-8 is found as a lone surrogate in the text, in a file
or a pipe alike; a ``str`` stream that holds a lone surrogate is refused at that
line too. A block ends before a bad row, a ``#`` line or such a byte, whose
error (or the trailer) comes with the next block, so the first error in the
input is the one reported, whatever the block size. :func:`json_lines`
reads the JSON lines that a block cannot take whole, and ``eval``'s
detections. :func:`cells_getter` reads columns of a block, :func:`first_getter`
the first of several columns a record has (or a set's members), and
:func:`field_getter` one record's column, each resolved once per header and
splitting a line only as far as its columns lie;
:func:`write_labeled` writes each block in one call, each line as it was read.

A pipeline reads a log in two processes through one contract (``label``'s
conn.log, ``eval``'s labeled conn.log and ``propagate``'s uid index):
``in_halves(command, path, function, *args)`` calls ``function(*args, reader,
halves)``. ``halves(half, join, out=None, send=None)`` is ``half(out)`` in one
process. Where :func:`can_fork` holds, it is ``join(mine, theirs)``: ``mine``
is ``half`` run here over the lines before the first newline past the middle
of the file, and ``theirs`` is ``half`` run over the rest in a forked child
(with ``send``, an iterator loading ``send(theirs)``'s items as they come),
whose writes to ``out`` go to a part file appended to ``out`` afterwards. A
half returns only its own result: once ``halves`` returns, the reader's header
is the one a single process would hold. An error that ``halves`` raises (also
for a trailer or header that reaches the split), or that is raised before it
is called, drops what was logged, and ``function`` runs again in one process,
so the first error in the file is the one reported. A child that ends without
a result, and an error raised after ``halves`` returned, are final.
"""

from __future__ import annotations

import errno
import io
import json
import logging
import os
import threading
from collections import Counter
from contextlib import contextmanager
from itertools import chain, islice, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import LogFormatError, UsageError
from .values import Value

logger = logging.getLogger(__name__)

UNSET_DEFAULT = "-"
EMPTY_DEFAULT = "(empty)"
LABEL_FIELDS = ("label", "detailed_label")
# text a reader reads for one block of records, which a writer writes in one call
BLOCK_BYTES = 1 << 15


class ZeekHeader(Value):
    """Parsed header metadata plus the raw directive lines for round-trips."""

    def __init__(self, separator: str = "\t", set_separator: str = ",", empty_field: str = EMPTY_DEFAULT,
                 unset_field: str = UNSET_DEFAULT, path: str | None = None, fields: list[str] | None = None,
                 types: list[str] | None = None, preamble: list[str] | None = None) -> None:
        self._set(separator=separator, set_separator=set_separator, empty_field=empty_field, unset_field=unset_field,
                  path=path, fields=[] if fields is None else fields, types=types,
                  preamble=[] if preamble is None else preamble)

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


# raw_decode's scanner, called with no Python frame of its own: StopIteration where nothing parses
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


class ZeekLogTable(Value):
    """A whole log held in memory: a list of cells per TSV line, the object per JSON line.

    ``format`` is ``"tsv"`` or ``"json"``; ``texts`` holds each JSON object's exact text and line number.
    """

    def __init__(self, header: ZeekHeader, records: list[list[str] | dict], trailer: list[str], format: str,
                 source: str = "<log>", texts: list[tuple[str, int]] | None = None) -> None:
        self._set(header=header, records=records, trailer=trailer, format=format, source=source,
                  texts=[] if texts is None else texts)

    def __len__(self) -> int:
        return len(self.records)

    def iter_rows(self) -> Iterator[str | dict]:
        """The records one at a time, as :meth:`ZeekLogReader.blocks` yields them."""
        if self.format == "tsv":
            return map(self.header.separator.join, self.records)
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
    if isinstance(value, list):
        if not value:
            return header.empty_field
        return header.set_separator.join(_json_scalar(v) for v in value)
    return _json_scalar(value)


def surrogate_escaped(stream: IO[str]) -> IO[str]:
    """``stream``, set before its first read to decode a byte that is not UTF-8 as a lone surrogate (U+DC80-U+DCFF),
    which no valid UTF-8 decodes to, for :func:`_surrogate_at` to find; a stream of ``str`` is read as it is. A
    text stream that was read from already raises :class:`io.UnsupportedOperation`."""
    if hasattr(stream, "reconfigure"):
        stream.reconfigure(errors="surrogateescape")
    return stream


def _surrogate_at(text: str) -> int | None:
    """Where ``text`` holds its first lone surrogate, a byte :func:`surrogate_escaped` read that is not UTF-8: the one
    UTF-8 test of text already read. A surrogate is past U+00FF, so only text that latin-1 cannot encode is scanned."""
    try:  # isascii() is O(1), and latin-1 copies the bytes of text below U+0100 where UTF-8 converts each one
        text.isascii() or text.encode("latin-1")
    except UnicodeEncodeError:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            return exc.start
    return None


def json_lines(lines: Iterable[str], source: str, expected: str,
               lines_read: int = 0) -> Iterator[tuple[dict, str, int]]:
    """``(object, text, lineno)`` of each of ``lines`` that is not blank: the line parsed as :func:`json.loads`
    parses it, the exact text of its object, and its number counted on from ``lines_read``. A line that holds a lone
    surrogate (a byte that is not UTF-8, :func:`_surrogate_at`), is not JSON, is nested too deeply or is not
    ``expected`` (an object) is a :class:`LogFormatError`."""
    for lineno, line in enumerate(lines, lines_read + 1):
        if line[:1] != "{" and not line.strip():
            continue
        if _surrogate_at(line) is not None:
            raise LogFormatError(f"{source}: line {lineno}: not valid UTF-8")
        start = 0 if line[:1] == "{" else len(line) - len(line.lstrip(_JSON_SPACE))
        try:
            obj, end = _scan_json(line, start)
            if line[end:].strip(_JSON_SPACE):
                raise ValueError
        except (StopIteration, ValueError):
            raise LogFormatError(f"{source}: line {lineno}: invalid JSON") from None
        except RecursionError:
            raise LogFormatError(f"{source}: line {lineno}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise LogFormatError(f"{source}: line {lineno}: expected {expected}")
        yield obj, line[start:end], lineno


def _scanned(texts: list[str]) -> list[dict] | None:
    """The objects of ``texts``, each one object as :func:`json_lines` parses it, with no Python frame per text;
    None if any is not."""
    try:
        parsed = list(map(_scan_json, texts, repeat(0)))  # ends early, at a text where nothing parses (StopIteration)
    except (ValueError, RecursionError):
        return None
    objs, ends = list(map(itemgetter(0), parsed)), list(map(itemgetter(1), parsed))
    return objs if ends == list(map(len, texts)) and set(map(type, objs)) == {dict} else None


class ZeekLogReader:
    """Streaming reader; header is available right after construction.

    For JSON-lines input the field list starts from the first object's keys
    and grows as later objects introduce new ones.
    """

    def __init__(self, stream: IO[str], source: str = "<log>") -> None:
        self._stream = surrogate_escaped(stream)
        self.source = source
        self.header = ZeekHeader()
        self.trailer: list[str] = []
        self.format = ""
        self.texts: list[tuple[str, int]] = []  # each JSON object's text and line number, of the last block
        self._pending: str | None = None
        self._lineno = 0
        self._read_preamble()

    def _next_line(self) -> str | None:
        line = next(self._stream, "")
        if line == "":
            return None
        self._lineno += 1
        if _surrogate_at(line) is not None:
            raise LogFormatError(f"{self.source}: line {self._lineno}: not valid UTF-8")
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
            first = json_lines([line], self.source, "a JSON object", self._lineno - 1)
            self.header.fields = list(next(first)[0])
            return
        if not line.startswith("#separator"):
            raise LogFormatError(
                f"{self.source}: not a Zeek log (expected '#separator' or a JSON object on the first line)")
        self.format = "tsv"
        h = self.header
        # a log with no rows has its #close right after the header: a trailer line
        while line is not None and line.startswith("#") and not line.startswith("#close"):
            if h.fields and line.startswith("#separator"):
                break  # a second header block (an unclosed empty log joined by cat): _tsv_blocks refuses it
            h.preamble.append(line)
            if line.startswith("#separator "):
                text = line[len("#separator ") :]
                sep = _unescape_separator(text)
                if sep is None:
                    raise LogFormatError(f"{self.source}: line {self._lineno}: invalid #separator {text!r}")
                h.separator = sep
            else:
                name, *values = line.split(h.separator)
                if name in ("#set_separator", "#empty_field", "#unset_field", "#path") and values:
                    setattr(h, name[1:], values[0])
                elif name == "#fields":
                    h.fields = values
                    for column, count in Counter(h.fields).items():
                        if count > 1:
                            logger.warning("%s: column %r appears %d times in #fields; reading the last",
                                           self.source, column, count)
                elif name == "#types":
                    h.types = values
            line = self._next_line()
        if not h.fields:
            raise LogFormatError(f"{self.source}: missing #fields line")
        if h.types is not None and len(h.types) != len(h.fields):
            raise LogFormatError(f"{self.source}: #fields and #types disagree ({len(h.fields)} vs {len(h.types)})")
        self._pending = line

    def follow(self, stream: IO[str]) -> None:
        """Read ``stream``'s lines as this log's next records, with no directive lines to write before them."""
        self._stream, self.trailer, self.header.preamble = surrogate_escaped(stream), [], []
        self._pending = self._next_line()

    def _texts(self, first: str) -> Iterator[str]:
        """Whole lines, each ending in ``\n``: ``first``, the line last read, with the stream's next text, then its
        next ``BLOCK_BYTES`` of text at a time; at a byte that is not UTF-8 (:func:`_surrogate_at`), the whole lines
        before it, then its error."""
        text, lines_read = first + "\n", self._lineno - 1  # what is not yet yielded, and the lines before it
        while True:
            more = self._stream.read(BLOCK_BYTES)
            text += more
            if not more and text[-1:] not in ("", "\n"):  # the file's last line has no line end
                text += "\n"
            cut = text.rfind("\n") + 1
            whole, text = text[:cut], text[cut:]
            if (at := _surrogate_at(whole)) is not None:
                whole = whole[: whole.rfind("\n", 0, at) + 1]
            if whole:
                yield whole
            lines_read += whole.count("\n")
            if at is not None:
                raise LogFormatError(f"{self.source}: line {lines_read + 1}: not valid UTF-8")
            if not more:
                return

    def blocks(self) -> Iterator[list[str] | list[dict]]:
        """The data rows a block at a time: lists of TSV lines without their ``\n``, or of JSON lines' objects.

        A TSV line has as many fields as the header, so :func:`cells_getter`
        may split it only partly. Until the next block, ``texts`` holds the
        exact text and line number of each JSON object. A block ends before a
        bad row, a ``#`` line or a non-UTF-8 byte, whose error (or the trailer)
        comes when the next block is asked for.
        """
        line, self._pending = self._pending, None
        return iter(()) if line is None else (self._tsv_blocks if self.format == "tsv" else self._json_blocks)(line)

    def _tsv_blocks(self, first: str) -> Iterator[list[str]]:
        sep = self.header.separator
        n_fields = len(self.header.fields)
        n_seps = n_fields - 1
        lines_before = self._lineno - 1  # before the first line; rows and trailer lines count the rest
        rowno = 0
        trailer = self.trailer
        for text in self._texts(first):
            rows = text[:-1].split("\n")
            if not trailer:
                # a "#" line ends the rows: a trailer, or a second header that the trailer refuses
                at = text.find("#")
                while at > 0 and text[at - 1] != "\n":  # a "#" in a cell
                    at = text.find("#", at + 1)
                end = len(rows) if at < 0 else text.count("\n", 0, at)
                block = rows[:end]
                counts = list(map(str.count, block, repeat(sep)))
                if counts.count(n_seps) != len(counts):
                    bad = next(k for k, count in enumerate(counts) if count != n_seps)
                    if bad:
                        yield block[:bad]
                    raise LogFormatError(f"{self.source}: row {rowno + bad + 1}: expected {n_fields} fields, "
                                         f"got {counts[bad] + 1}")
                if block:
                    yield block
                rowno += len(block)
                rows = rows[end:]
            # footer directives (#close); everything after is kept verbatim,
            # but a second header block (logs joined by cat) would go unread
            for line in rows:
                if line.startswith("#separator"):
                    raise LogFormatError(
                        f"{self.source}: line {lines_before + rowno + len(trailer) + 1}: a second "
                        "header block starts here; split concatenated logs into one file each"
                    )
                trailer.append(line)

    def _json_blocks(self, first: str) -> Iterator[list[dict]]:
        fields = self.header.fields
        known = set(fields)
        lines_read = self._lineno - 1
        for text in self._texts(first):
            lines = text[:-1].split("\n")
            texts = list(map(str.strip, lines, repeat(_JSON_SPACE)))
            block, error = _scanned(texts), None
            if block is not None:
                self.texts = list(zip(texts, range(lines_read + 1, lines_read + 1 + len(lines))))
            else:  # a blank line, or one that is not one object: json_lines reads them, to the first error
                parsed = []
                try:
                    parsed.extend(json_lines(lines, self.source, "a JSON object", lines_read=lines_read))
                except LogFormatError as raised:
                    error = raised
                block = list(map(itemgetter(0), parsed))
                self.texts = list(map(itemgetter(1, 2), parsed))
            if not known.issuperset(chain.from_iterable(block)):  # keys first met in this block join the fields
                fresh = [key for key in dict.fromkeys(chain.from_iterable(block)) if key not in known]
                fields += fresh
                known.update(fresh)
            if block:
                yield block
            if error is not None:
                raise error
            lines_read += len(lines)


def read_log(stream: IO[str], source: str = "<log>") -> ZeekLogTable:
    """Read a whole log into a table: a list of verbatim cells per TSV line.

    A JSON-lines record is the line's object as parsed; its text and line
    number go to ``texts``. For JSON lines the header's fields are the union
    of keys in first-appearance order; a key an object lacks reads as unset
    through :func:`row_field`.
    """
    reader = ZeekLogReader(stream, source)
    table = ZeekLogTable(reader.header, [], reader.trailer, reader.format, source)
    for block in reader.blocks():
        if reader.format == "tsv":
            table.records += map(str.split, block, repeat(reader.header.separator))
        else:
            table.records += block
            table.texts += reader.texts
    return table


_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False).encode


def _relabeled_json(obj: dict, pair: tuple[str, str], source: str, lineno: int) -> str:
    """``obj`` encoded anew with its label keys set to ``pair``, as strict UTF-8 JSON."""
    label_key, detail_key = LABEL_FIELDS
    try:
        text = _encode_json({**obj, label_key: pair[0], detail_key: pair[1]})
    except ValueError:
        problem = "a number out of JSON's range"
    else:
        if _surrogate_at(text) is None:
            return text
        problem = "an unpaired surrogate escape"
    raise LogFormatError(f"{source}: line {lineno}: cannot relabel an object holding {problem}")


def write_labeled(
    stream: IO[str],
    log: ZeekLogReader | ZeekLogTable,
    blocks: Iterable[list[str] | list[dict]],
    pairs_of: Callable[[list[str] | list[dict]], list[tuple[str, str]]],
) -> Counter[tuple[str, str]]:
    """Write ``log`` with the label pairs ``pairs_of(block)`` of each block's records.

    ``blocks`` are what :meth:`ZeekLogReader.blocks` yields for ``log`` (a
    table's records are one block, whose ``texts`` are the table's). A TSV
    log's directive lines are copied verbatim, with the label columns it
    lacks appended to ``#fields`` and ``#types``. Each block is written in
    one call, each record with its pair's tail, made once per pair: a TSV
    line gets the cells of those columns appended (a label holding a tab,
    ``\n``, ``\r`` or the separator is a :class:`LogFormatError`); only a line
    of a log that has a label column already (a relabeled log) is split, to
    take the new value in place. A JSON object is its own text, from the
    reader's ``texts``, with the label keys put before its closing brace; one
    that has a label key already is encoded anew, compactly, with its label
    keys overwritten, and a :class:`LogFormatError` if it holds a value JSON or
    UTF-8 cannot carry. The trailer is written last, as a reader fills it only
    once its records are read. Returns how many rows got each pair.
    """
    header = log.header
    write = stream.write
    counts: Counter[tuple[str, str]] = Counter()
    tails: dict[tuple[str, str], str] = {}
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
        def tail_of(pair: tuple[str, str]) -> str:  # once per pair: no label may split its row or line
            for text in pair:
                if any(char in text for char in (sep, "\t", "\n", "\r")):
                    raise LogFormatError(f"{log.source}: label {text!r} holds a tab, a line break or the separator")
            return "".join(sep + pair[k] for k in added) + "\n"
        def row(line: str, pair: tuple[str, str], tail: str) -> str:
            cells = line.split(sep)
            for i, k in present:
                cells[i] = pair[k]
            return sep.join(cells) + tail

        def lines_of(block: list[str], pairs: list, tails: Iterator[str]) -> Iterator[str]:
            return map(row, block, pairs, tails) if present else map(add, block, tails)
    else:
        label_key, detail_key = LABEL_FIELDS
        # ',"label":…,"detailed_label":…}\n', what takes an object's closing brace
        tail_of = lambda pair: "," + _encode_json(dict(zip(LABEL_FIELDS, pair)))[1:] + "\n"  # noqa: E731

        def row(obj: dict, pair: tuple[str, str], tail: str, held: tuple[str, int]) -> str:
            if label_key in obj or detail_key in obj:
                return _relabeled_json(obj, pair, log.source, held[1]) + "\n"
            return held[0][:-1] + (tail if obj else tail[1:])

        def lines_of(block: list[dict], pairs: list, tails: Iterator[str]) -> Iterator[str]:
            return map(row, block, pairs, tails, log.texts)  # the reader's texts until its next block

    for block in blocks:
        pairs = pairs_of(block)
        counts.update(pairs)
        for pair in islice(counts, len(tails), None):  # the pairs first seen in this block, in order
            tails[pair] = tail_of(pair)
        write("".join(lines_of(block, pairs, map(tails.__getitem__, pairs))))
    write("".join(line + "\n" for line in log.trailer))
    return counts


def write_log(table: ZeekLogTable, labels: list[tuple[str, str]], stream: IO[str]) -> None:
    """Write a table with one (label, detailed_label) pair per record: its records as one block."""
    if len(labels) != len(table.records):
        raise UsageError(f"{len(labels)} label pairs for {len(table.records)} records")
    write_labeled(stream, table, [list(table.iter_rows())], lambda block: labels)


@contextmanager
def replace_all_on_success() -> Iterator[Callable[[Path], IO[str]]]:
    """Write files through temp files beside them, all moved in place on success.

    ``open_output(path)`` opens the temp file of ``path``, ``.<name>.<pid>.tmp`` with the pid of the process that
    entered this context, and refuses a ``path`` that is a directory, or a FIFO, device or socket; the caller closes
    it. So a forked child's ``open_output`` writes the temp file that its parent, having opened it first, moves on
    success or removes on failure. A temp name does not end in ``.log``, so a scan for logs skips it. On any error
    every temp file is removed and no ``path`` is touched; a crash between two renames can still leave some outputs
    new and others old.
    """
    moves: dict[Path, Path] = {}  # temp file -> output; a file opened twice is moved once
    pid = os.getpid()

    def open_output(path: Path) -> IO[str]:
        if path.is_dir():  # the final rename would fail, after other outputs moved
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not path.is_file():  # a FIFO, device or socket: the rename would replace the node
            raise OSError(f"{path}: not a regular file; refusing to replace it with the output")
        tmp = path.with_name(f".{path.name}.{pid}.tmp")
        try:
            out = open(tmp, "w", encoding="utf-8")
        except OSError as exc:
            exc.filename = str(path)  # the output asked for, not its temp name
            raise
        moves[tmp] = path
        return out

    try:
        yield open_output
        for tmp, path in moves.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in moves:
            tmp.unlink(missing_ok=True)
        raise


def labeled_name(name: str) -> str:
    """The name of the labeled copy of the log named ``name``: ``<stem>.labeled.log``, or ``name.labeled``."""
    return name[: -len(".log")] + ".labeled.log" if name.endswith(".log") else name + ".labeled"


FORK_MIN_BYTES = 768 << 10  # input bytes from which label, propagate and eval may use a second process
_HELD_LOGGERS = tuple(logging.getLogger(f"zeeklabel.{name}") for name in ("labeler", "metrics", "propagate", "zeekio"))


def can_fork(nbytes: int) -> bool:
    """FORK_MIN_BYTES in ``nbytes``, one thread (a fork copies no other), ``os.fork`` and two CPUs to run on."""
    return (nbytes >= FORK_MIN_BYTES and threading.active_count() == 1 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def held_back(function: Callable, *args) -> tuple[list[tuple[int, str, str]], object, Exception | None]:
    """``function(*args)``'s log records, as (level, logger name, message), then its result or its error."""
    records: list[tuple[int, str, str]] = []
    hold = lambda record: records.append((record.levelno, record.name, record.getMessage()))  # noqa: E731
    for held in _HELD_LOGGERS:
        held.addFilter(hold)  # returns None, so the record goes no further
    try:
        return records, function(*args), None
    except Exception as exc:
        return records, None, exc
    finally:
        for held in _HELD_LOGGERS:
            held.removeFilter(hold)


def release(records: list[tuple[int, str, str]], result: object = None, error: Exception | None = None) -> object:
    """What :func:`held_back` held: log ``records``, then raise ``error`` or return ``result``."""
    for level, name, message in records:
        logging.getLogger(name).log(level, message)
    if error is not None:
        raise error
    return result


def in_two_processes(command: str, theirs: Callable, mine: Callable, take: Callable) -> object:
    """``theirs()`` in a forked child and ``mine()`` here, at once, then ``take(items, mine())`` here: ``items``
    loads each item that ``theirs()`` yields, never None, as the child pickles it into the pipe. This process waits
    for the child also when it raises; a child that ends before its last item is a :class:`ChildProcessError`. The
    child shares this process's open files and, through :func:`replace_all_on_success`, its temp file names."""
    import pickle  # only where a child starts
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe_in, open(write_end, "wb") as pipe_out:
        pid = os.fork()
        if pid == 0:  # the child sends its items, then None, and exits without unwinding the parent's state
            try:
                for item in chain(theirs(), [None]):
                    pickle.dump(item, pipe_out)
                pipe_out.flush()
                os._exit(0)
            finally:
                os._exit(1)
        pipe_out.close()
        try:
            return take(iter(lambda: pickle.load(pipe_in), None), mine())
        finally:
            pipe_in.read()  # what take left, so that the child can end
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status:  # also over what take raised when the pipe ended early
                raise ChildProcessError(f"{command}: the second process (pid {pid}) ended without a result "
                                        f"(status {status})")


class _Head(io.FileIO):
    """A file's bytes up to ``stop``, for a text stream to read by lines."""

    def __init__(self, path: str | Path, stop: int) -> None:
        super().__init__(str(path))  # an error names it as open() does
        self.stop = stop

    def readinto(self, buffer) -> int:
        return super().readinto(memoryview(buffer)[: self.stop - self.tell()])


class _OneProcess(Exception):
    """A trailer began before the split, or this process read no rows: one process reads the log."""


def in_halves(command: str, path: str | Path, function: Callable, *args, cost: float = 1) -> object:
    """``function(*args, reader, halves)``, ``reader`` reading the log at ``path``, ``halves`` as the module
    docstring states; :func:`can_fork` weighs the log's bytes by ``cost``, its work per byte against label's."""
    joined = []

    def run(split: int | None) -> object:
        def halves(half: Callable, join: Callable, out: IO[str] | None = None, send: Callable | None = None):
            if split is None:
                return half(out)
            if reader._pending is None:  # the header reaches the split: known before a child would read the rest
                raise _OneProcess()
            # the child writes into a part file, open here and in the child and on no path; with no out, nowhere
            with open(out.name + ".part" if out else os.devnull, "w+b") as part:
                if out:
                    Path(part.name).unlink()

                def past_split() -> object:
                    with open(path, encoding="utf-8") as rest, open(part.fileno(), "w", encoding="utf-8") as to:
                        rest.buffer.seek(split)  # before any read: a descriptor and offset of its own
                        reader.follow(rest)
                        return half(out and to)

                def theirs() -> Iterator:  # in the child: its messages, error and fields, then its result's items
                    records, result, error = held_back(past_split)
                    yield records, error, reader.header.fields
                    yield from [] if error else send(result) if send else [result]

                def take(items: Iterator, own: object) -> object:
                    records, error, fields = next(items)
                    if error is not None or reader.trailer:
                        raise error or _OneProcess()
                    if out:
                        out.flush()
                        part.seek(0)
                        out.buffer.writelines(iter(lambda: part.read(1 << 16), b""))
                    release(records)
                    joined.append(True)  # from here on an error is final
                    # one process's header: the keys first met past the split follow this half's
                    reader.header.fields += [name for name in fields if name not in reader.header.fields]
                    return join(own, items if send else next(items))

                return in_two_processes(command, theirs, lambda: half(out), take)

        # the whole log through open() itself: _Head's readinto, in Python, made a one-process eval about 1% slower
        src = (open(path, encoding="utf-8") if split is None
               else io.TextIOWrapper(io.BufferedReader(_Head(path, split)), encoding="utf-8"))  # as open(path) reads
        with src:
            reader = ZeekLogReader(src, str(path))
            return function(*args, reader, halves)

    if can_fork(cost * (size := Path(path).stat().st_size)):
        with open(path, "rb") as raw:
            split = raw.seek(size // 2) + len(raw.readline())  # where the line after the middle begins
        records, result, error = held_back(run, split)
        if error is None or joined or isinstance(error, ChildProcessError):
            return release(records, result, error)
    return run(None)


def row_field(record: list[str] | str | dict, header: ZeekHeader, name: str) -> str | None:
    """:func:`field_getter` of one record: a streamed one, or a table's list of cells."""
    if isinstance(record, list):
        record = header.separator.join(record)
    return field_getter(header, "tsv" if isinstance(record, str) else "json", name)(record)


def row_set_field(record: list[str] | str | dict, header: ZeekHeader, name: str) -> list[str]:
    """The members of set column ``name`` in one record, as :func:`first_getter` reads them; [] where it is absent."""
    if isinstance(record, list):
        record = header.separator.join(record)
    return first_getter(header, "tsv" if isinstance(record, str) else "json", (name,), members=True)([record])[0] or []


def _projection(header: ZeekHeader, indexes: list[int]) -> tuple[Callable, int, list[int]]:
    """``(split, maxsplit, at)``: ``split(line, sep, maxsplit)[at]`` are the cells at ``indexes``.

    It splits from the end when that is shorter; a separator of more than one
    character might overlap itself, so only from the start.
    """
    n = len(header.fields)
    if max(indexes) + 1 <= n - min(indexes) or len(header.separator) > 1:
        return str.split, max(indexes) + 1, indexes
    return str.rsplit, n - min(indexes), [i - n for i in indexes]


def nulls(header: ZeekHeader) -> frozenset:
    """What reads as unset: None, the header's unset and empty texts, and the empty string."""
    return frozenset((None, header.unset_field, header.empty_field, ""))


def field_getter(header: ZeekHeader, fmt: str, name: str) -> Callable[[str | dict], str | None]:
    """One column's text in a record, resolved once; None when unset, empty or absent.

    The records are those of the blocks :meth:`ZeekLogReader.blocks` yields for ``fmt``.
    """
    null = nulls(header)
    if fmt == "json":

        def get(obj):
            value = obj.get(name)
            if value is None:
                return None
            text = value if type(value) is str else _json_cell(value, header)
            return None if text in null else text

        return get
    if header.index_of(name) is None:
        return lambda line: None
    cells = cells_getter(header, fmt, (name,))
    return lambda line: None if (text := cells([line])[0]) in null else text


def cells_getter(header: ZeekHeader, fmt: str, names: tuple[str, ...]) -> Callable[[list], list]:
    """Columns ``names`` of each record of a block, resolved once: a list of one name's cells, or of
    several names' tuples. A TSV line's cells are verbatim, split only as far as they lie, else they
    are :func:`field_getter`'s values; so any of :func:`nulls` reads as unset."""
    indexes = [header.index_of(name) for name in names]
    if fmt == "json" or None in indexes:
        getters = [field_getter(header, fmt, name) for name in names]
        if len(getters) == 1:
            return lambda block: list(map(getters[0], block))
        return lambda block: list(zip(*[map(get, block) for get in getters]))
    split, maxsplit, at = _projection(header, indexes)
    sep, get = header.separator, itemgetter(*at)
    return lambda block: list(map(get, map(split, block, repeat(sep), repeat(maxsplit))))


def first_getter(header: ZeekHeader, fmt: str, names: tuple[str, ...], members: bool = False) -> Callable[[list], list]:
    """The first of ``names`` that each record of a block has, resolved once: its cell as :func:`cells_getter`
    reads it, or with ``members`` the set's members ([] when unset or empty); None for a record with none of them.

    A TSV log's records all have its header's columns, so the column is chosen
    once; a JSON object is judged on its own keys, as Zeek's JSON writer omits
    unset fields. A JSON list's members are its values, any other value is one.
    """
    if fmt == "tsv":
        name = next((name for name in names if name in header.fields), None)
        if name is None:
            return lambda block: [None] * len(block)
        cells_of, null, set_sep = cells_getter(header, fmt, (name,)), nulls(header), header.set_separator
        if not members:
            return cells_of
        return lambda block: [[] if text in null else text.split(set_sep) for text in cells_of(block)]
    getters = [(name, field_getter(header, fmt, name)) for name in names]

    def first(obj):
        for name, get in getters:
            if name in obj:
                if not members:
                    return get(obj)
                if type(value := obj[name]) is list:
                    return list(map(_json_scalar, value))
                return [] if (text := get(obj)) is None else [text]
        return None

    return lambda block: list(map(first, block))


def _to_float(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None
