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

A streaming TSV record is its data line without the ``\n``, checked for its
field count; a JSON-lines record is the object the decoder built, and the
reader holds that object's exact ``text`` and ``lineno`` until the next one.
:func:`json_lines` reads every JSON line, of a log or of ``eval``'s
detections. Cells are read through readers resolved once per header
(:func:`field_getter`, :func:`cells_getter`, :func:`set_getter`), which split
a line only as far as the columns they read, and one loop in
:func:`write_labeled` writes a line back as it was read, of either shape.

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
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import LogFormatError, UsageError
from .values import Value

logger = logging.getLogger(__name__)

UNSET_DEFAULT = "-"
EMPTY_DEFAULT = "(empty)"
LABEL_FIELDS = ("label", "detailed_label")


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


_decode_json = json.JSONDecoder().raw_decode
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
        """The records as :meth:`ZeekLogReader.records` yields them, with ``text`` and ``lineno`` kept alike."""
        if self.format == "tsv":
            return map(self.header.separator.join, self.records)
        return self._json_rows()

    def _json_rows(self) -> Iterator[dict]:
        for obj, (self.text, self.lineno) in zip(self.records, self.texts):
            yield obj


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


def undecoded(stream: IO[str], exc: UnicodeDecodeError, lines_read: int, source: str) -> Iterator[str]:
    """The whole lines of ``stream`` past ``lines_read`` and before ``exc``'s bad byte, read again with surrogate
    escapes so that a bad line among them is reported first; then the error naming the byte's line.

    A text stream decodes the chunk that continues the first line not yet
    read, so the byte sits that many newlines into the chunk past that line.
    """
    lineno = lines_read + 1 + (exc.object.count(b"\n", 0, exc.start) if isinstance(exc.object, bytes) else 0)
    if (raw := getattr(stream, "buffer", None)) is not None and raw.seekable():
        end = raw.tell() - len(exc.object) + exc.start  # the bad byte's offset
        raw.seek(0)
        next(islice(raw, lines_read, lines_read), None)
        text = raw.read(max(end - raw.tell(), 0)).decode("utf-8", "surrogateescape")
        yield from (line for line in io.StringIO(text, newline=None) if line[-1:] == "\n")
    raise LogFormatError(f"{source}: line {lineno}: not valid UTF-8")


def json_lines(stream: IO[str], source: str, expected: str, first: Iterable[str] = (),
               lines_read: int = 0) -> Iterator[tuple[dict, str, int]]:
    """``(object, text, lineno)`` of each line of ``first``, then of ``stream``, that is not blank: the line parsed
    as :func:`json.loads` parses it, the exact text of its object, and its number counted on from ``lines_read``.
    A line that is not JSON, nested too deeply or not ``expected`` (an object) is a :class:`LogFormatError`, and
    so is a non-UTF-8 byte once the whole lines before it are read."""
    lines, lineno = chain(first, stream), lines_read
    while True:
        try:
            for lineno, line in enumerate(lines, lineno + 1):
                if line[:1] != "{" and not line.strip():
                    continue
                start = 0 if line[:1] == "{" else len(line) - len(line.lstrip(_JSON_SPACE))
                try:
                    obj, end = _decode_json(line, start)
                    if line[end:].strip(_JSON_SPACE):
                        raise ValueError
                except ValueError:
                    raise LogFormatError(f"{source}: line {lineno}: invalid JSON") from None
                except RecursionError:
                    raise LogFormatError(f"{source}: line {lineno}: JSON nested too deeply") from None
                if not isinstance(obj, dict):
                    raise LogFormatError(f"{source}: line {lineno}: expected {expected}")
                yield obj, line[start:end], lineno
            return
        except UnicodeDecodeError as exc:
            lines = undecoded(stream, exc, lineno, source)


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
            line = next(self._stream, "")
        except UnicodeDecodeError as exc:
            self._stream = undecoded(self._stream, exc, self._lineno, self.source)
            return self._next_line()
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
            first = json_lines(self._stream, self.source, "a JSON object", (line,), self._lineno - 1)
            self.header.fields = list(next(first)[0])
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
            if h.fields and line.startswith("#separator"):
                break  # a second header block (an unclosed empty log joined by cat): _tsv_records refuses it
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
                name, *values = line.split(h.separator)
                if name in ("#set_separator", "#empty_field", "#unset_field", "#path") and values:
                    setattr(h, name[1:], values[0])
                elif name == "#fields":
                    h.fields = values
                    for column, count in Counter(h.fields).items():
                        if count > 1:
                            logger.warning(
                                "%s: column %r appears %d times in #fields; reading the last",
                                self.source, column, count,
                            )
                elif name == "#types":
                    h.types = values
            line = self._next_line()
        if not h.fields:
            raise LogFormatError(f"{self.source}: missing #fields line")
        if h.types is not None and len(h.types) != len(h.fields):
            raise LogFormatError(
                f"{self.source}: #fields and #types disagree "
                f"({len(h.fields)} vs {len(h.types)})"
            )
        self._pending = line

    def follow(self, stream: IO[str]) -> None:
        """Read ``stream``'s lines as this log's next records, with no directive lines to write before them."""
        self._stream, self.trailer, self.header.preamble = stream, [], []
        self._pending = self._next_line()

    def records(self) -> Iterator[str | dict]:
        """The data rows: each TSV line without its ``\n``, the object of each JSON line.

        A TSV line has as many fields as the header, so :func:`cells_getter`
        may split it only partly. Until the next record, ``text`` and
        ``lineno`` are the exact text and the line number of a JSON object.
        """
        if self.format == "tsv":
            return self._tsv_records()
        return self._json_records()

    def _tsv_records(self) -> Iterator[str]:
        line, self._pending = self._pending, None
        if line is None:
            return
        sep = self.header.separator
        n_fields = len(self.header.fields)
        n_seps = n_fields - 1
        trailer = self.trailer
        # lines before the pending one; rows and trailer lines count the rest
        lines_before = self._lineno - 1
        rowno = 0
        lines = chain((line,), self._stream)
        while True:
            try:
                if not trailer:
                    for line in lines:
                        line = line.rstrip("\n")
                        if line[:1] == "#":
                            lines = chain((line,), lines)
                            break
                        rowno += 1
                        if line.count(sep) != n_seps:
                            raise LogFormatError(
                                f"{self.source}: row {rowno}: expected {n_fields} "
                                f"fields, got {line.count(sep) + 1}"
                            )
                        yield line
                    else:
                        return
                # footer directives (#close); everything after is kept verbatim,
                # but a second header block (logs joined by cat) would go unread
                for line in lines:
                    line = line.rstrip("\n")
                    if line.startswith("#separator"):
                        raise LogFormatError(
                            f"{self.source}: line {lines_before + rowno + len(trailer) + 1}: a second "
                            "header block starts here; split concatenated logs into one file each"
                        )
                    trailer.append(line)
                return
            except UnicodeDecodeError as exc:
                lines = undecoded(self._stream, exc, lines_before + rowno + len(trailer), self.source)

    def _json_records(self) -> Iterator[dict]:
        line, self._pending = self._pending, None
        if line is None:
            return
        fields = self.header.fields
        known = set(fields)
        for obj, self.text, self.lineno in json_lines(self._stream, self.source, "a JSON object", (line,),
                                                      self._lineno - 1):
            if not known.issuperset(obj):
                for key in obj:
                    if key not in known:
                        known.add(key)
                        fields.append(key)
            yield obj


def read_log(stream: IO[str], source: str = "<log>") -> ZeekLogTable:
    """Read a whole log into a table: a list of verbatim cells per TSV line.

    A JSON-lines record is the line's object as parsed; its text and line
    number go to ``texts``. For JSON lines the header's fields are the union
    of keys in first-appearance order; a key an object lacks reads as unset
    through :func:`row_field`.
    """
    reader = ZeekLogReader(stream, source)
    table = ZeekLogTable(reader.header, [], reader.trailer, reader.format, source)
    sep = reader.header.separator
    for record in reader.records():
        if reader.format == "tsv":
            record = record.split(sep)
        else:
            table.texts.append((reader.text, reader.lineno))
        table.records.append(record)
    return table


# rows a writer joins into one write; bounds its buffer however long the log
WRITE_CHUNK_ROWS = 256

_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False).encode


def _relabeled_json(obj: dict, pair: tuple[str, str], source: str, lineno: int) -> str:
    """``obj`` encoded anew with its label keys set to ``pair``, as strict UTF-8 JSON."""
    label_key, detail_key = LABEL_FIELDS
    try:
        text = _encode_json({**obj, label_key: pair[0], detail_key: pair[1]})
        if not text.isascii():
            text.encode("utf-8")
    except UnicodeEncodeError:
        problem = "an unpaired surrogate escape"
    except ValueError:
        problem = "a number out of JSON's range"
    else:
        return text
    raise LogFormatError(
        f"{source}: line {lineno}: cannot relabel an object holding {problem}"
    )


def write_labeled(
    stream: IO[str],
    log: ZeekLogReader | ZeekLogTable,
    records: Iterable[str | dict],
    pair_of: Callable[[str | dict], tuple[str, str]],
) -> dict[tuple[str, str], int]:
    """Write ``log`` with the label pair ``pair_of(record)`` of each record.

    ``records`` are what :meth:`ZeekLogReader.records` (or a table's
    ``iter_rows``) yields for ``log``. A TSV log's directive lines are copied
    verbatim, with the label columns it lacks appended to ``#fields`` and
    ``#types``. One loop writes the records, ``WRITE_CHUNK_ROWS`` to a write,
    each with its pair's tail, made once per pair: a TSV line gets the cells of
    those columns appended (a label holding a tab, ``\n``, ``\r`` or the separator
    is a :class:`LogFormatError`); only a line of a log that has a label column
    already (a relabeled log) is split, to take the new value in place. A JSON
    object is its own text with the label keys put before its closing brace;
    one that has a label key already is encoded anew, compactly, with its label
    keys overwritten, and a :class:`LogFormatError` if it holds a value JSON or
    UTF-8 cannot carry. The trailer is written last, as a reader fills it only
    once its records are read. Returns how many rows got each pair.
    """
    header = log.header
    write = stream.write
    counts: dict[tuple[str, str], int] = {}
    tails: dict[tuple[str, str], str] = {}
    buf: list[str] = []
    row = None  # (record, pair, tail) -> the record's output line, where that is more than record + tail
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
        if present:
            def row(line: str, pair: tuple[str, str], tail: str) -> str:
                cells = line.split(sep)
                for i, k in present:
                    cells[i] = pair[k]
                return sep.join(cells) + tail
    else:
        label_key, detail_key = LABEL_FIELDS
        # ',"label":…,"detailed_label":…}\n', what takes an object's closing brace
        tail_of = lambda pair: "," + _encode_json(dict(zip(LABEL_FIELDS, pair)))[1:] + "\n"  # noqa: E731

        def row(obj: dict, pair: tuple[str, str], tail: str) -> str:
            if label_key in obj or detail_key in obj:
                return _relabeled_json(obj, pair, log.source, log.lineno) + "\n"
            return log.text[:-1] + (tail if obj else tail[1:])

    for record in records:
        pair = pair_of(record)
        tail = tails.get(pair)
        if tail is None:
            tail = tails[pair] = tail_of(pair)
            counts[pair] = 0
        counts[pair] += 1
        buf.append(record + tail if row is None else row(record, pair, tail))
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
    write_labeled(stream, table, table.iter_rows(), lambda _: next(pairs))


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


def row_field(record: list[str] | str | dict, header: ZeekHeader, name: str, getter: Callable | None = None):
    """``getter`` (:func:`field_getter` by default) of one record: a streamed one, or a table's list of cells."""
    if isinstance(record, list):
        record = header.separator.join(record)
    return (getter or field_getter)(header, "tsv" if isinstance(record, str) else "json", name)(record)


def row_set_field(record: list[str] | str | dict, header: ZeekHeader, name: str) -> list[str]:
    """:func:`set_getter` of one record: a streamed one, or a table's list of cells."""
    return row_field(record, header, name, set_getter)


def _projection(header: ZeekHeader, indexes: list[int]) -> tuple[Callable, int, list[int]]:
    """``(split, maxsplit, at)``: ``split(line, sep, maxsplit)[at]`` are the cells at ``indexes``.

    It splits from the end when that is shorter; a separator of more than one
    character might overlap itself, so only from the start.
    """
    n = len(header.fields)
    if max(indexes) + 1 <= n - min(indexes) or len(header.separator) > 1:
        return str.split, max(indexes) + 1, indexes
    return str.rsplit, n - min(indexes), [i - n for i in indexes]


def field_getter(header: ZeekHeader, fmt: str, name: str) -> Callable[[str | dict], str | None]:
    """One column's text in a record, resolved once; None when unset, empty or absent.

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
        return lambda line: None
    split, maxsplit, (at,) = _projection(header, [idx])
    sep = header.separator

    def cell(line):
        text = split(line, sep, maxsplit)[at]
        return None if text in null else text

    return cell


def cells_getter(header: ZeekHeader, fmt: str, names: tuple[str, ...]) -> Callable[[str | dict], tuple]:
    """Two or more columns of a record, resolved once: the tuple of a TSV line's verbatim cells,
    split only as far as they lie, else of :func:`field_getter`'s values; so None and the
    header's unset and empty texts read as unset."""
    indexes = [header.index_of(name) for name in names]
    if fmt == "json" or None in indexes:
        getters = [field_getter(header, fmt, name) for name in names]
        return lambda record: tuple([get(record) for get in getters])
    split, maxsplit, at = _projection(header, indexes)
    sep, get = header.separator, itemgetter(*at)
    return lambda line: get(split(line, sep, maxsplit))


def set_getter(header: ZeekHeader, fmt: str, name: str) -> Callable[[str | dict], list[str]]:
    """A set column's members in a record, resolved once; [] when unset, empty or absent."""
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

    def split(line):
        text = get(line)
        return [] if text is None else text.split(set_sep)

    return split


def first_getter(
    header: ZeekHeader, fmt: str, names: tuple[str, ...], getter: Callable = field_getter
) -> Callable[[str | dict], object]:
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
    return lambda line: None


def _to_float(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None
