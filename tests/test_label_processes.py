"""``label`` when a forked child labels the conn.log's lines past its middle.

The split falls at the first newline byte at or past the middle of the file.
Its result is used only when both processes labeled rows without an error
and no trailer began before the split; any other run ends as the run in one
process does: the same output, or the same one ``error:`` line, naming a bad
row or line by its number in the whole file, exit 1, no output and no temp or
part file left, and no child left.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from conftest import CONN_FIELDS, CONN_TYPES, conn_log_text, conn_row, zeek_tsv

from zeeklabel import labeler, zeekio
from zeeklabel.cli import main

CONFIG = "Malicious, From_malicious-To_benign:\n    - dstPort=4444\nBenign, From_benign-To_benign:\n    - Proto=tcp\n"
HEADER_LINES = 8  # conftest.zeek_tsv's directive lines before the first row
ROWS = 200


def _rows(n: int = ROWS) -> list[list[str]]:
    return [conn_row(uid=f"C{i:05d}", **{"id.resp_p": "4444" if i % 7 == 0 else "443"}) for i in range(n)]


def _first_row_of_the_child(data: bytes) -> int:
    """The number of the first row past the split, for a log of ``HEADER_LINES`` directive lines then rows."""
    split = data.index(b"\n", len(data) // 2) + 1
    return data[:split].count(b"\n") - HEADER_LINES + 1


def _spoil(data: bytes, row: int, old: bytes, new: bytes) -> bytes:
    """``data`` with the first ``old`` of row ``row`` (1-based) turned into ``new`` of the same length."""
    lines = data.split(b"\n")
    line = HEADER_LINES + row - 1
    assert old in lines[line] and len(old) == len(new)
    lines[line] = lines[line].replace(old, new, 1)
    return b"\n".join(lines)


def _case(tmp_path, data: bytes):
    conn = tmp_path / "conn.log"
    conn.write_bytes(data)
    (tmp_path / "r.conf").write_text(CONFIG)
    return conn, ["label", str(conn), "--config", str(tmp_path / "r.conf")]


@pytest.fixture
def labeled_by(monkeypatch, tmp_path):
    """Which processes wrote labeled rows: "parent", "child" or both, in a file, as the child's memory is its own."""
    record = tmp_path.parent / f"{tmp_path.name}-writers.txt"
    write_labeled = labeler.write_labeled

    def recorded(dst, log, records, pair_of):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return write_labeled(dst, log, records, pair_of)

    monkeypatch.setattr(labeler, "write_labeled", recorded)
    return lambda: ["parent" if int(pid) == os.getpid() else "child" for pid in record.read_text().split()]


def _one_error_line(err: str) -> str:
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


def _assert_clean(directory) -> None:
    assert sorted(p.name for p in directory.iterdir()) == ["conn.log", "r.conf"]
    with pytest.raises(ChildProcessError):  # no child left, neither running nor a zombie
        os.waitpid(-1, os.WNOHANG)


def _label_in(directory, data: bytes, capsys) -> tuple:
    """rc, stdout, stderr and output of ``label`` on ``data`` in a new ``directory``, with its name left out."""
    directory.mkdir()
    conn, argv = _case(directory, data)
    rc = main(argv)
    out, err = capsys.readouterr()
    labeled = directory / "conn.labeled.log"
    return rc, out.replace(str(directory), "<dir>"), err.replace(str(directory), "<dir>"), (
        labeled.exists() and labeled.read_bytes())


def _run(tmp_path, data: bytes, capsys) -> tuple:
    return _label_in(tmp_path / "two", data, capsys)


def _in_one_process(monkeypatch, tmp_path, data: bytes, capsys) -> tuple:
    with monkeypatch.context() as patch:
        patch.setattr(zeekio, "FORK_MIN_BYTES", float("inf"))
        return _label_in(tmp_path / "one", data, capsys)


def test_each_process_labels_its_half_and_the_output_is_that_of_one(tmp_path, monkeypatch, capsys, two_processes,
                                                                      labeled_by):
    data = conn_log_text(_rows()).encode()
    two = _run(tmp_path, data, capsys)
    assert len(two_processes) == 1
    assert sorted(labeled_by()) == ["child", "parent"]
    assert two == _in_one_process(monkeypatch, tmp_path, data, capsys)
    assert two[0] == 0 and f"rows: {ROWS}\n" in two[1]


def test_below_the_threshold_or_on_one_cpu_no_child_starts(tmp_path, monkeypatch, capsys, two_processes, labeled_by):
    data = conn_log_text(_rows()).encode()
    conn, argv = _case(tmp_path, data)
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", len(data) + 1)
    assert main(argv) == 0
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", len(data))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(argv) == 0
    assert two_processes == []
    assert labeled_by() == ["parent", "parent"]


@pytest.mark.parametrize("where", ["child", "both"])
def test_a_short_row_is_one_error_naming_the_first_by_its_number_in_the_file(tmp_path, capsys, two_processes, where):
    data = conn_log_text(_rows()).encode()
    second = _first_row_of_the_child(data) + 5
    data = _spoil(data, second, b"\t", b" ")
    first = second if where == "child" else 3
    if where == "both":
        data = _spoil(data, first, b"\t", b" ")
    conn, argv = _case(tmp_path, data)
    assert main(argv) == 1
    assert len(two_processes) == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {conn}: row {first}: expected {len(CONN_FIELDS)} fields, got {len(CONN_FIELDS) - 1}"
    )
    _assert_clean(tmp_path)


def test_a_byte_that_is_not_utf8_in_the_second_half_is_named_by_its_line_in_the_file(tmp_path, capsys, two_processes):
    data = conn_log_text(_rows()).encode()
    row = _first_row_of_the_child(data) + 20
    data = _spoil(data, row, b"tcp", b"t\xffp")
    conn, argv = _case(tmp_path, data)
    assert main(argv) == 1
    assert len(two_processes) == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {conn}: line {HEADER_LINES + row}: not valid UTF-8"
    _assert_clean(tmp_path)


def test_a_trailer_that_begins_before_the_split_is_the_trailer_to_the_end(tmp_path, monkeypatch, capsys,
                                                                            two_processes):
    # rows, then #close, then lines kept verbatim: rows too, more of them, so the split falls among them
    text = conn_log_text(_rows(40))
    data = (text + "".join("\t".join(row) + "\n" for row in _rows(100))).encode()
    assert data.index(b"#close") < len(data) // 2
    two = _run(tmp_path, data, capsys)
    assert len(two_processes) == 1
    assert two == _in_one_process(monkeypatch, tmp_path, data, capsys)
    assert two[0] == 0 and "rows: 40\n" in two[1]
    assert two[3].endswith(b"#close\t2023-01-24-14-00-00\n" + data[len(text):])


def test_a_header_that_reaches_past_the_middle_is_read_as_one_process_reads_it(tmp_path, monkeypatch, capsys,
                                                                                  two_processes):
    lines = conn_log_text(_rows(5)).splitlines(keepends=True)
    data = "".join(lines[:HEADER_LINES] + [f"#note\t{i}\n" for i in range(100)] + lines[HEADER_LINES:]).encode()
    assert data.index(b"\n", len(data) // 2) < data.index(b"#note\t99")
    two = _run(tmp_path, data, capsys)
    assert two_processes == []  # no fork: the header is known to reach the split before one
    assert two == _in_one_process(monkeypatch, tmp_path, data, capsys)
    assert two[0] == 0 and "rows: 5\n" in two[1]


def test_a_json_log_whose_first_half_lacks_uid_has_the_union_of_both_halves_keys(tmp_path, monkeypatch, capsys,
                                                                                    two_processes, labeled_by):
    objects = [{"ts": 1.0 + i, "id.orig_h": "10.0.0.1", "id.resp_p": 4444, "proto": "tcp"} for i in range(ROWS)]
    for i, obj in enumerate(objects[ROWS // 2 + 10:]):
        obj["uid"] = f"C{i}"
    data = "".join(json.dumps(obj) + "\n" for obj in objects).encode()
    two = _run(tmp_path, data, capsys)
    assert len(two_processes) == 1
    assert sorted(labeled_by()) == ["child", "parent"]
    assert two[0] == 0
    assert two == _in_one_process(monkeypatch, tmp_path, data, capsys)
    # without any uid it is the one-process error
    data = "".join(json.dumps({k: v for k, v in obj.items() if k != "uid"}) + "\n" for obj in objects).encode()
    (tmp_path / "none").mkdir()
    conn, argv = _case(tmp_path / "none", data)
    assert main(argv) == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {conn}: flow table has no uid field"
    _assert_clean(tmp_path / "none")


def test_an_error_after_both_halves_joined_is_final(tmp_path, monkeypatch, capsys, two_processes, labeled_by):
    # no uid column: the check that follows the join is the run's error, with no second pass in one process
    names = [name for name in CONN_FIELDS if name != "uid"]
    rows = [[cell for name, cell in zip(CONN_FIELDS, row) if name != "uid"] for row in _rows()]
    data = zeek_tsv("conn", names, [CONN_TYPES[CONN_FIELDS.index(name)] for name in names], rows).encode()
    two = _run(tmp_path, data, capsys)
    assert len(two_processes) == 1
    assert sorted(labeled_by()) == ["child", "parent"]
    assert two == _in_one_process(monkeypatch, tmp_path, data, capsys)
    assert two[0] == 1 and two[3] is False
    assert _one_error_line(two[2]) == "error: <dir>/conn.log: flow table has no uid field"
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) == ["conn.log", "r.conf"]


def test_a_child_killed_partway_is_one_error_and_leaves_no_file(tmp_path, monkeypatch, capsys, two_processes):
    conn, argv = _case(tmp_path, conn_log_text(_rows()).encode())
    parent = os.getpid()
    write_labeled = labeler.write_labeled

    def killed_partway(records):
        for n, record in enumerate(records):
            if n == 10:
                os.kill(os.getpid(), signal.SIGKILL)
            yield record

    def recorded(dst, log, records, pair_of):
        return write_labeled(dst, log, records if os.getpid() == parent else killed_partway(records), pair_of)

    monkeypatch.setattr(labeler, "write_labeled", recorded)
    assert main(argv) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith("error: label: the second process (pid ")
    assert line.endswith(") ended without a result (status -9)")
    _assert_clean(tmp_path)


def test_the_child_is_reaped_when_this_process_raises(tmp_path, monkeypatch, two_processes):
    conn, argv = _case(tmp_path, conn_log_text(_rows()).encode())
    parent = os.getpid()
    write_labeled = labeler.write_labeled

    def interrupted(dst, log, records, pair_of):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return write_labeled(dst, log, records, pair_of)

    monkeypatch.setattr(labeler, "write_labeled", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert len(two_processes) == 1
    _assert_clean(tmp_path)


@pytest.mark.parametrize("shape", ["crlf", "relabel", "pipe separator", "unclosed", "no final newline"])
def test_other_shapes_of_tsv_log_give_the_output_of_one_process(tmp_path, monkeypatch, capsys, two_processes, shape):
    text = conn_log_text(_rows())
    if shape == "crlf":
        text = text.replace("\n", "\r\n")
    elif shape == "relabel":  # label columns already there are rewritten in place
        tails = {"#fields": "\tlabel\tdetailed_label", "#types": "\tstring\tstring"}
        text = "".join(
            line + (tails.get(line.split("\t")[0], "") if line.startswith("#") else "\tBenign\t(empty)") + "\n"
            for line in text.splitlines()
        )
    elif shape == "pipe separator":
        text = text.replace("\t", "|").replace("#separator \\x09", "#separator \\x7c")
    elif shape == "unclosed":
        text = text[: text.index("#close")]
    else:
        text = text[: text.index("#close")].rstrip("\n")
    data = text.encode()
    two = _run(tmp_path, data, capsys)
    assert len(two_processes) == 1
    assert two == _in_one_process(monkeypatch, tmp_path, data, capsys)
    assert two[0] == 0


def test_after_the_halves_the_reader_holds_the_fields_that_one_process_reads(tmp_path, two_processes):
    """Keys that only objects past the split bring come after the others, in the order the child met them."""
    rows = [{"ts": i, "uid": f"C{i:05d}"} for i in range(ROWS)]
    rows[10]["a"] = rows[170]["a"] = 1  # in both halves: listed once
    rows[160]["k"] = rows[170]["m"] = rows[180]["k"] = 1
    log = tmp_path / "conn.log"
    log.write_text(text := "".join(json.dumps(row) + "\n" for row in rows))
    assert '"k"' not in text[: len(text) // 2]

    def count_rows(reader, halves):
        count = halves(lambda _: sum(1 for _ in reader.records()), lambda mine, theirs: mine + theirs)
        return count, reader.header.fields

    two = zeekio.in_halves("label", log, count_rows)
    assert len(two_processes) == 1
    with open(log, encoding="utf-8") as fh:
        one = count_rows(zeekio.ZeekLogReader(fh, str(log)), lambda half, join: half(None))
    assert two == one == (ROWS, ["ts", "uid", "a", "k", "m"])
