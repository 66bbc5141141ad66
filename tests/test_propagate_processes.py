"""``propagate`` when a forked child labels part of the logs.

The logs here have sizes that fix the split: ``http.log`` is the largest, so
the child labels it (and, where there is one, ``zz.log``), while this process
labels ``dhcp.log`` and ``weird.log``. A failure on either side must end as
a run in one process would: one ``error:`` line naming the first failing log
in read order, exit 1, no output and no temp file left, and no child left.
Before the logs, a first child indexes the second half of the labeled
conn.log, so the ``two_processes`` fixture counts that fork apart.
"""

from __future__ import annotations

import builtins
import collections
import os
import signal

import pytest

from conftest import zeek_tsv

from zeeklabel import propagate, zeekio
from zeeklabel.cli import main

CONN = zeek_tsv(
    "conn", ["ts", "uid", "label", "detailed_label"], ["time", "string", "string", "string"],
    [["1.0", f"C{i}", "Malicious" if i % 3 == 0 else "Benign", "(empty)"] for i in range(40)],
)
# log -> rows; http.log is about twice the bytes of dhcp.log and weird.log together
ROWS = {"dhcp.log": 30, "http.log": 200, "weird.log": 40}


def _log(name: str, rows: int, short_row: bool = False) -> str:
    text = zeek_tsv(name.split(".")[0], ["ts", "uid"], ["time", "string"], [["1.0", f"C{i % 40}"] for i in range(rows)])
    return text.replace("#close", "short\n#close") if short_row else text


def _write_case(tmp_path, rows=ROWS, bad=()):
    (tmp_path / "conn.labeled.log").write_text(CONN)
    logs = tmp_path / "logs"
    logs.mkdir()
    for name, n in rows.items():
        (logs / name).write_text(_log(name, n, name in bad))
    out = tmp_path / "out"
    out.mkdir()
    return ["propagate", str(tmp_path / "conn.labeled.log"), str(logs), "--output", str(out)], logs, out


@pytest.fixture
def labeled_by(monkeypatch, tmp_path):
    """Record which process writes each log, in a file, as the child's memory is its own."""
    record = tmp_path / "writers.txt"
    write_labeled = propagate.write_labeled

    def recorded(dst, reader, blocks, pairs_of):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {os.path.basename(reader.source)}\n")
        return write_labeled(dst, reader, blocks, pairs_of)

    monkeypatch.setattr(propagate, "write_labeled", recorded)

    def writers() -> dict[str, str]:
        lines = record.read_text().split() if record.exists() else []
        return {name: "parent" if int(pid) == os.getpid() else "child" for pid, name in zip(lines[::2], lines[1::2])}

    return writers


def _assert_clean(logs, out) -> None:
    assert list(out.iterdir()) == []
    assert not [p for p in logs.iterdir() if ".labeled" in p.name or p.name.endswith(".tmp")]
    with pytest.raises(ChildProcessError):  # no child left, neither running nor a zombie
        os.waitpid(-1, os.WNOHANG)


def _one_error_line(err: str) -> str:
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


def test_the_split_puts_the_largest_log_in_the_child(tmp_path, capsys, two_processes, labeled_by):
    argv, logs, out = _write_case(tmp_path)
    assert main(argv) == 0
    assert two_processes == ["halves", "logs"]  # the uid index's fork, then the one child for the logs
    assert labeled_by() == {"http.log": "child", "dhcp.log": "parent", "weird.log": "parent"}
    assert sorted(p.name for p in out.iterdir()) == ["dhcp.labeled.log", "http.labeled.log", "weird.labeled.log"]
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"{name}: {ROWS[name]} rows, {ROWS[name]} labeled, 0 (empty) -> {name[:-4]}.labeled.log"
        for name in sorted(ROWS)
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad, first", [
    (["http.log"], "http.log"),  # the child's
    (["weird.log"], "weird.log"),  # this process's
    (["http.log", "weird.log"], "http.log"),  # both; the child's is read first
    (["dhcp.log", "http.log"], "dhcp.log"),  # both; this process's is read first
])
def test_a_short_row_on_either_side_is_one_error_for_the_first_log_read(
    tmp_path, capsys, two_processes, labeled_by, bad, first
):
    argv, logs, out = _write_case(tmp_path, bad=bad)
    assert main(argv) == 1
    assert two_processes == ["halves", "logs"]  # the uid index's fork, then the one child for the logs
    assert labeled_by()["http.log"] == "child"
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"error: {logs / first}: row {ROWS[first] + 1}: expected 2 fields, got 1"
    _assert_clean(logs, out)


def test_a_child_killed_partway_is_one_error_and_leaves_no_temp_file(
    tmp_path, capsys, monkeypatch, two_processes, labeled_by
):
    # http.log outweighs weird.log but not weird.log and dhcp.log: the child labels http.log, then zz.log
    argv, logs, out = _write_case(tmp_path, rows={"dhcp.log": 30, "http.log": 60, "weird.log": 40, "zz.log": 25})
    parent = os.getpid()
    write_labeled = propagate.write_labeled

    def killed_at_zz(dst, reader, blocks, pairs_of):
        if os.getpid() != parent and reader.source.endswith("zz.log"):
            # the child wrote the first log's temp file, which this process named and made
            assert (out / f".http.labeled.log.{parent}.tmp").read_text().startswith("#separator")
            os.kill(os.getpid(), signal.SIGKILL)
        return write_labeled(dst, reader, blocks, pairs_of)

    monkeypatch.setattr(propagate, "write_labeled", killed_at_zz)
    assert main(argv) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith("error: propagate: the second process (pid ")
    assert line.endswith(") ended without a result (status -9)")
    _assert_clean(logs, out)
    assert labeled_by() == {"http.log": "child", "weird.log": "parent", "dhcp.log": "parent"}  # zz.log: killed


@pytest.mark.parametrize("bad, first", [
    ([], "[Errno 21] Is a directory: '{out}/http.labeled.log'"),
    (["dhcp.log"], "{logs}/dhcp.log: row 31: expected 2 fields, got 1"),  # read before http.log
], ids=["directory", "bad-row-first"])
def test_a_child_log_whose_output_cannot_be_made_fails_in_read_order(
    tmp_path, capsys, monkeypatch, two_processes, bad, first
):
    # http.log would be the child's, and its output path is a directory
    argv, logs, out = _write_case(tmp_path, bad=bad)
    (out / "http.labeled.log").mkdir()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) == "error: " + first.format(out=out, logs=logs)
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", float("inf"))
    assert main(argv) == 1
    assert capsys.readouterr().err == err  # as one process reports it
    assert [p.name for p in out.iterdir()] == ["http.labeled.log"]
    assert not [p for p in logs.iterdir() if ".labeled" in p.name or p.name.endswith(".tmp")]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_child_is_reaped_when_this_process_raises(tmp_path, monkeypatch, two_processes, labeled_by):
    argv, logs, out = _write_case(tmp_path)
    parent = os.getpid()
    write_labeled = propagate.write_labeled

    def interrupted(dst, reader, blocks, pairs_of):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return write_labeled(dst, reader, blocks, pairs_of)

    monkeypatch.setattr(propagate, "write_labeled", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    _assert_clean(logs, out)


def test_a_conn_log_weighs_nothing_in_the_split(tmp_path, capsys, caplog, two_processes, labeled_by):
    # the unlabeled conn.log beside the others is the largest log, but it is only skipped
    argv, logs, out = _write_case(tmp_path, rows={"conn.log": 400, "http.log": 60, "weird.log": 40})
    with caplog.at_level("INFO"):
        assert main(argv) == 0
    assert labeled_by() == {"http.log": "child", "weird.log": "parent"}
    assert [r.getMessage() for r in caplog.records] == ["conn.log is the label source; skipping"]


def test_x509_logs_without_ssl_stay_in_this_process_and_warn_once(tmp_path, capsys, caplog, two_processes, labeled_by):
    # x509.log outweighs the other two together, yet with no ssl log every x509 log still stays here
    argv, logs, out = _write_case(tmp_path, rows={"x509.log": 200, "x509.2.log": 30, "x509.3.log": 40})
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert two_processes == ["halves"]  # the uid index's fork; no child for the logs
    assert labeled_by() == {"x509.log": "parent", "x509.2.log": "parent", "x509.3.log": "parent"}
    # and, in read order, each x509 log that has a uid but no certificate id says so
    no_id = "has no certificate id field (id or fingerprint); passing rows through as (empty)"
    assert [r.getMessage() for r in caplog.records] == [
        propagate.NO_SSL_WARNING, *(f"{name} {no_id}" for name in ("x509.2.log", "x509.3.log", "x509.log"))]
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_a_json_lines_log_weighs_more_per_byte(tmp_path, capsys, two_processes, labeled_by):
    # dns.log (JSON lines) has fewer bytes than http.log (TSV) but weighs more, so the child labels it
    argv, logs, out = _write_case(tmp_path, rows={"http.log": 200})
    http = (logs / "http.log").stat().st_size
    dns = next(text for n in range(1, 1000) if len(text := "".join(
        f'{{"ts": 1.0, "uid": "C{i % 40}"}}\n' for i in range(n))) * propagate.JSON_BYTE_COST > http)
    (logs / "dns.log").write_text(dns)
    assert len(dns) < http
    assert main(argv) == 0
    assert labeled_by() == {"dns.log": "child", "http.log": "parent"}


def test_with_an_ssl_log_the_certificate_logs_stay_in_this_process(tmp_path, monkeypatch, two_processes, labeled_by):
    # certs.log is an x509 log by its #path, and the heaviest; only this process holds the certificate map
    argv, logs, out = _write_case(tmp_path, rows={"http.log": 60})
    (logs / "ssl.log").write_text(zeek_tsv("ssl", ["ts", "uid", "cert_chain_fuids"], ["time", "string", "vector[string]"],
                                           [["1.0", f"C{i}", f"F{i},F{i + 1}"] for i in range(40)]))
    for name, rows in (("x509.log", 10), ("certs.log", 300)):
        (logs / name).write_text(zeek_tsv("x509", ["ts", "id"], ["time", "string"], [["1.0", f"F{i % 41}"] for i in range(rows)]))
    assert main(argv) == 0
    assert labeled_by() == {"ssl.log": "parent", "certs.log": "parent", "x509.log": "parent", "http.log": "child"}
    one = tmp_path / "one"
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", float("inf"))
    assert main([*argv[:-1], str(one)]) == 0
    assert two_processes == ["halves", "logs"]  # the uid index's fork, then the one child for the logs
    for path in out.iterdir():
        assert path.read_bytes() == (one / path.name).read_bytes()


@pytest.fixture
def opened(monkeypatch):
    """How many times this process opens each file, by name; a forked child counts in its own memory."""
    counts = collections.Counter()
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            counts[os.path.basename(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    return counts


def _with_certificates(logs) -> None:
    (logs / "ssl.log").write_text(zeek_tsv("ssl", ["ts", "uid", "cert_chain_fuids"], ["time", "string", "vector[string]"],
                                           [["1.0", f"C{i}", f"F{i}"] for i in range(40)]))
    (logs / "certs.log").write_text(zeek_tsv("x509", ["ts", "id"], ["time", "string"], [["1.0", f"F{i}"] for i in range(40)]))


def test_a_run_that_cannot_fork_opens_each_log_once(tmp_path, capsys, monkeypatch, opened):
    argv, logs, out = _write_case(tmp_path)
    _with_certificates(logs)
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(argv) == 0
    assert {name: opened[name] for name in ("conn.labeled.log", *(p.name for p in logs.iterdir()))} == {
        "conn.labeled.log": 1, "certs.log": 1, "dhcp.log": 1, "http.log": 1, "ssl.log": 1, "weird.log": 1,
    }


def test_this_process_opens_each_log_the_child_labels_once(tmp_path, capsys, two_processes, labeled_by, opened):
    argv, logs, out = _write_case(tmp_path)
    _with_certificates(logs)
    assert main(argv) == 0
    writers = labeled_by()
    assert "child" in writers.values() and "parent" in writers.values()
    # a log of this process's own is read once to weigh it and once to label it
    assert {name: opened[name] for name in writers} == {name: 1 if by == "child" else 2 for name, by in writers.items()}


def test_a_conn_log_known_by_its_path_takes_no_part_in_the_split(tmp_path, capsys, caplog, monkeypatch, two_processes):
    argv, logs, out = _write_case(tmp_path, rows={"http.log": 60})
    (logs / "flows.log").write_text(CONN)  # #path conn
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert two_processes == ["halves"]  # the uid index's fork only: no child for the logs
    assert [r.getMessage() for r in caplog.records] == [
        "flows.log is a conn log but not conn.log, the label source; skipping"
    ]
    one = tmp_path / "one"
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", float("inf"))
    assert main([*argv[:-1], str(one)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in one.iterdir()) == ["http.labeled.log"]
    assert (out / "http.labeled.log").read_bytes() == (one / "http.labeled.log").read_bytes()
