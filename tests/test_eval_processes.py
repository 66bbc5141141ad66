"""``eval`` when a forked child tallies the labeled conn.log's lines past its middle.

The split falls at the first newline byte at or past the middle of the file.
Each process tallies its lines (``metrics._tally``), and this process merges
the child's tally into its own (``metrics._merge``): Counters added, a uid in
both halves keeping the child's start, window sets unioned, keys in
first-seen order. The merged tally is used only when both processes read
their lines without an error and no trailer began before the split; any other
run ends as the run in one process does, with the same report, the same
warnings, or the same one ``error:`` line naming the first bad row in the
file, and exit code.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from conftest import CONN_FIELDS, CONN_TYPES, conn_row, zeek_tsv

from zeeklabel import metrics, zeekio
from zeeklabel.cli import main

FIELDS = CONN_FIELDS + ["label", "detailed_label"]
HEADER_LINES = 8  # conftest.zeek_tsv's directive lines before the first row
ROWS = 200
T0 = 1674550000
MALICIOUS = ["Malicious", "From_malicious-To_benign"]
BENIGN = ["Benign", "From_benign-To_benign"]


def _row(i: int, **overrides) -> list[str]:
    cells = {"ts": f"{T0 + 30 * i}.500000", "uid": f"C{i:05d}", "id.orig_h": f"10.0.0.{i % 5 + 1}", **overrides}
    return conn_row(**cells) + (MALICIOUS if i % 7 == 0 else BENIGN)


def _log(rows: list[list[str]]) -> bytes:
    return zeek_tsv("conn", FIELDS, CONN_TYPES + ["string", "string"], rows).encode()


def _detections(*uids: str, time: float = T0 + 3000.0, ip: str = "10.0.0.1") -> str:
    return json.dumps({"ip": ip, "time": time, "evidence": list(uids)}) + "\n"


def _first_row_of_the_child(data: bytes) -> int:
    """The number of the first row past the split, for a log of ``HEADER_LINES`` directive lines then rows."""
    split = data.index(b"\n", len(data) // 2) + 1
    return data[:split].count(b"\n") - HEADER_LINES + 1


@pytest.fixture
def run_eval(capsys, caplog):
    """``eval`` on ``data`` and ``detections`` in a new directory: rc, stdout, stderr and the messages logged, the
    directory's name left out."""

    def run(directory, data: bytes, detections: str, *options: str) -> tuple:
        directory.mkdir()
        (directory / "conn.labeled.log").write_bytes(data)
        (directory / "detections.jsonl").write_text(detections)
        caplog.clear()
        with caplog.at_level("INFO"):
            rc = main(["eval", str(directory / "conn.labeled.log"), str(directory / "detections.jsonl"),
                       "--window", "600", *options])
        out, err = capsys.readouterr()
        messages = [f"{record.levelname}: {record.getMessage()}" for record in caplog.records]
        return rc, *(text.replace(str(directory), "<dir>") for text in (out, err, "\n".join(messages)))

    return run


@pytest.fixture
def both(run_eval, monkeypatch, tmp_path):
    """The run with the threshold at 0 and two CPUs, and the run in one process: (two, one)."""

    def run(data: bytes, detections: str, *options: str, where=tmp_path) -> tuple:
        two = run_eval(where / "two", data, detections, *options)
        with monkeypatch.context() as patch:
            patch.setattr(zeekio, "FORK_MIN_BYTES", float("inf"))
            one = run_eval(where / "one", data, detections, *options)
        return two, one

    return run


@pytest.fixture
def tallied_by(monkeypatch, tmp_path):
    """Which processes tallied flows: "parent" or "child", in a file, as the child's memory is its own."""
    record = tmp_path.parent / f"{tmp_path.name}-tallies.txt"
    tally = metrics._tally

    def recorded(flows, *args):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return tally(flows, *args)

    monkeypatch.setattr(metrics, "_tally", recorded)
    return lambda: sorted("parent" if int(pid) == os.getpid() else "child" for pid in record.read_text().split())


def _one_error_line(err: str) -> str:
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


@pytest.mark.parametrize("options", [(), ("--json",)])
def test_each_process_tallies_its_half_and_the_report_is_that_of_one(both, two_processes, tallied_by, options):
    # a row without a uid in each half: one warning with their sum
    data = _log([_row(i, **({"uid": "-"} if i in (5, 160) else {})) for i in range(ROWS)])
    detections = _detections("C00007", "C00150", time=T0 + 6100.0) + _detections("C00001", time=T0 + 600.0)
    two, one = both(data, detections, *options)
    assert len(two_processes) == 1
    assert tallied_by() == ["child", "parent", "parent"]
    assert two == one
    assert two[0] == 0 and two[3] == "WARNING: 2 rows skipped during evaluation (missing uid, ts or source IP)"


def test_a_bad_row_in_the_second_half_is_named_by_its_number_in_the_file(both, two_processes):
    data = _log([_row(i) for i in range(ROWS)])
    bad = _first_row_of_the_child(data) + 5
    lines = data.split(b"\n")
    lines[HEADER_LINES + bad - 1] = lines[HEADER_LINES + bad - 1].replace(b"\t", b" ", 1)
    data = b"\n".join(lines)
    two, one = both(data, _detections("C00007"))
    assert len(two_processes) == 1
    assert two == one
    assert two[0] == 1
    assert _one_error_line(two[2]) == (
        f"error: <dir>/conn.labeled.log: row {bad}: expected {len(FIELDS)} fields, got {len(FIELDS) - 1}"
    )


def test_an_evidence_uid_in_both_halves_keeps_the_start_of_its_later_flow(both, two_processes, tallied_by):
    rows = [_row(i) for i in range(ROWS)]
    rows[-1] = _row(ROWS - 1, uid="C00003")  # C00003 again, near the end: its start is the later one
    data = _log(rows)
    # after the first C00003 flow, before the second: only the later start makes the detection predate it
    detections = _detections("C00003", time=T0 + 30 * 3 + 60.0)
    two, one = both(data, detections)
    assert tallied_by() == ["child", "parent", "parent"]
    assert two == one
    assert two[0] == 0
    assert f"predates evidence flow at {T0 + 30 * (ROWS - 1)}.500000" in two[3]


def test_an_ip_first_seen_in_the_second_half_has_its_timeline(both, two_processes, tallied_by):
    data = _log([_row(i) for i in range(ROWS)])
    child = _first_row_of_the_child(data)
    rows = [_row(i, **({"id.orig_h": "10.9.9.9"} if i >= child + 3 else {})) for i in range(ROWS)]
    data = _log(rows)
    assert _first_row_of_the_child(data) == child
    two, one = both(data, _detections(f"C{child + 10:05d}", ip="10.9.9.9"), "--json")
    assert tallied_by() == ["child", "parent", "parent"]
    assert two == one
    assert two[0] == 0
    assert "10.9.9.9" in json.loads(two[1])["ip"]["timelines"]


def test_one_ipv6_address_spelled_two_ways_across_the_halves_is_one_ip(both, two_processes, tallied_by):
    rows = [_row(i, **{"id.orig_h": "2001:db8::1" if i < ROWS // 2 else "2001:0DB8:0:0:0:0:0:1"})
            for i in range(ROWS)]
    two, one = both(_log(rows), _detections("C00007", ip="2001:db8::1"), "--json")
    assert tallied_by() == ["child", "parent", "parent"]
    assert two == one
    assert list(json.loads(two[1])["ip"]["timelines"]) == ["2001:db8::1"]


def test_a_json_log_whose_label_key_first_appears_in_the_second_half_is_scored(tmp_path, both, run_eval,
                                                                                two_processes, tallied_by):
    objects = []
    for i in range(ROWS):
        row = dict(zip(FIELDS, _row(i)))
        if i < ROWS // 2 + 10:
            del row["label"], row["detailed_label"]
        objects.append({k: v for k, v in row.items() if v != "-"})
    data = "".join(json.dumps(obj) + "\n" for obj in objects).encode()
    assert data.index(b'"label"') > len(data) // 2
    two, one = both(data, _detections("C00007"))
    assert tallied_by() == ["child", "parent", "parent"]
    assert two == one
    assert two[0] == 0
    # without the key anywhere it is the one-process error
    data = "".join(json.dumps({k: v for k, v in obj.items() if k != "label"}) + "\n" for obj in objects).encode()
    rc, _, err, _ = run_eval(tmp_path / "none", data, _detections("C00007"))
    assert rc == 2
    assert _one_error_line(err) == "error: <dir>/conn.labeled.log has no label column; run 'label' before 'eval'"


def test_a_trailer_that_begins_before_the_split_is_the_trailer_to_the_end(both, two_processes):
    # rows, then #close, then lines kept verbatim: rows too, more of them, so the split falls among them
    text = _log([_row(i) for i in range(40)])
    data = text + b"".join(b"\t".join(cell.encode() for cell in _row(i)) + b"\n" for i in range(40, 200))
    assert data.index(b"#close") < len(data) // 2
    two, one = both(data, _detections("C00007"), "--json")
    assert len(two_processes) == 1
    assert two == one
    assert json.loads(two[1])["flow"]["flows"] == 40


def test_a_bad_row_comes_before_a_bad_detections_file(tmp_path, both, two_processes):
    data = _log([_row(i) for i in range(ROWS)])
    bad = _first_row_of_the_child(data) + 5
    lines = data.split(b"\n")
    lines[HEADER_LINES + bad - 1] = lines[HEADER_LINES + bad - 1].replace(b"\t", b" ", 1)
    two, one = both(b"\n".join(lines), "not json\n")
    assert two == one
    assert _one_error_line(two[2]).endswith(f"row {bad}: expected {len(FIELDS)} fields, got {len(FIELDS) - 1}")
    # the detections' error alone, once the conn.log is good
    (tmp_path / "good").mkdir()
    two, one = both(data, "not json\n", where=tmp_path / "good")
    assert two == one
    assert _one_error_line(two[2]) == "error: <dir>/detections.jsonl: line 1: invalid JSON"


def test_a_child_killed_partway_is_one_error(tmp_path, monkeypatch, run_eval, two_processes):
    parent = os.getpid()
    tally = metrics._tally

    def killed_partway(flows):
        for n, flow in enumerate(flows):
            if n == 10:
                os.kill(os.getpid(), signal.SIGKILL)
            yield flow

    def recorded(flows, *args):
        return tally(flows if os.getpid() == parent else killed_partway(flows), *args)

    monkeypatch.setattr(metrics, "_tally", recorded)
    rc, out, err, _ = run_eval(tmp_path / "run", _log([_row(i) for i in range(ROWS)]), _detections("C00007"))
    assert rc == 1 and out == ""
    line = _one_error_line(err)
    assert line.startswith("error: eval: the second process (pid ")
    assert line.endswith(") ended without a result (status -9)")
    with pytest.raises(ChildProcessError):  # no child left, neither running nor a zombie
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("options", [(), ("--json",)])
def test_a_header_that_reaches_past_the_middle_is_read_as_one_process_reads_it(both, two_processes, options):
    lines = _log([_row(i) for i in range(5)]).splitlines(keepends=True)
    data = b"".join(lines[:HEADER_LINES] + [b"#note\t%d\n" % i for i in range(100)] + lines[HEADER_LINES:])
    assert data.index(b"\n", len(data) // 2) < data.index(b"#note\t99")
    two, one = both(data, _detections("C00001"), *options)
    assert two_processes == []  # no fork: the header is known to reach the split before one
    assert two == one
    assert two[0] == 0


@pytest.mark.parametrize("options", [(), ("--json",)])
def test_a_byte_that_is_not_utf8_in_the_second_half_is_named_by_its_line_in_the_file(both, two_processes, options):
    data = _log([_row(i) for i in range(ROWS)])
    row = _first_row_of_the_child(data) + 20
    lines = data.split(b"\n")
    lines[HEADER_LINES + row - 1] = lines[HEADER_LINES + row - 1].replace(b"tcp", b"t\xffp", 1)
    two, one = both(b"\n".join(lines), _detections("C00007"), *options)
    assert len(two_processes) == 1
    assert two == one
    assert two[0] == 1
    assert _one_error_line(two[2]) == f"error: <dir>/conn.labeled.log: line {HEADER_LINES + row}: not valid UTF-8"


def test_an_error_after_both_halves_joined_is_final(both, two_processes, tallied_by):
    # no label column: the check that follows the join is the run's error, with no second pass in one process
    data = zeek_tsv("conn", CONN_FIELDS, CONN_TYPES, [_row(i)[:-2] for i in range(ROWS)]).encode()
    two, one = both(data, _detections("C00007"))
    assert len(two_processes) == 1
    assert tallied_by() == ["child", "parent", "parent"]  # the last in the run in one process
    assert two == one
    assert two[0] == 2
    assert _one_error_line(two[2]) == "error: <dir>/conn.labeled.log has no label column; run 'label' before 'eval'"
