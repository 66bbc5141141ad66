from __future__ import annotations

import io
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from conftest import DATA_DIR, json_lines, zeek_tsv

from zeeklabel.errors import LogFormatError
from zeeklabel.labeler import EMPTY_PAIR, index_from_labeled_rows, label_conn
import zeeklabel.propagate
import zeeklabel.zeekio
from zeeklabel.propagate import _pairs_function, merge_labels, propagate_dir
from zeeklabel.rules import load_config
from zeeklabel.zeekio import ZeekLogReader, read_log, write_log

MAL = ("Malicious", "From_malicious-To_benign-Command_and_control")
BEN = ("Benign", "From_benign-To_benign")
UNK = ("Unknown", "(empty)")


def _labels(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        table = read_log(fh, str(path))
    li, di = (table.header.index_of(n) for n in ("label", "detailed_label"))
    return [(cells[li], cells[di]) for cells in table.records]


@pytest.fixture(scope="module")
def conn_labeled(tmp_path_factory):
    """The proplogs conn.log, labeled by its config."""
    path = tmp_path_factory.mktemp("conn") / "conn.labeled.log"
    with open(DATA_DIR / "proplogs" / "conn.log", encoding="utf-8") as fh:
        table = read_log(fh, "conn.log")
    _, ruleset = load_config((DATA_DIR / "proplogs" / "labeling.conf").read_text())
    with open(path, "w", encoding="utf-8") as fh:
        write_log(table, label_conn(table, ruleset), fh)
    return path


@pytest.fixture(scope="module")
def proplogs(conn_labeled, tmp_path_factory):
    """Every proplogs log propagated: (report, {stem: labels})."""
    d = tmp_path_factory.mktemp("proplogs")
    shutil.copytree(DATA_DIR / "proplogs", d, dirs_exist_ok=True)
    report = propagate_dir(conn_labeled, d, d)
    return report, {log.name[: -len(".log")]: _labels(log.output) for log in report.logs}


def _propagate(conn_labeled, tmp_path, logs: dict[str, str]):
    """Propagate into a directory holding only ``logs``: (report, {stem: labels})."""
    for name, text in logs.items():
        (tmp_path / name).write_text(text)
    report = propagate_dir(conn_labeled, tmp_path, tmp_path)
    return report, {log.name[: -len(".log")]: _labels(log.output) for log in report.logs}


def test_merge_precedence_order():
    assert merge_labels([BEN, MAL]) == MAL
    assert merge_labels([MAL, BEN]) == MAL
    assert merge_labels([BEN, UNK]) == UNK
    assert merge_labels([UNK, MAL, BEN]) == MAL
    assert merge_labels([EMPTY_PAIR, BEN]) == BEN
    assert merge_labels([BEN, EMPTY_PAIR]) == BEN


def test_merge_ties_keep_first_candidate():
    first = ("Malicious", "From_malicious-To_benign")
    second = ("Malicious", "From_malicious-To_malicious")
    assert merge_labels([first, second]) == first
    assert merge_labels([second, first]) == second


def test_merge_none_and_empty_inputs():
    assert merge_labels([]) == EMPTY_PAIR
    assert merge_labels([None]) == EMPTY_PAIR
    assert merge_labels([None, BEN, None]) == BEN


def _uid_log(field: str, cells: list[str]) -> str:
    return zeek_tsv("x", ["ts", field], ["time", "string"],
                    [[f"16745600{i:02d}.0", c] for i, c in enumerate(cells)])


def test_lookup_row_scalar_uid(conn_labeled, tmp_path):
    _, labels = _propagate(conn_labeled, tmp_path, {
        "x.log": _uid_log("uid", ["CPRP01aaaa", "CPRP05eeee", "CNOSUCH000", "-"]),
    })
    assert labels["x"] == [MAL, EMPTY_PAIR, EMPTY_PAIR, EMPTY_PAIR]


def test_lookup_row_uids_set_merges(conn_labeled, tmp_path):
    _, labels = _propagate(conn_labeled, tmp_path, {
        "x.log": _uid_log("uids", ["CPRP02bbbb,CPRP01aaaa", "CPRP02bbbb", "-"]),
    })
    assert labels["x"] == [MAL, BEN, EMPTY_PAIR]


def test_propagate_log_requires_uid_linkage(conn_labeled, tmp_path, caplog):
    weird = zeek_tsv("weird", ["ts", "note"], ["time", "string"], [["1.0", "x"]])
    with caplog.at_level("WARNING"):
        report, labels = _propagate(conn_labeled, tmp_path, {"weird.log": weird})
    assert [(log.route, log.rows, log.labeled) for log in report.logs] == [("none", 1, 0)]
    assert labels["weird"] == [EMPTY_PAIR]
    assert "weird.log has no uid linkage" in caplog.text


def test_propagate_dir_report(proplogs):
    report, _ = proplogs
    assert (report.index_uids, report.index_duplicates, report.index_skipped_unset) == (6, 0, 0)
    assert [(log.name, log.route, log.rows, log.labeled, log.output.name) for log in report.logs] == [
        ("dns.log", "uid", 3, 0, "dns.labeled.log"),
        ("files.log", "files", 4, 2, "files.labeled.log"),
        ("http.log", "uid", 5, 4, "http.labeled.log"),
        ("ssl.log", "uid", 4, 3, "ssl.labeled.log"),
        ("x509.log", "x509", 5, 3, "x509.labeled.log"),
    ]


def test_propagate_http_by_uid(proplogs):
    assert proplogs[1]["http"] == [MAL, MAL, MAL, BEN, EMPTY_PAIR]


def test_propagate_dns_unmatched_conn_rows_stay_empty(proplogs):
    # CPRP05eeee is in the index but its conn row matched no rule
    assert proplogs[1]["dns"] == [EMPTY_PAIR, EMPTY_PAIR, EMPTY_PAIR]


def test_propagate_files_via_conn_uids(proplogs):
    assert proplogs[1]["files"] == [BEN, MAL, EMPTY_PAIR, EMPTY_PAIR]


def test_propagate_files_requires_conn_uids(conn_labeled, tmp_path):
    # a log named files.log without conn_uids is routed by its uid column
    files = (DATA_DIR / "proplogs" / "http.log").read_text().replace("#path\thttp", "#path\tfiles")
    report, labels = _propagate(conn_labeled, tmp_path, {"files.log": files})
    assert [log.route for log in report.logs] == ["uid"]
    assert labels["files"] == [MAL, MAL, MAL, BEN, EMPTY_PAIR]


def _cert_map(conn_labeled, ssl_text: str) -> dict:
    with open(conn_labeled, encoding="utf-8") as fh:
        index = index_from_labeled_rows(ZeekLogReader(fh, "conn.labeled.log"))
    reader, mapping = ZeekLogReader(io.StringIO(ssl_text), "ssl.log"), {}
    pairs_of = _pairs_function("ssl", reader, index, mapping)
    for block in reader.blocks():
        pairs_of(block)
    return mapping


def test_cert_label_map_merges_across_ssl_rows(conn_labeled):
    mapping = _cert_map(conn_labeled, (DATA_DIR / "proplogs" / "ssl.log").read_text())
    assert mapping["FPRPa1sslA"] == MAL
    # FPRPa2sslB is presented by a Benign flow and an Unknown flow
    assert mapping["FPRPa2sslB"] == UNK
    assert mapping["FPRPa3sslC"] == UNK
    # chain of a uid the conn.log never saw
    assert mapping["FPRPa9sslD"] == EMPTY_PAIR


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_certificate_takes_the_labels_its_ssl_row_is_written_with(conn_labeled, tmp_path, request, fmt, processes):
    # the first ssl row's uid is unset (TSV) or absent (JSON lines), so it and its certificate take its uids' labels
    if fmt == "tsv":
        ssl = zeek_tsv("ssl", ["ts", "uid", "uids", "cert_chain_fuids"],
                       ["time", "string", "set[string]", "vector[string]"],
                       [["1.0", "-", "CPRP02bbbb,CPRP01aaaa", "FCERT1"], ["1.1", "CPRP02bbbb", "-", "FCERT2"]])
    else:
        ssl = json_lines({"ts": 1.0, "uids": ["CPRP02bbbb", "CPRP01aaaa"], "cert_chain_fuids": ["FCERT1"]},
                         {"ts": 1.1, "uid": "CPRP02bbbb", "cert_chain_fuids": ["FCERT2"]})
    logs = {
        "ssl.log": ssl,
        "x509.log": zeek_tsv("x509", ["ts", "id"], ["time", "string"], [["1.0", "FCERT1"], ["1.1", "FCERT2"]]),
        "http.log": (DATA_DIR / "proplogs" / "http.log").read_text(),  # what a child labels in two processes
    }
    for name, text in logs.items():
        (tmp_path / name).write_text(text)
    forks = request.getfixturevalue("two_processes") if processes == 2 else []
    report = propagate_dir(conn_labeled, tmp_path, tmp_path)
    assert forks.count("logs") == (processes == 2)
    assert [(log.name, log.labeled) for log in report.logs] == [("http.log", 4), ("ssl.log", 2), ("x509.log", 2)]
    ssl_out = tmp_path / "ssl.labeled.log"
    if fmt == "tsv":
        assert _labels(ssl_out) == [MAL, BEN]
    else:
        objs = map(json.loads, ssl_out.read_text().splitlines())
        assert [(obj["label"], obj["detailed_label"]) for obj in objs] == [MAL, BEN]
    assert _labels(tmp_path / "x509.labeled.log") == [MAL, BEN]


def test_propagate_x509_two_hops(proplogs):
    # rows: FPRPa1sslA, FPRPa2sslB, FPRPa3sslC, FPRPa4sslX (orphan), FPRPa9sslD
    assert proplogs[1]["x509"] == [MAL, UNK, UNK, EMPTY_PAIR, EMPTY_PAIR]


def test_propagate_ssl_itself_by_uid(proplogs):
    assert proplogs[1]["ssl"] == [MAL, BEN, UNK, EMPTY_PAIR]


def test_modern_field_spellings_accepted(conn_labeled, tmp_path):
    ssl = zeek_tsv(
        "ssl",
        ["ts", "uid", "cert_chain_fps"],
        ["time", "string", "vector[string]"],
        [["1.0", "CPRP01aaaa", "FNEWHASH01"]],
    )
    x509 = zeek_tsv(
        "x509",
        ["ts", "fingerprint"],
        ["time", "string"],
        [["1.0", "FNEWHASH01"], ["1.1", "FUNSEEN999"]],
    )
    assert _cert_map(conn_labeled, ssl) == {"FNEWHASH01": MAL}
    _, labels = _propagate(conn_labeled, tmp_path, {"ssl.log": ssl, "x509.log": x509})
    assert labels["x509"] == [MAL, EMPTY_PAIR]


def test_ssl_without_chain_field_rejected(conn_labeled, tmp_path):
    http = (DATA_DIR / "proplogs" / "http.log").read_text()
    # checked after the last log is read, before any output is moved into place
    x509 = (DATA_DIR / "proplogs" / "x509.log").read_text()
    with pytest.raises(LogFormatError, match="ssl.log: ssl log has no certificate chain field"):
        _propagate(conn_labeled, tmp_path, {"ssl.log": http, "x509.log": x509})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ssl.log", "x509.log"]


def test_x509_without_id_field_passes_through_empty(conn_labeled, tmp_path, caplog):
    ssl = (DATA_DIR / "proplogs" / "ssl.log").read_text()
    x509 = zeek_tsv("x509", ["ts", "serial"], ["time", "string"], [["1.0", "FPRPa1sslA"]])
    warning = "x509.log has no certificate id field (id or fingerprint); passing rows through as (empty)"
    with caplog.at_level("WARNING"):
        report, labels = _propagate(conn_labeled, tmp_path, {"ssl.log": ssl, "x509.log": x509})
    assert [log.route for log in report.logs] == ["uid", "x509"]
    assert labels["x509"] == [EMPTY_PAIR]
    assert caplog.messages.count(warning) == 1
    # as JSON lines the keys are known only at the end: a fingerprint in the last object is linkage
    for objs, warned in (([{"ts": 1.0, "serial": "FPRPa1sslA"}] * 2, 1), ([{"ts": 1.0}, {"fingerprint": None}], 0)):
        caplog.clear()
        (tmp_path / "x509.log").write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        with caplog.at_level("WARNING"):
            report = propagate_dir(conn_labeled, tmp_path, tmp_path)
        assert [(log.route, log.rows, log.labeled) for log in report.logs] == [("uid", 4, 3), ("x509", 2, 0)]
        assert caplog.messages.count(warning) == warned


def test_each_log_is_read_once(conn_labeled, tmp_path, monkeypatch):
    shutil.copytree(DATA_DIR / "proplogs", tmp_path, dirs_exist_ok=True)
    shutil.copy(conn_labeled, tmp_path / "conn.labeled.log")
    readers: Counter[str] = Counter()

    class CountingReader(ZeekLogReader):
        def __init__(self, stream, source="<log>"):
            readers[Path(source).name] += 1
            super().__init__(stream, source)

    monkeypatch.setattr(zeeklabel.propagate, "ZeekLogReader", CountingReader)
    monkeypatch.setattr(zeeklabel.zeekio, "ZeekLogReader", CountingReader)  # in_halves reads the labeled conn.log
    report = propagate_dir(tmp_path / "conn.labeled.log", tmp_path, tmp_path)
    assert [log.name for log in report.logs] == ["dns.log", "files.log", "http.log", "ssl.log", "x509.log"]
    # the unlabeled conn.log is the label source, skipped once its header is read
    assert readers.pop("conn.log", 0) <= 1
    assert readers == {name: 1 for name in ("conn.labeled.log", *(log.name for log in report.logs))}


def test_ssl_without_chain_field_and_no_x509_is_labeled_by_uid(conn_labeled, tmp_path):
    ssl = (DATA_DIR / "proplogs" / "http.log").read_text().replace("#path\thttp", "#path\tssl")
    report, labels = _propagate(conn_labeled, tmp_path, {"ssl.log": ssl})
    assert [(log.route, log.rows, log.labeled) for log in report.logs] == [("uid", 5, 4)]
    assert labels["ssl"] == [MAL, MAL, MAL, BEN, EMPTY_PAIR]
