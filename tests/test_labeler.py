from __future__ import annotations

import io
import json

import pytest

from conftest import conn_log_text, conn_row, table_from_text, zeek_tsv

from zeeklabel.errors import LogFormatError, UsageError
from zeeklabel.labeler import EMPTY_PAIR, index_from_labeled_rows, label_conn
from zeeklabel.propagate import propagate_dir
from zeeklabel.rules import load_config
from zeeklabel.zeekio import ZeekLogReader, write_log

TCP_OR_UDP = (
    "Malicious, (empty):\n    - Proto=tcp\n"
    "Benign, (empty):\n    - Proto=udp\n"
)


def test_label_conn_first_match_wins_over_later_rules():
    _, ruleset = load_config(
        "Benign, (empty):\n    - srcPort>=0\nMalicious, (empty):\n    - Proto=tcp\n"
    )
    table = table_from_text(conn_log_text([conn_row()]))
    assert label_conn(table, ruleset) == [("Benign", "(empty)")]


def test_label_conn_no_match_is_empty_pair():
    _, ruleset = load_config("Malicious, (empty):\n    - Proto=icmp\n")
    table = table_from_text(conn_log_text([conn_row(proto="tcp")]))
    assert label_conn(table, ruleset) == [EMPTY_PAIR]


def test_label_conn_requires_uid():
    table = table_from_text(zeek_tsv("conn", ["ts", "proto"], ["time", "enum"], [["1.0", "tcp"]]))
    with pytest.raises(LogFormatError, match="no uid field"):
        label_conn(table, load_config(TCP_OR_UDP)[1])


def test_label_conn_empty_ruleset_labels_nothing():
    _, ruleset = load_config("")
    table = table_from_text(conn_log_text([conn_row(), conn_row(uid="C2")]))
    assert label_conn(table, ruleset) == [EMPTY_PAIR, EMPTY_PAIR]


def _labeled_text(rows, pairs) -> str:
    table = table_from_text(conn_log_text(rows))
    out = io.StringIO()
    write_log(table, pairs, out)
    return out.getvalue()


def _index(text: str):
    return index_from_labeled_rows(ZeekLogReader(io.StringIO(text), "conn.labeled.log"))


def test_build_uid_index_maps_uids():
    _, ruleset = load_config(TCP_OR_UDP)
    rows = [conn_row(uid="Ctcp", proto="tcp"), conn_row(uid="Cudp", proto="udp")]
    pairs = label_conn(table_from_text(conn_log_text(rows)), ruleset)
    index = _index(_labeled_text(rows, pairs))
    assert len(index) == 2
    assert index.get("Ctcp") == ("Malicious", "(empty)")
    assert index.get("Cudp") == ("Benign", "(empty)")
    assert index.get("Cabsent") is None
    assert "Ctcp" in index and "Cabsent" not in index


def test_build_uid_index_skips_unset_uids_with_warning(caplog):
    text = _labeled_text([conn_row(uid="-"), conn_row(uid="Cok")], [EMPTY_PAIR, EMPTY_PAIR])
    with caplog.at_level("WARNING"):
        index = _index(text)
    assert len(index) == 1
    assert index.skipped_unset == 1
    assert "had no uid" in caplog.text


def test_build_uid_index_keeps_first_of_duplicates(caplog):
    text = _labeled_text(
        [conn_row(uid="Cdup"), conn_row(uid="Cdup")],
        [("Benign", "(empty)"), ("Malicious", "(empty)")],
    )
    with caplog.at_level("WARNING"):
        index = _index(text)
    assert index.get("Cdup") == ("Benign", "(empty)")
    assert index.duplicates == 1
    assert "duplicate uids" in caplog.text


def test_labels_of_table_reads_back_written_labels():
    text = _labeled_text(
        [conn_row(uid="Ca"), conn_row(uid="Cb"), conn_row(uid="Cc")],
        [("Malicious", "From_malicious"), ("Malicious", "From_malicious"), ("-", "")],
    )
    index = _index(text)
    assert index.get("Ca") == ("Malicious", "From_malicious")
    # equal pairs share one tuple, and unset label cells read as (empty)
    assert index.get("Ca") is index.get("Cb")
    assert index.get("Cc") is EMPTY_PAIR


def test_labels_of_table_requires_label_columns(tmp_path):
    conn = tmp_path / "conn.log"
    conn.write_text(conn_log_text([conn_row()]))
    with pytest.raises(UsageError, match="run 'label' before 'propagate'"):
        propagate_dir(conn, tmp_path, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conn.log"]


def test_index_from_labeled_rows_streaming():
    text = _labeled_text(
        [conn_row(uid="Ca"), conn_row(uid="Cb", proto="udp")],
        [("Malicious", "From_malicious"), EMPTY_PAIR],
    )
    index = _index(text)
    assert index.get("Ca") == ("Malicious", "From_malicious")
    # the written (empty) marker reads back as the (empty) pair, not None
    assert index.get("Cb") == EMPTY_PAIR


def test_index_from_labeled_rows_json_lines():
    objs = [
        {"uid": "Ca", "label": "Malicious", "detailed_label": "From_malicious"},
        {"uid": None, "label": "Benign", "detailed_label": "(empty)"},
        {"uid": "Cb", "label": "", "detailed_label": "-"},
        {"uid": "Ca", "label": "Benign", "detailed_label": "(empty)"},
    ]
    index = _index("".join(json.dumps(o) + "\n" for o in objs))
    assert dict(index) == {"Ca": ("Malicious", "From_malicious"), "Cb": EMPTY_PAIR}
    assert (index.skipped_unset, index.duplicates) == (1, 1)


def test_index_from_labeled_rows_requires_label_columns():
    reader = ZeekLogReader(io.StringIO(conn_log_text([conn_row()])), "conn.log")
    with pytest.raises(UsageError, match="run 'label' before 'propagate'"):
        index_from_labeled_rows(reader)


def test_index_from_labeled_rows_takes_label_keys_after_the_first_object():
    objs = [
        {"uid": "Ca"},
        {"uid": "Cb", "label": "Malicious", "detailed_label": "From_malicious"},
    ]
    index = _index("".join(json.dumps(o) + "\n" for o in objs))
    assert dict(index) == {"Ca": EMPTY_PAIR, "Cb": ("Malicious", "From_malicious")}
