from __future__ import annotations

import io
import json
from itertools import chain

import pytest

from conftest import CONN_FIELDS, conn_log_text, conn_row, table_from_text, zeek_tsv

from zeeklabel.errors import LogFormatError, UsageError
from zeeklabel.rules import ConnSchema
from zeeklabel.zeekio import (
    ZeekLogReader,
    field_getter,
    first_getter,
    read_log,
    row_field,
    row_set_field,
    write_log,
)


def _json_lines(objs: list[dict]) -> str:
    return "".join(json.dumps(o) + "\n" for o in objs)


def test_tsv_header_parsed():
    table = table_from_text(conn_log_text([conn_row()]))
    h = table.header
    assert h.separator == "\t"
    assert h.set_separator == ","
    assert h.empty_field == "(empty)"
    assert h.unset_field == "-"
    assert h.path == "conn"
    assert h.fields == CONN_FIELDS
    assert len(h.fields) == 21
    assert table.format == "tsv"
    assert len(table) == 1
    assert table.trailer == ["#close\t2023-01-24-14-00-00"]


def test_tsv_cells_kept_verbatim():
    row = conn_row(duration="1.500000", orig_bytes="0")
    table = table_from_text(conn_log_text([row]))
    assert table.records[0] == row


def test_tsv_without_close_directive():
    text = zeek_tsv("conn", CONN_FIELDS, ["string"] * 21, [conn_row()], close=False)
    table = table_from_text(text)
    assert table.trailer == []
    assert len(table) == 1


def test_header_only_log_is_empty_table():
    text = conn_log_text([])
    table = table_from_text(text)
    assert len(table) == 0
    assert table.header.fields == CONN_FIELDS


def test_a_repeated_separator_before_fields_is_one_header():
    # only a #separator after the #fields line starts a second header block
    text = conn_log_text([conn_row()])
    table = table_from_text("#separator \\x09\n" + text)
    assert len(table) == 1
    assert table.header.fields == CONN_FIELDS


def test_missing_fields_directive_rejected():
    text = "#separator \\x09\n#unset_field\t-\n"
    with pytest.raises(LogFormatError, match="missing #fields"):
        table_from_text(text)


def test_fields_types_length_mismatch_rejected():
    text = "#separator \\x09\n#fields\ta\tb\n#types\tstring\n"
    with pytest.raises(LogFormatError, match="#fields and #types disagree"):
        table_from_text(text)


def test_non_zeek_input_rejected():
    with pytest.raises(LogFormatError, match="not a Zeek log"):
        table_from_text("ts,uid\n1,2\n")


def test_empty_input_rejected():
    with pytest.raises(LogFormatError, match="empty input"):
        table_from_text("")


def test_wrong_cell_count_names_the_row():
    good = "\t".join(conn_row())
    text = conn_log_text([])  # header with #close; inject rows manually
    head, close = text.rsplit("#close", 1)
    broken = head + good + "\tEXTRA\n#close" + close
    with pytest.raises(LogFormatError, match="row 1: expected 21 fields, got 22"):
        table_from_text(broken)


def test_json_lines_detected_and_fields_grow():
    objs = [
        {"ts": 1674567890.5, "uid": "Cjson1", "id.orig_h": "10.0.0.1"},
        {"ts": 1674567891.0, "uid": "Cjson2", "service": "dns"},
    ]
    table = table_from_text(_json_lines(objs))
    assert table.format == "json"
    assert table.header.fields == ["ts", "uid", "id.orig_h", "service"]
    # missing keys read as unset
    assert row_field(table.records[0], table.header, "service") is None
    assert row_field(table.records[1], table.header, "id.orig_h") is None


def test_json_invalid_line_reports_number():
    text = '{"ts": 1}\nnot json\n'
    with pytest.raises(LogFormatError, match="line 2: invalid JSON"):
        table_from_text(text)


def test_json_non_object_rejected():
    with pytest.raises(LogFormatError, match="line 2: expected a JSON object"):
        table_from_text('{"ts": 1}\n123\n')
    # a top-level array is not even log-shaped
    with pytest.raises(LogFormatError, match="not a Zeek log"):
        table_from_text("[1, 2, 3]\n")


def test_write_tsv_appends_label_columns_only():
    src = conn_log_text([conn_row(), conn_row(uid="COTHER1")])
    table = table_from_text(src)
    out = io.StringIO()
    write_log(table, [("(empty)", "(empty)")] * 2, out)
    got_lines = out.getvalue().splitlines()
    src_lines = src.splitlines()
    assert len(got_lines) == len(src_lines)
    for got, original in zip(got_lines, src_lines):
        if original.startswith("#fields"):
            assert got == original + "\tlabel\tdetailed_label"
        elif original.startswith("#types"):
            assert got == original + "\tstring\tstring"
        elif original.startswith("#"):
            assert got == original
        else:
            assert got == original + "\t(empty)\t(empty)"


def test_write_tsv_round_trips_through_reader():
    table = table_from_text(conn_log_text([conn_row()]))
    out = io.StringIO()
    write_log(table, [("Malicious", "From_malicious")], out)
    relabeled = table_from_text(out.getvalue())
    assert relabeled.header.fields == CONN_FIELDS + ["label", "detailed_label"]
    assert relabeled.records[0][-2:] == ["Malicious", "From_malicious"]
    assert relabeled.trailer == table.trailer


def test_write_json_adds_label_keys():
    objs = [{"ts": 1.0, "uid": "Cj1", "proto": "tcp"}]
    table = table_from_text(_json_lines(objs))
    out = io.StringIO()
    write_log(table, [("Benign", "(empty)")], out)
    obj = json.loads(out.getvalue())
    assert obj["label"] == "Benign"
    assert obj["detailed_label"] == "(empty)"
    assert obj["proto"] == "tcp"


def test_write_rejects_mismatched_label_count():
    table = table_from_text(conn_log_text([conn_row()]))
    with pytest.raises(UsageError, match="2 label pairs for 1 records"):
        write_log(table, [("a", "b"), ("c", "d")], io.StringIO())


def test_row_field_markers_read_as_none():
    table = table_from_text(
        conn_log_text([conn_row(duration="-", service="(empty)")])
    )
    row = next(table.iter_rows())
    assert row_field(row, table.header, "duration") is None
    assert row_field(row, table.header, "service") is None
    assert row_field(row, table.header, "uid") == "CDEFAULTuid"
    assert row_field(row, table.header, "no_such_column") is None


def test_row_set_field_splits_on_set_separator():
    fields = ["fuid", "conn_uids"]
    text = zeek_tsv(
        "files",
        fields,
        ["string", "set[string]"],
        [["Fa", "Cuid1,Cuid2"], ["Fb", "-"]],
    )
    table = table_from_text(text)
    rows = list(table.iter_rows())
    assert row_set_field(rows[0], table.header, "conn_uids") == ["Cuid1", "Cuid2"]
    assert row_set_field(rows[1], table.header, "conn_uids") == []


def test_row_set_field_json_list():
    objs = [
        {"fuid": "Fa", "conn_uids": ["Cuid1", "Cuid2"]},  # a list: its members
        {"fuid": "Fb"},  # an absent key
        {"fuid": "Fc", "conn_uids": "Cuid3,Cuid4"},  # a string is one member, not split
        {"fuid": "Fd", "conn_uids": None},  # null: unset
        {"fuid": "Fe", "conn_uids": 7},  # a number: its text
        {"fuid": "Ff", "conn_uids": [1.5, True]},  # members as a TSV cell spells them
        {"fuid": "Fg", "conn_uids": []},
        {"fuid": "Fh", "conn_uids": "-"},
    ]
    table = table_from_text(_json_lines(objs))
    rows = list(table.iter_rows())
    got = [row_set_field(row, table.header, "conn_uids") for row in rows]
    assert got == [["Cuid1", "Cuid2"], [], ["Cuid3,Cuid4"], [], ["7"], ["1.5", "T"], [], []]
    # the block reader tells an absent key (None) from an unset one ([])
    members = first_getter(table.header, "json", ("conn_uids",), members=True)(rows)
    assert members == [got[0], None, *got[2:]]
    # the first of several keys that an object has, even when it is null
    block = [{"id": None, "fingerprint": "F1"}, {"fingerprint": "F2"}, {"id": "X1", "fingerprint": "F3"}, {}]
    table = table_from_text(_json_lines(block))
    assert first_getter(table.header, "json", ("id", "fingerprint"))(block) == [None, "F2", "X1", None]
    assert first_getter(table.header, "json", ("id", "fingerprint"), members=True)(block) == [[], ["F2"], ["X1"], None]


def test_data_region_directive_starts_trailer_capture():
    src = conn_log_text([conn_row()])
    head, close = src.rsplit("#close", 1)
    text = head + "#close" + close + "stray trailing line\n"
    table = table_from_text(text)
    assert table.trailer == ["#close\t2023-01-24-14-00-00", "stray trailing line"]
    out = io.StringIO()
    write_log(table, [("(empty)", "(empty)")], out)
    assert out.getvalue().endswith("#close\t2023-01-24-14-00-00\nstray trailing line\n")


def test_streaming_reader_header_before_rows():
    stream = io.StringIO(conn_log_text([conn_row(), conn_row(uid="C2")]))
    reader = ZeekLogReader(stream, "conn.log")
    assert reader.header.fields == CONN_FIELDS
    uid_of = field_getter(reader.header, reader.format, "uid")
    uids = [uid_of(record) for record in chain.from_iterable(reader.blocks())]
    assert uids == ["CDEFAULTuid", "C2"]
    assert reader.trailer == ["#close\t2023-01-24-14-00-00"]


def _flow(**overrides):
    table = table_from_text(conn_log_text([conn_row(**overrides)]))
    schema = ConnSchema(table.header, table.format)
    return schema.view(next(table.iter_rows()))


def _json_flow(obj: dict):
    table = table_from_text(_json_lines([obj]))
    return ConnSchema(table.header, table.format).view(table.records[0])


def test_flow_view_typed_values():
    flow = _flow()
    assert flow.value("start") == 1674567890.5
    assert flow.value("Date").isoformat() == "2023-01-24"
    assert flow.value("Duration") == 1.5
    assert flow.value("Proto") == "tcp"
    assert flow.value("State") == "sf"  # lowercased: Proto/State compare case-insensitively
    assert flow.value("srcIP") == "10.0.0.1"
    assert flow.value("dstIP") == "203.0.113.10"
    assert flow.value("srcPort") == 40000
    assert flow.value("dstPort") == 443
    assert flow.value("Packets") == 22
    assert flow.value("Bytes") == 5000
    assert flow.value("Tos") is None  # conn.log has no tos column


def test_flow_view_unset_halves_count_as_zero():
    flow = _flow(orig_pkts="10", resp_pkts="-", orig_bytes="-", resp_bytes="300")
    assert flow.value("Packets") == 10
    assert flow.value("Bytes") == 300


def test_flow_view_all_unset_volume_is_zero():
    flow = _flow(orig_pkts="-", resp_pkts="-")
    assert flow.value("Packets") == 0


def test_flow_view_unset_scalar_is_none():
    flow = _flow(ts="-", duration="-")
    assert flow.value("start") is None
    assert flow.value("Date") is None
    assert flow.value("Duration") is None


def test_flow_view_json_rows():
    objs = [
        {
            "ts": 1674567890.5,
            "uid": "Cj1",
            "id.orig_h": "10.0.0.1",
            "id.orig_p": 40000,
            "id.resp_h": "203.0.113.10",
            "id.resp_p": 443,
            "proto": "tcp",
            "conn_state": "SF",
            "orig_pkts": 12,
            "resp_pkts": 10,
        }
    ]
    flow = _json_flow(objs[0])
    assert flow.value("start") == 1674567890.5
    assert flow.value("srcPort") == 40000
    assert flow.value("srcIP") == "10.0.0.1"
    assert flow.value("Packets") == 22
    assert flow.value("Duration") is None


def test_flow_view_counters_read_exactly():
    big = 2**63 - 1  # past 2**53, where a float would round it
    assert _flow(orig_bytes=str(big), resp_bytes="-").value("Bytes") == big
    assert _json_flow({"uid": "C1", "orig_bytes": big}).value("Bytes") == big


def test_flow_view_json_bool_in_a_number_column_is_unset():
    # a JSON bool reads as the text the TSV writer prints for it, T or F
    flow = _json_flow({"uid": "C1", "ts": True, "proto": False})
    assert flow.value("start") is None
    assert flow.value("Date") is None
    assert flow.value("Proto") == "f"


def test_fixture_logs_parse(data_dir):
    for name in ("portscan/conn.log", "proplogs/ssl.log", "proplogs/files.log"):
        with open(data_dir / name, encoding="utf-8") as fh:
            table = read_log(fh, name)
        assert len(table) > 0


class _Unseekable(io.FileIO):
    """A file that reads as a pipe does: once, in order, with no seeking back."""

    def seekable(self) -> bool:
        return False


@pytest.mark.parametrize("shape", ["row", "trailer", "json", "row-unseekable", "trailer-unseekable",
                                   "json-unseekable", "row-latin1"])
def test_an_error_before_a_non_utf8_byte_later_in_its_decode_chunk_comes_first(tmp_path, shape):
    # 200 rows, so the bad byte lies in a later 8 KiB chunk than the first: the reader has yielded rows already;
    # from a file, or from a stream that cannot seek back to read them a second time; with latin1, every uid holds
    # text past ASCII that latin-1 encodes, so the blocks before the bad byte are not ASCII but hold no surrogate
    shape, _, variant = shape.partition("-")
    unseekable, accent = variant == "unseekable", "café" if variant == "latin1" else ""
    lines = conn_log_text([conn_row(uid=f"C{accent}{i:03d}") for i in range(200)]).split("\n")
    if shape == "row":
        lines[150] = lines[150].replace("\t", " ", 1)
        want = f"row {150 - 7}: expected {len(CONN_FIELDS)} fields, got {len(CONN_FIELDS) - 1}"
    elif shape == "trailer":  # rows, #close, then a second log's header block
        lines[150:150] = ["#close\t2023-01-24-14-00-00", lines[0]]
        want = "line 152: a second header block starts here; split concatenated logs into one file each"
    else:
        lines = [json.dumps(dict(zip(CONN_FIELDS, line.split("\t")))) for line in lines if line and line[0] != "#"]
        lines[150] = lines[150][:-1]
        want = "line 151: invalid JSON"
    lines[155] = lines[155].replace("tcp", "t\udcffp")
    log = tmp_path / "conn.log"
    log.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    assert log.read_bytes().index(b"\xff") > 8192
    with (io.TextIOWrapper(io.BufferedReader(_Unseekable(log)), encoding="utf-8") if unseekable
          else open(log, encoding="utf-8")) as fh:
        with pytest.raises(LogFormatError) as raised:
            for _ in chain.from_iterable(ZeekLogReader(fh, "conn.log").blocks()):
                pass
    assert str(raised.value) == f"conn.log: {want}"
