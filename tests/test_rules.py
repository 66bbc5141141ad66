from __future__ import annotations

import datetime
import ipaddress
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conn_log_text, conn_row, json_lines, table_from_text, zeek_tsv
from randgen import gen_case, make_flow, flow_to_cells, oracle_first_match

from zeeklabel.errors import ConfigError
from zeeklabel.labeler import label_conn
from zeeklabel.ontology import load_ontology
from zeeklabel.rules import (
    COLUMNS,
    ConnSchema,
    _address,
    load_config,
    match_rule,
    parse_ruleset,
    render_ruleset,
)
from zeeklabel.zeekio import row_field

DOS_CONFIG = """\
[ontology]
technique: DoS
sub-technique: DDoS
process: Linux
app-protocol: NTP

[rules]
Malicious, From_malicious-To_benign-DoS-DDoS-Linux-NTP:
    - srcIP=77.67.96.222 and Proto=UDP
    - srcIP=122.17.49.142 and Proto=TCP
    - dstIP=2a00:1450:400c:c05::69
"""


def _view(**overrides):
    table = table_from_text(conn_log_text([conn_row(**overrides)]))
    schema = ConnSchema(table.header, table.format)
    return schema.view(next(table.iter_rows()))


def _single_rule(condition_line: str, spec=None):
    spec = spec or load_ontology("")
    ruleset = parse_ruleset(f"Benign, (empty):\n    - {condition_line}\n", spec)
    assert len(ruleset) == 1
    return ruleset.rules[0]


def test_dos_config_parses_to_one_rule_three_groups():
    spec, ruleset = load_config(DOS_CONFIG)
    assert len(ruleset) == 1
    rule = ruleset.rules[0]
    assert rule.label_text == "Malicious"
    assert rule.detail_text == "From_malicious-To_benign-DoS-DDoS-Linux-NTP"
    groups = [
        [(c.column, c.op, c.value) for c in g.conditions] for g in rule.groups
    ]
    assert groups == [
        [
            ("srcIP", "=", ipaddress.ip_address("77.67.96.222")),
            ("Proto", "=", "UDP"),
        ],
        [
            ("srcIP", "=", ipaddress.ip_address("122.17.49.142")),
            ("Proto", "=", "TCP"),
        ],
        [("dstIP", "=", ipaddress.ip_address("2a00:1450:400c:c05::69"))],
    ]


def test_bare_rule_block_needs_no_section_marker():
    spec = load_ontology("")
    ruleset = parse_ruleset("Benign, (empty):\n- Proto=tcp\n", spec)
    assert len(ruleset) == 1


def test_header_detail_tokens_any_order():
    config = (
        "[ontology]\ntechnique: Discovery\nprocess: Nmap\n[rules]\n"
        "Malicious, Nmap-To_benign-Discovery-From_malicious:\n    - Proto=tcp\n"
    )
    _, ruleset = load_config(config)
    assert ruleset.rules[0].detail_text == "From_malicious-To_benign-Discovery-Nmap"


def test_conjunction_spellings_are_equivalent():
    spec = load_ontology("")
    variants = [
        "srcPort=80 and dstPort=443",
        "srcPort=80 AND dstPort=443",
        "srcPort=80 & dstPort=443",
        "srcPort=80&dstPort=443",
    ]
    parsed = [_single_rule(v, spec).groups for v in variants]
    assert all(g == parsed[0] for g in parsed[1:])
    assert len(parsed[0][0].conditions) == 2


def test_comments_and_blank_lines_ignored():
    spec = load_ontology("")
    ruleset = parse_ruleset(
        "# header comment\n\nBenign, (empty):\n\n    # why not\n    - Proto=udp\n",
        spec,
    )
    assert len(ruleset) == 1


def test_rule_without_conditions_rejected():
    spec = load_ontology("")
    with pytest.raises(ConfigError, match="line 1.*no condition lines"):
        parse_ruleset("Benign, (empty):\n", spec)
    with pytest.raises(ConfigError, match="line 1.*no condition lines"):
        parse_ruleset("Benign, (empty):\nMalicious, (empty):\n    - Proto=tcp\n", spec)


def test_condition_before_header_rejected():
    with pytest.raises(ConfigError, match="line 1: condition line.*before any rule header"):
        parse_ruleset("- Proto=tcp\n", load_ontology(""))


def test_header_without_comma_rejected():
    with pytest.raises(ConfigError, match="line 1: rule header needs"):
        parse_ruleset("Malicious:\n    - Proto=tcp\n", load_ontology(""))


def test_header_without_colon_rejected():
    with pytest.raises(ConfigError, match="line 1: expected a 'label"):
        parse_ruleset("Malicious, (empty)\n    - Proto=tcp\n", load_ontology(""))


def test_header_with_unknown_label_rejected():
    with pytest.raises(ConfigError, match="line 1: label 'Sus'"):
        parse_ruleset("Sus, (empty):\n    - Proto=tcp\n", load_ontology(""))


def test_header_with_unknown_detail_item_rejected():
    with pytest.raises(ConfigError, match="line 1: unknown detail item 'Discovery'"):
        parse_ruleset(
            "Malicious, From_malicious-Discovery:\n    - Proto=tcp\n",
            load_ontology(""),
        )


def test_unknown_column_rejected():
    with pytest.raises(ConfigError, match="line 2: unknown column 'Port'"):
        parse_ruleset("Benign, (empty):\n    - Port=80\n", load_ontology(""))


def test_malformed_condition_rejected():
    with pytest.raises(ConfigError, match="line 2: expected 'column op value'"):
        parse_ruleset("Benign, (empty):\n    - Proto equals tcp\n", load_ontology(""))


def test_dangling_conjunction_rejected():
    with pytest.raises(ConfigError, match="line 2: dangling conjunction"):
        parse_ruleset("Benign, (empty):\n    - Proto=tcp &\n", load_ontology(""))
    with pytest.raises(ConfigError, match="line 2: expected 'column op value'"):
        parse_ruleset("Benign, (empty):\n    - Proto=tcp and\n", load_ontology(""))


@pytest.mark.parametrize("column", ["Proto", "State", "srcIP"])
@pytest.mark.parametrize("op", ["<", ">", "<=", ">="])
def test_ordering_operators_rejected_for_strings_and_ips(column, op):
    value = "10.0.0.1" if column == "srcIP" else "tcp"
    with pytest.raises(ConfigError, match=f"ordering operator '{op}'"):
        parse_ruleset(
            f"Benign, (empty):\n    - {column}{op}{value}\n", load_ontology("")
        )


def test_cidr_rejected_with_guidance():
    with pytest.raises(ConfigError, match="CIDR ranges are not supported"):
        parse_ruleset(
            "Benign, (empty):\n    - srcIP=10.0.0.0/8\n", load_ontology("")
        )


def test_bad_ip_rejected():
    with pytest.raises(ConfigError, match="'300.1.1.1' is not an IP address"):
        parse_ruleset("Benign, (empty):\n    - srcIP=300.1.1.1\n", load_ontology(""))


def test_bad_date_rejected():
    with pytest.raises(ConfigError, match="Date expects YYYY-MM-DD"):
        parse_ruleset("Benign, (empty):\n    - Date=24/01/2023\n", load_ontology(""))


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="column 'Bytes' expects a number"):
        parse_ruleset("Benign, (empty):\n    - Bytes>lots\n", load_ontology(""))


def test_value_typing():
    spec = load_ontology("")
    rule = _single_rule(
        "srcPort=443 and Duration<1.5 and Date>=2023-01-24 and start<1674567891 "
        "and srcIP=10.0.0.1",
        spec,
    )
    values = {c.column: c.value for c in rule.groups[0].conditions}
    assert values["srcPort"] == 443 and isinstance(values["srcPort"], int)
    assert values["Duration"] == 1.5 and isinstance(values["Duration"], float)
    assert values["Date"] == datetime.date(2023, 1, 24)
    assert values["start"] == 1674567891
    assert values["srcIP"] == ipaddress.ip_address("10.0.0.1")


def _holds(condition_text: str, flow) -> bool:
    return match_rule(_single_rule(condition_text), flow)


def test_evaluate_proto_case_insensitive():
    flow = _view(proto="tcp")
    assert _holds("Proto=TCP", flow)
    assert _holds("Proto=tcp", flow)
    assert not _holds("Proto=udp", flow)


def test_evaluate_state_case_insensitive():
    flow = _view(conn_state="S0")
    assert _holds("State=s0", flow)
    assert not _holds("State=SF", flow)


def test_evaluate_ip_spelling_variants_equal():
    flow = _view(**{"id.resp_h": "2a00:1450:400c:c05::69"})
    assert _holds("dstIP=2a00:1450:400c:0c05:0:0:0:0069", flow)
    flow = _view(**{"id.resp_h": "2a00:1450:400c:0c05:0:0:0:0069"})
    assert _holds("dstIP=2a00:1450:400c:c05::69", flow)


def test_evaluate_unset_field_never_matches():
    flow = _view(duration="-")
    assert not _holds("Duration=0.0", flow)
    assert not _holds("Duration<9e9", flow)
    assert not _holds("Duration>-1.0", flow)


def test_evaluate_tos_missing_column_never_matches():
    flow = _view()
    assert not _holds("Tos=0", flow)
    assert not _holds("Tos>=0", flow)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_tos_reads_a_set_value_and_unset_as_none(fmt):
    """The reference reading and the classifier agree with literal Tos values."""
    if fmt == "tsv":
        text = zeek_tsv("conn", ["ts", "uid", "tos"], ["time", "string", "count"],
                        [["1.0", "C16", "16"], ["2.0", "Cdash", "-"]])
        want = {"C16": 16, "Cdash": None}
    else:
        text = json_lines(
            {"ts": 1.0, "uid": "C16", "tos": 16},
            {"ts": 2.0, "uid": "Cdash", "tos": "-"},
            {"ts": 3.0, "uid": "Cnull", "tos": None},
            {"ts": 4.0, "uid": "Cabsent"},
        )
        want = {"C16": 16, "Cdash": None, "Cnull": None, "Cabsent": None}
    table = table_from_text(text)
    schema = ConnSchema(table.header, table.format)
    _, ruleset = load_config("Malicious, (empty):\n    - Tos=16\n")
    classify = ruleset.classifier(table.header, table.format)
    got = {}
    for record in table.iter_rows():
        flow = schema.view(record)
        uid = row_field(record, table.header, "uid")
        got[uid] = flow.value("Tos")
        assert match_rule(ruleset.rules[0], flow) is (uid == "C16")
        assert classify(record) == (0 if uid == "C16" else 1)
    assert got == want


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_dst_ip_with_a_colon_that_is_no_address_reads_as_unset(fmt):
    """The reference reading and the classifier agree: only the spellings of fe80::1 match it."""
    spellings = {"C1": "fe80::1", "Cupper": "FE80:0::1", "Czz": "fe80::zz", "C2": "fe80::2"}
    if fmt == "tsv":
        text = conn_log_text([conn_row(uid=uid, **{"id.resp_h": h}) for uid, h in spellings.items()])
    else:
        text = json_lines(*({"ts": 1.0, "uid": uid, "id.resp_h": h} for uid, h in spellings.items()))
    table = table_from_text(text)
    schema = ConnSchema(table.header, table.format)
    _, ruleset = load_config("Malicious, (empty):\n    - dstIP=fe80::1\n")
    classify = ruleset.classifier(table.header, table.format)
    got = {}
    for record in table.iter_rows():
        flow = schema.view(record)
        uid = row_field(record, table.header, "uid")
        got[uid] = flow.value("dstIP")
        assert match_rule(ruleset.rules[0], flow) is (uid in ("C1", "Cupper"))
        assert classify(record) == (0 if uid in ("C1", "Cupper") else 1)
    assert got == {"C1": "fe80::1", "Cupper": "fe80::1", "Czz": None, "C2": "fe80::2"}


def test_evaluate_date_from_epoch_utc():
    flow = _view(ts="1674567890.500000")
    assert _holds("Date=2023-01-24", flow)
    assert _holds("Date<2023-01-25", flow)


def test_evaluate_start_epoch_ordering():
    flow = _view(ts="1674567890.500000")
    assert _holds("start>1674567890.0", flow)
    assert not _holds("start>1674567890.5", flow)
    assert _holds("start>=1674567890.5", flow)


def test_evaluate_packets_and_bytes_sum_both_directions():
    flow = _view(orig_pkts="12", resp_pkts="10", orig_bytes="900", resp_bytes="-")
    assert _holds("Packets=22", flow)
    assert _holds("Bytes=900", flow)


def test_match_rule_or_of_ands():
    _, ruleset = load_config(DOS_CONFIG)
    rule = ruleset.rules[0]
    udp_hit = _view(**{"id.orig_h": "77.67.96.222"}, proto="udp")
    wrong_proto = _view(**{"id.orig_h": "77.67.96.222"}, proto="tcp")
    dst_hit = _view(**{"id.resp_h": "2a00:1450:400c:c05::69"}, proto="icmp")
    assert match_rule(rule, udp_hit)
    assert not match_rule(rule, wrong_proto)
    assert match_rule(rule, dst_hit)


def test_first_match_wins_order():
    config = (
        "Malicious, (empty):\n    - Proto=tcp\n"
        "Benign, (empty):\n    - srcPort=40000\n"
    )
    _, ruleset = load_config(config)
    table = table_from_text(conn_log_text([conn_row()]))
    assert label_conn(table, ruleset) == [("Malicious", "(empty)")]


def test_render_round_trip_structural_identity():
    spec, ruleset = load_config(DOS_CONFIG)
    rendered = render_ruleset(ruleset)
    assert parse_ruleset(rendered, spec) == ruleset


def test_render_of_empty_ruleset():
    spec, ruleset = load_config("[ontology]\n")
    assert len(ruleset) == 0
    assert render_ruleset(ruleset) == ""


def test_columns_table_is_the_documented_dozen():
    assert list(COLUMNS) == [
        "Date", "start", "Duration", "Proto", "srcIP", "srcPort",
        "dstIP", "dstPort", "State", "Tos", "Packets", "Bytes",
    ]


def test_random_rulesets_agree_with_oracle():
    rng = random.Random(1811)
    for _ in range(40):
        config_text, oracle_rules = gen_case(rng)
        _, ruleset = load_config(config_text)
        flows = [make_flow(rng) for _ in range(10)]
        table = table_from_text(conn_log_text([flow_to_cells(f) for f in flows]))
        got = label_conn(table, ruleset)
        want = [oracle_first_match(oracle_rules, f) for f in flows]
        assert got == want


def test_random_rulesets_render_round_trip():
    rng = random.Random(90125)
    for _ in range(40):
        config_text, _ = gen_case(rng)
        spec, ruleset = load_config(config_text)
        assert parse_ruleset(render_ruleset(ruleset), spec) == ruleset


def test_a_json_empty_list_reads_as_unset():
    """``[]`` is an empty set, as Zeek's TSV writer prints (empty): the getter, the view and the classifier
    all read the row's proto as unset, so a Proto rule does not match it."""
    table = table_from_text(json_lines(
        {"ts": 1.0, "uid": "Cempty", "proto": []},
        {"ts": 2.0, "uid": "Ctcp", "proto": "tcp"},
    ))
    schema = ConnSchema(table.header, table.format)
    _, ruleset = load_config("Benign, (empty):\n    - Proto=tcp\n")
    classify = ruleset.classifier(table.header, table.format)
    got = {}
    for record in table.iter_rows():
        uid = row_field(record, table.header, "uid")
        got[uid] = (row_field(record, table.header, "proto"), schema.view(record).value("Proto"))
        assert match_rule(ruleset.rules[0], schema.view(record)) is (uid == "Ctcp")
        assert classify(record) == (0 if uid == "Ctcp" else 1)
    assert got == {"Cempty": (None, None), "Ctcp": ("tcp", "tcp")}


def _ipaddress_text(text: str) -> str | None:
    """What ``_address`` must give for a text with a colon: ipaddress's own text, None where it raises."""
    try:
        return str(ipaddress.ip_address(text))
    except ValueError:
        return None


_HEX = "0123456789abcdefABCDEF"
# a NUL, non-ASCII digits (Arabic-Indic one, fullwidth one), lone surrogates and a space
_ODD = ["\x00", "\u0661", "\uff11", "\udc80", "\ud800", " "]


@st.composite
def _near_ipv6(draw) -> str:
    """Text near IPv6, mostly not an address: hextets of 0-5 hex digits in either case, too many or too few
    groups, a ``::`` at any position, a dotted tail with leading zeros or octets past 255, a ``%`` scope id,
    and now and then an odd character anywhere."""
    groups = draw(st.lists(st.text(_HEX, max_size=5), max_size=10))
    text = ":".join(groups)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(groups)))
        text = ":".join(groups[:at]) + "::" + ":".join(groups[at:])
    if draw(st.booleans()):
        octet = st.integers(0, 300).map(str) | st.integers(0, 99).map("0{}".format)
        text += ("" if text.endswith(":") else ":") + ".".join(draw(st.lists(octet, min_size=3, max_size=5)))
    if draw(st.booleans()):
        text += "%" + draw(st.text("eth0%", max_size=4))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_ODD)) + text[at:]
    return text


@st.composite
def _respelled_ipv6(draw) -> str:
    """An IPv6 address in one of its spellings: each hextet zero-padded or not, in either case, a run of zero
    hextets as ``::``, the last 32 bits now and then as a dotted quad, and a scope id now and then. Zero, one
    and ffff words are common, so IPv4-mapped and IPv4-compatible addresses come up."""
    words = draw(st.lists(st.sampled_from([0, 0, 0, 1, 0xFFFF]) | st.integers(0, 0xFFFF), min_size=8, max_size=8))
    hextets = [draw(st.sampled_from(["{:x}", "{:X}", "{:04x}", "{:04X}", "{:03x}"])).format(w) for w in words]
    tail = ""
    if draw(st.booleans()):
        tail = ".".join(str(b) for b in (words[6] >> 8, words[6] & 255, words[7] >> 8, words[7] & 255))
        hextets, words = hextets[:6], words[:6]
    start = draw(st.integers(0, len(words)))
    end = draw(st.integers(start, len(words)))
    if start < end and not any(words[start:end]):
        text = ":".join(hextets[:start]) + "::" + ":".join(hextets[end:])
    else:
        text = ":".join(hextets)
    if tail:
        text += ("" if text.endswith(":") else ":") + tail
    if draw(st.integers(0, 7)) == 0:
        text += "%eth0"
    return text


@settings(max_examples=500, deadline=None)
@given(st.one_of(_near_ipv6(), _respelled_ipv6()))
def test_an_address_cell_reads_as_ipaddress_writes_it(text):
    """libc's inet_pton and inet_ntop give ipaddress's text for every IPv6 cell, and None where it raises;
    IPv4 text, which has no colon, is kept as written."""
    assert _address(text) == (_ipaddress_text(text) if ":" in text else text)


@pytest.mark.parametrize("text", [
    "::", "::1", "::ffff:1.2.3.4", "::1.2.3.4", "64:ff9b::1.2.3.4", "fe80::1%eth0", "1:2:3:4:5:6:7::",
    "1:2:3:4::5:6:7:8", "1:0:0:1:0:0:0:1", "fd00::3d5b6c",
])
def test_an_address_cell_reads_as_ipaddress_writes_it_on_edge_cases(text):
    assert _address(text) == _ipaddress_text(text)
