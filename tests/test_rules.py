from __future__ import annotations

import datetime
import ipaddress
import random

import pytest

from conftest import conn_log_text, conn_row, json_lines, table_from_text, zeek_tsv
from randgen import gen_case, make_flow, flow_to_cells, oracle_first_match

from zeeklabel.errors import ConfigError
from zeeklabel.labeler import label_conn
from zeeklabel.ontology import load_ontology
from zeeklabel.rules import (
    COLUMNS,
    ConnSchema,
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
    for record in table.records:
        flow = schema.view(record)
        uid = row_field(record, table.header, "uid")
        got[uid] = flow.value("Tos")
        assert match_rule(ruleset.rules[0], flow) is (uid == "C16")
        assert classify(record) == (0 if uid == "C16" else 1)
    assert got == want


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
