"""A RuleSet's compiled classifier against the reference reading and the oracle.

Configs are large and key-heavy (see randgen.gen_keyed_case), and every flow
is classified from a TSV and from a JSON-lines rendering of the same record,
with IPv6 cells sometimes in an alternate spelling and some cells unset. Some
flows and rules take addresses that randgen's pool lacks, in more spellings:
IPv4-mapped (dotted and hex), IPv4-compatible, upper case, leading zeros and
a scope id; they stay in this file, as randgen's pool seeds the acceptance
oracle. The
classifier's rule number must equal the first rule that ``match_rule`` finds
over ``ConnSchema.view`` and the oracle's first match. Three header layouts:
conn.log's usual fields, which have no ``tos``; a ``tos`` column in front,
which the oracle does not model; and a stale copy of a rule column in front,
where the last of the repeated columns is the one read.
"""

from __future__ import annotations

import builtins
import io
import ipaddress
import json
import random

from conftest import CONN_FIELDS, CONN_TYPES, conn_log_text, zeek_tsv
from randgen import (
    IP_POOL,
    DETAILS,
    IP_VARIANTS,
    KEY_COLUMNS,
    LABELS,
    ONTOLOGY_TEXT,
    PORTS,
    PROTOS,
    flow_to_cells,
    flow_to_json,
    gen_keyed_case,
    make_flow,
    oracle_first_match,
    oracle_flow_value,
    oracle_match,
)

from zeeklabel.labeler import label_conn
from zeeklabel.rules import COLUMNS, ConnSchema, load_config, match_rule
from zeeklabel.zeekio import read_log

_IP_FIELDS = {"src_ip": "id.orig_h", "dst_ip": "id.resp_h"}
# spellings of addresses that randgen's pool lacks, each list's first the one a flow holds
_SPELLED = [
    ["::ffff:198.18.0.6", "::FFFF:C612:6", "0:0:0:0:0:ffff:c612:0006", "::ffff:198.18.0.6"],  # IPv4-mapped
    ["::198.18.0.7", "::C612:7", "0000:0:0::c612:0007"],  # IPv4-compatible
    ["64:ff9b::203.0.113.10", "64:FF9B::CB00:710A", "0064:ff9b:0000::cb00:710a"],  # a dotted tail, not mapped
    ["fe80::1%eth0", "FE80::0001%eth0", "fe80:0:0:0:0:0:0:1%eth0"],  # a scope id
    ["fe80::1", "FE80:0::1", "fe80:0000:0000:0000:0000:0000:0000:0001"],  # and that address without it
]
# every spelling a cell may take, by address
_SPELLINGS = {ipaddress.ip_address(text): [text, variant] for text, variant in IP_VARIANTS.items()}
_SPELLINGS.update((ipaddress.ip_address(spellings[0]), spellings) for spellings in _SPELLED)
# flow key -> its conn.log field, for the cells a flow may leave unset
_UNSETTABLE = {
    "ts": "ts", "src_ip": "id.orig_h", "src_port": "id.orig_p", "dst_ip": "id.resp_h",
    "dst_port": "id.resp_p", "proto": "proto", "state": "conn_state",
}
_STAND_IN = {"ts": 0.0, "src_ip": "0.0.0.0", "src_port": 0, "dst_ip": "0.0.0.0", "dst_port": 0,
             "proto": "tcp", "state": "SF"}
# a stale copy of one of these goes in front of the "repeat" layout
_STALE = {
    "proto": lambda rng: rng.choice(PROTOS),
    "id.orig_h": lambda rng: rng.choice(IP_POOL),
    "id.resp_p": lambda rng: str(rng.choice(PORTS)),
    "orig_pkts": lambda rng: rng.choice(["-", "0", "7", "20000"]),
    "duration": lambda rng: rng.choice(["-", "0.5", "1000.0"]),
}


def _renderings(flows: list[dict], rng: random.Random, layout: str = "plain") -> tuple[str, str]:
    """The same flows as a TSV conn.log and as JSON lines.

    An unset TSV cell is ``-``, ``(empty)`` or empty; an unset JSON value is
    left out or null. ``layout`` puts a ``tos`` column or a stale copy of a
    rule column ("repeat") in front of the usual fields.
    """
    front = {"plain": None, "tos": "tos", "repeat": rng.choice(list(_STALE))}[layout]
    fields, types = list(CONN_FIELDS), list(CONN_TYPES)
    if front is not None:
        fields.insert(0, front)
        types.insert(0, "count" if front == "tos" else CONN_TYPES[CONN_FIELDS.index(front)])
    tsv_rows, json_lines = [], []
    for flow in flows:
        unset = [key for key in _UNSETTABLE if flow[key] is None]
        filled = {**flow, **{key: _STAND_IN[key] for key in unset}}
        cells = flow_to_cells(filled)
        obj = flow_to_json(filled)
        for key in unset:
            cells[CONN_FIELDS.index(_UNSETTABLE[key])] = rng.choice(["-", "(empty)", ""])
            if rng.random() < 0.5:
                del obj[_UNSETTABLE[key]]
            else:
                obj[_UNSETTABLE[key]] = None
        for key, name in _IP_FIELDS.items():
            spellings = _SPELLINGS.get(flow[key])
            if spellings and rng.random() < 0.5:
                cells[CONN_FIELDS.index(name)] = obj[name] = rng.choice(spellings)
        line = json.dumps(obj)
        if front == "tos":
            tos = rng.choice(["0", "16", "-"])
            cells.insert(0, tos)
            line = json.dumps({"tos": None if tos == "-" else int(tos), **obj})
        elif front is not None:
            # json.loads keeps the last of a repeated key, as the TSV reader
            # keeps the last column; an unset value is null, or the stale one shows
            stale = _STALE[front](rng)
            cells.insert(0, stale)
            line = "{" + json.dumps(front) + ": " + json.dumps(stale) + ", " + json.dumps({**obj, front: obj.get(front)})[1:]
        tsv_rows.append(cells)
        json_lines.append(line)
    tsv = conn_log_text(tsv_rows) if front is None else zeek_tsv("conn", fields, types, tsv_rows)
    return tsv, "\n".join(json_lines) + "\n"


def _library_value(column: str, flow: dict):
    """The oracle's value as a Flow types it: address text, lowercased Proto/State."""
    value = oracle_flow_value(column, flow)
    if value is None:
        return None
    if column in ("srcIP", "dstIP"):
        return str(value)
    if column in ("Proto", "State"):
        return value.lower()
    return value


def _line_kinds(group: list[tuple]) -> set[str]:
    return {c[0] for c in group if c[0] in KEY_COLUMNS and c[1] == "="}


def _spelled_rules(rng: random.Random) -> list[dict]:
    """Oracle rules on the addresses of ``_SPELLED``, each value in one of its spellings, some with a Proto."""
    rules = []
    for _ in range(6):
        groups = []
        for _ in range(rng.randint(1, 2)):
            group = []
            for column in rng.sample(["srcIP", "dstIP"], rng.randint(1, 2)):
                spellings = rng.choice(_SPELLED)
                group.append((column, "=", ipaddress.ip_address(spellings[0]), rng.choice(spellings)))
            if rng.random() < 0.3:
                proto = rng.choice(PROTOS)
                group.append(("Proto", "=", proto, proto))
            groups.append(group)
        rules.append({"label": rng.choice(LABELS), "detail": rng.choice(DETAILS), "groups": groups})
    return rules


def _config_text(rules: list[dict]) -> str:
    """The config of oracle rules, written as randgen.gen_keyed_case writes it."""
    lines = [ONTOLOGY_TEXT, "[rules]"]
    for rule in rules:
        lines.append(f"{rule['label']}, {rule['detail']}:")
        lines += ["    - " + " and ".join(f"{c}{op}{text}" for c, op, _, text in group) for group in rule["groups"]]
    return "\n".join(lines) + "\n"


def test_index_agrees_with_oracle_on_tsv_and_json():
    rng, spell = random.Random(90210), random.Random(5952)
    checked = unmatched = deep_wins = unset = spelled_wins = 0
    keyless_before_keyed = keyless_after_keyed = split_rules = 0
    layouts = {"plain": 0, "tos": 0, "repeat": 0}
    for _ in range(12):
        config_text, oracle_rules = gen_keyed_case(rng, rng.randint(50, 200))
        assert _config_text(oracle_rules) == config_text
        lines = [g for rule in oracle_rules for g in rule["groups"]]
        keyed_at = [i for i, g in enumerate(lines) if _line_kinds(g)]
        keyless_at = [i for i, g in enumerate(lines) if not _line_kinds(g)]
        keyless_before_keyed += any(i < keyed_at[-1] for i in keyless_at)
        keyless_after_keyed += any(i > keyed_at[0] for i in keyless_at)
        split_rules += sum(
            len({frozenset(_line_kinds(g)) for g in rule["groups"]}) > 1
            for rule in oracle_rules
        )
        spelled = _spelled_rules(spell)
        for rule in spelled:
            oracle_rules.insert(spell.randint(0, 20), rule)
        _, ruleset = load_config(_config_text(oracle_rules))

        flows = [make_flow(rng) for _ in range(60)]
        for flow in flows:
            flow["ts"] = float(f"{flow['ts']:.6f}")  # as both renderings carry it
            for key in _IP_FIELDS:
                if spell.random() < 0.3:
                    flow[key] = ipaddress.ip_address(spell.choice(_SPELLED)[0])
            if rng.random() < 0.2:
                flow[rng.choice(list(_UNSETTABLE))] = None
                unset += 1
        want = [oracle_first_match(oracle_rules, f) for f in flows]
        winners = [
            next((i for i, r in enumerate(oracle_rules) if oracle_match(r, f)), len(oracle_rules))
            for f in flows
        ]
        unmatched += winners.count(len(oracle_rules))
        deep_wins += sum(20 <= w < len(oracle_rules) for w in winners)
        spelled_wins += sum(any(oracle_rules[w] is rule for rule in spelled) for w in winners if w < len(oracle_rules))
        for layout in layouts:
            for text in _renderings(flows, rng, layout):
                table = read_log(io.StringIO(text), "<gen>")
                classify = ruleset.classifier(table.header, table.format)
                numbers = [classify(row) for row in table.iter_rows()]
                schema = ConnSchema(table.header, table.format)
                reference = [
                    next((i for i, rule in enumerate(ruleset.rules) if match_rule(rule, schema.view(row))), len(ruleset))
                    for row in table.iter_rows()
                ]
                assert numbers == reference, (layout, table.format)
                layouts[layout] += len(numbers)
                if layout == "tos":  # the oracle has no Tos
                    continue
                assert numbers == winners, (layout, table.format)
                assert label_conn(table, ruleset) == want, (layout, table.format)
                for row, flow in zip(table.iter_rows(), flows[:5]):
                    view = schema.view(row)
                    for column in COLUMNS:
                        assert view.value(column) == _library_value(column, flow), (column, table.format)
                    for rule, oracle_rule in zip(ruleset.rules, oracle_rules):
                        assert match_rule(rule, view) == oracle_match(oracle_rule, flow)
                checked += len(flows)
    assert checked == 12 * 60 * 2 * 2
    assert layouts == {"plain": 12 * 60 * 2, "tos": 12 * 60 * 2, "repeat": 12 * 60 * 2}
    # the cases exercise what the index has to get right
    assert keyless_before_keyed == keyless_after_keyed == 12
    assert split_rules > 100
    assert unmatched > 10 and deep_wins > 200 and unset > 100 and spelled_wins > 50


def test_a_config_value_is_data_not_source():
    """A value that would be code if pasted into the classifier's source stays a value."""
    evil = 'x");setattr(__import__("builtins"),"ZEEKLABEL_RAN",1);("'
    _, ruleset = load_config(
        f"Malicious, (empty):\n    - Proto={evil}\n"
        f"Benign, (empty):\n    - srcIP=10.0.0.1 and Proto={evil}\n"
    )
    rows = [flow_to_cells(make_flow(random.Random(seed))) for seed in range(20)]
    table = read_log(io.StringIO(conn_log_text(rows)), "<gen>")
    classify = ruleset.classifier(table.header, table.format)
    assert [classify(row) for row in table.iter_rows()] == [2] * 20
    assert not hasattr(builtins, "ZEEKLABEL_RAN")
    # and it matches a flow whose proto cell is that text, in any case
    cells = list(table.records[0])
    cells[CONN_FIELDS.index("proto")] = evil.upper()
    cells[CONN_FIELDS.index("id.orig_h")] = "10.0.0.1"
    assert classify("\t".join(cells)) == 0
    cells[CONN_FIELDS.index("proto")] = "tcp"
    assert classify("\t".join(cells)) == 2
