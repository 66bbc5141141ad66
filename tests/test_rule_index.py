"""The equality-key index of a RuleSet against the brute-force oracle.

Configs are large and key-heavy (see randgen.gen_keyed_case), and every flow
is labeled from a TSV and from a JSON-lines rendering of the same record,
with IPv6 cells sometimes in an alternate spelling.
"""

from __future__ import annotations

import io
import json
import random

from conftest import CONN_FIELDS, conn_log_text
from randgen import (
    IP_VARIANTS,
    KEY_COLUMNS,
    flow_to_cells,
    flow_to_json,
    gen_keyed_case,
    make_flow,
    oracle_first_match,
    oracle_match,
)

from zeeklabel.labeler import label_conn
from zeeklabel.rules import load_config, match_rule
from zeeklabel.zeekio import ConnSchema, read_log

_IP_FIELDS = ("id.orig_h", "id.resp_h")


def _renderings(flows: list[dict], rng: random.Random) -> tuple[str, str]:
    """The same flows as a TSV conn.log and as JSON lines."""
    tsv_rows, json_lines = [], []
    for flow in flows:
        cells = flow_to_cells(flow)
        obj = flow_to_json(flow)
        for name in _IP_FIELDS:
            text = obj[name]
            if text in IP_VARIANTS and rng.random() < 0.5:
                cells[CONN_FIELDS.index(name)] = obj[name] = IP_VARIANTS[text]
        tsv_rows.append(cells)
        json_lines.append(json.dumps(obj))
    return conn_log_text(tsv_rows), "\n".join(json_lines) + "\n"


def _line_kinds(group: list[tuple]) -> set[str]:
    return {c[0] for c in group if c[0] in KEY_COLUMNS and c[1] == "="}


def test_index_agrees_with_oracle_on_tsv_and_json():
    rng = random.Random(90210)
    checked = unmatched = deep_wins = 0
    keyless_before_keyed = keyless_after_keyed = split_rules = 0
    for _ in range(12):
        config_text, oracle_rules = gen_keyed_case(rng, rng.randint(50, 200))
        _, ruleset = load_config(config_text)
        lines = [g for rule in oracle_rules for g in rule["groups"]]
        keyed_at = [i for i, g in enumerate(lines) if _line_kinds(g)]
        keyless_at = [i for i, g in enumerate(lines) if not _line_kinds(g)]
        keyless_before_keyed += any(i < keyed_at[-1] for i in keyless_at)
        keyless_after_keyed += any(i > keyed_at[0] for i in keyless_at)
        split_rules += sum(
            len({frozenset(_line_kinds(g)) for g in rule["groups"]}) > 1
            for rule in oracle_rules
        )

        flows = [make_flow(rng) for _ in range(60)]
        for flow in flows:
            flow["ts"] = float(f"{flow['ts']:.6f}")  # as both renderings carry it
        want = [oracle_first_match(oracle_rules, f) for f in flows]
        winners = [
            next((i for i, r in enumerate(oracle_rules) if oracle_match(r, f)), None)
            for f in flows
        ]
        unmatched += winners.count(None)
        deep_wins += sum(w is not None and w >= 20 for w in winners)
        for text in _renderings(flows, rng):
            table = read_log(io.StringIO(text), "<gen>")
            assert label_conn(table, ruleset) == want, table.format
            schema = ConnSchema(table.header, table.format)
            for row, flow in zip(table.iter_rows(), flows[:5]):
                view = schema.view(row)
                for rule, oracle_rule in zip(ruleset.rules, oracle_rules):
                    assert match_rule(rule, view) == oracle_match(oracle_rule, flow)
            checked += len(flows)
    assert checked == 12 * 60 * 2
    # the cases exercise what the index has to get right
    assert keyless_before_keyed == keyless_after_keyed == 12
    assert split_rules > 100
    assert unmatched > 10 and deep_wins > 200
