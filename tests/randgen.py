"""Randomized rule/flow case generation plus an independent oracle.

The oracle reimplements the documented matching semantics in the most
direct way possible, straight off the generated typed values: it never
touches the parser, the flow view or the column tables, so agreement with
the library is meaningful.
"""

from __future__ import annotations

import datetime
import ipaddress
import random

from conftest import conn_row

ONTOLOGY_TEXT = """
[ontology]
technique: Discovery, DoS, Command_and_control, Initial_access
sub-technique: Port_discovery, DDoS, RDoS
process: Linux, Windows, Nmap, Mirai
app-protocol: NTP, DNS, HTTP
"""

DETAILS = [
    "(empty)",
    "From_malicious-To_benign-Discovery-Port_discovery-Linux",
    "From_malicious-To_benign-DoS-DDoS-Linux-NTP",
    "From_benign-To_benign",
    "From_malicious-To_benign-Command_and_control-Mirai",
    "From_benign-To_benign-Discovery-Port_discovery",
]
LABELS = ["Malicious", "Benign", "Unknown"]

IP_POOL = [
    "10.0.0.1", "10.0.0.2", "10.0.0.3", "192.168.1.100", "44.61.93.2",
    "77.67.96.222", "122.17.49.142", "8.8.8.8", "203.0.113.10",
    "2a00:1450:400c:c05::69", "2001:db8::7",
]
# alternate spellings of the two IPv6 pool members, for condition values
IP_VARIANTS = {
    "2a00:1450:400c:c05::69": "2a00:1450:400c:0c05:0:0:0:0069",
    "2001:db8::7": "2001:0db8:0000:0000:0000:0000:0000:0007",
}
PROTOS = ["tcp", "udp", "icmp"]
STATES = ["SF", "S0", "REJ", "RSTO"]
PORTS = [22, 53, 80, 123, 443, 445, 8080, 40000]
BASE_TS = 1674550000.0

_OPS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}
_ORDER_OPS = ["<", ">", "<=", ">=", "="]


def make_flow(rng: random.Random) -> dict:
    """Typed flow values; None marks an unset field."""
    ts = BASE_TS + rng.uniform(0, 5 * 86400)
    orig_pkts = rng.choice([None, 0, 1, 5, 12, 300])
    resp_pkts = rng.choice([None, 0, 2, 10, 250])
    orig_bytes = rng.choice([None, 0, 60, 900, 50000])
    resp_bytes = rng.choice([None, 0, 120, 4100, 900000])
    return {
        "ts": ts,
        "uid": f"CRND{rng.randrange(16**8):08x}",
        "src_ip": ipaddress.ip_address(rng.choice(IP_POOL)),
        "src_port": rng.choice(PORTS),
        "dst_ip": ipaddress.ip_address(rng.choice(IP_POOL)),
        "dst_port": rng.choice(PORTS),
        "proto": rng.choice(PROTOS),
        "state": rng.choice(STATES),
        "duration": rng.choice([None, 0.0, 0.25, 1.5, 90.0]),
        "orig_pkts": orig_pkts,
        "resp_pkts": resp_pkts,
        "orig_bytes": orig_bytes,
        "resp_bytes": resp_bytes,
    }


def flow_to_cells(flow: dict) -> list[str]:
    def num(v):
        return "-" if v is None else str(v)

    return conn_row(
        ts=f"{flow['ts']:.6f}",
        uid=flow["uid"],
        **{
            "id.orig_h": str(flow["src_ip"]),
            "id.orig_p": str(flow["src_port"]),
            "id.resp_h": str(flow["dst_ip"]),
            "id.resp_p": str(flow["dst_port"]),
        },
        proto=flow["proto"],
        conn_state=flow["state"],
        duration=num(flow["duration"]),
        orig_pkts=num(flow["orig_pkts"]),
        resp_pkts=num(flow["resp_pkts"]),
        orig_bytes=num(flow["orig_bytes"]),
        resp_bytes=num(flow["resp_bytes"]),
    )


def _ip_condition(rng: random.Random, column: str) -> tuple[str, str, object, str]:
    """An address condition, sometimes in an alternate IPv6 spelling."""
    text = rng.choice(IP_POOL)
    value = ipaddress.ip_address(text)
    if text in IP_VARIANTS and rng.random() < 0.5:
        text = IP_VARIANTS[text]
    return column, "=", value, text


def _gen_condition(rng: random.Random) -> tuple[str, str, object, str]:
    """(column, op, typed value, text form)."""
    column = rng.choice(
        ["Date", "start", "Duration", "Proto", "srcIP", "srcPort",
         "dstIP", "dstPort", "State", "Tos", "Packets", "Bytes"]
    )
    if column in ("srcIP", "dstIP"):
        return _ip_condition(rng, column)
    if column == "Proto":
        text = rng.choice(["TCP", "UDP", "ICMP", "tcp", "Udp"])
        return column, "=", text, text
    if column == "State":
        text = rng.choice(["SF", "sf", "S0", "REJ", "rsto"])
        return column, "=", text, text
    if column == "Date":
        op = rng.choice(_ORDER_OPS)
        day = datetime.datetime.fromtimestamp(
            BASE_TS + rng.uniform(0, 5 * 86400), tz=datetime.timezone.utc
        ).date()
        return column, op, day, day.isoformat()
    if column == "start":
        op = rng.choice(_ORDER_OPS)
        value = round(BASE_TS + rng.uniform(0, 5 * 86400), 3)
        return column, op, value, str(value)
    op = rng.choice(_ORDER_OPS)
    if column == "Duration":
        value = rng.choice([0.0, 0.25, 1.5, 90.0])
    elif column in ("srcPort", "dstPort"):
        value = rng.choice(PORTS)
    elif column == "Tos":
        value = rng.choice([0, 16])
    elif column == "Packets":
        value = rng.choice([0, 1, 10, 300, 550])
    else:  # Bytes
        value = rng.choice([0, 120, 5000, 950000])
    return column, op, value, str(value)


def gen_case(rng: random.Random, max_rules: int = 5, max_groups: int = 4,
             max_conds: int = 4) -> tuple[str, list[dict]]:
    """One randomized ruleset: config text plus oracle-side rule data.

    The oracle keeps the detail string in canonical level order; the config
    text sometimes shuffles its tokens to exercise order independence.
    """
    rules = []
    lines = [ONTOLOGY_TEXT, "[rules]"]
    for _ in range(rng.randint(1, max_rules)):
        label = rng.choice(LABELS)
        detail = rng.choice(DETAILS)
        written = detail
        if detail != "(empty)" and rng.random() < 0.3:
            tokens = detail.split("-")
            rng.shuffle(tokens)
            written = "-".join(tokens)
        lines.append(f"{label}, {written}:")
        groups = []
        for _ in range(rng.randint(1, max_groups)):
            conds = [_gen_condition(rng) for _ in range(rng.randint(1, max_conds))]
            joiner = rng.choice([" and ", " AND ", " & ", "&"])
            lines.append(
                "    - " + joiner.join(f"{c}{op}{text}" for c, op, _, text in conds)
            )
            groups.append(conds)
        rules.append({"label": label, "detail": detail, "groups": groups})
    return "\n".join(lines) + "\n", rules


KEY_COLUMNS = ("srcIP", "dstIP", "dstPort", "Proto")


def _key_condition(rng: random.Random, column: str) -> tuple[str, str, object, str]:
    """An "=" condition on a column a RuleSet indexes by."""
    if column in ("srcIP", "dstIP"):
        return _ip_condition(rng, column)
    if column == "dstPort":
        value = rng.choice(PORTS)
        return column, "=", value, str(value)
    text = rng.choice(["TCP", "UDP", "ICMP", "tcp", "Udp"])
    return column, "=", text, text


def _unkeyed_condition(rng: random.Random) -> tuple[str, str, object, str]:
    while True:
        cond = _gen_condition(rng)
        if not (cond[0] in KEY_COLUMNS and cond[1] == "="):
            return cond


def gen_keyed_case(rng: random.Random, n_rules: int) -> tuple[str, list[dict]]:
    """Many rules whose lines mostly carry "=" conditions on indexed columns.

    Values come from small pools, so many lines share a key. A line has zero
    to three key conditions plus others, and a rule has one to three lines,
    so the lines of one rule land under different keys and keyless lines
    fall between keyed ones.
    """
    rules = []
    lines = [ONTOLOGY_TEXT, "[rules]"]
    for _ in range(n_rules):
        label = rng.choice(LABELS)
        detail = rng.choice(DETAILS)
        lines.append(f"{label}, {detail}:")
        groups = []
        for _ in range(rng.randint(1, 3)):
            n_keys = rng.choice([0, 1, 1, 2, 2, 2, 3])
            conds = [_key_condition(rng, rng.choice(KEY_COLUMNS)) for _ in range(n_keys)]
            n_other = rng.randint(1, 3) if conds else rng.randint(3, 4)
            conds += [_unkeyed_condition(rng) for _ in range(n_other)]
            rng.shuffle(conds)
            lines.append(
                "    - " + " and ".join(f"{c}{op}{text}" for c, op, _, text in conds)
            )
            groups.append(conds)
        rules.append({"label": label, "detail": detail, "groups": groups})
    return "\n".join(lines) + "\n", rules


def flow_to_json(flow: dict) -> dict:
    """The flow as a Zeek JSON-lines object; unset fields are left out, as Zeek does."""
    obj = {
        "ts": flow["ts"],
        "uid": flow["uid"],
        "id.orig_h": str(flow["src_ip"]),
        "id.orig_p": flow["src_port"],
        "id.resp_h": str(flow["dst_ip"]),
        "id.resp_p": flow["dst_port"],
        "proto": flow["proto"],
        "conn_state": flow["state"],
        "duration": flow["duration"],
        "orig_pkts": flow["orig_pkts"],
        "resp_pkts": flow["resp_pkts"],
        "orig_bytes": flow["orig_bytes"],
        "resp_bytes": flow["resp_bytes"],
    }
    return {key: value for key, value in obj.items() if value is not None}


def oracle_flow_value(column: str, flow: dict):
    if column == "Date":
        if flow["ts"] is None:
            return None
        return datetime.datetime.fromtimestamp(
            flow["ts"], tz=datetime.timezone.utc
        ).date()
    if column == "start":
        return flow["ts"]
    if column == "Duration":
        return flow["duration"]
    if column == "Proto":
        return flow["proto"]
    if column == "State":
        return flow["state"]
    if column == "srcIP":
        return flow["src_ip"]
    if column == "dstIP":
        return flow["dst_ip"]
    if column == "srcPort":
        return flow["src_port"]
    if column == "dstPort":
        return flow["dst_port"]
    if column == "Tos":
        return None
    if column == "Packets":
        return (flow["orig_pkts"] or 0) + (flow["resp_pkts"] or 0)
    if column == "Bytes":
        return (flow["orig_bytes"] or 0) + (flow["resp_bytes"] or 0)
    raise AssertionError(column)


def oracle_condition(cond: tuple, flow: dict) -> bool:
    column, op, value, _ = cond
    have = oracle_flow_value(column, flow)
    if have is None:
        return False
    if column in ("Proto", "State"):
        return have.lower() == value.lower()
    return _OPS[op](have, value)


def oracle_match(rule: dict, flow: dict) -> bool:
    return any(
        all(oracle_condition(c, flow) for c in group) for group in rule["groups"]
    )


def oracle_first_match(rules: list[dict], flow: dict) -> tuple[str, str]:
    for rule in rules:
        if oracle_match(rule, flow):
            return rule["label"], rule["detail"]
    return "(empty)", "(empty)"
