"""Randomized differential test of ``propagate`` against a reference.

Every case is a seeded log directory: a labeled conn.log and a random
subset of uid, uids-set, files, ssl, x509 and uid-less logs, each in TSV (with
random separator, set separator, unset and empty markers, with or without a
``#close`` trailer) or in JSON lines. The reference below re-derives every
output from the whole-table reader and the row helpers only: ``read_log``,
``row_field``, ``row_set_field`` and ``merge_labels``. The command must
match it byte for byte, in every ``*.labeled.log`` and in its summary.
"""

from __future__ import annotations

import json
import random

import pytest

from zeeklabel.cli import main
from zeeklabel.propagate import merge_labels
from zeeklabel.zeekio import read_log, row_field, row_set_field

EMPTY = ("(empty)", "(empty)")
PAIRS = [
    ("Malicious", "From_malicious-To_benign-Discovery"),
    ("Malicious", "From_malicious-To_malicious"),
    ("Malicious", "From_malicious-To_benign-Lateral_movement"),
    ("Benign", "From_benign-To_benign"),
    ("Benign", "From_benign-To_benign-HTTPS"),
    ("Benign", "(empty)"),
    ("Unknown", "(empty)"),
    ("(empty)", "From_benign"),  # no verdict but a detail: ranks as (empty)
    EMPTY,
]
NOTES = {"uid": "", "files": " (via conn_uids)", "x509": " (via ssl.log)", "none": " (no uid field)"}
UNSET = object()  # a cell left unset: the unset marker, JSON null or a missing key


# -- generating a log directory


class Dialect:
    """How one log spells its cells."""

    def __init__(self, rng: random.Random, fmt: str) -> None:
        self.fmt = fmt
        self.sep = rng.choice(["\t", "\t", "|", " "])
        self.set_sep = rng.choice([",", ",", ";"])
        self.unset = rng.choice(["-", "-", "NA"])
        self.empty = rng.choice(["(empty)", "(empty)", "(none)"])
        self.close = rng.random() < 0.7
        self.stray = rng.random() < 0.2  # a line after #close, kept verbatim

    def render(self, path: str, fields: list[str], rows: list[list], rng: random.Random) -> str:
        if self.fmt == "json":
            lines = []
            for row in rows:
                obj = {}
                for name, value in zip(fields, row):
                    if value is UNSET:
                        if rng.random() < 0.5:
                            obj[name] = None
                        continue
                    obj[name] = value
                lines.append(json.dumps(obj))
                if rng.random() < 0.05:
                    lines.append("")  # blank lines are skipped
            return "\n".join(lines) + "\n"
        sep = self.sep
        lines = [
            "#separator " + "".join(f"\\x{ord(c):02x}" for c in sep),
            f"#set_separator{sep}{self.set_sep}",
            f"#empty_field{sep}{self.empty}",
            f"#unset_field{sep}{self.unset}",
            f"#path{sep}{path}",
            f"#open{sep}2023-01-24-13-00-00",
            "#fields" + sep + sep.join(fields),
            "#types" + sep + sep.join(["string"] * len(fields)),
        ]
        for row in rows:
            lines.append(sep.join(self.cell(v) for v in row))
        if self.close:
            lines.append(f"#close{sep}2023-01-24-14-00-00")
            if self.stray:
                lines.append("stray trailing line")
        return "\n".join(lines) + "\n"

    def cell(self, value) -> str:
        if value is UNSET:
            return self.unset
        if isinstance(value, list):
            return self.set_sep.join(str(v) for v in value) if value else self.empty
        return str(value)


def _uid_value(rng: random.Random, uids: list[str]):
    r = rng.random()
    if r < 0.1:
        return UNSET
    if r < 0.2:
        return f"Cdangling{rng.randrange(5)}"
    return rng.choice(uids)


def _uid_set(rng: random.Random, uids: list[str]):
    r = rng.random()
    if r < 0.1:
        return UNSET
    return [_uid_value(rng, uids) for _ in range(rng.randint(0, 3))]


def _clean(members: list) -> list:
    # a set member cannot be unset on its own
    return [m for m in members if m is not UNSET]


def gen_case(rng: random.Random, root) -> None:
    """Write conn.labeled.log and logs/ under ``root``."""
    fmt = lambda: rng.choice(["tsv", "json"])  # noqa: E731
    n_uids = rng.randint(3, 25)
    uids = [f"C{i}u{rng.randrange(1000)}" for i in range(n_uids)]
    conn_rows = []
    for i in range(rng.randint(1, 40)):
        uid = UNSET if rng.random() < 0.08 else rng.choice(uids)  # repeats are duplicates
        label, detail = rng.choice(PAIRS)
        if rng.random() < 0.1:
            label = UNSET
        if rng.random() < 0.1:
            detail = UNSET
        if i == 0:  # a JSON log's first object names the label columns
            uid, label, detail = rng.choice(uids), *rng.choice(PAIRS)
        conn_rows.append([f"{1674560000 + i}.5", uid, "10.0.0.1", label, detail])
    conn_fields = ["ts", "uid", "id.orig_h", "label", "detailed_label"]
    conn = Dialect(rng, fmt())
    (root / "conn.labeled.log").write_text(conn.render("conn", conn_fields, conn_rows, rng))

    logs = root / "logs"
    logs.mkdir()
    # few certificates, so that ssl rows of equal severity often share one
    certs = [f"F{i}c{rng.randrange(1000)}" for i in range(rng.randint(1, 4))]
    n = lambda: rng.randint(0, 30)  # noqa: E731
    kinds = rng.sample(["http", "dhcp", "files", "ssl", "x509", "software", "mixed", "conn"], rng.randint(2, 8))
    for kind in kinds:
        d = Dialect(rng, fmt())
        if kind == "http":
            fields, rows = ["ts", "uid", "host"], [["1.0", _uid_value(rng, uids), "h"] for _ in range(n())]
        elif kind == "dhcp":
            fields = ["ts", "uids", "mac"]
            rows = [["1.0", _clean_set(_uid_set(rng, uids)), "m"] for _ in range(n())]
        elif kind == "files":
            fields = ["ts", "fuid", "conn_uids"]
            rows = [["1.0", f"Ff{i}", _clean_set(_uid_set(rng, uids))] for i in range(n())]
        elif kind == "ssl":
            chain = rng.choice(["cert_chain_fuids", "cert_chain_fps"])
            fields = ["ts", "uid", chain]
            rows = [
                ["1.0", _uid_value(rng, uids), rng.sample(certs, rng.randint(0, min(3, len(certs))))]
                for _ in range(n())
            ]
        elif kind == "x509":
            fields = ["ts", rng.choice(["id", "id", "fingerprint", "fingerprint", "serial"]), "subject"]
            rows = [["1.0", rng.choice(certs + ["Forphan", UNSET]), "CN=x"] for _ in range(n())]
        elif kind == "software":
            fields, rows = ["ts", "host"], [["1.0", "10.0.0.2"] for _ in range(n())]
        elif kind == "mixed":  # uid and uids: an unset uid falls back to the set
            fields = ["ts", "uid", "uids"]
            rows = [["1.0", _uid_value(rng, uids), _clean_set(_uid_set(rng, uids))] for _ in range(n())]
        else:  # an unlabeled flow log beside the others is the label source, skipped
            fields, rows = ["ts", "uid"], [["1.0", rng.choice(uids)] for _ in range(n())]
        if d.fmt == "json" and not rows:
            continue  # a JSON log needs at least one object
        (logs / f"{kind}.log").write_text(d.render(kind, fields, rows, rng))


def _clean_set(value):
    return value if value is UNSET else _clean(value)


# -- the reference


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return read_log(fh, str(path))


def reference(conn_path, log_dir) -> tuple[dict[str, str], str]:
    """({output name: text}, stdout) of propagating ``conn_path`` into ``log_dir``."""
    conn = _read(conn_path)
    index: dict[str, tuple[str, str]] = {}
    for row in conn.iter_rows():
        uid = row_field(row, conn.header, "uid")
        if uid is not None and uid not in index:
            index[uid] = (
                row_field(row, conn.header, "label") or "(empty)",
                row_field(row, conn.header, "detailed_label") or "(empty)",
            )

    tables = {}
    for path in sorted(log_dir.iterdir()):
        if path.name.endswith(".log") and ".labeled" not in path.name:
            tables[path] = _read(path)

    def route(path, table) -> str:
        stem, fields = path.name.split(".")[0], table.header.fields
        # JSON routes see the keys of the first object only
        if table.format == "json":
            fields = list(table.records[0])
        if stem == "conn" or table.header.path == "conn":
            return "conn"
        if "conn_uids" in fields:
            return "files"
        if stem == "x509" or table.header.path == "x509":
            return "x509"
        return "uid" if "uid" in fields or "uids" in fields else "none"

    routes = {p: route(p, t) for p, t in tables.items()}
    certs: dict[str, tuple[str, str]] = {}
    if "x509" in routes.values():
        for path, table in tables.items():
            if routes[path] != "uid" or path.name.split(".")[0] != "ssl":
                continue
            fields = table.records[0] if table.format == "json" else table.header.fields
            chain = "cert_chain_fuids" if "cert_chain_fuids" in fields else "cert_chain_fps"
            for row in table.iter_rows():
                uid = row_field(row, table.header, "uid")
                pair = index.get(uid, EMPTY) if uid is not None else EMPTY
                for fid in row_set_field(row, table.header, chain):
                    certs[fid] = merge_labels([certs[fid], pair]) if fid in certs else pair

    outputs: dict[str, str] = {}
    stdout = []
    for path, table in tables.items():
        r = routes[path]
        if r == "conn":
            continue
        h = table.header
        fields = table.records[0] if table.format == "json" else h.fields
        id_field = next((f for f in ("id", "fingerprint") if f in fields), None)
        pairs = []
        for row in table.iter_rows():
            if r == "uid":
                uid = row_field(row, h, "uid")
                if uid is not None:
                    pairs.append(index.get(uid, EMPTY))
                else:
                    members = row_set_field(row, h, "uids")
                    pairs.append(merge_labels([index.get(u) for u in members]) if members else EMPTY)
            elif r == "files":
                members = row_set_field(row, h, "conn_uids")
                pairs.append(merge_labels([index.get(u) for u in members]) if members else EMPTY)
            elif r == "x509" and id_field is not None:
                fid = row_field(row, h, id_field)
                pairs.append(certs.get(fid, EMPTY) if fid is not None else EMPTY)
            else:
                pairs.append(EMPTY)
        if table.format == "json":
            lines = [
                json.dumps({**obj, "label": a, "detailed_label": b}, separators=(",", ":"), ensure_ascii=False)
                for obj, (a, b) in zip(table.records, pairs)
            ]
        else:
            sep = h.separator
            lines = []
            for line in h.preamble:
                if line.split(sep)[0] == "#fields":
                    line += f"{sep}label{sep}detailed_label"
                elif line.split(sep)[0] == "#types":
                    line += f"{sep}string{sep}string"
                lines.append(line)
            text = path.read_text(encoding="utf-8").split("\n")
            raws = text[len(h.preamble) : len(h.preamble) + len(pairs)]
            lines += [f"{raw}{sep}{a}{sep}{b}" for raw, (a, b) in zip(raws, pairs)]
            lines += table.trailer
        out_name = path.name[: -len(".log")] + ".labeled.log"
        outputs[out_name] = "".join(line + "\n" for line in lines)
        labeled = sum(p != EMPTY for p in pairs)
        stdout.append(
            f"{path.name}: {len(pairs)} rows, {labeled} labeled, "
            f"{len(pairs) - labeled} (empty){NOTES[r]} -> {out_name}"
        )
    stdout.append(f"index: {len(index)} uids")
    return outputs, "".join(line + "\n" for line in stdout)


# -- the test


@pytest.mark.parametrize("seed", range(60))
def test_propagate_matches_reference(tmp_path, capsys, seed):
    rng = random.Random(f"propagate-diff:{seed}")
    gen_case(rng, tmp_path)
    conn, logs = tmp_path / "conn.labeled.log", tmp_path / "logs"
    want_outputs, want_stdout = reference(conn, logs)
    out = tmp_path / "out"
    assert main(["propagate", str(conn), str(logs), "--output", str(out)]) == 0
    assert capsys.readouterr().out == want_stdout
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(got) == sorted(want_outputs)
    for name, text in want_outputs.items():
        assert got[name] == text.encode("utf-8"), name
