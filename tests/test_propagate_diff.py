"""Randomized differential test of ``propagate`` against a reference.

Every case is a seeded log directory: a labeled conn.log and a random
subset of uid, uids-set, files, ssl, x509 and uid-less logs, each in TSV (with
random separator, set separator, unset and empty markers, with or without a
``#close`` trailer) or in JSON lines, whose objects omit some unset keys and
so vary their key sets, the first object included. A JSON log is rendered
compactly as Zeek writes it, in ``json.dumps``'s spaced default, or with
``\\u00e9`` and ``\\/`` escapes; some carry stale label keys or empty objects.
The reference below re-derives every output from the whole-table reader and
the row helpers only: ``read_log``, ``row_field``, ``row_set_field`` and
``merge_labels``; a certificate takes the merged pairs its ssl rows are
written with. A row whose set keys are none of them in its map (the uid
index, or for x509 the certificates of the ssl chains) is counted in the
summary as not in it. A JSON object's output is the text of its input line with
the label keys before the closing brace, or, for an object that has a label
key already, its compact encoding with the keys overwritten. The command
must match it byte for byte, in every ``*.labeled.log`` and in its summary.
Each case runs again with the logs split between two processes, which must
change no output byte, summary line or log message, and with blocks of 1
and 64 bytes, which must match the reference too.
"""

from __future__ import annotations

import json
import random

import pytest

from zeeklabel import zeekio
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
        self.style = rng.choice(["compact", "spaced", "escaped"])  # of a JSON object's text
        self.stale = rng.random() < 0.2  # JSON objects with label keys of their own

    def render(self, path: str, fields: list[str], rows: list[list], rng: random.Random) -> str:
        if self.fmt == "json":
            lines = []
            for row in rows:
                obj = {}
                if self.stale and rng.random() < 0.5:
                    obj["label"] = "Benign"
                for name, value in zip(fields, row):
                    if value is UNSET:
                        if rng.random() < 0.5:
                            obj[name] = None
                        continue
                    obj[name] = value
                if self.stale and rng.random() < 0.5:
                    obj["detailed_label"] = "From_benign"
                lines.append(self.text(obj))
                if rng.random() < 0.05:
                    lines.append("")  # blank lines are skipped
                if rng.random() < 0.03:
                    lines.append("{}")
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

    def text(self, obj: dict) -> str:
        if self.style == "compact":
            return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
        if self.style == "spaced":
            return json.dumps(obj)
        # "/" occurs only inside strings, where "\/" is its escape
        return json.dumps(obj, separators=(",", ":")).replace("/", "\\/")

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
    kinds = rng.sample(
        ["http", "dhcp", "files", "ssl", "x509", "software", "mixed", "varied", "conn"], rng.randint(2, 9)
    )
    for kind in kinds:
        d = Dialect(rng, fmt())
        if kind == "http":
            fields, rows = ["ts", "uid", "host"], [["1.0", _uid_value(rng, uids), rng.choice(["h", "hé/x"])] for _ in range(n())]
        elif kind == "dhcp":
            fields = ["ts", "uids", "mac"]
            rows = [["1.0", _clean_set(_uid_set(rng, uids)), "m"] for _ in range(n())]
        elif kind == "files":
            fields = ["ts", "fuid", "conn_uids"]
            rows = [["1.0", f"Ff{i}", _clean_set(_uid_set(rng, uids))] for i in range(n())]
        elif kind == "ssl":  # with uids, a row with an unset uid takes its uids' labels, as do its certificates
            chain = rng.choice(["cert_chain_fuids", "cert_chain_fps"])
            with_uids = rng.random() < 0.5
            fields = ["ts", "uid", "uids", chain] if with_uids else ["ts", "uid", chain]
            rows = []
            for _ in range(n()):
                uid = UNSET if rng.random() < 0.2 else _uid_value(rng, uids)
                more = [_clean_set(_uid_set(rng, uids))] if with_uids else []
                rows.append(["1.0", uid, *more, rng.sample(certs, rng.randint(0, min(3, len(certs))))])
            for row in rows[:-1]:  # resumed sessions; the last one keeps the chain column
                if rng.random() < 0.3:
                    row[-1] = UNSET
        elif kind == "x509":
            fields = ["ts", rng.choice(["id", "id", "fingerprint", "fingerprint", "serial"]), "subject"]
            rows = [["1.0", rng.choice(certs + ["Forphan", UNSET]), "CN=x"] for _ in range(n())]
        elif kind == "software":
            fields, rows = ["ts", "host"], [["1.0", "10.0.0.2"] for _ in range(n())]
        elif kind == "mixed":  # uid and uids: an unset uid falls back to the set
            fields = ["ts", "uid", "uids"]
            rows = [["1.0", _uid_value(rng, uids), _clean_set(_uid_set(rng, uids))] for _ in range(n())]
        elif kind == "varied":  # a JSON object without conn_uids falls back to uid, then uids
            fields = ["ts", "conn_uids", "uid", "uids"]
            rows = [
                ["1.0", UNSET if rng.random() < 0.6 else _clean_set(_uid_set(rng, uids)),
                 _uid_value(rng, uids), _clean_set(_uid_set(rng, uids))]
                for _ in range(n())
            ]
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
        # decided once the whole log is read: a JSON log's fields are then every key
        stem, fields = path.name.split(".")[0], table.header.fields
        if stem == "conn" or table.header.path == "conn":
            return "conn"
        if stem == "x509" or table.header.path == "x509":
            return "x509"
        if "conn_uids" in fields:
            return "files"
        return "uid" if "uid" in fields or "uids" in fields else "none"

    def first(table, row, names):
        # a JSON object is resolved on its own keys, a TSV row on the header's
        keys = row if table.format == "json" else table.header.fields
        return next((name for name in names if name in keys), None)

    certs: dict[str, tuple[str, str]] = {}

    def keys_of(table, row, r) -> tuple[dict, list[str]]:
        """The map a row's labels come from, and the row's set keys in it."""
        h = table.header
        if r == "x509":
            id_field = first(table, row, ("id", "fingerprint"))
            fid = row_field(row, h, id_field) if id_field else None
            return certs, [] if fid is None else [fid]
        if first(table, row, ("conn_uids",)):
            return index, row_set_field(row, h, "conn_uids")
        if (uid := row_field(row, h, "uid")) is not None:
            return index, [uid]
        return index, row_set_field(row, h, "uids")

    def pair_of(table, row, r) -> tuple[str, str]:
        mapping, keys = keys_of(table, row, r)
        return merge_labels([mapping.get(key) for key in keys]) if keys else EMPTY

    def unjoined(table, row, r) -> bool:
        mapping, keys = keys_of(table, row, r)
        return bool(keys) and not any(key in mapping for key in keys)

    routes = {p: route(p, t) for p, t in tables.items()}
    if "x509" in routes.values():
        for path, table in tables.items():
            if routes[path] in ("conn", "x509") or path.name.split(".")[0] != "ssl":
                continue
            for row in table.iter_rows():
                pair = pair_of(table, row, routes[path])  # the pair the ssl row is written with
                chain = first(table, row, ("cert_chain_fuids", "cert_chain_fps"))
                for fid in row_set_field(row, table.header, chain) if chain else []:
                    certs[fid] = merge_labels([certs[fid], pair]) if fid in certs else pair

    outputs: dict[str, str] = {}
    stdout = []
    for path, table in tables.items():
        r = routes[path]
        if r == "conn":
            continue
        h = table.header
        pairs = [pair_of(table, row, r) for row in table.iter_rows()]
        if table.format == "json":
            texts = [line for line in path.read_text(encoding="utf-8").split("\n") if line]
            lines = []
            for obj, text, (a, b) in zip(table.records, texts, pairs):
                if "label" in obj or "detailed_label" in obj:
                    obj = {**obj, "label": a, "detailed_label": b}
                    lines.append(json.dumps(obj, separators=(",", ":"), ensure_ascii=False))
                else:
                    keys = json.dumps({"label": a, "detailed_label": b}, separators=(",", ":"))[1:]
                    lines.append(text[:-1] + ("," if obj else "") + keys)
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
        missed = sum(unjoined(table, row, r) for row in table.iter_rows())
        where = "a certificate chain" if r == "x509" else "the index"
        stdout.append(
            f"{path.name}: {len(pairs)} rows, {labeled} labeled, "
            f"{len(pairs) - labeled} (empty){NOTES[r]}{f', {missed} not in {where}' * (missed > 0)} -> {out_name}"
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


@pytest.mark.parametrize("block_bytes", [1, 64])
@pytest.mark.parametrize("seed", range(60))
def test_propagate_matches_reference_in_small_blocks(tmp_path, capsys, monkeypatch, seed, block_bytes):
    """Each log's route is chosen per block: a JSON log's keys, and so its records' route, may change at a block."""
    monkeypatch.setattr(zeekio, "BLOCK_BYTES", block_bytes)
    test_propagate_matches_reference(tmp_path, capsys, seed)


@pytest.mark.parametrize("seed", range(60))
def test_two_processes_match_one(request, tmp_path, capsys, caplog, seed):
    rng = random.Random(f"propagate-diff:{seed}")
    gen_case(rng, tmp_path)
    conn, logs = tmp_path / "conn.labeled.log", tmp_path / "logs"

    def run(out) -> tuple:
        caplog.clear()
        rc = main(["propagate", str(conn), str(logs), "--output", str(out)])
        captured = capsys.readouterr()
        messages = [(r.levelno, r.name, r.getMessage()) for r in caplog.records]
        return rc, captured.out, captured.err, messages, {p.name: p.read_bytes() for p in out.iterdir()}

    one = run(tmp_path / "one")
    forks = request.getfixturevalue("two_processes")
    two = run(tmp_path / "two")
    assert two == one
    # every log but a conn log, which is only skipped; with an ssl log, the ssl
    # and x509 logs (by name or #path) stay in this process, so the child needs another
    weighed = {p: p.name.split(".")[0] for p in logs.iterdir() if not p.name.startswith("conn.")}
    if "ssl" in weighed.values():
        free = [p for p, stem in weighed.items() if stem not in ("ssl", "x509") and _read(p).header.path != "x509"]
        assert forks.count("logs") == bool(free)
    else:
        assert forks.count("logs") == (len(weighed) >= 2)
    # the uid index forks once the lines before the split hold more than the header: a row, or a #close
    raw = conn.read_bytes()
    head = raw[: raw.find(b"\n", len(raw) // 2) + 1].splitlines()
    assert forks.count("halves") == any(not line.startswith(b"#") or line.startswith(b"#close") for line in head)
    assert set(forks) <= {"halves", "logs"}
    if "halves" in forks and "logs" in forks:  # the index is built before any log is labeled
        assert forks.index("halves") < forks.index("logs")
    want_outputs, want_stdout = reference(conn, logs)
    assert one[1] == want_stdout
    assert one[4] == {name: text.encode("utf-8") for name, text in want_outputs.items()}
