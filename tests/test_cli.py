from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from contextlib import suppress

import pytest

from conftest import CONN_FIELDS, CONN_TYPES, DATA_DIR, CappedStdout, conn_log_text, conn_row, json_lines, zeek_tsv

from zeeklabel.cli import main
from zeeklabel.rules import ConnSchema
from zeeklabel.zeekio import read_log, row_field


def _copy(name: str, dest) -> None:
    src = DATA_DIR / name
    target = dest / src.name
    shutil.copy(src, target)
    return target


@pytest.fixture
def portscan_dir(tmp_path):
    d = tmp_path / "portscan"
    d.mkdir()
    shutil.copy(DATA_DIR / "portscan" / "conn.log", d / "conn.log")
    shutil.copy(DATA_DIR / "portscan.conf", d / "portscan.conf")
    return d


@pytest.fixture
def proplogs_dir(tmp_path):
    d = tmp_path / "proplogs"
    shutil.copytree(DATA_DIR / "proplogs", d)
    return d


@pytest.fixture
def piped():
    """``piped(path)`` makes the file at ``path`` a FIFO that a thread feeds with its bytes, as a shell's
    ``<(cat path)`` would. The thread ends with the test, also where nothing opened the FIFO."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("os.mkfifo is not available")
    writers = []

    def feed(fifo, data):
        with suppress(BrokenPipeError), open(fifo, "wb", buffering=0) as out:
            out.write(data)

    def pipe(path):
        data = path.read_bytes()
        path.unlink()
        os.mkfifo(path)
        writer = threading.Thread(target=feed, args=(path, data), daemon=True)
        writer.start()
        writers.append((path, writer))

    yield pipe
    for path, writer in writers:
        # a reader of our own lets a writer still waiting in open() go on, to a write that fails at once
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_label_writes_labeled_copy(portscan_dir, capsys):
    conn = portscan_dir / "conn.log"
    config = portscan_dir / "portscan.conf"
    before = conn.read_bytes()
    rc = main(["label", str(conn), "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    labeled = portscan_dir / "conn.labeled.log"
    assert labeled.exists()
    assert conn.read_bytes() == before
    assert "rows: 30" in out
    assert "labeled: 10" in out
    assert "(empty): 20" in out
    assert "  Malicious: 10" in out
    digest = hashlib.sha256(config.read_bytes()).hexdigest()
    assert f"config sha256: {digest}" in out
    assert f"wrote: {labeled}" in out
    text = labeled.read_text()
    assert text.count("\tMalicious\tFrom_malicious-To_benign-Discovery-Port_discovery-Linux") == 10
    assert text.count("\t(empty)\t(empty)") == 20


def test_label_explicit_output(portscan_dir, tmp_path, capsys):
    out_path = tmp_path / "custom.log"
    rc = main(
        [
            "label",
            str(portscan_dir / "conn.log"),
            "--config",
            str(portscan_dir / "portscan.conf"),
            "--output",
            str(out_path),
        ]
    )
    assert rc == 0
    assert out_path.exists()
    assert f"wrote: {out_path}" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is not available")
def test_label_reads_a_pipe(portscan_dir, tmp_path, capsys):
    # a named pipe cannot seek, as /dev/stdin or a shell's <(...) cannot
    pipe = tmp_path / "conn.pipe"
    os.mkfifo(pipe)
    writer = subprocess.Popen(["sh", "-c", f"cat '{portscan_dir / 'conn.log'}' > '{pipe}'"])
    try:
        rc = main(["label", str(pipe), "--config", str(portscan_dir / "portscan.conf"),
                   "--output", str(tmp_path / "piped.log")])
    finally:
        writer.wait()
    assert rc == 0
    main(["label", str(portscan_dir / "conn.log"), "--config", str(portscan_dir / "portscan.conf"),
          "--output", str(tmp_path / "read.log")])
    assert (tmp_path / "piped.log").read_bytes() == (tmp_path / "read.log").read_bytes()


def test_label_output_in_a_missing_directory_names_the_output(portscan_dir, tmp_path, capsys):
    out_path = tmp_path / "nodir" / "out.log"
    rc = main(
        [
            "label",
            str(portscan_dir / "conn.log"),
            "--config",
            str(portscan_dir / "portscan.conf"),
            "--output",
            str(out_path),
        ]
    )
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: [Errno 2] No such file or directory: '{out_path}'"
    )


@pytest.mark.parametrize("name, error", [("nope.log", "[Errno 2] No such file or directory"),
                                         ("adir", "[Errno 21] Is a directory")])
def test_label_input_that_cannot_be_read_is_named_as_given(portscan_dir, tmp_path, capsys, name, error):
    (tmp_path / "adir").mkdir()
    rc = main(["label", str(tmp_path / name), "--config", str(portscan_dir / "portscan.conf"),
               "--output", str(tmp_path / "out.log")])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {error}: '{tmp_path / name}'"


def test_label_refuses_to_overwrite_input(portscan_dir, capsys):
    conn = portscan_dir / "conn.log"
    rc = main(
        [
            "label",
            str(conn),
            "--config",
            str(portscan_dir / "portscan.conf"),
            "--output",
            str(conn),
        ]
    )
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err


@pytest.mark.parametrize("through_link", [False, True], ids=["path", "symlink"])
def test_label_refuses_to_overwrite_its_config(portscan_dir, capsys, through_link):
    config = portscan_dir / "portscan.conf"
    before = config.read_bytes()
    output = portscan_dir / "out.log" if through_link else config
    if through_link:
        output.symlink_to(config)
    rc = main(["label", str(portscan_dir / "conn.log"), "--config", str(config), "--output", str(output)])
    assert rc == 2
    assert _one_error_line(capsys.readouterr().err) == f"error: refusing to overwrite the input file {config}"
    assert config.read_bytes() == before
    assert sorted(p.name for p in portscan_dir.iterdir()) == ["conn.log", *(["out.log"] if through_link else []),
                                                              "portscan.conf"]


def test_label_infix_for_names_without_log_suffix(tmp_path, capsys):
    conn = tmp_path / "capture"
    conn.write_text(conn_log_text([conn_row()]))
    config = tmp_path / "r.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    rc = main(["label", str(conn), "--config", str(config)])
    assert rc == 0
    assert (tmp_path / "capture.labeled").exists()
    capsys.readouterr()


_SPELLED_CONFIG = (
    "Malicious, From_malicious-To_benign:\n    - dstIP=::ffff:198.18.0.6\n"
    "Benign, From_benign-To_benign:\n    - srcIP=fe80::1%eth0\n"
)
# uid: id.orig_h, id.resp_h and the label the flow takes
_SPELLED_FLOWS = {
    "Cmapped": ("10.0.0.1", "::ffff:198.18.0.6", "Malicious"),
    "Cupper": ("10.0.0.1", "::FFFF:C612:6", "Malicious"),
    "Cpadded": ("10.0.0.1", "0:0:0:0:0:ffff:c612:0006", "Malicious"),
    "Cscoped": ("FE80::1%eth0", "10.0.0.2", "Benign"),
    "Cunscoped": ("fe80::1", "10.0.0.2", "(empty)"),
    "Cnot": ("fd00::3d5b6c", "fd00::3d5b6c", "(empty)"),  # 24 bits after fd00::, so no address
}


@pytest.mark.parametrize("processes", ["one", "two"])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_label_matches_every_spelling_of_a_rule_address(request, tmp_path, capsys, fmt, processes):
    """An IPv4-mapped rule address matches its dotted, upper-case and zero-padded cells; a scope id is part of
    the address; a cell that is no address reads as unset. The same from TSV and JSON, in one process or two."""
    flows = [(f"{uid}{i}", *cells) for i in range(10) for uid, cells in _SPELLED_FLOWS.items()]
    conn = tmp_path / "conn.log"
    if fmt == "tsv":
        conn.write_text(conn_log_text([conn_row(uid=uid, **{"id.orig_h": src, "id.resp_h": dst})
                                       for uid, src, dst, _ in flows]))
    else:
        conn.write_text(json_lines(*({"ts": 1.5, "uid": uid, "id.orig_h": src, "id.resp_h": dst}
                                     for uid, src, dst, _ in flows)))
    (tmp_path / "r.conf").write_text(_SPELLED_CONFIG)
    forks = request.getfixturevalue("two_processes") if processes == "two" else []
    assert main(["label", str(conn), "--config", str(tmp_path / "r.conf")]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("rows: 60\nlabeled: 40\n(empty): 20\n  Malicious: 30\n  Benign: 10\n")
    assert forks == ([] if processes == "one" else ["halves"])
    with open(tmp_path / "conn.labeled.log", encoding="utf-8") as labeled:
        table = read_log(labeled, "conn.labeled.log")
    schema = ConnSchema(table.header, table.format)
    got = {}
    for record in table.iter_rows():
        uid = row_field(record, table.header, "uid")
        got[uid] = row_field(record, table.header, "label") or "(empty)"
        if uid.startswith("Cnot"):
            assert schema.view(record).value("srcIP") is schema.view(record).value("dstIP") is None
    assert got == {uid: label for uid, _, _, label in flows}


def test_label_bad_config_exits_2(portscan_dir, capsys):
    bad = portscan_dir / "bad.conf"
    bad.write_text("Malicious, (empty):\n    - srcIP=10.0.0.0/8\n")
    rc = main(["label", str(portscan_dir / "conn.log"), "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "CIDR" in err


def test_label_missing_input_exits_1(portscan_dir, capsys):
    rc = main(
        [
            "label",
            str(portscan_dir / "nope.log"),
            "--config",
            str(portscan_dir / "portscan.conf"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_label_malformed_log_exits_1(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    conn.write_text("not a log\n")
    config = tmp_path / "r.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    rc = main(["label", str(conn), "--config", str(config)])
    assert rc == 1
    assert "not a Zeek log" in capsys.readouterr().err


def test_label_json_lines_input(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    conn.write_text(
        json.dumps({"ts": 1.0, "uid": "Cj1", "proto": "tcp"}) + "\n"
        + json.dumps({"ts": 2.0, "uid": "Cj2", "proto": "udp"}) + "\n"
    )
    config = tmp_path / "r.conf"
    config.write_text("Malicious, (empty):\n    - Proto=tcp\n")
    rc = main(["label", str(conn), "--config", str(config)])
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "conn.labeled.log").read_text().splitlines()
    first = json.loads(lines[0])
    second = json.loads(lines[1])
    assert first["label"] == "Malicious"
    assert second["label"] == "(empty)"
    assert second["detailed_label"] == "(empty)"


def test_label_json_uid_key_after_the_first_object(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    conn.write_text(
        json.dumps({"ts": 1.0, "proto": "tcp"}) + "\n"
        + json.dumps({"ts": 2.0, "uid": "C1", "proto": "tcp"}) + "\n"
    )
    config = tmp_path / "r.conf"
    config.write_text("Malicious, (empty):\n    - Proto=tcp\n")
    rc = main(["label", str(conn), "--config", str(config)])
    assert rc == 0
    assert "labeled: 2" in capsys.readouterr().out
    rows = [json.loads(line) for line in (tmp_path / "conn.labeled.log").read_text().splitlines()]
    assert [(row.get("uid"), row["label"]) for row in rows] == [(None, "Malicious"), ("C1", "Malicious")]


def test_relabel_replaces_the_label_columns(proplogs_dir, capsys):
    """A labeled log labeled again carries the new labels once, in TSV and in JSON lines."""
    conn_tsv = proplogs_dir / "conn.log"
    conn_json = proplogs_dir / "conn.json.log"
    log = read_log(io.StringIO(conn_tsv.read_text()))
    conn_json.write_text(
        json_lines(*({k: v for k, v in zip(log.header.fields, cells) if v != "-"} for cells in log.records))
    )
    relabel = proplogs_dir / "relabel.conf"
    relabel.write_text(
        (proplogs_dir / "labeling.conf").read_text().replace(
            "Malicious, From_malicious-To_benign-Command_and_control:", "Benign, From_benign-To_benign:"
        )
    )
    detections = proplogs_dir / "detections.jsonl"
    detections.write_text(json_lines({"ip": "10.0.0.1", "time": 1674560400.0, "evidence": ["CPRP01aaaa"]}))

    labels = {}
    for conn in (conn_tsv, conn_json):
        labeled = conn.with_name(conn.name.replace(".log", ".labeled.log"))
        relabeled = conn.with_name(conn.name.replace(".log", ".relabeled.log"))
        assert main(["label", str(conn), "--config", str(proplogs_dir / "labeling.conf")]) == 0
        capsys.readouterr()
        assert main(["label", str(labeled), "--config", str(relabel), "--output", str(relabeled)]) == 0
        out = capsys.readouterr().out
        assert "Benign: 4" in out and "Malicious" not in out
        assert main(["eval", str(relabeled), str(detections), "--json"]) == 0
        flow = json.loads(capsys.readouterr().out)["flow"]
        assert (flow["malicious"], flow["counts"]["tp"], flow["counts"]["fp"]) == (0, 0, 1)
        table = read_log(io.StringIO(relabeled.read_text()))
        assert [f for f in table.header.fields if f in ("label", "detailed_label")] == ["label", "detailed_label"]
        labels[conn.name] = [
            (row_field(r, table.header, "uid"), row_field(r, table.header, "label"),
             row_field(r, table.header, "detailed_label"))
            for r in table.records
        ]
    assert labels["conn.log"] == labels["conn.json.log"]
    assert ("CPRP01aaaa", "Benign", "From_benign-To_benign") in labels["conn.log"]
    # the TSV output differs from a first labeling only in its label cells
    first = (proplogs_dir / "conn.labeled.log").read_text().splitlines()
    again = (proplogs_dir / "conn.relabeled.log").read_text().splitlines()
    assert [line.split("\t")[:-2] for line in first] == [line.split("\t")[:-2] for line in again]


def test_relabel_fills_a_missing_label_column(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    fields = CONN_FIELDS + ["label"]
    conn.write_text(zeek_tsv("conn", fields, CONN_TYPES + ["string"], [conn_row(uid="C1") + ["Benign"]]))
    config = tmp_path / "r.conf"
    config.write_text("Malicious, (empty):\n    - Proto=tcp\n")
    assert main(["label", str(conn), "--config", str(config)]) == 0
    capsys.readouterr()
    table = read_log(io.StringIO((tmp_path / "conn.labeled.log").read_text()))
    assert table.header.fields == fields + ["detailed_label"]
    assert table.header.types == CONN_TYPES + ["string", "string"]
    assert table.records == [conn_row(uid="C1") + ["Malicious", "(empty)"]]


def _stale_and_new_labels(proplogs_dir):
    """proplogs' labeled conn.log with a second label pair appended, all Benign.

    An older zeeklabel wrote a relabeled log this way: the stale pair
    first, the new pair last.
    """
    _label_proplogs(proplogs_dir)
    lines = []
    for line in (proplogs_dir / "conn.labeled.log").read_text().splitlines():
        if line.startswith("#fields"):
            line += "\tlabel\tdetailed_label"
        elif line.startswith("#types"):
            line += "\tstring\tstring"
        elif not line.startswith("#"):
            line += "\tBenign\tFrom_benign-To_benign"
        lines.append(line + "\n")
    (proplogs_dir / "conn.labeled.log").write_text("".join(lines))
    return proplogs_dir / "conn.labeled.log"


def _repeat_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "times in #fields" in r.getMessage()]


def test_eval_reads_the_last_of_repeated_label_columns(proplogs_dir, capsys, caplog):
    conn = _stale_and_new_labels(proplogs_dir)
    detections = proplogs_dir / "detections.jsonl"
    detections.write_text(json_lines({"ip": "10.0.0.1", "time": 1674560400.0, "evidence": ["CPRP01aaaa"]}))
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["eval", str(conn), str(detections)]) == 0
    out = capsys.readouterr().out
    assert "flows: 6 (malicious 0, unknown excluded 0, unlabeled 0)" in out
    assert "TP 0  FP 1  FN 0  TN 5" in out
    assert _repeat_warnings(caplog) == [
        f"{conn}: column 'label' appears 2 times in #fields; reading the last",
        f"{conn}: column 'detailed_label' appears 2 times in #fields; reading the last",
    ]


def test_propagate_reads_the_last_of_repeated_label_columns(proplogs_dir, capsys, caplog):
    conn = _stale_and_new_labels(proplogs_dir)
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["propagate", str(conn), str(proplogs_dir)]) == 0
    assert "http.log: 5 rows, 4 labeled, 1 (empty)" in capsys.readouterr().out
    http = read_log(io.StringIO((proplogs_dir / "http.labeled.log").read_text()))
    pairs = {(row_field(r, http.header, "uid"), row_field(r, http.header, "label")) for r in http.records}
    assert ("CPRP04dddd", "Benign") in pairs and ("CPRP04dddd", "Malicious") not in pairs
    assert len(_repeat_warnings(caplog)) == 2


def test_propagate_warns_once_per_log_of_a_repeated_column(proplogs_dir, capsys, caplog):
    """Each log is read once, the ssl logs first, so each log's repeated
    column is reported once, in the order the logs are read."""
    _label_proplogs(proplogs_dir)
    assert (proplogs_dir / "x509.log").exists()
    for name in ("http.log", "ssl.log"):
        lines = []
        for line in (proplogs_dir / name).read_text().splitlines():
            if line.startswith("#fields"):
                line += "\tuid"
            elif line.startswith("#types"):
                line += "\tstring"
            elif not line.startswith("#"):
                line += "\t" + line.split("\t")[1]
            lines.append(line + "\n")
        (proplogs_dir / name).write_text("".join(lines))
    with caplog.at_level("WARNING"):
        assert main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)]) == 0
    out = capsys.readouterr().out
    assert "ssl.log: 4 rows, 3 labeled, 1 (empty)" in out
    assert "x509.log: 5 rows, 3 labeled, 2 (empty) (via ssl.log)" in out
    assert _repeat_warnings(caplog) == [
        f"{proplogs_dir / name}: column 'uid' appears 2 times in #fields; reading the last"
        for name in ("ssl.log", "http.log")
    ]


def test_eval_and_propagate_warn_on_labels_outside_the_ontology(proplogs_dir, capsys, caplog):
    _label_proplogs(proplogs_dir)
    conn = proplogs_dir / "conn.labeled.log"
    conn.write_text(conn.read_text().replace("\tMalicious\t", "\tmalicious\t"))
    detections = proplogs_dir / "detections.jsonl"
    detections.write_text(json_lines({"ip": "10.0.0.1", "time": 1674560400.0, "evidence": ["CPRP01aaaa"]}))
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["eval", str(conn), str(detections)]) == 0
        assert main(["propagate", str(conn), str(proplogs_dir)]) == 0
    # read as written, never case-folded: no flow counts as malicious
    assert "flows: 6 (malicious 0, unknown excluded 1, unlabeled 1)" in capsys.readouterr().out
    foreign = [r.getMessage() for r in caplog.records if "none of Benign" in r.getMessage()]
    assert foreign == [
        "2 flows in scope carry the label 'malicious', which is none of Benign, Malicious, Unknown or (empty)",
        "2 uids carry the label 'malicious', which is none of Benign, Malicious, Unknown or (empty)",
    ]


def test_propagate_json_label_keys_after_the_first_object(tmp_path, capsys):
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(
        json.dumps({"ts": 1.0, "uid": "C0"}) + "\n"
        + json.dumps({"ts": 2.0, "uid": "C1", "label": "Malicious", "detailed_label": "(empty)"}) + "\n"
    )
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "http.log").write_text(
        json.dumps({"ts": 1.5, "uid": "C0"}) + "\n" + json.dumps({"ts": 2.5, "uid": "C1"}) + "\n"
    )
    rc = main(["propagate", str(conn), str(logs)])
    assert rc == 0
    assert "http.log: 2 rows, 1 labeled" in capsys.readouterr().out
    rows = [json.loads(line) for line in (logs / "http.labeled.log").read_text().splitlines()]
    assert [row["label"] for row in rows] == ["(empty)", "Malicious"]


def test_propagate_json_uid_key_after_the_first_object(proplogs_dir, capsys, caplog):
    _label_proplogs(proplogs_dir)
    (proplogs_dir / "dns.log").write_text(json_lines(
        {"ts": 1.0, "query": "a.example"},
        {"ts": 2.0, "uid": "CPRP01aaaa", "query": "evil.example"},
    ))
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    assert rc == 0
    assert "dns.log: 2 rows, 1 labeled, 1 (empty) -> dns.labeled.log" in capsys.readouterr().out
    assert "uid linkage" not in caplog.text
    rows = [json.loads(line) for line in (proplogs_dir / "dns.labeled.log").read_text().splitlines()]
    assert [row["label"] for row in rows] == ["(empty)", "Malicious"]


def test_propagate_json_ssl_chain_key_after_the_first_object(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    (proplogs_dir / "ssl.log").write_text(json_lines(
        {"ts": 1.0, "uid": "CPRP02bbbb", "resumed": True},  # a resumed session has no chain
        {"ts": 2.0, "uid": "CPRP01aaaa", "cert_chain_fuids": ["FPRPa1sslA"]},
    ))
    capsys.readouterr()
    rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ssl.log: 2 rows, 2 labeled, 0 (empty) -> ssl.labeled.log" in out
    assert "x509.log: 5 rows, 1 labeled, 4 (empty) (via ssl.log)" in out
    x509 = (proplogs_dir / "x509.labeled.log").read_text()
    assert "FPRPa1sslA\t3\tCN=evil.example\tMalicious\t" in x509


# objects without label keys, in forms a re-encoding would not keep: spaced,
# escaped, a number beyond a float's range, a float's trailing zero, an unpaired
# surrogate escape, space around an object and inside an empty one
_VERBATIM_LINES = [
    '{"ts":1.0,"uid":"CPRP01aaaa","proto":"tcp","query":"\\ud800"}',
    '{"ts": 1.50, "uid": "CPRP01aaaa", "proto": "tcp", "n": 1e400, "query": "caf\\u00e9 a\\/b"}',
    "{ }",
    ' {"uid":"CPRP01aaaa","proto":"tcp","query":"é" }\t',
]


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def _json_log_run(proplogs_dir, command: str, lines: list[str]):
    """(the JSON log, its labeled copy, exit code) of ``command`` on ``lines``."""
    if command == "label":
        log = proplogs_dir / "conn.log"
        log.write_text("".join(line + "\n" for line in lines))
        config = proplogs_dir / "tcp.conf"
        config.write_text("Malicious, (empty):\n    - Proto=tcp\n")
        argv = ["label", str(log), "--config", str(config)]
    else:
        _label_proplogs(proplogs_dir)
        log = proplogs_dir / "dns.log"
        log.write_text("".join(line + "\n" for line in lines))
        argv = ["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)]
    return log, log.with_name(log.name.replace(".log", ".labeled.log")), main(argv)


@pytest.mark.parametrize("command", ["label", "propagate"])
def test_json_object_without_label_keys_keeps_its_text(proplogs_dir, capsys, command):
    _, labeled, rc = _json_log_run(proplogs_dir, command, _VERBATIM_LINES)
    assert rc == 0, capsys.readouterr().err
    out = labeled.read_text(encoding="utf-8").splitlines()
    assert len(out) == len(_VERBATIM_LINES)
    rows = [json.loads(line, parse_constant=_reject_constant) for line in out]
    assert [row["label"] for row in rows] == ["Malicious", "Malicious", "(empty)", "Malicious"]
    for line, got, row in zip(_VERBATIM_LINES, out, rows):
        text = line.strip()
        keys = json.dumps({"label": row["label"], "detailed_label": row["detailed_label"]}, separators=(",", ":"))
        assert got == text[:-1] + ("," if text != "{ }" else "") + keys[1:]


@pytest.mark.parametrize("value,problem", [
    ('"\\ud800"', "an unpaired surrogate escape"),
    ("1e400", "a number out of JSON's range"),
], ids=["surrogate", "1e400"])
@pytest.mark.parametrize("command", ["label", "propagate"])
def test_json_relabel_of_an_unencodable_object_is_a_one_line_error(proplogs_dir, capsys, command, value, problem):
    """An object with a label key is encoded anew, and must be JSON in UTF-8 again."""
    lines = [
        '{"ts":1.0,"uid":"CPRP01aaaa","proto":"tcp","label":"Benign"}',
        '{"ts":2.0,"uid":"CPRP01aaaa","proto":"tcp","label":"Benign","query":%s}' % value,
    ]
    log, _, rc = _json_log_run(proplogs_dir, command, lines)
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {log}: line 2: cannot relabel an object holding {problem}"
    )
    # propagate's input, labeled before the run, is all there is
    labeled = {p.name for p in proplogs_dir.glob("*.labeled.log")}
    assert labeled == ({"conn.labeled.log"} if command == "propagate" else set())
    assert not list(proplogs_dir.glob(".*.tmp"))


@pytest.mark.parametrize("http_format", ["tsv", "json"])
@pytest.mark.parametrize("key", ["label", "detailed_label"])
def test_propagate_label_holding_an_unpaired_surrogate_is_a_one_line_error(tmp_path, capsys, key, http_format):
    """A JSON escape can spell a label no UTF-8 output can hold."""
    conn = tmp_path / "conn.labeled.log"
    pair = {"label": "Malicious", "detailed_label": "(empty)", key: "\ud800"}
    conn.write_text(json_lines({"ts": 1.0, "uid": "CPRP01aaaa", "id.orig_h": "10.0.0.1", **pair}))
    assert "\\ud800" in conn.read_text()
    logs = tmp_path / "logs"
    logs.mkdir()
    if http_format == "json":
        http = json_lines({"ts": 1.0, "uid": "CPRP01aaaa", "host": "a.example"})
    else:
        http = zeek_tsv("http", ["ts", "uid", "host"], ["time", "string", "string"],
                        [["1.0", "CPRP01aaaa", "a.example"]])
    (logs / "http.log").write_text(http)
    rc = main(["propagate", str(conn), str(logs)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {conn}: label '\\ud800' holds an unpaired surrogate escape"
    )
    assert [p.name for p in logs.iterdir()] == ["http.log"]


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["label", "propagate", "eval"])
def test_json_nested_beyond_the_recursion_limit_is_a_one_line_error(proplogs_dir, capsys, command):
    """The JSON scanner recurses once per level; a deep line is that line's data error."""
    if command == "eval":
        _label_proplogs(proplogs_dir)
        log = proplogs_dir / "detections.jsonl"
        log.write_text(
            '{"ip": "10.0.0.1", "time": 1674560400.0, "evidence": ["CPRP01aaaa"]}\n'
            '{"ip": "10.0.0.1", "time": 1674560400.0, "evidence": %s}\n' % _DEEP
        )
        rc = main(["eval", str(proplogs_dir / "conn.labeled.log"), str(log)])
    else:
        lines = ['{"ts":1.0,"uid":"CPRP01aaaa","proto":"tcp"}', '{"ts":2.0,"uid":"CPRP01aaaa","a":%s}' % _DEEP]
        log, _, rc = _json_log_run(proplogs_dir, command, lines)
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {log}: line 2: JSON nested too deeply"
    labeled = {p.name for p in proplogs_dir.glob("*.labeled.log")}
    assert labeled == (set() if command == "label" else {"conn.labeled.log"})
    assert not list(proplogs_dir.glob(".*.tmp"))


def test_label_output_that_is_a_directory_is_refused(portscan_dir, capsys):
    out_dir = portscan_dir / "out.log"
    out_dir.mkdir()
    rc = main(["label", str(portscan_dir / "conn.log"), "--config", str(portscan_dir / "portscan.conf"),
               "--output", str(out_dir)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: [Errno 21] Is a directory: '{out_dir}'"
    assert sorted(p.name for p in portscan_dir.iterdir()) == ["conn.log", "out.log", "portscan.conf"]


def test_propagate_output_that_is_a_directory_is_refused(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    (proplogs_dir / "http.labeled.log").mkdir()
    before = {p.name for p in proplogs_dir.iterdir()}
    rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: [Errno 21] Is a directory: '{proplogs_dir / 'http.labeled.log'}'"
    )
    # dns and files come before http in name order, and none of theirs is left
    assert {p.name for p in proplogs_dir.iterdir()} == before


@pytest.mark.parametrize("processes", ["one", "two"])
@pytest.mark.parametrize("command", ["label", "propagate"])
def test_an_output_that_is_a_fifo_is_refused_and_left_in_place(proplogs_dir, request, capsys, command, processes):
    """Renaming the finished temp file over a FIFO (or a device) would replace the node with a regular file."""
    if command == "label":
        fifo = proplogs_dir / "out.fifo"
        argv = ["label", str(proplogs_dir / "conn.log"), "--config", str(proplogs_dir / "labeling.conf"),
                "--output", str(fifo)]
    else:
        _label_proplogs(proplogs_dir)
        fifo = proplogs_dir / "http.labeled.log"  # with two processes, http.log is the child's
        argv = ["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)]
    os.mkfifo(fifo)
    before = sorted(p.name for p in proplogs_dir.iterdir())
    capsys.readouterr()
    if processes == "two":
        request.getfixturevalue("two_processes")
    assert main(argv) == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {fifo}: not a regular file; refusing to replace it with the output"
    )
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in proplogs_dir.iterdir()) == before


@pytest.mark.parametrize("processes", ["one", "two"])
@pytest.mark.parametrize("key, text, separator", [
    ("label", "Mal\ticious", "\t"),
    ("detailed_label", "a\nb", "\t"),
    ("detailed_label", "a\rb", "\t"),
    ("label", "Mal|icious", "|"),
    ("detailed_label", "a\tb", "|"),
], ids=["tab", "newline", "return", "separator", "tab-in-pipe-log"])
def test_propagate_refuses_a_label_that_would_split_a_tsv_row(
    request, tmp_path, capsys, key, text, separator, processes
):
    """A JSON conn.labeled.log can carry any text as a label; a TSV cell cannot hold a tab, a line break or its
    log's separator, so the log that would get it is the run's one error, and no output is moved into place."""
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(json_lines({"ts": 1.0, "uid": "C1", "label": "Malicious", "detailed_label": "(empty)", key: text},
                               {"ts": 2.0, "uid": "C2", "label": "Benign", "detailed_label": "(empty)"}))
    logs = tmp_path / "logs"
    logs.mkdir()
    for name in ("http", "weird"):  # two logs, so that two processes split them
        log = zeek_tsv(name, ["ts", "uid"], ["time", "string"], [["1.0", "C2"], ["2.0", "C1"]])
        (logs / f"{name}.log").write_text(log.replace("\t", separator).replace("\\x09", "\\x7c")
                                          if separator == "|" else log)
    forks = request.getfixturevalue("two_processes") if processes == "two" else []
    assert main(["propagate", str(conn), str(logs), "--output", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) == (
        f"error: {logs / 'http.log'}: label {text!r} holds a tab, a line break or the separator"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conn.labeled.log", "logs"]
    assert sorted(p.name for p in logs.iterdir()) == ["http.log", "weird.log"]
    assert forks == ([] if processes == "one" else ["halves", "logs"])


def test_propagate_writes_such_a_label_escaped_into_a_json_lines_log(tmp_path, capsys):
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(json_lines({"ts": 1.0, "uid": "C1", "label": "Mal\ticious", "detailed_label": "a\nb|c\r"}))
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "dns.log").write_text(json_lines({"ts": 1.0, "uid": "C1"}))
    assert main(["propagate", str(conn), str(logs), "--output", str(tmp_path / "out")]) == 0
    (line,) = (tmp_path / "out" / "dns.labeled.log").read_text().splitlines()
    assert json.loads(line) == {"ts": 1.0, "uid": "C1", "label": "Mal\ticious", "detailed_label": "a\nb|c\r"}


def test_propagate_warns_on_conn_logs_other_than_the_label_source(proplogs_dir, capsys, caplog):
    _label_proplogs(proplogs_dir)
    shutil.copy(proplogs_dir / "conn.log", proplogs_dir / "conn.00:00:00-01:00:00.log")
    capsys.readouterr()
    with caplog.at_level("INFO"):
        rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    assert rc == 0
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warned == ["conn.00:00:00-01:00:00.log is a conn log but not conn.log, the label source; skipping"]
    assert "conn.log is the label source; skipping" in caplog.text
    assert "conn.00" not in capsys.readouterr().out


@pytest.mark.parametrize("name", ["conn.log", "conn.00:00:00-01:00:00.log"])
def test_propagate_skips_a_conn_log_by_its_name_without_reading_it(proplogs_dir, capsys, caplog, name):
    _label_proplogs(proplogs_dir)
    (proplogs_dir / name).write_text("garbage\n")
    capsys.readouterr()
    with caplog.at_level("INFO"):
        rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    assert rc == 0
    assert "error:" not in capsys.readouterr().err
    assert caplog.records[0].getMessage() == (
        "conn.log is the label source; skipping" if name == "conn.log"
        else f"{name} is a conn log but not conn.log, the label source; skipping"
    )
    assert (proplogs_dir / "http.labeled.log").exists()


def _big_conn(path, rows: int, bad_row: bytes | None = None) -> int:
    """A TSV conn.log; ``bad_row`` replaces the last data row. Returns its line."""
    lines = conn_log_text([conn_row(uid=f"C{i}") for i in range(rows)]).encode().splitlines()
    bad_line = len(lines) - 1  # the last data row sits just above #close
    if bad_row is not None:
        lines[bad_line - 1] = bad_row
    path.write_bytes(b"\n".join(lines) + b"\n")
    return bad_line


def _one_error_line(err: str) -> str:
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


def test_label_short_row_leaves_no_output(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    _big_conn(conn, 3001, bad_row=b"1674567890.5\tCshort\t10.0.0.1")
    config = tmp_path / "r.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    rc = main(["label", str(conn), "--config", str(config)])
    assert rc == 1
    assert "row 3001: expected 21 fields, got 3" in _one_error_line(capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conn.log", "r.conf"]


def test_propagate_malformed_log_leaves_no_partial_output(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    http = proplogs_dir / "http.log"
    http.write_text(http.read_text().replace("#close", "short\trow\n#close"))
    before = {p.name for p in proplogs_dir.iterdir()}
    rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    assert rc == 1
    assert "http.log: row" in _one_error_line(capsys.readouterr().err)
    written = {p.name for p in proplogs_dir.iterdir()} - before
    # the logs before http.log in name order were finished, but none is moved into place
    assert written == set()


def test_propagate_failure_removes_the_output_directories_it_made(proplogs_dir, tmp_path, capsys):
    _label_proplogs(proplogs_dir)
    http = proplogs_dir / "http.log"
    http.write_text(http.read_text().replace("#close", "short\trow\n#close"))
    kept = tmp_path / "kept"
    kept.mkdir()
    for out_dir in (tmp_path / "newout2" / "sub", kept):
        rc = main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir),
                   "--output", str(out_dir)])
        assert rc == 1
        assert "http.log: row" in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "newout2").exists()
    # a directory that existed before the run stays, and stays empty
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("command", ["label", "propagate", "eval-conn", "eval-detections"])
def test_non_utf8_input_is_a_one_line_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.log"
    line = _big_conn(bad, 3000, bad_row=b"1674567890.5\t\xff")
    if command == "propagate":  # a uid-linked log other than conn
        bad.write_bytes(bad.read_bytes().replace(b"#path\tconn", b"#path\thttp"))
    if command == "eval-detections":
        det_lines = [b'{"ip": "10.0.0.1", "time": 1.0, "evidence": []}'] * 500
        det_lines[400] = b'{"ip": "10.0.0.1\xff", "time": 1.0, "evidence": []}'
        bad.write_bytes(b"\n".join(det_lines) + b"\n")
        line = 401
    config = tmp_path / "r.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    conn_labeled = DATA_DIR / "fig2" / "conn.labeled.log"
    argv = {
        "label": ["label", str(bad), "--config", str(config)],
        "propagate": ["propagate", str(conn_labeled), str(tmp_path)],
        "eval-conn": ["eval", str(bad), str(DATA_DIR / "fig2" / "detections.jsonl")],
        "eval-detections": ["eval", str(conn_labeled), str(bad)],
    }[command]
    rc = main(argv)
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {bad}: line {line}: not valid UTF-8"
    )
    assert not list(tmp_path.glob("*.labeled.log"))
    assert not list(tmp_path.glob(".*.tmp"))


@pytest.mark.parametrize("command", ["label", "label-forked", "label-piped", "propagate", "propagate-piped", "eval",
                                     "eval-forked", "eval-piped"])
def test_a_bad_row_before_a_non_utf8_byte_in_one_decode_chunk_is_the_error(tmp_path, capsys, request, command):
    # 50 rows: row 3 cut short and a \xff byte in row 10, in the first 8 KiB that the text stream decodes at once;
    # from a file, or from a pipe, which cannot be read a second time
    lines = (DATA_DIR / "portscan" / "conn.log").read_bytes().splitlines()
    head = [line for line in lines if line.startswith(b"#") and not line.startswith(b"#close")]
    rows = [line for line in lines if not line.startswith(b"#")] * 2
    rows[2] = rows[2].rsplit(b"\t", 1)[0]
    rows[9] = rows[9].replace(b"\t", b"\t\xff", 1)
    bad = tmp_path / "conn.log"
    bad.write_bytes(b"\n".join(head + rows[:50]) + b"\n")
    assert bad.stat().st_size < 8192
    forks = request.getfixturevalue("two_processes") if command.endswith("-forked") else None
    if command.endswith("-piped"):
        request.getfixturevalue("piped")(bad)
    argv = {
        "label": ["label", str(bad), "--config", str(DATA_DIR / "portscan.conf")],
        "propagate": ["propagate", str(bad), str(tmp_path)],
        "eval": ["eval", str(bad), str(DATA_DIR / "fig2" / "detections.jsonl")],
    }[command.split("-")[0]]
    assert main(argv) == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {bad}: row 3: expected 21 fields, got 20"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conn.log"]
    assert forks is None or len(forks) == 1


@pytest.mark.parametrize("command", ["eval", "eval-forked", "eval-piped"])
def test_a_bad_detections_line_before_a_non_utf8_byte_is_the_error(tmp_path, capsys, request, command):
    # fig2's detection, a line that is not JSON, then one with a \xff byte, in the first 8 KiB decoded at once
    first = (DATA_DIR / "fig2" / "detections.jsonl").read_bytes().splitlines()[0]
    detections = tmp_path / "detections.jsonl"
    detections.write_bytes(b"\n".join([first, b"not json", first.replace(b'"ip"', b'"ip\xff"')]) + b"\n")
    forks = request.getfixturevalue("two_processes") if command.endswith("-forked") else None
    if command.endswith("-piped"):
        request.getfixturevalue("piped")(detections)
    assert main(["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(detections)]) == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {detections}: line 2: invalid JSON"
    assert not forks  # the detections are read before the conn.log is split


def _json_objects(tsv_log) -> list[str]:
    """Each row of a TSV log as the text of a JSON object, its unset cells left out."""
    lines = tsv_log.read_text().splitlines()
    names = next(line for line in lines if line.startswith("#fields")).split("\t")[1:]
    rows = [line.split("\t") for line in lines if not line.startswith("#")]
    return [json.dumps({k: v for k, v in zip(names, row) if v != "-"}) for row in rows]


@pytest.mark.parametrize("text_after", [False, True], ids=["padded", "text-after-an-object"])
@pytest.mark.parametrize("reader", ["label", "eval-conn", "eval-detections"])
def test_json_lines_of_a_log_and_of_detections_are_read_alike(tmp_path, capsys, reader, text_after):
    """Whitespace before an object and blank lines between objects are read, and line numbers count the
    blank lines; text after an object on its line is invalid JSON. So for a conn.log and a detections file."""
    fig2 = DATA_DIR / "fig2"
    if reader == "label":
        name, objects = "conn.log", _json_objects(DATA_DIR / "proplogs" / "conn.log")
        argv = ["label", name, "--config", str(DATA_DIR / "proplogs" / "labeling.conf")]
    elif reader == "eval-conn":
        name, objects = "conn.labeled.log", _json_objects(fig2 / "conn.labeled.log")
        argv = ["eval", name, str(fig2 / "detections.jsonl")]
    else:
        detection = json.loads((fig2 / "detections.jsonl").read_text())
        name, objects = "detections.jsonl", [json.dumps({**detection, "evidence": [uid]}) for uid in detection["evidence"]]
        argv = ["eval", str(fig2 / "conn.labeled.log"), name]
    # each object after a space and a tab, and a blank and a whitespace-only line between two: object k on line 3k + 1
    padded = [" \t" + obj for obj in objects]
    if text_after:
        padded[1] += ' {"ts": 1.0}'
    runs = []
    for kind, lines in (("plain", objects), ("padded", "\n\n  \n".join(padded).split("\n"))):
        (tmp_path / kind).mkdir()
        (tmp_path / kind / name).write_text("".join(line + "\n" for line in lines))
        rc = main([str(tmp_path / kind / arg) if arg == name else arg for arg in argv])
        out, err = capsys.readouterr()
        runs.append((rc, out.replace(str(tmp_path / kind), "<dir>"), err))
    (plain_rc, plain_out, _), (rc, out, err) = runs
    assert plain_rc == 0
    if text_after:
        assert rc == 1
        assert _one_error_line(err) == f"error: {tmp_path / 'padded' / name}: line 4: invalid JSON"
        assert sorted(p.name for p in (tmp_path / "padded").iterdir()) == [name]
    else:
        assert (rc, out) == (0, plain_out)
        if reader == "label":  # an object is written as its own text, without what was around it
            labeled = [(tmp_path / kind / "conn.labeled.log").read_bytes() for kind in ("plain", "padded")]
            assert labeled[0] == labeled[1]


@pytest.mark.parametrize("separator", ["\\x", "", "é"])
@pytest.mark.parametrize("command", ["label", "propagate", "eval"])
def test_malformed_separator_directive_is_a_one_line_error(tmp_path, capsys, command, separator):
    bad = tmp_path / "bad.log"
    bad.write_text(f"#separator {separator}\n#fields\tts\tuid\n1.0\tC1\n", encoding="utf-8")
    config = tmp_path / "r.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    argv = {
        "label": ["label", str(bad), "--config", str(config)],
        "propagate": ["propagate", str(bad), str(tmp_path)],
        "eval": ["eval", str(bad), str(DATA_DIR / "fig2" / "detections.jsonl")],
    }[command]
    rc = main(argv)
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {bad}: line 1: invalid #separator {separator!r}"
    )
    assert not list(tmp_path.glob("*.labeled.log"))


@pytest.mark.parametrize("command", [
    "label", "propagate-conn", "propagate-http", "propagate-http-forked", "eval",
    "label-unclosed", "propagate-http-unclosed", "eval-unclosed",
])
def test_concatenated_tsv_log_is_a_one_line_error(proplogs_dir, request, capsys, command):
    # `cat a.log b.log` gives one file with a second header block after the first #close, or right after
    # the first header where a.log is an unclosed log with no rows
    _label_proplogs(proplogs_dir)
    command, unclosed = command.removesuffix("-unclosed"), command.endswith("-unclosed")
    name = {"label": "conn.log", "eval": "conn.labeled.log", "propagate-conn": "conn.labeled.log"}.get(command, "http.log")
    doubled = proplogs_dir / name
    once = doubled.read_text()
    first = "".join(itertools.takewhile(lambda line: line.startswith("#"), once.splitlines(True))) if unclosed else once
    doubled.write_text(first + once)
    forks = request.getfixturevalue("two_processes") if command.endswith("forked") else None
    detections = proplogs_dir / "d.jsonl"
    detections.write_text('{"ip": "10.0.0.1", "time": 1674560400.0, "evidence": []}\n')
    before = sorted(p.name for p in proplogs_dir.iterdir())
    capsys.readouterr()
    conn_labeled = str(proplogs_dir / "conn.labeled.log")
    argv = {
        "label": ["label", str(doubled), "--config", str(proplogs_dir / "labeling.conf")],
        "eval": ["eval", conn_labeled, str(detections)],
    }.get(command, ["propagate", conn_labeled, str(proplogs_dir)])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) == (
        f"error: {doubled}: line {first.count(chr(10)) + 1}: a second header block starts here; "
        "split concatenated logs into one file each"
    )
    assert sorted(p.name for p in proplogs_dir.iterdir()) == before
    if forks is not None:
        assert forks == ["halves", "logs"]  # the uid index's fork, then the one child for the logs


def test_label_without_uid_column_names_the_file(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    conn.write_text(zeek_tsv("conn", ["ts", "proto"], ["time", "enum"], [["1.0", "tcp"]]))
    config = tmp_path / "r.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    rc = main(["label", str(conn), "--config", str(config)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == f"error: {conn}: flow table has no uid field"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conn.log", "r.conf"]


@pytest.mark.parametrize("fields, error", [
    (["ts", "label", "detailed_label"], "{conn}: flow table has no uid field"),
    # the label columns are checked first
    (["ts", "proto"], "labeled conn.log has no label/detailed_label columns; run 'label' before 'propagate'"),
])
def test_propagate_refuses_a_labeled_conn_log_without_uid_column(tmp_path, capsys, fields, error):
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(zeek_tsv("conn", fields, ["string"] * len(fields), [["1.0", "Benign", "(empty)"][: len(fields)]]))
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "http.log").write_text(zeek_tsv("http", ["ts", "uid"], ["time", "string"], [["1.0", "C1"]]))
    rc = main(["propagate", str(conn), str(logs), "--output", str(tmp_path / "out")])
    assert rc == (1 if "uid" in error else 2)
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) == "error: " + error.format(conn=conn)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conn.labeled.log", "logs"]


@pytest.mark.parametrize("processes", ["one", "two"])
def test_propagate_accepts_a_json_conn_log_whose_uid_key_first_appears_past_the_split(
    request, tmp_path, capsys, caplog, processes
):
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(json_lines(*(
        {"ts": i + 0.5, **({"uid": f"C{i}"} if i >= 30 else {}), "label": "Malicious", "detailed_label": "(empty)"}
        for i in range(40)
    )))
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "http.log").write_text(zeek_tsv("http", ["ts", "uid"], ["time", "string"], [["1.0", "C35"], ["2.0", "C5"]]))
    forks = request.getfixturevalue("two_processes") if processes == "two" else []
    assert main(["propagate", str(conn), str(logs), "--output", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "http.log: 2 rows, 1 labeled, 1 (empty) -> http.labeled.log", "index: 10 uids"
    ]
    assert [r.getMessage() for r in caplog.records] == ["30 conn rows had no uid and were left out of the index"]
    assert forks == ([] if processes == "one" else ["halves"])  # one log: no child for the logs


@pytest.mark.parametrize("through_link", [False, True], ids=["path", "symlink"])
def test_propagate_refuses_to_overwrite_its_labeled_conn_log(proplogs_dir, tmp_path, capsys, through_link):
    # a labeled conn.log named after a log beside it: that log's output would be the labeled conn.log itself
    _label_proplogs(proplogs_dir)
    d = tmp_path / "d"
    d.mkdir()
    shutil.copy(proplogs_dir / "http.log", d / "http.log")
    labeled = d / "http.labeled.log"
    shutil.copy(proplogs_dir / "conn.labeled.log", labeled)
    before = labeled.read_bytes()
    given = tmp_path / "labels.log" if through_link else labeled
    if through_link:
        given.symlink_to(labeled)
    capsys.readouterr()
    assert main(["propagate", str(given), str(d)]) == 2
    assert _one_error_line(capsys.readouterr().err) == f"error: refusing to overwrite the input file {given}"
    assert labeled.read_bytes() == before
    assert sorted(p.name for p in d.iterdir()) == ["http.labeled.log", "http.log"]


def test_propagate_writes_a_log_named_after_its_conn_log_source(proplogs_dir, capsys):
    # the conn.log the labels came from, under any name, is skipped, not written over its labeled copy
    _label_proplogs(proplogs_dir)
    (proplogs_dir / "conn.log").rename(proplogs_dir / "flows.log")
    (proplogs_dir / "conn.labeled.log").rename(proplogs_dir / "flows.labeled.log")
    before = (proplogs_dir / "flows.labeled.log").read_bytes()
    assert main(["propagate", str(proplogs_dir / "flows.labeled.log"), str(proplogs_dir)]) == 0
    assert (proplogs_dir / "flows.labeled.log").read_bytes() == before
    assert (proplogs_dir / "http.labeled.log").exists()


def _label_proplogs(proplogs_dir) -> None:
    rc = main(
        [
            "label",
            str(proplogs_dir / "conn.log"),
            "--config",
            str(proplogs_dir / "labeling.conf"),
        ]
    )
    assert rc == 0


def test_propagate_labels_every_log(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    capsys.readouterr()
    rc = main(
        ["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    summary = [line for line in out.splitlines() if ":" in line]
    names = [line.split(":")[0] for line in summary]
    # per-file lines come out alphabetically, then the index total
    assert names == ["dns.log", "files.log", "http.log", "ssl.log", "x509.log", "index"]
    assert "dns.log: 3 rows, 0 labeled, 3 (empty)" in out
    assert "files.log: 4 rows, 2 labeled, 2 (empty) (via conn_uids)" in out
    assert "http.log: 5 rows, 4 labeled, 1 (empty)" in out
    assert "ssl.log: 4 rows, 3 labeled, 1 (empty)" in out
    assert "x509.log: 5 rows, 3 labeled, 2 (empty) (via ssl.log)" in out
    assert "index: 6 uids" in out
    for name in ("dns", "files", "http", "ssl", "x509"):
        assert (proplogs_dir / f"{name}.labeled.log").exists()


def test_propagate_row_labels_match_conn_labels(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    main(["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)])
    capsys.readouterr()
    http = (proplogs_dir / "http.labeled.log").read_text()
    assert http.count("\tMalicious\tFrom_malicious-To_benign-Command_and_control") == 3
    x509 = (proplogs_dir / "x509.labeled.log").read_text()
    assert x509.count("\tUnknown\t(empty)") == 2


def test_propagate_output_directory(proplogs_dir, tmp_path, capsys):
    _label_proplogs(proplogs_dir)
    out_dir = tmp_path / "labeled_out"
    rc = main(
        [
            "propagate",
            str(proplogs_dir / "conn.labeled.log"),
            str(proplogs_dir),
            "--output",
            str(out_dir),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert (out_dir / "ssl.labeled.log").exists()
    assert not (proplogs_dir / "ssl.labeled.log").exists()


def test_propagate_knows_an_x509_log_by_its_path_alone(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    conn = str(proplogs_dir / "conn.labeled.log")
    capsys.readouterr()
    assert main(["propagate", conn, str(proplogs_dir)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("x509.log:"))
    labeled = (proplogs_dir / "x509.labeled.log").read_bytes()
    (proplogs_dir / "x509.labeled.log").unlink()
    # certs.log sorts before ssl.log, yet finds the certificate map complete
    (proplogs_dir / "x509.log").rename(proplogs_dir / "certs.log")
    assert main(["propagate", conn, str(proplogs_dir)]) == 0
    out = capsys.readouterr().out
    assert line.replace("x509.", "certs.") in out.splitlines()
    assert (proplogs_dir / "certs.labeled.log").read_bytes() == labeled


def test_propagate_x509_log_named_like_an_ssl_log(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    conn = str(proplogs_dir / "conn.labeled.log")
    capsys.readouterr()
    assert main(["propagate", conn, str(proplogs_dir)]) == 0
    labeled = (proplogs_dir / "x509.labeled.log").read_bytes()
    # after every other ssl log: labeled from the complete certificate map
    (proplogs_dir / "x509.log").rename(proplogs_dir / "ssl.x509.log")
    assert main(["propagate", conn, str(proplogs_dir)]) == 0
    assert "ssl.x509.log: 5 rows, 3 labeled, 2 (empty) (via ssl.log)" in capsys.readouterr().out
    assert (proplogs_dir / "ssl.x509.labeled.log").read_bytes() == labeled
    # before another ssl log: the map would be partial, so the run is refused
    (proplogs_dir / "ssl.x509.log").rename(proplogs_dir / "ssl.a.log")
    before = {p.name for p in proplogs_dir.iterdir()}
    assert main(["propagate", conn, str(proplogs_dir)]) == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {proplogs_dir / 'ssl.a.log'}: x509 log sorts before an ssl log; rename it (e.g. x509.log)"
    )
    assert {p.name for p in proplogs_dir.iterdir()} == before


def test_propagate_reports_a_bad_row_before_a_missing_chain_field(proplogs_dir, capsys):
    """The chain check runs after the last log, so a bad row anywhere wins."""
    _label_proplogs(proplogs_dir)
    http = proplogs_dir / "http.log"
    (proplogs_dir / "ssl.log").write_text(http.read_text().replace("#path\thttp", "#path\tssl"))
    conn = str(proplogs_dir / "conn.labeled.log")
    capsys.readouterr()
    assert main(["propagate", conn, str(proplogs_dir)]) == 1
    assert "ssl.log: ssl log has no certificate chain field" in _one_error_line(capsys.readouterr().err)
    http.write_text(http.read_text().replace("#close", "short\trow\n#close"))
    assert main(["propagate", conn, str(proplogs_dir)]) == 1
    assert "http.log: row 6: expected" in _one_error_line(capsys.readouterr().err)


def test_propagate_reports_errors_in_the_order_logs_are_read(proplogs_dir, capsys):
    """No header is read ahead: a bad row of dns.log wins over a bad header of http.log."""
    _label_proplogs(proplogs_dir)
    dns, http = proplogs_dir / "dns.log", proplogs_dir / "http.log"
    http.write_text(http.read_text().replace("#types\t", "#types\tstring\t"))
    conn = str(proplogs_dir / "conn.labeled.log")
    capsys.readouterr()
    assert main(["propagate", conn, str(proplogs_dir)]) == 1
    assert "http.log: #fields and #types disagree" in _one_error_line(capsys.readouterr().err)
    dns.write_text(dns.read_text().replace("#close", "short\trow\n#close"))
    assert main(["propagate", conn, str(proplogs_dir)]) == 1
    assert "dns.log: row 4: expected" in _one_error_line(capsys.readouterr().err)


def test_propagate_requires_labeled_conn(proplogs_dir, capsys):
    rc = main(["propagate", str(proplogs_dir / "conn.log"), str(proplogs_dir)])
    assert rc == 2
    assert "run 'label' before 'propagate'" in capsys.readouterr().err


def test_propagate_rejects_missing_directory(proplogs_dir, capsys):
    _label_proplogs(proplogs_dir)
    rc = main(
        [
            "propagate",
            str(proplogs_dir / "conn.labeled.log"),
            str(proplogs_dir / "nowhere"),
        ]
    )
    assert rc == 2
    assert "is not a directory" in capsys.readouterr().err


def test_propagate_warns_on_x509_without_ssl(proplogs_dir, capsys, caplog):
    _label_proplogs(proplogs_dir)
    (proplogs_dir / "ssl.log").unlink()
    with caplog.at_level("WARNING"):
        rc = main(
            ["propagate", str(proplogs_dir / "conn.labeled.log"), str(proplogs_dir)]
        )
    assert rc == 0
    assert "no ssl.log found" in caplog.text
    out = capsys.readouterr().out
    assert "x509.log: 5 rows, 0 labeled, 5 (empty) (via ssl.log)" in out


# route -> (log name, fields, one row's values); list values are Zeek sets
_ROUTE_LOGS = {
    "conn": ("conn.labeled.log", ["ts", "uid", "label", "detailed_label"],
             lambda i: [f"C{i}", "Malicious", "(empty)"]),
    "uid": ("http.log", ["ts", "uid"], lambda i: [f"C{i}"]),
    "uids": ("dhcp.log", ["ts", "uids"], lambda i: [[f"C{i}", f"C{i + 1}"]]),
    "files": ("files.log", ["ts", "fuid", "conn_uids"], lambda i: [f"F{i}", [f"C{i}"]]),
    "ssl": ("ssl.log", ["ts", "uid", "cert_chain_fuids"], lambda i: [f"C{i}", [f"F{i}"]]),
    "x509": ("x509.log", ["ts", "id"], lambda i: [f"F{i}"]),
    "none": ("software.log", ["ts", "host"], lambda i: ["10.0.0.1"]),
}
_FAULT_ROWS, _FAULT_AT = 3000, 1500  # past the first read and write chunks


def _route_log_bytes(route: str, fmt: str, fault: str | None = None) -> bytes:
    name, fields, values = _ROUTE_LOGS[route]
    rows = [[float(i), *values(i)] for i in range(_FAULT_ROWS)]
    if fmt == "json":
        lines = [json.dumps(dict(zip(fields, row))).encode() for row in rows]
        bad = {"invalid-json": b'{"ts": 1.0,', "non-utf8": b'{"ts": 1.0, "x": "\xff"}'}
        at = _FAULT_AT - 1
    else:
        text = zeek_tsv(name.split(".")[0], fields, ["string"] * len(fields),
                        [[",".join(v) if isinstance(v, list) else str(v) for v in row] for row in rows])
        lines = text.encode().splitlines()
        bad = {"short-row": b"short", "non-utf8": b"1.0\t\xff" + b"\tx" * (len(fields) - 2)}
        at = 8 + _FAULT_AT - 1  # below the eight header lines
    if fault is not None:
        lines[at] = bad[fault]
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("fmt,fault", [
    ("tsv", "short-row"), ("json", "invalid-json"), ("tsv", "non-utf8"), ("json", "non-utf8"),
])
@pytest.mark.parametrize("route", sorted(_ROUTE_LOGS))
def test_propagate_bad_row_in_each_route_is_a_one_line_error(tmp_path, capsys, route, fmt, fault):
    for other in ("conn", route, *{"ssl": ["x509"], "x509": ["ssl"]}.get(route, [])):
        name = _ROUTE_LOGS[other][0]
        (tmp_path / name).write_bytes(_route_log_bytes(other, fmt, fault if other == route else None))
    before = {p.name for p in tmp_path.iterdir()}
    bad = tmp_path / _ROUTE_LOGS[route][0]
    rc = main(["propagate", str(tmp_path / "conn.labeled.log"), str(tmp_path)])
    assert rc == 1
    where = {
        "short-row": f"row {_FAULT_AT}: expected {len(_ROUTE_LOGS[route][1])} fields, got 1",
        "invalid-json": f"line {_FAULT_AT}: invalid JSON",
        "non-utf8": f"line {_FAULT_AT + 8 * (fmt == 'tsv')}: not valid UTF-8",
    }[fault]
    assert _one_error_line(capsys.readouterr().err) == f"error: {bad}: {where}"
    written = {p.name for p in tmp_path.iterdir()} - before
    if route in ("conn", "ssl"):  # read before any output is written
        assert written == set()
    else:
        assert written <= {"ssl.labeled.log"}


def test_eval_fig2_numbers(capsys):
    rc = main(
        [
            "eval",
            str(DATA_DIR / "fig2" / "conn.labeled.log"),
            str(DATA_DIR / "fig2" / "detections.jsonl"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "flows: 15 (malicious 5, unknown excluded 0, unlabeled 0)" in out
    assert "TP 3  FP 1  FN 2  TN 9" in out
    assert "FPR 10.0%  TPR 60.0%  Accuracy 80.0%  F1 66.7%" in out
    assert "192.168.100.7: TP" in out


def test_eval_json_matches_human_numbers(capsys):
    args = [
        "eval",
        str(DATA_DIR / "fig2" / "conn.labeled.log"),
        str(DATA_DIR / "fig2" / "detections.jsonl"),
    ]
    rc = main(args + ["--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flow"]["counts"] == {"tp": 3, "fp": 1, "tn": 9, "fn": 2}
    assert payload["flow"]["metrics"]["fpr"] == pytest.approx(0.10)
    assert payload["flow"]["metrics"]["tpr"] == pytest.approx(0.60)
    assert payload["flow"]["metrics"]["accuracy"] == pytest.approx(0.80)
    assert payload["flow"]["metrics"]["f1"] == pytest.approx(2 / 3)
    assert payload["parameters"] == {"window": 3600.0, "threshold": 1, "cutoff": None}
    timeline = payload["ip"]["timelines"]["192.168.100.7"]
    assert [s["status"] for s in timeline] == ["TP"]
    # undefined ratios serialize as null, never 0
    assert payload["ip"]["metrics"]["fpr"] is None


def test_eval_timeline_narrative(capsys):
    rc = main(
        [
            "eval",
            str(DATA_DIR / "timeline" / "conn.labeled.log"),
            str(DATA_DIR / "timeline" / "detections.jsonl"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "10.0.0.5: TP TN TP" in out
    assert "10.0.0.9: TN TN TN" in out


def _render_eval(flow: dict, timelines: dict, window: float, as_json: bool) -> str:
    """The eval report for known flow numbers and (start, truth, predicted) windows."""

    def status(truth, predicted):
        return ("TP" if predicted else "FN") if truth else ("FP" if predicted else "TN")

    def scored(counts):
        def ratio(num, den):
            return num / den if den else None

        tp, fp, tn, fn = counts["tp"], counts["fp"], counts["tn"], counts["fn"]
        return {
            "fpr": ratio(fp, fp + tn),
            "tpr": ratio(tp, tp + fn),
            "accuracy": ratio(tp + tn, tp + fp + tn + fn),
            "f1": ratio(2 * tp, 2 * tp + fp + fn),
        }

    ip_counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for windows in timelines.values():
        for _, truth, predicted in windows:
            ip_counts[status(truth, predicted).lower()] += 1
    if as_json:
        payload = {
            "parameters": {"window": window, "threshold": 1, "cutoff": None},
            "flow": {**flow, "metrics": scored(flow["counts"])},
            "ip": {
                "counts": ip_counts,
                "metrics": scored(ip_counts),
                "timelines": {
                    ip: [
                        {"window_start": start, "truth": t, "predicted": p, "status": status(t, p)}
                        for start, t, p in windows
                    ]
                    for ip, windows in timelines.items()
                },
            },
        }
        return json.dumps(payload, indent=2) + "\n"

    def summary(counts):
        m = {k: "n/a" if v is None else f"{100 * v:.1f}%" for k, v in scored(counts).items()}
        return [
            f"  TP {counts['tp']}  FP {counts['fp']}  FN {counts['fn']}  TN {counts['tn']}",
            f"  FPR {m['fpr']}  TPR {m['tpr']}  Accuracy {m['accuracy']}  F1 {m['f1']}",
        ]

    lines = [
        "flow-level evaluation",
        f"  flows: {flow['flows']} (malicious {flow['malicious']}, unknown excluded "
        f"{flow['unknown_excluded']}, unlabeled {flow['unlabeled_negative']})",
        *summary(flow["counts"]),
        f"ip-level evaluation (window {window:g}s, threshold 1)",
        *(
            f"  {ip}: " + " ".join(status(t, p) for _, t, p in windows)
            for ip, windows in timelines.items()
        ),
        *summary(ip_counts),
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_eval_timeline_full_output(capsys, as_json):
    argv = [
        "eval",
        str(DATA_DIR / "timeline" / "conn.labeled.log"),
        str(DATA_DIR / "timeline" / "detections.jsonl"),
    ]
    rc = main(argv + ["--json"] * as_json)
    assert rc == 0
    # one-hour windows from 2023-01-24 08:00 UTC: attack, pause, attack again
    hours = [1674547200.0, 1674550800.0, 1674554400.0]
    timelines = {
        "10.0.0.5": list(zip(hours, [True, False, True], [True, False, True])),
        "10.0.0.9": list(zip(hours, [False] * 3, [False] * 3)),
    }
    flow = {
        "flows": 9,
        "malicious": 5,
        "unknown_excluded": 0,
        "unlabeled_negative": 0,
        "counts": {"tp": 3, "fp": 0, "tn": 4, "fn": 2},
    }
    assert capsys.readouterr().out == _render_eval(flow, timelines, 3600.0, as_json)


@pytest.mark.parametrize("time", ["1e400", "-1e400", "NaN", "Infinity"])
def test_eval_non_finite_detection_time_exits_1(tmp_path, capsys, time):
    det = tmp_path / "d.jsonl"
    det.write_text(
        '{"ip": "192.168.100.7", "time": 1674550500.0, "evidence": []}\n'
        f'{{"ip": "192.168.100.7", "time": {time}, "evidence": []}}\n'
    )
    rc = main(["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(det)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {det}: line 2: time must be a finite number"
    )


@pytest.mark.parametrize("ts", ["inf", "-1e400", "nan"])
def test_eval_non_finite_conn_ts_is_a_skipped_row(tmp_path, capsys, caplog, ts):
    conn = tmp_path / "conn.labeled.log"
    text = (DATA_DIR / "fig2" / "conn.labeled.log").read_text()
    conn.write_text(text.replace("1674550000.000000\tCFIG201qWm", f"{ts}\tCFIG201qWm"))
    with caplog.at_level("WARNING"):
        rc = main(["eval", str(conn), str(DATA_DIR / "fig2" / "detections.jsonl")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err and "error:" not in captured.err
    assert [r.getMessage() for r in caplog.records] == [
        "1 rows skipped during evaluation (missing uid, ts or source IP)"
    ]
    # the benign CFIG201qWm is gone from the flow-level counts
    assert "flows: 14 (malicious 5, unknown excluded 0, unlabeled 0)" in captured.out
    assert "TP 3  FP 1  FN 2  TN 8" in captured.out


def test_eval_cutoff_limits_scored_flows(capsys):
    rc = main(
        [
            "eval",
            str(DATA_DIR / "fig2" / "conn.labeled.log"),
            str(DATA_DIR / "fig2" / "detections.jsonl"),
            "--cutoff",
            "1674550150",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # six flows start at or before the cutoff
    assert payload["flow"]["flows"] == 6
    counts = payload["flow"]["counts"]
    assert counts["tp"] + counts["fp"] + counts["tn"] + counts["fn"] == 6


def test_eval_unlabeled_conn_exits_2(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    conn.write_text(conn_log_text([conn_row()]))
    det = tmp_path / "d.jsonl"
    det.write_text("")
    rc = main(["eval", str(conn), str(det)])
    assert rc == 2
    assert "run 'label' before 'eval'" in capsys.readouterr().err


def test_eval_unknown_evidence_exits_2(tmp_path, capsys):
    det = tmp_path / "d.jsonl"
    det.write_text(
        '{"ip": "192.168.100.7", "time": 1674550500.0, "evidence": ["Cmissing"]}\n'
    )
    rc = main(["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(det)])
    assert rc == 2
    assert _one_error_line(capsys.readouterr().err) == "error: evidence uids not present in the labeled flows: Cmissing"


@pytest.mark.parametrize("processes", ["one", "two"])
@pytest.mark.parametrize("skipped", [1, 2])
def test_eval_evidence_of_a_skipped_row_exits_2_with_the_skip_count(tmp_path, capsys, request, skipped, processes):
    # CFIG201qWm is in the conn.log, but its row has no ts and is not scored: the error says how many were skipped
    text = (DATA_DIR / "fig2" / "conn.labeled.log").read_text()
    for ts, uid in [("1674550000", "CFIG201qWm"), ("1674550420", "CFIG215qWm")][:skipped]:  # the first row, the last
        text = text.replace(f"{ts}.000000\t{uid}", f"-\t{uid}")
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(text)
    det = tmp_path / "d.jsonl"
    det.write_text('{"ip": "192.168.100.7", "time": 1674550500.0, "evidence": ["CFIG201qWm"]}\n')
    forks = request.getfixturevalue("two_processes") if processes == "two" else []
    rc = main(["eval", str(conn), str(det)])
    assert rc == 2 and forks.count("halves") == (processes == "two")
    rows = "1 row without a uid, finite ts or source IP was" if skipped == 1 else \
        "2 rows without a uid, finite ts or source IP were"
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: evidence uids not present in the labeled flows: CFIG201qWm ({rows} skipped)"
    )


def test_eval_bad_detections_exit_1(tmp_path, capsys):
    det = tmp_path / "d.jsonl"
    det.write_text("garbage\n")
    rc = main(["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(det)])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("evidence", ['"CxY"', '{"CPRP01aaaa": 1}', "null", '[["C1"]]', "[7]"])
def test_eval_evidence_that_is_not_a_list_exits_1(tmp_path, capsys, evidence):
    det = tmp_path / "d.jsonl"
    det.write_text(
        '{"ip": "192.168.100.7", "time": 1674550500.0, "evidence": ["C1"]}\n'
        f'{{"ip": "192.168.100.7", "time": 1674550500.0, "evidence": {evidence}}}\n'
    )
    rc = main(["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(det)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: {det}: line 2: evidence must be a list of uids"
    )


@pytest.mark.parametrize(
    "fields, error",
    [
        ('"ip": 3232261127, "time": 1674550500.0',
         "needs ip, time and evidence (ip 3232261127 is not a string)"),
        ('"ip": true, "time": 1674550500.0', "needs ip, time and evidence (ip true is not a string)"),
        ('"ip": "192.168.100.7", "time": true', "time must be a finite number"),
        ('"ip": "192.168.100.7", "time": "1674550500.0"', "time must be a finite number"),
        ('"ip": "192.168.100.7", "time": 1' + "0" * 400, "time must be a finite number"),
    ],
    ids=["int-ip", "bool-ip", "bool-time", "string-time", "int-time-beyond-float"],
)
def test_eval_detection_field_of_the_wrong_type_exits_1(tmp_path, capsys, fields, error):
    det = tmp_path / "d.jsonl"
    det.write_text(
        '{"ip": "192.168.100.7", "time": 1674550500.0, "evidence": []}\n'
        f'{{{fields}, "evidence": []}}\n'
    )
    rc = main(["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(det)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == f"error: {det}: line 2: {error}"


def test_eval_bad_window_exits_2(capsys):
    rc = main(
        [
            "eval",
            str(DATA_DIR / "fig2" / "conn.labeled.log"),
            str(DATA_DIR / "fig2" / "detections.jsonl"),
            "--window",
            "0",
        ]
    )
    assert rc == 2
    assert "window must be a positive" in capsys.readouterr().err


def test_eval_nan_cutoff_exits_2(capsys):
    rc = main(
        [
            "eval",
            str(DATA_DIR / "fig2" / "conn.labeled.log"),
            str(DATA_DIR / "fig2" / "detections.jsonl"),
            "--cutoff",
            "nan",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == "error: cutoff must be a number"


@pytest.mark.parametrize(
    "option, error",
    [
        ("--window=inf", "window must be a positive finite number of seconds"),
        ("--cutoff=inf", "cutoff must be finite"),
        ("--cutoff=-inf", "cutoff must be finite"),
    ],
    ids=["window-inf", "cutoff-inf", "cutoff-minus-inf"],
)
def test_eval_non_finite_window_or_cutoff_exits_2(capsys, option, error):
    # an infinite window or cutoff would reach the JSON report as Infinity or NaN
    rc = main(
        [
            "eval",
            str(DATA_DIR / "fig2" / "conn.labeled.log"),
            str(DATA_DIR / "fig2" / "detections.jsonl"),
            option,
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == f"error: {error}"


@pytest.mark.parametrize("conn_fault", ["short-row", "no-label-column"])
def test_eval_conn_error_beats_invalid_detections(tmp_path, capsys, conn_fault):
    conn = tmp_path / "conn.labeled.log"
    if conn_fault == "short-row":
        text = (DATA_DIR / "fig2" / "conn.labeled.log").read_text()
        conn.write_text(text.replace("#close", "1674550000.0\tCshort\n#close"))
    else:
        conn.write_text(conn_log_text([conn_row()]))
    det = tmp_path / "d.jsonl"
    det.write_text("garbage\n")
    rc = main(["eval", str(conn), str(det)])
    error = _one_error_line(capsys.readouterr().err)
    if conn_fault == "short-row":
        assert rc == 1
        assert error.startswith(f"error: {conn}: row ")
    else:
        assert rc == 2
        assert error == f"error: {conn} has no label column; run 'label' before 'eval'"


@pytest.mark.parametrize("which", ["flow", "detection"])
def test_eval_window_overflow_is_a_usage_error(tmp_path, capsys, which):
    # 1.0 / 1e-300 is a finite window index; 1e10 / 1e-300 overflows to inf
    if which == "flow":
        conn, det = DATA_DIR / "fig2" / "conn.labeled.log", DATA_DIR / "fig2" / "detections.jsonl"
    else:
        conn, det = tmp_path / "conn.labeled.log", tmp_path / "d.jsonl"
        flow = {"ts": 1.0, "uid": "C1", "id.orig_h": "10.0.0.1",
                "label": "Malicious", "detailed_label": "(empty)"}
        conn.write_text(json.dumps(flow) + "\n")
        det.write_text(json.dumps({"ip": "10.0.0.1", "time": 1e10, "evidence": ["C1"]}) + "\n")
    rc = main(["eval", str(conn), str(det), "--window", "1e-300"])
    assert rc == 2
    assert _one_error_line(capsys.readouterr().err) == (
        "error: window 1e-300s is too small for the flow and detection times"
    )


def test_eval_refuses_a_report_of_more_windows_than_the_bound(tmp_path, capsys, monkeypatch):
    # detection times in milliseconds: fig2's one IP spans 2.8e10 one-minute windows
    conn = DATA_DIR / "fig2" / "conn.labeled.log"
    det = tmp_path / "detections.jsonl"
    objects = map(json.loads, (DATA_DIR / "fig2" / "detections.jsonl").read_text().splitlines())
    det.write_text("".join(json.dumps({**obj, "time": obj["time"] * 1000}) + "\n" for obj in objects))
    stdout = CappedStdout(1 << 20)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["eval", str(conn), str(det), "--window", "60"]) == 2
    assert stdout.getvalue() == ""
    assert _one_error_line(capsys.readouterr().err) == (
        "error: the IP timeline would hold 27881265835 windows of 60s, from a flow in the window at "
        f"1674549960.000000 ({conn}) to the detection at 1674550500000.000000 ({det} line 1); "
        "the bound is 100000000 (--max-windows)"
    )


def test_max_windows_sets_the_bound(capsys):
    argv = ["eval", str(DATA_DIR / "fig2" / "conn.labeled.log"), str(DATA_DIR / "fig2" / "detections.jsonl"),
            "--window", "60", "--json"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    windows = sum(json.loads(report)["ip"]["counts"].values())
    assert windows > 1
    assert main([*argv, "--max-windows", str(windows)]) == 0
    assert capsys.readouterr().out == report
    assert main([*argv, "--max-windows", str(windows - 1)]) == 2
    assert _one_error_line(capsys.readouterr().err).startswith(f"error: the IP timeline would hold {windows} windows")


def test_validate_config_ok(capsys):
    config = DATA_DIR / "dos.conf"
    rc = main(["validate-config", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config OK (1 rules)" in out
    digest = hashlib.sha256(config.read_bytes()).hexdigest()
    assert f"config sha256: {digest}" in out
    assert "technique (extensible): 1 items" in out


def test_validate_config_bad_exits_2(tmp_path, capsys):
    bad = tmp_path / "b.conf"
    bad.write_text("Malicious, Nonsense:\n    - Proto=tcp\n")
    rc = main(["validate-config", "--config", str(bad)])
    assert rc == 2
    assert "unknown detail item 'Nonsense'" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "latin1.conf"
    config.write_bytes("Benign, (empty):\n    - Proto=tcp  # caf\xe9\n".encode("latin-1"))
    assert main(["validate-config", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: config file is not valid UTF-8\n"


def test_a_config_with_a_byte_order_mark_reads_as_the_file_without_it(proplogs_dir, capsys):
    """The mark is not text of the config; the printed sha256 stays that of the file's bytes."""
    plain = proplogs_dir / "labeling.conf"
    marked = proplogs_dir / "marked.conf"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    runs = []
    for config in (plain, marked):
        out = proplogs_dir / f"{config.stem}.labeled.log"
        codes = [
            main(["show-ontology", "--config", str(config)]),
            main(["validate-config", "--config", str(config)]),
            main(["label", str(proplogs_dir / "conn.log"), "--config", str(config), "--output", str(out)]),
        ]
        printed = capsys.readouterr()
        assert codes == [0, 0, 0] and printed.err == ""
        assert f"config sha256: {hashlib.sha256(config.read_bytes()).hexdigest()}" in printed.out
        lines = [line for line in printed.out.splitlines() if not line.startswith(("config sha256: ", "wrote: "))]
        runs.append((lines, out.read_bytes()))
    assert "technique [extensible]: Command_and_control" in runs[0][0]
    assert runs[1] == runs[0]


def test_label_reads_a_json_empty_list_as_unset(tmp_path, capsys):
    conn = tmp_path / "conn.log"
    conn.write_text(json_lines({"ts": 1.0, "uid": "Cempty", "proto": []}, {"ts": 2.0, "uid": "Ctcp", "proto": "tcp"}))
    config = tmp_path / "tcp.conf"
    config.write_text("Benign, (empty):\n    - Proto=tcp\n")
    assert main(["label", str(conn), "--config", str(config)]) == 0
    assert "labeled: 1\n" in capsys.readouterr().out
    rows = [json.loads(line) for line in (tmp_path / "conn.labeled.log").read_text().splitlines()]
    assert [(row["uid"], row["label"]) for row in rows] == [("Cempty", "(empty)"), ("Ctcp", "Benign")]


def test_ontology_may_relist_the_items_of_a_fixed_level(tmp_path, capsys):
    """Re-listing built-in items of a fixed level adds nothing: the counts are those of the config without them."""
    rules = "[rules]\nMalicious, From_benign:\n    - Proto=tcp\n"
    counts = []
    for name, text in (("plain", rules), ("relisted", "[ontology]\nlabel: Malicious, Benign\nsource: From_benign\n\n" + rules)):
        config = tmp_path / f"{name}.conf"
        config.write_text(text)
        assert main(["validate-config", "--config", str(config)]) == 0
        counts.append([line for line in capsys.readouterr().out.splitlines() if line.endswith(" items")])
    assert "  label (fixed): 3 items" in counts[0]
    assert "  source (fixed): 2 items" in counts[0]
    assert counts[1] == counts[0]


def test_label_reads_a_destination_that_is_not_an_address_as_unset(tmp_path, capsys):
    """A rule's IPv6 address matches the rows spelling that address in any way; a cell with a colon that is
    no address is unset and matches no address."""
    spellings = ["fe80::1", "FE80:0::1", "fe80::zz", "fe80::2", "-"]
    conn = tmp_path / "conn.log"
    conn.write_text(conn_log_text([conn_row(uid=f"C{i}", **{"id.resp_h": h}) for i, h in enumerate(spellings)]))
    config = tmp_path / "v6.conf"
    config.write_text("Malicious, (empty):\n    - dstIP=fe80::1\n")
    assert main(["label", str(conn), "--config", str(config)]) == 0
    assert "labeled: 2\n" in capsys.readouterr().out
    with open(tmp_path / "conn.labeled.log", encoding="utf-8") as fh:
        labeled = read_log(fh, "conn.labeled.log")
    assert [cells[-2] for cells in labeled.records] == ["Malicious", "Malicious", "(empty)", "(empty)", "(empty)"]


def test_show_ontology_builtin(capsys):
    rc = main(["show-ontology"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "label [mandatory/fixed]: Benign, Malicious, Unknown" in out
    assert "technique [extensible]: (none)" in out


def test_show_ontology_with_config(capsys):
    rc = main(["show-ontology", "--config", str(DATA_DIR / "dos.conf")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "app-protocol [extensible]: NTP" in out


def test_show_ontology_json(capsys):
    rc = main(["show-ontology", "--json", "--config", str(DATA_DIR / "dos.conf")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["label"] == {
        "mandatory": True,
        "extensible": False,
        "items": ["Benign", "Malicious", "Unknown"],
    }
    assert payload["technique"]["items"] == ["DoS"]


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
