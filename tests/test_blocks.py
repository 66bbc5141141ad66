"""Where the reader's blocks end changes nothing.

``ZeekLogReader.blocks()`` reads ``zeekio.BLOCK_BYTES`` of text at a time and
ends a block just before a bad row, a ``#`` line or a non-UTF-8 byte. Each
case builds a seeded log directory from ``randgen`` flows and rules, TSV or
JSON lines, puts one fault into one of its logs (a short row, a ``#close``
trailer, a second header block, a ``\\xff`` byte, bad JSON, a line that is not
an object, a blank line), and runs ``label``, ``eval`` or ``propagate`` with
``BLOCK_BYTES`` at 1, at a few hundred and at the sizes that put a block edge
just before, at and after the fault. Exit code, stdout, stderr, log messages
and the bytes of every file left must equal those at the default size, in one
process and with the work split between two. The per-row fallbacks of the
block routes get cases of their own: a null text that is a uid of the index,
and JSON uids that are not strings.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONN_FIELDS, CONN_TYPES, conn_log_text, zeek_tsv
from randgen import flow_to_cells, flow_to_json, gen_case, make_flow

from zeeklabel import zeekio
from zeeklabel.cli import main

FAULTS = {
    "tsv": ["none", "short", "close", "header", "badbyte"],
    "json": ["none", "invalid", "array", "blank", "badbyte"],
}
# (command, the file that gets the fault)
TARGETS = [("label", "conn.log"), ("eval", "conn.labeled.log"), ("propagate", "conn.labeled.log"),
           ("propagate", "target")]


def _fault(lines: list[str], at: int, fault: str, fmt: str) -> list[str]:
    """``lines`` with ``fault`` at line ``at``, a data line."""
    line = lines[at]
    if fault == "none":
        return lines
    if fault == "short":
        return lines[:at] + [line.rsplit("\t", 1)[0]] + lines[at + 1:]
    if fault == "close":
        return lines[:at] + ["#close\t2023-01-24-14-00-00"] + lines[at:]
    if fault == "header":
        return lines[:at] + [line for line in lines if line.startswith("#") and not line.startswith("#close")] + lines[at:]
    if fault == "badbyte":
        return lines[:at] + [line[:5] + "\udcff" + line[5:]] + lines[at + 1:]  # written as the byte 0xff
    replacement = {"invalid": ["{"], "array": ["[1]"], "blank": ["", line]}[fault]
    return lines[:at] + replacement + lines[at + 1:]


def _write(path: Path, lines: list[str]) -> None:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))


def _scenario(work: Path, seed: int, fmt: str) -> list[str]:
    """A conn.log, its rules, its labeled copy, detections and one target log per format; the argv of each run."""
    rng = random.Random(seed)
    config, _ = gen_case(rng)
    (work / "rules.conf").write_text(config)
    flows = [make_flow(rng) for _ in range(rng.randrange(60, 90))]  # past a text stream's first 8 KiB
    if fmt == "tsv":
        (work / "conn.log").write_text(conn_log_text([flow_to_cells(flow) for flow in flows]))
    else:
        (work / "conn.log").write_text("".join(json.dumps(flow_to_json(flow)) + "\n" for flow in flows))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["label", str(work / "conn.log"), "--config", str(work / "rules.conf")]) == 0
    detections = [{"ip": str(flow["src_ip"]), "time": flow["ts"] + 1, "evidence": [flow["uid"]]}
                  for flow in rng.sample(flows, 4)]
    (work / "detections.jsonl").write_text("".join(json.dumps(d) + "\n" for d in detections))
    logs = work / "logs"
    logs.mkdir()
    uids = [flow["uid"] for flow in flows] + ["Cnowhere"]
    if fmt == "tsv":
        rows = [[f"{1674550000 + i}.5", rng.choice(uids), f"host{i}.example/#top"] for i in range(250)]
        (logs / "http.log").write_text(zeek_tsv("http", ["ts", "uid", "host"], ["time", "string", "string"], rows))
        sets = [[f"{1674550000 + i}.5", f"F{i}", ",".join(rng.sample(uids, 2))] for i in range(10)]
        (logs / "files.log").write_text(zeek_tsv("files", ["ts", "fuid", "conn_uids"], ["time"] + ["string"] * 2, sets))
    else:
        (logs / "dns.log").write_text("".join(json.dumps({"ts": i + 0.5, "uid": rng.choice(uids), "query": f"q{i}"})
                                              + "\n" for i in range(250)))
    return uids


def _faulted(work: Path, command: str, file: str, fmt: str, fault: str, row: int) -> tuple[list[str], int]:
    """Put ``fault`` at data row ``row`` of the command's file; its argv, and the BLOCK_BYTES of a block edge just
    before the fault."""
    path = (work / "logs" / ("http.log" if fmt == "tsv" else "dns.log")) if file == "target" else work / file
    lines = path.read_text().splitlines()
    data = [k for k, line in enumerate(lines) if not line.startswith("#")]
    at = data[min(row, len(data) - 1)]
    lines = _fault(lines, at, fault, fmt)
    _write(path, lines)
    # the first row is read with the header; the text of the rows after it up to the fault ends the first block
    edge = max(sum(len(line) + 1 for line in lines[data[0] + 1:at]), 1)
    argv = {
        "label": ["label", str(work / "conn.log"), "--config", str(work / "rules.conf"), "--output",
                  str(work / "out.log")],
        "eval": ["eval", str(work / "conn.labeled.log"), str(work / "detections.jsonl"), "--window", "600"],
        "propagate": ["propagate", str(work / "conn.labeled.log"), str(work / "logs"), "--output", str(work / "out")],
    }[command]
    return argv, edge


def _run(argv: list[str], work: Path, block_bytes: int | None = None) -> tuple:
    """``main(argv)``'s return, stdout, stderr and log messages, and the bytes of each file it left in ``work``,
    which are then removed."""
    before = set(work.rglob("*"))
    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)
    logging.getLogger().addHandler(handler)
    try:
        with pytest.MonkeyPatch.context() as patch:
            if block_bytes is not None:
                patch.setattr(zeekio, "BLOCK_BYTES", block_bytes)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
    finally:
        logging.getLogger().removeHandler(handler)
    left = sorted(set(work.rglob("*")) - before)
    files = {str(path.relative_to(work)): path.read_bytes() for path in left if path.is_file()}
    for path in reversed(left):
        path.unlink() if path.is_file() else path.rmdir()
    return rc, stdout.getvalue(), stderr.getvalue(), files


@contextlib.contextmanager
def _processes(two: bool):
    with pytest.MonkeyPatch.context() as patch:
        if two:
            patch.setattr(zeekio, "FORK_MIN_BYTES", 0)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield


@pytest.mark.parametrize("fmt, fault", [(fmt, fault) for fmt in FAULTS for fault in FAULTS[fmt]],
                         ids=[f"{fmt}-{fault}" for fmt in FAULTS for fault in FAULTS[fmt]])
@pytest.mark.parametrize("command, file", TARGETS, ids=["label", "eval", "propagate-conn", "propagate-target"])
def test_block_edges_change_no_result(tmp_path, fmt, fault, command, file):
    _scenario(tmp_path, 3 + FAULTS[fmt].index(fault), fmt)
    argv, edge = _faulted(tmp_path, command, file, fmt, fault, 55)
    for two in (False, True) if hasattr(os, "fork") else (False,):
        with _processes(two):
            want = _run(argv, tmp_path)
            if fault != "none":
                assert want[0] != 0 or fault in ("close", "blank")
            for block_bytes in (1, edge - 1 or 1, edge, edge + 1, 300):
                assert _run(argv, tmp_path, block_bytes) == want, (two, block_bytes)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 1 << 20), fmt=st.sampled_from(sorted(FAULTS)), fault=st.integers(0, 4),
       target=st.sampled_from(TARGETS), row=st.integers(0, 100), block_bytes=st.integers(1, 400))
def test_any_block_size_changes_no_result(tmp_path_factory, seed, fmt, fault, target, row, block_bytes):
    work = tmp_path_factory.mktemp("blocks")
    _scenario(work, seed, fmt)
    argv, _ = _faulted(work, *target, fmt, FAULTS[fmt][fault], row)
    assert _run(argv, work, block_bytes) == _run(argv, work)
    shutil.rmtree(work)


@pytest.mark.parametrize("block_bytes", [1, 40, None])
def test_a_null_text_that_is_an_index_key_is_unset_in_the_target(tmp_path, block_bytes):
    # conn.log's unset marker is "?", so "-" is a uid there; http.log's is "-", so its "-" is an unset uid
    fields, types = [*CONN_FIELDS, "label", "detailed_label"], [*CONN_TYPES, "string", "string"]
    rows = [["1.0", uid, *["?"] * (len(CONN_FIELDS) - 2), "Malicious", "From_malicious"] for uid in ("-", "C1")]
    conn = zeek_tsv("conn", fields, types, rows).replace("#unset_field\t-", "#unset_field\t?")
    (tmp_path / "conn.labeled.log").write_text(conn)
    logs = tmp_path / "logs"
    logs.mkdir()
    http = [[f"{i}.5", uid] for i, uid in enumerate(["-", "C1", "-", "C2"] * 5)]
    (logs / "http.log").write_text(zeek_tsv("http", ["ts", "uid"], ["time", "string"], http))
    argv = ["propagate", str(tmp_path / "conn.labeled.log"), str(logs), "--output", str(tmp_path / "out")]
    rc, stdout, _, files = _run(argv, tmp_path, block_bytes)
    assert rc == 0 and "http.log: 20 rows, 5 labeled, 15 (empty)" in stdout
    labeled = [line.split("\t") for line in files["out/http.labeled.log"].decode().splitlines() if line[0] != "#"]
    assert [(uid, label) for _, uid, label, _ in labeled[:4]] == [
        ("-", "(empty)"), ("C1", "Malicious"), ("-", "(empty)"), ("C2", "(empty)")]


@pytest.mark.parametrize("block_bytes", [1, 40, None])
def test_json_uids_that_are_not_strings_are_read_as_their_cells(tmp_path, block_bytes):
    conn = [{"ts": 1.0, "uid": uid, "label": label, "detailed_label": "(empty)"}
            for uid, label in [("5", "Malicious"), ("C1,C2", "Benign"), ("C1", "Unknown")]]
    (tmp_path / "conn.labeled.log").write_text("".join(json.dumps(obj) + "\n" for obj in conn))
    logs = tmp_path / "logs"
    logs.mkdir()
    dns = [{"uid": "C1"}, {"uid": 5}, {"uid": ["C1", "C2"]}, {"uid": "C1"}, {"uid": "-"}, {"uid": None}]
    (logs / "dns.log").write_text("".join(json.dumps(obj) + "\n" for obj in dns))
    argv = ["propagate", str(tmp_path / "conn.labeled.log"), str(logs), "--output", str(tmp_path / "out")]
    rc, _, _, files = _run(argv, tmp_path, block_bytes)
    assert rc == 0
    labels = [json.loads(line)["label"] for line in files["out/dns.labeled.log"].decode().splitlines()]
    assert labels == ["Unknown", "Malicious", "Benign", "Unknown", "(empty)", "(empty)"]
