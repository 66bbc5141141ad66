"""``propagate`` counts the rows that join nothing, apart from the rows of flows labeled ``(empty)``.

A row joins nothing when its uid is not in the index, when none of its
``conn_uids`` or ``uids`` is, or, in an x509 log, when its certificate is in no
ssl chain; a row with an unset key is not counted. The summary line names the
count only when there is one, and a log none of whose set keys joins warns once.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from conftest import DATA_DIR, zeek_tsv
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zeeklabel.cli import main

LABELS = [("Malicious", "From_malicious-To_benign"), ("Benign", "(empty)"), ("(empty)", "(empty)")]


@pytest.mark.parametrize("processes", ["one", "two"])
def test_a_labeled_conn_log_of_another_capture_is_counted_and_warned_about(request, tmp_path, capsys, caplog,
                                                                           processes):
    logs = tmp_path / "logs"
    shutil.copytree(DATA_DIR / "proplogs", logs)
    (logs / "conn.log").unlink()
    conn = tmp_path / "conn.labeled.log"
    assert main(["label", str(DATA_DIR / "portscan" / "conn.log"), "--config", str(DATA_DIR / "portscan.conf"),
                 "--output", str(conn)]) == 0
    capsys.readouterr()
    caplog.clear()
    forks = request.getfixturevalue("two_processes") if processes == "two" else []
    assert main(["propagate", str(conn), str(logs), "--output", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dns.log: 3 rows, 0 labeled, 3 (empty), 3 not in the index -> dns.labeled.log",
        # the third file has no conn_uids: an unset key is not counted
        "files.log: 4 rows, 0 labeled, 4 (empty) (via conn_uids), 3 not in the index -> files.labeled.log",
        "http.log: 5 rows, 0 labeled, 5 (empty), 5 not in the index -> http.labeled.log",
        "ssl.log: 4 rows, 0 labeled, 4 (empty), 4 not in the index -> ssl.labeled.log",
        # four of the certificates are in an ssl chain, which joined them though its rows joined no flow
        "x509.log: 5 rows, 0 labeled, 5 (empty) (via ssl.log), 1 not in a certificate chain -> x509.labeled.log",
        "index: 30 uids",
    ]
    warned = [f"no row of {name} joins a flow of {conn}; do both come from one capture?"
              for name in ("ssl.log", "dns.log", "files.log", "http.log")]
    assert [record.getMessage() for record in caplog.records] == warned
    assert forks == ([] if processes == "one" else ["halves", "logs"])


def test_a_log_that_joins_only_flows_labeled_empty_does_not_warn(tmp_path, capsys, caplog):
    logs = tmp_path / "logs"
    logs.mkdir()
    conn = tmp_path / "conn.labeled.log"
    conn.write_text(zeek_tsv("conn", ["ts", "uid", "label", "detailed_label"], ["time", "string"] + ["string"] * 2,
                             [["1.0", "C1", "(empty)", "(empty)"]]))
    (logs / "http.log").write_text(zeek_tsv("http", ["ts", "uid"], ["time", "string"],
                                            [["1.0", "C1"], ["2.0", "C2"], ["3.0", "-"]]))
    assert main(["propagate", str(conn), str(logs), "--output", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "http.log: 3 rows, 0 labeled, 3 (empty), 1 not in the index -> http.labeled.log")
    assert caplog.records == []


def _conn(uids: list[int], labels: list[int], fmt: str) -> str:
    pairs = [LABELS[k] for k in labels]
    if fmt == "json":
        return "".join(json.dumps({"ts": 1.0, "uid": f"C{u}", "label": a, "detailed_label": b}) + "\n"
                       for u, (a, b) in zip(uids, pairs))
    return zeek_tsv("conn", ["ts", "uid", "label", "detailed_label"], ["time", "string", "string", "string"],
                    [["1.0", f"C{u}", a, b] for u, (a, b) in zip(uids, pairs)])


def _log(name: str, column: str, keys: list, fmt: str) -> str:
    """A log of one row per key: a uid (an int), a list of them for ``conn_uids`` or ``uids``, or None (or []) for
    unset, which JSON lines spell as a missing key or null in turn."""
    texts = [None if key in (None, []) else [f"C{u}" for u in key] if isinstance(key, list) else f"C{key}"
             for key in keys]
    if fmt == "json":
        return "".join(json.dumps({"ts": float(i), **({} if text is None and i % 2 else {column: text})}) + "\n"
                       for i, text in enumerate(texts))
    cells = ["-" if text is None else ",".join(text) if isinstance(text, list) else text for text in texts]
    return zeek_tsv(name.split(".")[0], ["ts", column], ["time", "string" if column == "uid" else "set[string]"],
                    [[f"{i}.0", cell] for i, cell in enumerate(cells)])


uid = st.one_of(st.none(), st.integers(0, 45))  # 40 uids at most in the conn.log; the rest in none


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 40),
    data=st.data(),
    http=st.lists(uid, max_size=30),  # a log of no rows is 0 bytes in JSON lines
    files=st.lists(st.one_of(st.none(), st.lists(st.integers(0, 45), max_size=3)), max_size=20),
    weird=st.lists(st.one_of(st.none(), st.lists(st.integers(0, 45), min_size=1, max_size=3)), max_size=20),
    fmt=st.sampled_from(["tsv", "json"]),
)
@pytest.mark.parametrize("processes", ["one", "two"])
def test_the_rows_of_uids_dropped_from_the_index_are_counted(request, capsys, caplog, processes, n, data, http, files,
                                                             weird, fmt):
    dropped = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    kept = [u for u in range(n) if u not in dropped]
    labels = data.draw(st.lists(st.integers(0, len(LABELS) - 1), min_size=len(kept), max_size=len(kept)))
    if processes == "two":
        request.getfixturevalue("two_processes")
    logs = {"http.log": ("uid", http), "files.log": ("conn_uids", files), "weird.log": ("uids", weird)}
    capsys.readouterr()
    caplog.clear()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "conn.labeled.log").write_text(_conn(kept, labels, fmt))
        (tmp / "logs").mkdir()
        for name, (column, keys) in logs.items():
            (tmp / "logs" / name).write_text(_log(name, column, keys, fmt))
        assert main(["propagate", str(tmp / "conn.labeled.log"), str(tmp / "logs"), "--output", str(tmp / "out")]) == 0
    summary = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    warned = [record.getMessage().split()[3] for record in caplog.records if "joins a flow" in record.getMessage()]
    for name, (column, keys) in logs.items():
        members = [[key] if isinstance(key, int) else key for key in keys if key not in (None, [])]
        missed = sum(not set(key) & set(kept) for key in members)
        found = re.search(r", (\d+) not in the index ->", summary[name])
        assert (int(found[1]) if found else 0) == missed, summary[name]
        assert warned.count(name) == (missed == len(members) > 0)
