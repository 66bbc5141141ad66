from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest

from zeeklabel import propagate, zeekio
from zeeklabel.zeekio import read_log

DATA_DIR = Path(__file__).parent / "data"

CONN_FIELDS = [
    "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p",
    "proto", "service", "duration", "orig_bytes", "resp_bytes", "conn_state",
    "local_orig", "local_resp", "missed_bytes", "history",
    "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes", "tunnel_parents",
]
CONN_TYPES = [
    "time", "string", "addr", "port", "addr", "port",
    "enum", "string", "interval", "count", "count", "string",
    "bool", "bool", "count", "string",
    "count", "count", "count", "count", "set[string]",
]


def zeek_tsv(path: str, fields: list[str], types: list[str], rows: list[list[str]],
             close: bool = True) -> str:
    lines = [
        "#separator \\x09",
        "#set_separator\t,",
        "#empty_field\t(empty)",
        "#unset_field\t-",
        f"#path\t{path}",
        "#open\t2023-01-24-13-00-00",
        "#fields\t" + "\t".join(fields),
        "#types\t" + "\t".join(types),
    ]
    for row in rows:
        assert len(row) == len(fields)
        lines.append("\t".join(str(c) for c in row))
    if close:
        lines.append("#close\t2023-01-24-14-00-00")
    return "\n".join(lines) + "\n"


def json_lines(*objects) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objects)


def conn_row(**overrides) -> list[str]:
    defaults = {
        "ts": "1674567890.500000",
        "uid": "CDEFAULTuid",
        "id.orig_h": "10.0.0.1",
        "id.orig_p": "40000",
        "id.resp_h": "203.0.113.10",
        "id.resp_p": "443",
        "proto": "tcp",
        "service": "ssl",
        "duration": "1.500000",
        "orig_bytes": "900",
        "resp_bytes": "4100",
        "conn_state": "SF",
        "local_orig": "-",
        "local_resp": "-",
        "missed_bytes": "0",
        "history": "ShADadfF",
        "orig_pkts": "12",
        "orig_ip_bytes": "1860",
        "resp_pkts": "10",
        "resp_ip_bytes": "4900",
        "tunnel_parents": "-",
    }
    defaults.update(overrides)
    return [defaults[name] for name in CONN_FIELDS]


def conn_log_text(rows: list[list[str]]) -> str:
    return zeek_tsv("conn", CONN_FIELDS, CONN_TYPES, rows)


class StdoutCapExceeded(Exception):
    """A command wrote more to stdout than its test allows."""


class CappedStdout(io.StringIO):
    """An in-memory stdout that raises once it would hold more than ``cap`` characters.

    An unbounded report then ends its test at once, before it fills memory or disk.
    """

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def write(self, text: str) -> int:
        if self.tell() + len(text) > self.cap:
            raise StdoutCapExceeded(f"stdout would pass {self.cap} characters")
        return super().write(text)


def table_from_text(text: str, source: str = "<test>"):
    return read_log(io.StringIO(text), source)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def two_processes(monkeypatch):
    """Use a second process at any input size: ``label`` and ``eval`` split their conn.log at the middle,
    and ``propagate`` builds its uid index from the two halves of its labeled conn.log, then splits its
    other logs whenever each process gets one.

    Returns the list of forks made, one entry each, by what was split: ``"halves"`` for a log split
    through ``zeekio.in_halves`` (a conn.log, or ``propagate``'s uid index), ``"logs"`` for
    ``propagate``'s split of its other logs. Each call site of ``in_two_processes`` is wrapped to
    name its forks; a fork made anywhere else is recorded as None.
    """
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    forks, splitting = [], []
    fork = os.fork

    def counted_fork():
        forks.append(splitting[-1] if splitting else None)
        return fork()

    def named(split, name):
        def run(*args):
            splitting.append(name)
            try:
                return split(*args)
            finally:
                splitting.pop()

        return run

    # in_halves calls zeekio's in_two_processes; propagate splits its logs through its own import of it
    monkeypatch.setattr(zeekio, "in_two_processes", named(zeekio.in_two_processes, "halves"))
    monkeypatch.setattr(propagate, "in_two_processes", named(propagate.in_two_processes, "logs"))
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks
