"""Every command, on mutated copies of the fixtures, ends in a result or in one error line.

Hypothesis mutates copies of ``tests/data/portscan``, ``proplogs`` and
``fig2``: it deletes bytes; inserts a tab, a newline, ``#``, ``{``, a
``\\xff`` byte, ``1e400``, a ``\\ud800`` escape or a 20-digit integer; or
duplicates a line. ``label``, ``propagate``, ``eval`` and ``eval --json`` run
in process on each copy. Each returns 0, 1 or 2; a nonzero return prints
exactly one ``error:`` line and leaves no new file; and stdout stays under a
cap, which ``eval``'s ``--max-windows`` keeps it under, so a report that
would not end fails the test instead of filling memory. Every command runs a
second time with its work split between two processes (``propagate``'s logs
wherever each process gets one, the conn.log of ``label`` and ``eval`` at its
middle), and must return, print and leave exactly what the run in one process
did.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, CappedStdout

from zeeklabel import zeekio
from zeeklabel.cli import main

TOKENS = [b"\t", b"\n", b"#", b"{", b"\xff", b"1e400", b"\\ud800", b"12345678901234567890"]
STDOUT_CAP = 1 << 20
# a report within this bound stays under the cap: about 140 bytes a window in --json
EVAL_BOUND = ["--max-windows", "5000"]
# where the 20-digit integer makes fig2's detection time about 1.2e30 seconds
DETECTION_TIME_AT = (DATA_DIR / "fig2" / "detections.jsonl").read_bytes().index(b'"time": ') + len(b'"time": ')
# a tab of portscan's third row, and its thirtieth row: a short row and a later \xff byte in one decode chunk
_PORTSCAN = (DATA_DIR / "portscan" / "conn.log").read_bytes()
_ROW = [i + 1 for i, byte in enumerate(_PORTSCAN) if byte == ord("\n") and _PORTSCAN[i + 1:i + 2] not in (b"#", b"")]
SHORT_ROW_TAB, LATER_ROW = _PORTSCAN.index(b"\t", _ROW[2]), _ROW[29]

# command -> (fixture directory, the files a mutation may touch, argv in a copy of it)
COMMANDS = {
    "label portscan": ("portscan", ["conn.log"], lambda d: ["label", str(d / "conn.log"), "--config",
                                                            str(DATA_DIR / "portscan.conf")]),
    "label proplogs": ("proplogs", ["conn.log"], lambda d: ["label", str(d / "conn.log"), "--config",
                                                            str(d / "labeling.conf")]),
    "propagate": ("proplogs", ["conn.labeled.log", "dns.log", "files.log", "http.log", "ssl.log", "x509.log"],
                  lambda d: ["propagate", str(d / "conn.labeled.log"), str(d)]),
    "eval": ("fig2", ["conn.labeled.log", "detections.jsonl"],
             lambda d: ["eval", str(d / "conn.labeled.log"), str(d / "detections.jsonl"), *EVAL_BOUND]),
    "eval --json": ("fig2", ["conn.labeled.log", "detections.jsonl"],
                    lambda d: ["eval", str(d / "conn.labeled.log"), str(d / "detections.jsonl"), *EVAL_BOUND, "--json"]),
}

mutations = st.lists(
    st.tuples(st.sampled_from(["delete", "insert", "duplicate"]), st.integers(0, 1 << 16),
              st.sampled_from(TOKENS), st.integers(1, 8)),
    min_size=1, max_size=3,
)


def _mutate(data: bytes, mutation: tuple[str, int, bytes, int]) -> bytes:
    kind, at, token, length = mutation
    at %= len(data) + 1
    if kind == "delete":
        return data[:at] + data[at + length:]
    if kind == "insert":
        return data[:at] + token + data[at:]
    start = data.rfind(b"\n", 0, at) + 1
    end = data.find(b"\n", at)
    line = data[start:] if end < 0 else data[start:end + 1]
    return data[:start] + line + data[start:]


def _copy(fixture: str, work: Path) -> None:
    shutil.copytree(DATA_DIR / fixture, work, dirs_exist_ok=True)
    if fixture == "proplogs":  # propagate's input: the conn.log labeled by its config
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["label", str(work / "conn.log"), "--config", str(work / "labeling.conf")]) == 0


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(COMMANDS)), target=st.integers(0, 5), changes=mutations)
@example(command="eval", target=1, changes=[("insert", DETECTION_TIME_AT, TOKENS[-1], 1)])
@example(command="eval --json", target=1, changes=[("insert", DETECTION_TIME_AT, TOKENS[-1], 1)])
@example(command="label portscan", target=0, changes=[("insert", LATER_ROW, b"\xff", 1),
                                                      ("delete", SHORT_ROW_TAB, b"\t", 1)])
def test_every_command_ends_in_a_result_or_one_error_line(command, target, changes):
    fixture, files, argv = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _copy(fixture, work)
        path = work / files[target % len(files)]
        data = path.read_bytes()
        for change in changes:
            data = _mutate(data, change)
        path.write_bytes(data)
        before = sorted(work.rglob("*"))
        rc, stdout, stderr, left = _run(argv(work), work, before)
        assert rc in (0, 1, 2)
        if rc:
            assert "Traceback" not in stderr
            assert len([line for line in stderr.splitlines() if line.startswith("error:")]) == 1
            assert sorted(work.rglob("*")) == before
        if hasattr(os, "fork"):
            # again with the work split between two processes, from the same inputs
            for path in left:
                path.unlink()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(zeekio, "FORK_MIN_BYTES", 0)
                patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
                split = _run(argv(work), work, before)
            assert split == (rc, stdout, stderr, left)


def _run(argv: list[str], work: Path, before: list[Path]) -> tuple[int, str, str, dict[Path, bytes]]:
    """``main(argv)``'s return, stdout and stderr, and the bytes of each file it left in ``work``."""
    stdout, stderr = CappedStdout(STDOUT_CAP), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    left = {path: path.read_bytes() for path in sorted(set(work.rglob("*")) - set(before))}
    return rc, stdout.getvalue(), stderr.getvalue(), left
