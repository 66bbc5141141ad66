"""``propagate``'s uid index built in two processes, against one process.

The index is built through ``zeekio.in_halves``: with the ``two_processes``
fixture a forked child indexes the labeled conn.log's lines past the middle,
and the join puts its uids after this process's. Each case is a seeded
labeled conn.log in TSV or JSON lines. Its rows hold uids repeated on both
sides of the split and within the child's half, unset uids on both sides,
and two labels outside the ontology, one met before the split and one past
it; in some JSON cases no object before the split has a label key. Some cases
add a label with a lone surrogate escape past the split, or a short row
before it, past it or on both sides. The index (its items and their order,
its duplicate and unset counts) and the log records, or the error, must be
those of one process, and equal pairs must be one tuple. Two more tests pin
the size from which the index forks, and a child that ends partway through
sending its uids.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal

import pytest

from conftest import zeek_tsv

from zeeklabel import propagate, zeekio
from zeeklabel.errors import ZeekLabelError
from zeeklabel.labeler import index_from_labeled_rows
from zeeklabel.propagate import propagate_dir
from zeeklabel.zeekio import in_halves

PAIRS = [
    ("Malicious", "From_malicious-To_benign-Discovery"),
    ("Benign", "From_benign-To_benign"),
    ("Benign", "(empty)"),
    ("(empty)", "(empty)"),
]
FOREIGN = [("malicious", "From_malicious"), ("Suspicious", "(empty)")]
FIELDS = ["ts", "uid", "label", "detailed_label"]
ERRORS = [None, "surrogate", "short-early", "short-late", "short-both"]  # a TSV log holds no lone surrogate


def gen_case(rng: random.Random, path, fmt: str, error: str | None, big: bool = False) -> tuple[list[int], list[int]]:
    """Write a labeled conn.log at ``path``; where the rows meant to lie before the split end, and where those
    meant to lie past it start. A big one's child sends its uids in more than one run."""
    n = rng.randint(14000, 14500) if big else rng.randint(40, 90)
    early, late = list(range(n // 5)), list(range(n - n // 5, n))
    rows = []
    for i in range(n):
        uid = f"C{rng.randrange(1 << 32):08x}"
        if rows and rng.random() < 0.15:
            uid = rng.choice(rows)[1] or uid  # a duplicate, on either side
        rows.append([f"{1674560000 + i}.5", None if rng.random() < 0.1 else uid, *rng.choice(PAIRS)])
    first, second = rng.sample(FOREIGN, 2)
    rows[early[0]][1:] = "Cstraddle", *PAIRS[0]  # a copy on each side; the first labels win
    rows[late[0]][1:] = "Cstraddle", *PAIRS[1]
    rows[early[1]][1] = rows[late[1]][1] = None  # unset on both sides
    rows[late[2]][1] = rows[late[3]][1] = "Clate"  # both copies in the child's half
    rows[early[2]][1:] = "Cforeign1", *first  # met first before the split, and once more past it
    rows[late[6]][1:] = "Cforeign3", *first
    rows[late[4]][1:] = "Cforeign2", *second  # met only past the split
    if error == "surrogate" and fmt == "json":  # on a new uid, or on a copy that the index leaves out
        rows[late[7]][1:3] = rng.choice(["Csurrogate", "Clate"]), "\ud800"
    short = {"short-early": [early[3]], "short-late": [late[5]], "short-both": [early[3], late[5]]}.get(error, [])
    late_keys = fmt == "json" and rng.random() < 0.5  # no label key before the split
    lines = []
    for i, row in enumerate(rows):
        if fmt == "tsv":
            cells = ["-" if cell is None else cell for cell in row]
            line = "\t".join(cells[:-1] if i in short else cells)
        else:
            obj = {name: cell for name, cell in zip(FIELDS, row) if cell is not None or rng.random() < 0.5}
            if late_keys and i < n // 2:
                obj = {k: v for k, v in obj.items() if k not in ("label", "detailed_label")}
            line = json.dumps(obj)  # a lone surrogate as its \u escape
            line = line[: len(line) // 2] if i in short else line
        lines.append(line)
    if fmt == "tsv":
        head, close = zeek_tsv("conn", FIELDS, ["time", "string", "string", "string"], []).split("#close")
        text = head + "".join(line + "\n" for line in lines) + "#close" + close
    else:
        text = "".join(line + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    ends = [text.index(lines[i] + "\n") + len(lines[i]) + 1 for i in early]
    return ends, [text.index("\n" + lines[i] + "\n") + 1 for i in late]


def _build(path, caplog) -> tuple:
    caplog.clear()
    try:
        index = in_halves("propagate", path, index_from_labeled_rows)
    except ZeekLabelError as exc:
        outcome = (type(exc), str(exc))
    else:
        # equal pairs are one tuple
        assert len({id(pair) for pair in index.values()}) == len(set(index.values()))
        outcome = (dict(index), list(index), index.duplicates, index.skipped_unset)
    return outcome, [(r.levelno, r.name, r.getMessage()) for r in caplog.records]


@pytest.mark.parametrize("seed", range(44))
def test_the_index_built_in_two_processes_is_one_process_index(request, tmp_path, caplog, seed):
    path = tmp_path / "conn.labeled.log"
    fmt, error = ["tsv", "json"][seed % 2], ERRORS[seed // 2 % len(ERRORS)]
    early, late = gen_case(random.Random(f"index-halves:{seed}"), path, fmt, error, big=seed >= 40)
    data = path.read_bytes()
    split = data.index(b"\n", len(data) // 2) + 1
    assert max(early) <= split <= min(late)  # the case puts its features on the sides it means to
    caplog.set_level("WARNING")
    one = _build(path, caplog)
    forks = request.getfixturevalue("two_processes")
    two = _build(path, caplog)
    assert forks == ["halves"]
    assert two == one
    if isinstance(one[0][0], dict):
        assert one[0][2] >= 2 and one[0][3] >= 2  # duplicates and unset uids
        foreign = [message for _, _, message in one[1] if "which is none of" in message]
        assert len(foreign) == 2


def test_the_index_forks_from_its_own_weighed_bytes(tmp_path, monkeypatch, two_processes):
    conn, logs = tmp_path / "conn.labeled.log", tmp_path / "logs"
    gen_case(random.Random("index-threshold"), conn, "tsv", None)
    logs.mkdir()  # no other log: only the index may fork
    weighed = conn.stat().st_size * propagate.INDEX_BYTE_COST
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", weighed + 1)
    one = propagate_dir(conn, logs, tmp_path / "one")
    assert two_processes == []
    monkeypatch.setattr(zeekio, "FORK_MIN_BYTES", weighed)
    assert propagate_dir(conn, logs, tmp_path / "two") == one
    assert two_processes == ["halves"]
    monkeypatch.undo()
    assert zeekio.FORK_MIN_BYTES / propagate.INDEX_BYTE_COST == 2 << 20  # from 2 MiB, as the docs say


def test_a_child_that_ends_partway_through_its_uids_is_one_error(tmp_path, monkeypatch, two_processes):
    path = tmp_path / "conn.labeled.log"
    gen_case(random.Random("index-killed"), path, "tsv", None, big=True)
    parent, dump, sent = os.getpid(), pickle.dump, []

    def killed_after_three_items(item, file):
        if os.getpid() != parent and len(sent) == 3:  # its head, its pairs and counts, and one run of uids
            file.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        sent.append(item)
        dump(item, file)

    monkeypatch.setattr(pickle, "dump", killed_after_three_items)
    with pytest.raises(ChildProcessError, match=r"ended without a result \(status -9\)$"):
        in_halves("propagate", path, index_from_labeled_rows)
    assert two_processes == ["halves"]
    with pytest.raises(ChildProcessError):  # no child left, neither running nor a zombie
        os.waitpid(-1, os.WNOHANG)
