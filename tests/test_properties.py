"""Property tests: every input ends in a result or a one-line error.

The readers and the config parser either return or raise a
``ZeekLabelError``. ``label``, ``propagate`` and ``eval`` on random JSON-lines
directories, whose objects vary their key sets, exit 0, 1 or 2 through
``main`` without raising and leave no temp file behind. Times stay within a
few hours, because ``eval`` reports every window between an IP's first and
last event. A labeled JSON-lines object parses to the input object with its
label keys set, and on Zeek's compact rendering is the compact encoding of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, json_lines

from zeeklabel.cli import main
from zeeklabel.errors import ZeekLabelError
from zeeklabel.metrics import read_detections
from zeeklabel.rules import load_config
from zeeklabel.zeekio import ZeekLogReader, read_log, write_labeled

_DIRECTIVES = [
    "#separator \\x09", "#separator \\x7c", "#separator \\x", "#separator ", "#set_separator\t;",
    "#empty_field\t(empty)", "#unset_field\t-", "#path\tconn", "#fields\tts\tuid", "#fields",
    "#types\ttime\tstring", "#types\ttime", "#close\t2023-01-24-14-00-00", "#",
    "[rules]", "[ontology]", "Malicious, (empty):", "    - Proto=tcp", "    - srcIP=10.0.0.1 and",
    "technique: Command_and_control",
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_JSON_LINES = st.builds(json.dumps, _JSON_VALUES | st.dictionaries(
    st.sampled_from(["ts", "uid", "ip", "time", "evidence", "label"]), _JSON_VALUES, max_size=4
))
_LINES = st.lists(
    st.sampled_from(_DIRECTIVES) | _JSON_LINES | st.text(max_size=20).map(lambda t: t.replace("\n", "")),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(_LINES)
def test_readers_and_config_parser_return_or_raise_their_error(lines):
    text = "\n".join(lines) + "\n"
    for parse in (
        lambda: read_log(io.StringIO(text)),
        lambda: read_detections(io.StringIO(text)),
        lambda: load_config(text),
    ):
        try:
            parse()
        except ZeekLabelError:
            pass


_UIDS = ["C1", "C2", "C3", "F1"]
_VALUES = {
    "ts": st.floats(0, 20000) | st.sampled_from([None, "x", "inf", True]),
    "uid": st.sampled_from(_UIDS) | st.sampled_from([None, 7, ["C1"]]),
    "uids": st.lists(st.sampled_from(_UIDS), max_size=2) | st.sampled_from([None, "C2", 1]),
    "conn_uids": st.lists(st.sampled_from(_UIDS), max_size=2) | st.none(),
    "id.orig_h": st.sampled_from(["10.0.0.1", "10.0.0.2", "::1", "bad", None, 3]),
    "proto": st.sampled_from(["tcp", "udp", 6, None]),
    "label": st.sampled_from(["Malicious", "Benign", "Unknown", "(empty)", None, 1]),
    "detailed_label": st.sampled_from(["(empty)", "From_benign", None]),
    "cert_chain_fuids": st.lists(st.sampled_from(_UIDS), max_size=2) | st.just("F1"),
    "id": st.sampled_from(_UIDS) | st.none(),
}
_OBJECTS = st.fixed_dictionaries({}, optional=_VALUES)
_LOG_NAMES = ["conn.log", "http.log", "dns.log", "files.log", "ssl.log", "x509.log", "conn.01.log"]
_DETECTIONS = st.fixed_dictionaries({}, optional={
    "ip": st.sampled_from(["10.0.0.1", "10.0.0.2", "nope", None]),
    "time": st.floats(0, 20000) | st.sampled_from(["x", None, "inf"]),
    "evidence": st.lists(st.sampled_from(_UIDS), max_size=2) | st.sampled_from([None, "C1"]),
})


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_LOG_NAMES), st.lists(_OBJECTS, min_size=1, max_size=5), min_size=1),
    st.lists(_DETECTIONS, max_size=3),
)
def test_json_directories_end_in_an_exit_code(logs, detections):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, objects in logs.items():
            (d / name).write_text(json_lines(*objects))
        (d / "detections.jsonl").write_text(json_lines(*detections))
        config = str(DATA_DIR / "proplogs" / "labeling.conf")
        conn, labeled = d / "conn.log", d / "conn.labeled.log"
        if conn.exists():
            _run(["label", str(conn), "--config", config])
        source = str(labeled if labeled.exists() else next(d.glob("*.log")))
        _run(["propagate", source, str(d), "--output", str(d / "out")])
        _run(["eval", source, str(d / "detections.jsonl"), "--window", "3600"])
        assert not list(d.rglob(".*.tmp"))


_LABEL_KEYS = st.sampled_from(["label", "detailed_label"])
_FINITE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_RENDERINGS = {
    "compact": lambda obj: json.dumps(obj, separators=(",", ":"), ensure_ascii=False),
    "spaced": json.dumps,
    # "/" occurs only inside strings, where "\\/" is its escape
    "escaped": lambda obj: json.dumps(obj, separators=(",", ":")).replace("/", "\\/"),
    "padded": lambda obj: " " + json.dumps(obj, separators=(" , ", " : ")) + " \t",
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.dictionaries(st.text(max_size=4) | _LABEL_KEYS, _FINITE_VALUES, max_size=5),
            st.tuples(st.text(max_size=4), st.text(max_size=4)),
        ),
        min_size=1, max_size=6,
    ),
    st.sampled_from(sorted(_RENDERINGS)),
)
def test_labeled_json_object_is_its_object_with_the_label_keys(rows, rendering):
    text = "".join(_RENDERINGS[rendering](obj) + "\n" for obj, _ in rows)
    reader = ZeekLogReader(io.StringIO(text))
    pairs = iter(pair for _, pair in rows)
    out = io.StringIO()
    write_labeled(out, reader, reader.blocks(), lambda block: [next(pairs) for _ in block])
    lines = out.getvalue().split("\n")
    assert lines.pop() == "" and len(lines) == len(rows)
    for line, (obj, (label, detail)) in zip(lines, rows):
        want = {**obj, "label": label, "detailed_label": detail}
        assert list(json.loads(line).items()) == list(want.items())
        if rendering == "compact":
            assert line == json.dumps(want, separators=(",", ":"), ensure_ascii=False)
