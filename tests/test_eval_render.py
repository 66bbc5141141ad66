"""The eval report, written in chunks, against the whole-payload rendering it replaces."""

from __future__ import annotations

import hashlib
import ipaddress
import json
import os
import sys
from collections import Counter
from contextlib import redirect_stdout
from unittest.mock import patch

import pytest
from conftest import DATA_DIR
from hypothesis import given, settings
from hypothesis import strategies as st

from zeeklabel import cli
from zeeklabel.metrics import MALICIOUS, UNKNOWN, ConfusionCounts, EvalReport, WindowRun, evaluate, windows


class Recorder:
    """A stdout that keeps what is written and the size of each write."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _score_json(c: ConfusionCounts) -> dict:
    return {"counts": vars(c), "metrics": {name: getattr(c, name) for name in ("fpr", "tpr", "accuracy", "f1")}}


def _score_lines(c: ConfusionCounts) -> list[str]:
    def pct(value):
        return "n/a" if value is None else f"{100.0 * value:.1f}%"

    return [
        f"  TP {c.tp}  FP {c.fp}  FN {c.fn}  TN {c.tn}",
        f"  FPR {pct(c.fpr)}  TPR {pct(c.tpr)}  Accuracy {pct(c.accuracy)}  F1 {pct(c.f1)}",
    ]


def reference(report: EvalReport, window: float, threshold: int, cutoff: float | None, as_json: bool) -> str:
    """The report as one string: one dict per window through json.dumps, or one join per run."""
    labels = report.labels
    if as_json:
        payload = {
            "parameters": {"window": window, "threshold": threshold, "cutoff": cutoff},
            "flow": {
                "flows": labels.total(),
                "malicious": labels[MALICIOUS],
                "unknown_excluded": labels[UNKNOWN],
                "unlabeled_negative": labels["(empty)"],
                **_score_json(report.flow),
            },
            "ip": {
                **_score_json(report.ip),
                "timelines": {
                    str(ip): [
                        {
                            "window_start": w.first_window * window,
                            "truth": w.truth,
                            "predicted": w.predicted,
                            "status": w.status,
                        }
                        for w in windows(runs)
                    ]
                    for ip, runs in report.timelines.items()
                },
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        "flow-level evaluation",
        f"  flows: {labels.total()} (malicious {labels[MALICIOUS]}, "
        f"unknown excluded {labels[UNKNOWN]}, unlabeled {labels['(empty)']})",
        *_score_lines(report.flow),
        f"ip-level evaluation (window {window:g}s, threshold {threshold})",
        *(
            f"  {ip}: " + " ".join(" ".join([run.status] * run.length) for run in runs)
            for ip, runs in report.timelines.items()
        ),
        *_score_lines(report.ip),
    ]
    return "\n".join(lines) + "\n"


def assert_same(text: str, expected: str) -> None:
    """``text == expected``, reporting where they part instead of a diff of megabytes."""
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        near = slice(max(at - 60, 0), at + 60)
        raise AssertionError(f"output differs at {at}: {text[near]!r} != {expected[near]!r}")


def run_eval(report: EvalReport, argv: list[str]) -> Recorder:
    """``main(["eval", ...] + argv)`` with ``evaluate`` returning ``report``; its stdout."""
    out = Recorder()
    with patch.object(cli, "evaluate", return_value=report), redirect_stdout(out):
        assert cli.main(["eval", "conn.labeled.log", "detections.jsonl", *argv]) == 0
    return out


@st.composite
def runs(draw) -> list[WindowRun]:
    """Consecutive runs from any window, as long as one window or thousands."""
    first = draw(st.integers(-(2**40), 2**40))
    out = []
    for length in draw(st.lists(st.one_of(st.integers(1, 4), st.integers(1000, 2500)), max_size=6)):
        out.append(WindowRun(first, length, draw(st.booleans()), draw(st.booleans())))
        first += length
    return out


counts = st.builds(ConfusionCounts, *[st.integers(0, 3)] * 4)  # zeros give None ratios
reports = st.builds(
    EvalReport,
    labels=st.dictionaries(st.sampled_from([MALICIOUS, UNKNOWN, "(empty)", "Benign"]), st.integers(0, 9)).map(
        Counter
    ),
    flow=counts,
    ip=counts,
    timelines=st.dictionaries(st.one_of(st.ip_addresses(v=4), st.ip_addresses(v=6)), runs(), max_size=3),
    missing_evidence=st.just([]),
    predating=st.just([]),
)


@settings(max_examples=80, deadline=None)
@given(
    report=reports,
    # 1e300 puts the starts of far windows beyond float range: Infinity in json
    window=st.one_of(st.sampled_from([0.1, 7.5, 1e-3, 60.0, 3600.0, 1e300]), st.floats(1e-6, 1e6)),
    threshold=st.integers(0, 5),
    cutoff=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    as_json=st.booleans(),
    limit=st.one_of(st.integers(1, 8), st.integers(1, 5000)),  # small limits end chunks on run ends
)
def test_chunked_report_equals_the_whole_payload_rendering(report, window, threshold, cutoff, as_json, limit):
    argv = [f"--window={window!r}", f"--threshold={threshold}"]
    argv += [f"--cutoff={cutoff!r}"] * (cutoff is not None) + ["--json"] * as_json
    with patch.object(cli, "CHUNK_WINDOWS", limit):
        out = run_eval(report, argv)
    assert_same("".join(out.parts), reference(report, window, threshold, cutoff, as_json))
    # the head and the tail hold the score lines, whose TP, FP, FN and TN look like window marks
    marks = ['"window_start"'] if as_json else [" TP", " FP", " FN", " TN"]
    assert max((sum(map(part.count, marks)) for part in out.parts[1:-1]), default=0) <= limit


def test_window_starts_beyond_float_range_are_spelled_as_json_does():
    # starts from -inf through finite values up to +inf, and a run of +inf only
    far = int(sys.float_info.max / 1e300)  # far * 1e300 is finite, (far + 1) * 1e300 is not
    timelines = {
        ipaddress.ip_address("10.0.0.1"): [WindowRun(-far - 2, 4, False, False), WindowRun(-far + 2, 2, True, True)],
        ipaddress.ip_address("::1"): [WindowRun(far - 1, 3, True, False), WindowRun(far + 2, 9000, False, True)],
    }
    report = EvalReport(Counter(), ConfusionCounts(), ConfusionCounts(), timelines, [], [])
    text = "".join(run_eval(report, ["--window=1e300", "--json"]).parts)
    assert_same(text, reference(report, 1e300, 1, None, True))
    assert '"window_start": -Infinity' in text and '"window_start": Infinity' in text


@pytest.mark.parametrize("past", [0, 1])
def test_the_starts_of_a_span_up_to_the_bound_are_spelled_once(monkeypatch, past):
    """Two IPs that together span the bound (or one window more) and neither alone, and an IP with no runs."""
    span, lo = cli.SPELLED_WINDOWS + past, 10**6
    timelines = {
        ipaddress.ip_address("10.0.0.1"): [WindowRun(lo, 3, True, True), WindowRun(lo + 3, span - 10, False, False)],
        ipaddress.ip_address("10.0.0.2"): [],
        ipaddress.ip_address("::1"): [WindowRun(lo + 7, 1500, True, False), WindowRun(lo + 1507, span - 1507, False,
                                                                                       True)],
    }
    report = EvalReport(Counter({MALICIOUS: 1}), ConfusionCounts(1), ConfusionCounts(0, 1), timelines, [], [])
    starts, spelled = cli._starts, []

    def recorded(window: float, first: int, length: int) -> list[str]:
        spelled.append(length)
        return starts(window, first, length)

    monkeypatch.setattr(cli, "_starts", recorded)
    text = "".join(run_eval(report, ["--window=60", "--json"]).parts)
    assert_same(text, reference(report, 60.0, 1, None, True))
    if past:  # a list of starts per piece, none longer than a piece
        assert max(spelled) <= cli.CHUNK_WINDOWS and sum(spelled) == 2 * span - 14
    else:  # one list, of the span's starts
        assert spelled == [span]


def test_empty_report_and_empty_timeline():
    report = EvalReport(Counter(), ConfusionCounts(), ConfusionCounts(), {}, [], [])
    for as_json in (False, True):
        out = run_eval(report, ["--json"] * as_json)
        assert_same("".join(out.parts), reference(report, 3600.0, 1, None, as_json))
    assert '"timelines": {}' in reference(report, 3600.0, 1, None, True)


# sha256 and size of `eval tests/data/fig2 --window 1e-3 --json` as the whole
# payload rendered it: json.dumps of 500,001 window dicts, 554 MB at its peak
FIG2_MS_JSON = ("be81b3e544055cd42dd59dede92dc254274e691a273291a6ab605ef48282fce3", 72_242_818)
WRITE_BOUND = 1 << 20


def test_fig2_millisecond_windows_are_written_in_bounded_chunks():
    argv = [str(DATA_DIR / "fig2" / "conn.labeled.log"), str(DATA_DIR / "fig2" / "detections.jsonl"), "--window=1e-3"]
    report = evaluate(argv[0], argv[1], 1e-3)
    for as_json in (False, True):
        out = Recorder()
        with redirect_stdout(out):
            assert cli.main(["eval", *argv, *["--json"] * as_json]) == 0
        assert max(map(len, out.parts)) <= WRITE_BOUND
        text = "".join(out.parts)
        if as_json:
            assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == FIG2_MS_JSON
        else:
            assert len(out.parts) > 10
            assert_same(text, reference(report, 1e-3, 1, None, False))
