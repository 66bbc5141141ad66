from __future__ import annotations

import io
import ipaddress
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import zeek_tsv

from zeeklabel.errors import LogFormatError, UsageError
from zeeklabel.metrics import (
    ConfusionCounts,
    DetectionRecord,
    LabeledFlow,
    evaluate,
    ip_detection_timeline,
    read_detections,
    score,
    timeline_confusion,
)

ATTACKER = ipaddress.ip_address("10.0.0.5")
BYSTANDER = ipaddress.ip_address("10.0.0.9")


def _flow(uid: str, start: float, label: str, ip=ATTACKER) -> LabeledFlow:
    return LabeledFlow(uid=uid, start=start, src_ip=ip, label=label)


def _fig2_flows() -> list[LabeledFlow]:
    malicious = {2, 4, 6, 12, 13}
    return [
        _flow(f"C{n:02d}", 1000.0 + n, "Malicious" if n in malicious else "Benign")
        for n in range(1, 16)
    ]


FIG2_EVIDENCE = ["C02", "C06", "C11", "C13"]


def _detect(evidence, time: float = 0.0) -> list[DetectionRecord]:
    return [DetectionRecord(ip=ATTACKER, time=time, evidence=frozenset(evidence))]


def _flow_counts(flows, evidence, cutoff=None) -> ConfusionCounts:
    return score(flows, _detect(evidence), window=100.0, cutoff=cutoff).flow


def test_flow_confusion_fig2_counts():
    counts = _flow_counts(_fig2_flows(), FIG2_EVIDENCE)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (3, 1, 2, 9)


def test_flow_confusion_fig2_metrics():
    report = score(_fig2_flows(), _detect(FIG2_EVIDENCE), window=100.0).flow
    assert report.fpr == pytest.approx(0.10)
    assert report.tpr == pytest.approx(0.60)
    assert report.accuracy == pytest.approx(0.80)
    assert report.f1 == pytest.approx(2 / 3, abs=1e-9)


def test_flow_confusion_unknown_excluded_even_when_detected():
    flows = [
        _flow("Ca", 1.0, "Malicious"),
        _flow("Cb", 2.0, "Unknown"),
        _flow("Cc", 3.0, "Unknown"),
        _flow("Cd", 4.0, "Benign"),
    ]
    counts = _flow_counts(flows, ["Ca", "Cb"])
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 0, 1)
    assert counts.total() == 2


def test_flow_confusion_empty_label_is_negative():
    flows = [_flow("Ca", 1.0, "(empty)"), _flow("Cb", 2.0, "(empty)")]
    counts = _flow_counts(flows, ["Cb"])
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 1, 0, 1)


def _write_inputs(tmp_path, flows, detections):
    """A JSON-lines labeled conn.log and detections file holding these records."""
    conn, det = tmp_path / "conn.labeled.log", tmp_path / "d.jsonl"
    conn.write_text("".join(
        json.dumps({"ts": f.start, "uid": f.uid, "id.orig_h": str(f.src_ip), "label": f.label}) + "\n"
        for f in flows
    ))
    det.write_text("".join(
        json.dumps({"ip": str(d.ip), "time": d.time, "evidence": sorted(d.evidence)}) + "\n"
        for d in detections
    ))
    return conn, det


def test_flow_confusion_rejects_unknown_evidence_uids(tmp_path):
    detections = _detect(["C02", "Cgone2", "Cgone1"])
    report = score(_fig2_flows(), detections, window=100.0)
    assert report.missing_evidence == ["Cgone1", "Cgone2"]
    conn, det = _write_inputs(tmp_path, _fig2_flows(), detections)
    with pytest.raises(UsageError, match="not present.*Cgone1, Cgone2"):
        evaluate(conn, det, window=100.0)


def test_flow_confusion_cutoff_restricts_counted_flows():
    flows = [
        _flow("Ca", 10.0, "Malicious"),
        _flow("Cb", 20.0, "Benign"),
        _flow("Cc", 30.0, "Malicious"),
    ]
    counts = _flow_counts(flows, ["Ca"], cutoff=20.0)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 0, 1)


def test_flow_confusion_cutoff_still_validates_evidence_against_all_flows():
    flows = [_flow("Ca", 10.0, "Malicious"), _flow("Cc", 30.0, "Malicious")]
    # Cc starts after the cutoff but is a legitimate uid, so no error
    report = score(flows, _detect(["Cc"]), window=100.0, cutoff=20.0)
    assert report.missing_evidence == []
    counts = report.flow
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 0, 1, 0)


def test_compute_metrics_zero_denominators_are_none():
    c = ConfusionCounts()
    assert c.fpr is None
    assert c.tpr is None
    assert c.accuracy is None
    assert c.f1 is None
    no_negatives = ConfusionCounts(tp=3, fn=1)
    assert no_negatives.fpr is None
    assert no_negatives.tpr == pytest.approx(0.75)


def test_compute_metrics_formulas_hold_for_random_counts():
    rng = random.Random(404)
    for _ in range(200):
        c = ConfusionCounts(
            tp=rng.randint(0, 50),
            fp=rng.randint(0, 50),
            tn=rng.randint(0, 50),
            fn=rng.randint(0, 50),
        )
        if c.fp + c.tn:
            assert c.fpr == pytest.approx(c.fp / (c.fp + c.tn))
        else:
            assert c.fpr is None
        if c.tp + c.fn:
            assert c.tpr == pytest.approx(c.tp / (c.tp + c.fn))
        else:
            assert c.tpr is None
        if c.total():
            assert c.accuracy == pytest.approx((c.tp + c.tn) / c.total())
        if 2 * c.tp + c.fp + c.fn:
            assert c.f1 == pytest.approx(2 * c.tp / (2 * c.tp + c.fp + c.fn))
        else:
            assert c.f1 is None


def test_flow_confusion_conserves_in_scope_flows():
    rng = random.Random(405)
    labels = ["Malicious", "Benign", "Unknown", "(empty)"]
    flows = [
        _flow(f"C{i}", float(i), rng.choice(labels)) for i in range(100)
    ]
    evidence = [f.uid for f in flows if rng.random() < 0.3]
    counts = _flow_counts(flows, evidence)
    unknown = sum(1 for f in flows if f.label == "Unknown")
    assert counts.total() == len(flows) - unknown


def _narrative() -> tuple[list[LabeledFlow], list[DetectionRecord]]:
    """Attack, pause, attack again, in three consecutive 100s windows."""
    flows = [
        _flow("Cm1", 5.0, "Malicious"),
        _flow("Cm2", 20.0, "Malicious"),
        _flow("Cm3", 40.0, "Malicious"),
        _flow("Cb1", 115.0, "Benign"),
        _flow("Cb2", 130.0, "Benign"),
        _flow("Cm4", 205.0, "Malicious"),
        _flow("Cm5", 230.0, "Malicious"),
    ]
    detections = [
        DetectionRecord(ip=ATTACKER, time=30.0, evidence=frozenset({"Cm1", "Cm2"})),
        DetectionRecord(ip=ATTACKER, time=215.0, evidence=frozenset({"Cm4"})),
    ]
    return flows, detections


def test_timeline_ground_truth_positive_negative_positive():
    flows, detections = _narrative()
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    truths = [s.truth for s in timelines[ATTACKER]]
    assert truths == [True, False, True]


def test_timeline_detector_scores_tp_tn_tp():
    flows, detections = _narrative()
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    assert [s.status for s in timelines[ATTACKER]] == ["TP", "TN", "TP"]
    assert [s.first_window * 100.0 for s in timelines[ATTACKER]] == [0.0, 100.0, 200.0]


def test_timeline_alert_reverts_on_benign_activity_not_on_silence():
    detections = [
        DetectionRecord(ip=ATTACKER, time=30.0, evidence=frozenset({"Cm1"})),
        DetectionRecord(ip=BYSTANDER, time=250.0, evidence=frozenset({"Cm1"})),
    ]
    # silent after the attack: the last seen state is still malicious
    quiet = [_flow("Cm1", 5.0, "Malicious")]
    timelines = ip_detection_timeline(quiet, detections, window=100.0)
    assert [s.status for s in timelines[ATTACKER]] == ["TP", "FP", "FP"]
    # benign traffic afterwards: the alert must drop right away
    benign_after = quiet + [_flow("Cb1", 115.0, "Benign")]
    timelines = ip_detection_timeline(benign_after, detections, window=100.0)
    assert [s.status for s in timelines[ATTACKER]] == ["TP", "TN", "TN"]


def test_timeline_alert_holds_while_attack_continues():
    flows = [
        _flow("Cm1", 5.0, "Malicious"),
        _flow("Cm2", 105.0, "Malicious"),
        _flow("Cm3", 205.0, "Malicious"),
    ]
    detections = [
        DetectionRecord(ip=ATTACKER, time=30.0, evidence=frozenset({"Cm1"}))
    ]
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    assert [s.status for s in timelines[ATTACKER]] == ["TP", "TP", "TP"]


def test_timeline_no_detection_before_means_no_alert():
    flows = [
        _flow("Cm1", 5.0, "Malicious"),
        _flow("Cm2", 105.0, "Malicious"),
    ]
    detections = [
        DetectionRecord(ip=ATTACKER, time=130.0, evidence=frozenset({"Cm2"}))
    ]
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    assert [s.status for s in timelines[ATTACKER]] == ["FN", "TP"]


def test_timeline_bystander_stays_negative():
    flows, detections = _narrative()
    flows += [
        _flow("Cq1", 10.0, "Benign", ip=BYSTANDER),
        _flow("Cq2", 210.0, "Benign", ip=BYSTANDER),
    ]
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    assert [s.status for s in timelines[BYSTANDER]] == ["TN", "TN", "TN"]


def test_timeline_threshold_filters_thin_detections():
    flows = [_flow("Cm1", 5.0, "Malicious")]
    detections = [
        DetectionRecord(ip=ATTACKER, time=30.0, evidence=frozenset({"Cm1"}))
    ]
    with_thin = ip_detection_timeline(flows, detections, window=100.0, threshold=2)
    assert [s.status for s in with_thin[ATTACKER]] == ["FN"]
    accepted = ip_detection_timeline(flows, detections, window=100.0, threshold=1)
    assert [s.status for s in accepted[ATTACKER]] == ["TP"]


def test_timeline_window_must_be_positive():
    with pytest.raises(UsageError, match="window must be a positive"):
        ip_detection_timeline([], [], window=0.0)
    with pytest.raises(UsageError, match="window must be a positive"):
        ip_detection_timeline([], [], window=-5.0)
    with pytest.raises(UsageError, match="window must be a positive"):
        ip_detection_timeline([], [], window=math.nan)


def test_timeline_empty_inputs_empty_result():
    assert ip_detection_timeline([], [], window=100.0) == {}


def test_timeline_span_covers_detections_outside_flow_range():
    flows = [_flow("Cm1", 150.0, "Malicious")]
    detections = [
        DetectionRecord(ip=ATTACKER, time=450.0, evidence=frozenset({"Cm1"}))
    ]
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    assert [s.first_window * 100.0 for s in timelines[ATTACKER]] == [
        100.0,
        200.0,
        300.0,
        400.0,
    ]
    # nothing is predicted before the detection exists
    assert [s.status for s in timelines[ATTACKER]] == ["FN", "TN", "TN", "FP"]


def test_timeline_no_detections_scores_fn_and_tn_only():
    flows, _ = _narrative()
    timelines = ip_detection_timeline(flows, [], window=100.0)
    assert [s.status for s in timelines[ATTACKER]] == ["FN", "TN", "FN"]


def test_timeline_confusion_sums_statuses():
    flows, detections = _narrative()
    timelines = ip_detection_timeline(flows, detections, window=100.0)
    counts = timeline_confusion(timelines)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 0, 1, 0)


def _brute_timeline(flows, detections, window, threshold):
    """Direct per-(ip, window) enumeration, no shared state with the library."""
    dets = [d for d in detections if len(d.evidence) >= threshold]
    if not flows and not dets:
        return {}
    all_windows = [math.floor(f.start / window) for f in flows] + [
        math.floor(d.time / window) for d in dets
    ]
    lo, hi = min(all_windows), max(all_windows)
    out = {}
    for ip in {f.src_ip for f in flows} | {d.ip for d in dets}:
        mine = [f for f in flows if f.src_ip == ip]
        my_dets = [d for d in dets if d.ip == ip]
        statuses = []
        for w in range(lo, hi + 1):
            truth = any(
                math.floor(f.start / window) == w and f.label == "Malicious"
                for f in mine
            )
            det_here = any(math.floor(d.time / window) == w for d in my_dets)
            det_before = any(math.floor(d.time / window) <= w for d in my_dets)
            past = [math.floor(f.start / window) for f in mine
                    if math.floor(f.start / window) <= w]
            still_attacking = bool(past) and any(
                math.floor(f.start / window) == max(past) and f.label == "Malicious"
                for f in mine
            )
            statuses.append((w * window, truth, det_here or (det_before and still_attacking)))
        out[ip] = statuses
    return out


def test_timeline_agrees_with_brute_enumeration():
    rng = random.Random(606)
    ips = [ipaddress.ip_address(f"10.0.0.{n}") for n in range(1, 5)]
    labels = ["Malicious", "Benign", "(empty)"]
    for _ in range(50):
        flows = [
            _flow(f"C{i}", rng.uniform(0, 2000), rng.choice(labels), ip=rng.choice(ips))
            for i in range(rng.randint(0, 25))
        ]
        detections = [
            DetectionRecord(
                ip=rng.choice(ips),
                time=rng.uniform(0, 2000),
                evidence=frozenset(
                    f.uid for f in flows if rng.random() < 0.2
                ),
            )
            for _ in range(rng.randint(0, 4))
        ]
        threshold = rng.choice([1, 2])
        got = ip_detection_timeline(flows, detections, window=250.0, threshold=threshold)
        want = _brute_timeline(flows, detections, 250.0, threshold)
        assert set(got) == set(want)
        for ip in want:
            assert [
                (s.first_window * 250.0, s.truth, s.predicted) for s in got[ip]
            ] == want[ip]


_SWEEP_IPS = [
    ipaddress.ip_address(a) for a in ("10.0.0.1", "10.0.0.2", "192.168.1.9", "2001:db8::1", "::1")
]


@st.composite
def _timeline_cases(draw):
    """Flows and detections a few dozen windows apart, anywhere on the time axis.

    Flow IPs come from the first three addresses and detection IPs from all
    five, so some IPs appear only in detections; detections may fall before
    the first flow or after the last.
    """
    window = draw(st.sampled_from([1.0, 7.0, 60.0, 250.0, 3600.0]) | st.floats(0.3, 900.0))
    base = draw(st.sampled_from([-8.64e7, -1234.5, 0.0, 1674518400.0]))
    labels = st.sampled_from(["Malicious", "Benign", "Unknown", "(empty)"])
    flow_specs = draw(
        st.lists(st.tuples(st.sampled_from(_SWEEP_IPS[:3]), st.floats(0.0, 30.0 * window), labels),
                 max_size=20)
    )
    flows = [
        _flow(f"C{i}", base + at, label, ip=ip) for i, (ip, at, label) in enumerate(flow_specs)
    ]
    detection_specs = draw(
        st.lists(st.tuples(st.sampled_from(_SWEEP_IPS), st.floats(-10.0 * window, 40.0 * window),
                           st.integers(0, 3)),
                 max_size=6)
    )
    detections = [
        DetectionRecord(ip=ip, time=base + at, evidence=frozenset(f"C{j}" for j in range(k)))
        for ip, at, k in detection_specs
    ]
    return flows, detections, window, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_timeline_cases())
def test_timeline_sweep_agrees_with_brute_enumeration(case):
    flows, detections, window, threshold = case
    got = ip_detection_timeline(flows, detections, window, threshold)
    want = _brute_timeline(flows, detections, window, threshold)
    assert {ip: [(s.first_window * window, s.truth, s.predicted) for s in got[ip]] for ip in got} == want
    report = score(flows, detections, window, threshold)
    runs = report.timelines
    assert report.ip == timeline_confusion(runs) == timeline_confusion(got)
    # each quiet gap is one run, so an IP has at most two runs per event window
    for ip, ip_runs in runs.items():
        events = {math.floor(f.start / window) for f in flows if f.src_ip == ip} | {
            math.floor(d.time / window)
            for d in detections
            if d.ip == ip and len(d.evidence) >= threshold
        }
        assert len(ip_runs) <= 2 * len(events) + 1


def test_timeline_ips_sorted_in_output():
    flows = [
        _flow("Ca", 10.0, "Benign", ip=ipaddress.ip_address("10.0.0.20")),
        _flow("Cb", 20.0, "Benign", ip=ipaddress.ip_address("10.0.0.3")),
        _flow("Cc", 30.0, "Benign", ip=ipaddress.ip_address("2001:db8::1")),
    ]
    timelines = ip_detection_timeline(flows, [], window=100.0)
    assert [str(ip) for ip in timelines] == ["10.0.0.3", "10.0.0.20", "2001:db8::1"]


def test_read_detections_parses_json_lines():
    stream = io.StringIO(
        '{"ip": "10.0.0.5", "time": 30.0, "evidence": ["Ca", "Cb"]}\n'
        "\n"
        '{"ip": "2001:db8::7", "time": 45, "evidence": []}\n'
    )
    records = read_detections(stream)
    assert len(records) == 2
    assert records[0].ip == ATTACKER
    assert records[0].evidence == frozenset({"Ca", "Cb"})
    assert records[1].time == 45.0
    assert records[1].evidence == frozenset()


def test_read_detections_invalid_json_names_line():
    stream = io.StringIO('{"ip": "10.0.0.5", "time": 1, "evidence": []}\nnope\n')
    with pytest.raises(LogFormatError, match="line 2: invalid JSON"):
        read_detections(stream)


def test_read_detections_missing_keys_named():
    with pytest.raises(LogFormatError, match="line 1: needs ip, time and evidence"):
        read_detections(io.StringIO('{"ip": "10.0.0.5"}\n'))


def test_read_detections_non_object_rejected():
    with pytest.raises(LogFormatError, match="line 1: expected an object"):
        read_detections(io.StringIO("[1]\n"))


def test_check_detection_times_warns_on_future_evidence(tmp_path, caplog):
    flows = [_flow("Ca", 100.0, "Malicious")]
    detections = _detect(["Ca"], time=50.0)
    assert score(flows, detections, window=100.0).predating == [(detections[0], 100.0)]
    conn, det = _write_inputs(tmp_path, flows, detections)
    with caplog.at_level("WARNING"):
        evaluate(conn, det, window=100.0)
    assert "predates evidence" in caplog.text


def test_check_detection_times_quiet_when_ordered(tmp_path, caplog):
    flows = [_flow("Ca", 100.0, "Malicious")]
    detections = _detect(["Ca"], time=150.0)
    assert score(flows, detections, window=100.0).predating == []
    conn, det = _write_inputs(tmp_path, flows, detections)
    with caplog.at_level("WARNING"):
        evaluate(conn, det, window=100.0)
    assert caplog.text == ""


def _brute_flow_scores(flows, detections, cutoff):
    """Label counts, flow confusion and predating detections, one question at a time."""
    evidence = {uid for d in detections for uid in d.evidence}
    in_scope = [f for f in flows if cutoff is None or f.start <= cutoff]
    tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for f in in_scope:
        if f.label != "Unknown":
            truth, hit = f.label == "Malicious", f.uid in evidence
            tally[("tp" if hit else "fn") if truth else ("fp" if hit else "tn")] += 1
    last_start = {}
    for f in flows:  # a duplicate uid keeps its last row's start
        last_start[f.uid] = f.start
    predating = []
    for d in detections:
        seen = [last_start[u] for u in d.evidence if u in last_start]
        if seen and d.time < max(seen):
            predating.append((d, max(seen)))
    missing = sorted(evidence - set(last_start))
    return Counter(f.label for f in in_scope), ConfusionCounts(**tally), predating, missing


def test_score_flow_level_agrees_with_brute_reference():
    rng = random.Random(707)
    labels = ["Malicious", "Benign", "Unknown", "(empty)"]
    for _ in range(300):
        uids = [f"C{i}" for i in range(rng.randint(1, 12))]
        # integer starts from a short range: duplicate uids and cutoffs equal to a start are common
        flows = [
            _flow(rng.choice(uids), float(rng.randint(0, 20)), rng.choice(labels),
                  ip=rng.choice([ATTACKER, BYSTANDER]))
            for _ in range(rng.randint(0, 25))
        ]
        detections = [
            DetectionRecord(
                ip=rng.choice([ATTACKER, BYSTANDER]),
                time=float(rng.randint(0, 20)),
                evidence=frozenset(rng.choices(uids + ["Cgone"], k=rng.randint(0, 3))),
            )
            for _ in range(rng.randint(0, 4))
        ]
        cutoff = rng.choice([None, float(rng.randint(0, 20)), rng.uniform(-1.0, 21.0)])
        if flows and rng.random() < 0.3:
            cutoff = rng.choice(flows).start
        report = score(flows, detections, window=5.0, cutoff=cutoff)
        labels_want, counts_want, predating_want, missing_want = _brute_flow_scores(
            flows, detections, cutoff
        )
        assert report.labels == labels_want
        assert report.flow == counts_want
        assert report.predating == predating_want
        assert report.missing_evidence == missing_want


@settings(max_examples=300, deadline=None)
@given(_timeline_cases())
def test_timeline_runs_are_maximal_and_span_every_event_window(case):
    flows, detections, window, threshold = case
    timelines = score(flows, detections, window, threshold).timelines
    events = [math.floor(f.start / window) for f in flows] + [
        math.floor(d.time / window) for d in detections if len(d.evidence) >= threshold
    ]
    assert bool(timelines) == bool(events)
    for runs in timelines.values():
        assert runs[0].first_window == min(events)
        assert runs[-1].first_window + runs[-1].length == max(events) + 1
        assert all(run.length > 0 for run in runs)
        for run, after in zip(runs, runs[1:]):
            assert run.first_window + run.length == after.first_window
            assert run.status != after.status


# one IPv6 source in three spellings, an IPv4 source, and sources that are no address
_SPELLINGS = ["2001:db8::1", "2001:0db8:0:0:0:0:0:1", "2001:DB8::1", "10.0.0.7", "not-an-ip", "-"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(_SPELLINGS), st.floats(0.0, 5000.0),
                  st.sampled_from(["Malicious", "Benign", "Unknown", "(empty)"])),
        min_size=1, max_size=25,
    ),
    detected=st.lists(st.tuples(st.sampled_from(_SPELLINGS[:4]), st.floats(0.0, 5000.0), st.integers(0, 3)),
                      max_size=4),
    window=st.sampled_from([7.0, 250.0, 3600.0]),
)
def test_evaluate_keys_each_address_once_however_its_source_is_spelled(tmp_path, caplog, rows, detected, window):
    flows = [
        LabeledFlow(f"C{i}", start, ipaddress.ip_address(src), label)
        for i, (src, start, label) in enumerate(rows)
        if src not in ("not-an-ip", "-")
    ]
    uids = [flow.uid for flow in flows]
    detections = [
        DetectionRecord(ipaddress.ip_address(ip), time, frozenset(uids[:k])) for ip, time, k in detected
    ]
    want = score(flows, detections, window)
    skipped = len(rows) - len(flows)
    fields = ["ts", "uid", "id.orig_h", "label"]
    cells = [[repr(start), f"C{i}", src, label] for i, (src, start, label) in enumerate(rows)]
    renderings = {
        "tsv": zeek_tsv("conn", fields, ["time", "string", "addr", "string"], cells),
        "json": "".join(
            json.dumps({name: float(cell) if name == "ts" else cell for name, cell in zip(fields, row) if cell != "-"})
            + "\n"
            for row in cells
        ),
    }
    det = tmp_path / "d.jsonl"
    det.write_text("".join(
        json.dumps({"ip": ip, "time": time, "evidence": uids[:k]}) + "\n" for ip, time, k in detected
    ))
    for fmt, text in renderings.items():
        conn = tmp_path / f"{fmt}.conn.labeled.log"
        conn.write_text(text)
        caplog.clear()
        with caplog.at_level("WARNING", logger="zeeklabel.metrics"):
            got = evaluate(conn, det, window)
        assert got == want, fmt
        # one key per address, however many spellings its rows had
        assert list(got.timelines) == sorted({f.src_ip for f in flows} | {d.ip for d in detections if d.evidence},
                                             key=lambda ip: (ip.version, int(ip)))
        skips = [r.getMessage() for r in caplog.records if "rows skipped" in r.getMessage()]
        assert skips == ([f"{skipped} rows skipped during evaluation (missing uid, ts or source IP)"]
                         if skipped else [])


@pytest.mark.parametrize("where", ["flow", "detection"])
@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_score_refuses_a_time_that_is_not_finite_with_a_usage_error(where, time):
    flows = [_flow("C1", time if where == "flow" else 1000.0, "Benign")]
    detections = [DetectionRecord(ATTACKER, time if where == "detection" else 1000.0, frozenset({"C1"}))]
    with pytest.raises(UsageError, match="not NaN" if math.isnan(time) else "too small"):
        score(flows, detections, 60.0)
