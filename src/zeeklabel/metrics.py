"""Detection evaluation against labeled flows.

Two granularities. Flow-level: the detector's evidence uids are compared
against flow labels one-to-one (Malicious is the positive class, Unknown
flows are excluded and reported separately, unlabeled ``(empty)`` flows
count as negatives). IP-level: time is cut into fixed windows aligned to
the epoch and each (source IP, window) pair becomes one decision, which is
how "was the attacker flagged while attacking" is scored. One sweep over
each IP's activity and detection windows gives its decisions as runs of
equal windows (:func:`timeline_runs`), so scoring costs O(flows +
detections) however many quiet windows the span holds; counts, reports and
the per-window list (:func:`ip_detection_timeline`) all derive from it.

Undefined ratios stay undefined (None), they are never reported as 0.
"""

from __future__ import annotations

import ipaddress
import json
import logging
import math
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import LogFormatError, UsageError
from .zeekio import utf8_error

logger = logging.getLogger(__name__)

MALICIOUS = "Malicious"
BENIGN = "Benign"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LabeledFlow:
    """The slice of a labeled conn row that evaluation needs."""

    uid: str
    start: float
    src_ip: ipaddress.IPv4Address | ipaddress.IPv6Address
    label: str


@dataclass(frozen=True)
class DetectionRecord:
    ip: ipaddress.IPv4Address | ipaddress.IPv6Address
    time: float
    evidence: frozenset[str]


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def add(self, status: str, n: int = 1) -> None:
        setattr(self, status.lower(), getattr(self, status.lower()) + n)


@dataclass(frozen=True)
class MetricsReport:
    """Derived ratios; a None metric had a zero denominator."""

    counts: ConfusionCounts
    fpr: float | None
    tpr: float | None
    accuracy: float | None
    f1: float | None


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return MetricsReport(
        counts=counts,
        fpr=ratio(counts.fp, counts.fp + counts.tn),
        tpr=ratio(counts.tp, counts.tp + counts.fn),
        accuracy=ratio(counts.tp + counts.tn, counts.total()),
        f1=ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn),
    )


def flow_confusion(
    flows: Sequence[LabeledFlow],
    evidence: Iterable[str],
    cutoff: float | None = None,
) -> ConfusionCounts:
    """Flow-level confusion between labels and a detector's evidence uids.

    Evidence uids must exist in ``flows`` (checked against the full list);
    when a cutoff is given only flows starting at or before it are counted.
    Unknown-labeled flows are excluded entirely; any other non-Malicious
    label, including ``(empty)``, is a negative.
    """
    evidence_set = set(evidence)
    known = {flow.uid for flow in flows}
    missing = sorted(evidence_set - known)
    if missing:
        raise UsageError(
            "evidence uids not present in the labeled flows: " + ", ".join(missing)
        )
    counts = ConfusionCounts()
    for flow in flows:
        if cutoff is not None and flow.start > cutoff:
            continue
        if flow.label == UNKNOWN:
            continue
        positive_truth = flow.label == MALICIOUS
        detected = flow.uid in evidence_set
        if positive_truth:
            if detected:
                counts.tp += 1
            else:
                counts.fn += 1
        else:
            if detected:
                counts.fp += 1
            else:
                counts.tn += 1
    return counts


_STATUS = {(True, True): "TP", (True, False): "FN", (False, True): "FP", (False, False): "TN"}


@dataclass(frozen=True)
class WindowStatus:
    window_start: float
    truth: bool
    predicted: bool
    length = 1  # windows covered, as for a WindowRun

    @property
    def status(self) -> str:
        return _STATUS[self.truth, self.predicted]


class WindowRun(NamedTuple):
    """``length`` consecutive windows from ``first_window`` with one status."""

    first_window: int
    length: int
    truth: bool
    predicted: bool

    @property
    def status(self) -> str:
        return _STATUS[self.truth, self.predicted]


def timeline_runs(
    flows: Sequence[LabeledFlow],
    detections: Sequence[DetectionRecord],
    window: float,
    threshold: int = 1,
) -> dict[ipaddress.IPv4Address | ipaddress.IPv6Address, list[WindowRun]]:
    """Per-source-IP, per-window ground truth and prediction, as runs.

    Windows tumble in fixed strides aligned to the epoch; every IP's runs
    cover the same span, from the first flow or qualifying detection to the
    last. Ground truth for (ip, window) is positive iff a malicious-labeled
    flow of that IP starts inside the window. The prediction is positive in a
    detection's own window (detections below the evidence threshold are
    ignored), and stays positive afterwards only while the IP's most recent
    activity window contains malicious flows; once the IP goes quiet or
    benign the alert reverts immediately.

    Only a window with activity or a detection changes that state, so the
    sweep visits those windows and covers each quiet gap with one run.
    """
    if not window > 0:  # NaN too
        raise UsageError("window must be a positive number of seconds")
    activity: dict = {}
    malicious: dict = {}
    detected: dict = {}
    try:
        for flow in flows:
            w = math.floor(flow.start / window)
            activity.setdefault(flow.src_ip, set()).add(w)
            if flow.label == MALICIOUS:
                malicious.setdefault(flow.src_ip, set()).add(w)
        for det in detections:
            if len(det.evidence) >= threshold:
                detected.setdefault(det.ip, set()).add(math.floor(det.time / window))
    except OverflowError:  # a flow or detection time / window of infinity
        raise UsageError(f"window {window:g}s is too small for the flow and detection times") from None
    events = [*activity.values(), *detected.values()]
    if not events:
        return {}
    lo = min(min(ws) for ws in events)
    hi = max(max(ws) for ws in events)

    timelines: dict = {}
    for ip in sorted(set(activity) | set(detected), key=lambda ip: (ip.version, int(ip))):
        acts = activity.get(ip, set())
        mals = malicious.get(ip, set())
        dets = detected.get(ip, set())
        runs: list[WindowRun] = []
        seen_detection = last_malicious = latched = False
        gap_start = lo
        for w in sorted(acts | dets):
            if w > gap_start:
                runs.append(WindowRun(gap_start, w - gap_start, False, latched))
            if w in acts:
                last_malicious = w in mals
            seen_detection = seen_detection or w in dets
            latched = seen_detection and last_malicious
            runs.append(WindowRun(w, 1, w in mals, w in dets or latched))
            gap_start = w + 1
        if hi >= gap_start:
            runs.append(WindowRun(gap_start, hi + 1 - gap_start, False, latched))
        timelines[ip] = runs
    return timelines


def ip_detection_timeline(
    flows: Sequence[LabeledFlow],
    detections: Sequence[DetectionRecord],
    window: float,
    threshold: int = 1,
) -> dict[ipaddress.IPv4Address | ipaddress.IPv6Address, list[WindowStatus]]:
    """:func:`timeline_runs` with every run expanded to one status per window."""
    return {
        ip: [
            WindowStatus(w * window, run.truth, run.predicted)
            for run in runs
            for w in range(run.first_window, run.first_window + run.length)
        ]
        for ip, runs in timeline_runs(flows, detections, window, threshold).items()
    }


def timeline_confusion(timelines: dict) -> ConfusionCounts:
    """Counts over per-window statuses or runs; a run counts once per window."""
    counts = ConfusionCounts()
    for statuses in timelines.values():
        for status in statuses:
            counts.add(status.status, status.length)
    return counts


def read_detections(stream: IO[str], source: str = "<detections>") -> list[DetectionRecord]:
    """Parse detections from JSON lines: {"ip", "time", "evidence": [uids]}."""
    records: list[DetectionRecord] = []
    lineno = 0
    try:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                raise LogFormatError(f"{source}: line {lineno}: invalid JSON") from None
            if not isinstance(obj, dict):
                raise LogFormatError(f"{source}: line {lineno}: expected an object")
            try:
                ip = ipaddress.ip_address(obj["ip"])
                time = float(obj["time"])
                evidence = obj["evidence"]
            except (KeyError, TypeError, ValueError) as exc:
                raise LogFormatError(
                    f"{source}: line {lineno}: needs ip, time and evidence ({exc})"
                ) from None
            if not isinstance(evidence, list) or not all(type(uid) is str for uid in evidence):
                raise LogFormatError(f"{source}: line {lineno}: evidence must be a list of uids")
            if not math.isfinite(time):
                raise LogFormatError(f"{source}: line {lineno}: time must be a finite number")
            records.append(
                DetectionRecord(ip=ip, time=time, evidence=frozenset(evidence))
            )
    except UnicodeDecodeError as exc:
        raise utf8_error(source, lineno, exc) from None
    return records


def check_detection_times(
    detections: Sequence[DetectionRecord], flows: Sequence[LabeledFlow]
) -> None:
    """Warn when a detection claims evidence from its own future."""
    starts = {flow.uid: flow.start for flow in flows}
    for det in detections:
        latest = max((starts[u] for u in det.evidence if u in starts), default=None)
        if latest is not None and det.time < latest:
            logger.warning(
                "detection of %s at %.6f predates evidence flow at %.6f",
                det.ip,
                det.time,
                latest,
            )
