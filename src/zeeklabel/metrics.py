"""Detection evaluation against labeled flows.

Two granularities. Flow-level: the detector's evidence uids are compared
against flow labels one-to-one (Malicious is the positive class, Unknown
flows are excluded and reported separately, unlabeled ``(empty)`` flows
count as negatives). IP-level: time is cut into fixed windows aligned to
the epoch and each (source IP, window) pair becomes one decision, which is
how "was the attacker flagged while attacking" is scored.

:func:`score` takes the detections and one pass over the flows, which it
does not keep, in three steps. :func:`_tally` keeps one state per source key a
flow carries (the source text :func:`evaluate` reads from a conn.log, or an
address) and the counts per label. :func:`_merge` adds the tally of later flows
to that of earlier ones, exactly as one pass over both would leave it, so two
processes can each tally part of a conn.log. :func:`_finish` turns each key into
an address once, so that keys spelling one address differently merge, and one
sweep over each IP's event windows then gives its decisions as maximal runs:
no two adjacent runs of an IP share a status. Scoring costs O(flows +
detections) however many quiet windows the span holds.

Undefined ratios stay undefined (None), they are never reported as 0.
"""

from __future__ import annotations

import ipaddress
import json
import logging
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import LogFormatError, UsageError, ZeekLabelError
from .labeler import EMPTY_LABEL, warn_foreign_labels
from .ontology import MALICIOUS, UNKNOWN
from .values import Frozen
from .zeekio import LABEL_FIELDS, ZeekLogReader, _to_float, cells_getter, in_halves, json_lines, nulls
from .zeekio import surrogate_escaped

logger = logging.getLogger(__name__)

# the tally's work per byte against label's: eval forks from 1 MiB, where two processes begin to pay
TALLY_BYTE_COST = 3 / 4
# the (IP, window) decisions a report may hold unless raised: 25x those of a week of
# one-minute windows for 400 IPs, the largest shape measured
MAX_WINDOWS = 10**8

IPAddress = ipaddress.IPv4Address | ipaddress.IPv6Address


class LabeledFlow(NamedTuple):
    """The slice of a labeled conn row that evaluation needs."""

    uid: str
    start: float
    src_ip: IPAddress  # or the source's text, as :func:`evaluate` reads it
    label: str


class DetectionRecord(Frozen):
    _fields = ("ip", "time", "evidence")  # not lineno, its line in the detections file

    def __init__(self, ip: IPAddress, time: float, evidence: frozenset[str], lineno: int = 0) -> None:
        self._set(ip=ip, time=time, evidence=evidence, lineno=lineno)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


class ConfusionCounts(Frozen):
    """TP/FP/TN/FN and their ratios; a None ratio had a zero denominator."""

    def __init__(self, tp: int = 0, fp: int = 0, tn: int = 0, fn: int = 0) -> None:
        self._set(tp=tp, fp=fp, tn=tn, fn=fn)

    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def fpr(self) -> float | None:
        return _ratio(self.fp, self.fp + self.tn)

    @property
    def tpr(self) -> float | None:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def accuracy(self) -> float | None:
        return _ratio(self.tp + self.tn, self.total())

    @property
    def f1(self) -> float | None:
        return _ratio(2 * self.tp, 2 * self.tp + self.fp + self.fn)


STATUS = {(True, True): "TP", (True, False): "FN", (False, True): "FP", (False, False): "TN"}


class WindowRun(NamedTuple):
    """``length`` consecutive windows from ``first_window`` with one status."""

    first_window: int
    length: int
    truth: bool
    predicted: bool

    @property
    def status(self) -> str:
        return STATUS[self.truth, self.predicted]


class EvalReport(Frozen):
    """What :func:`score` finds: the flow-level and IP-level results of one evaluation.

    ``labels`` counts the flows in scope per label; ``missing_evidence`` holds the evidence uids that name
    no flow, sorted; ``predating`` pairs each detection that predates its evidence with the start of the latest.
    """

    def __init__(self, labels: Counter[str], flow: ConfusionCounts, ip: ConfusionCounts,
                 timelines: dict[IPAddress, list[WindowRun]], missing_evidence: list[str],
                 predating: list[tuple[DetectionRecord, float]]) -> None:
        self._set(labels=labels, flow=flow, ip=ip, timelines=timelines, missing_evidence=missing_evidence,
                  predating=predating)


def score(flows: Iterable[LabeledFlow], detections: Sequence[DetectionRecord], window: float, threshold: int = 1,
          cutoff: float | None = None) -> EvalReport:
    """Score detections against ``(uid, start, src_ip, label)`` flows in one pass.

    A flow's ``src_ip`` is an address or the text of one; a text is parsed
    once per distinct text, after the pass, and spellings of one address
    are one IP.

    Flow level: a flow is in scope when it starts at or before ``cutoff``, if
    given. Unknown flows are excluded; any other non-Malicious label, also
    ``(empty)``, is a negative. Evidence uids are looked up in every flow.

    IP level, over every flow: windows tumble in fixed strides aligned to the
    epoch, and every IP's runs span from the first flow or qualifying
    detection to the last. Ground truth for (ip, window) is positive iff a
    malicious flow of that IP starts in the window. The prediction is
    positive in a detection's own window (detections with fewer than
    ``threshold`` evidence uids are ignored), and stays positive afterwards
    only while the IP's most recent activity window holds malicious flows.
    """
    with _times_checked(window):
        evidence, alerts = _alerts(detections, window, threshold, cutoff)
        counts = _tally(flows, evidence, window, cutoff)
    return _finish(counts, detections, evidence, alerts)


@contextmanager
def _times_checked(window: float) -> Iterator[None]:
    """What a time of infinity or NaN raises in the steps of :func:`score`, as a :class:`UsageError`."""
    try:
        yield
    except OverflowError:  # a flow or detection time / window of infinity
        raise UsageError(f"window {window:g}s is too small for the flow and detection times") from None
    except ValueError:  # math.floor of NaN
        raise UsageError("flow and detection times must be numbers, not NaN") from None


def _alerts(detections: Sequence[DetectionRecord], window: float, threshold: int, cutoff: float | None) -> tuple:
    """The evidence uids of ``detections`` and each IP's alert windows, once ``window`` and ``cutoff`` are checked."""
    if not 0 < window < math.inf:  # NaN too
        raise UsageError("window must be a positive finite number of seconds")
    if cutoff is not None and not math.isfinite(cutoff):
        raise UsageError("cutoff must be a number" if math.isnan(cutoff) else "cutoff must be finite")
    alerts: defaultdict[IPAddress, set[int]] = defaultdict(set)
    floor = math.floor
    for det in detections:
        if len(det.evidence) >= threshold:
            alerts[det.ip].add(floor(det.time / window))
    return set().union(*(det.evidence for det in detections)), alerts


def _tally(flows: Iterable[LabeledFlow], evidence: set[str], window: float, cutoff: float | None = None) -> tuple:
    """The per-flow step of :func:`score`: ``(labels, detected, starts, activity, malicious)``, the flows in scope
    per label and those in ``evidence``, the start of each evidence uid's last flow, and the windows of each
    source key's flows and Malicious flows."""
    labels: Counter[str] = Counter()
    detected: Counter[str] = Counter()
    starts: dict[str, float] = {}
    # per source key, as the flows carry it: a str hashes once, an address on every lookup
    activity: defaultdict[object, set[int]] = defaultdict(set)
    malicious: defaultdict[object, set[int]] = defaultdict(set)
    floor = math.floor
    limit = math.inf if cutoff is None else cutoff
    for uid, start, key, label in flows:
        w = floor(start / window)
        activity[key].add(w)
        if label == MALICIOUS:
            malicious[key].add(w)
        in_scope = start <= limit
        if in_scope:
            labels[label] += 1
        if uid in evidence:
            starts[uid] = start
            if in_scope:
                detected[label] += 1
    return labels, detected, starts, activity, malicious


def _merge(mine: tuple, theirs: tuple) -> tuple:
    """The :func:`_tally` of ``mine``'s flows then ``theirs``', as one pass over both gives it: ``mine``, updated."""
    for counts, more in zip(mine[:3], theirs):  # the Counters add up; a uid in both keeps its later start
        counts.update(more)
    for windows, more in zip(mine[3:], theirs[3:]):
        for key, ws in more.items():
            windows[key] |= ws
    return mine


def _finish(counts: tuple, detections: Sequence[DetectionRecord], evidence: set[str], alerts: dict) -> EvalReport:
    """The last step of :func:`score`: the report of a :func:`_tally`, its detections, their evidence and alerts."""
    labels, detected, starts, activity, malicious = counts
    predating = []
    for det in detections:
        latest = max((starts[u] for u in det.evidence if u in starts), default=None)
        if latest is not None and det.time < latest:
            predating.append((det, latest))
    negatives = labels.total() - labels[MALICIOUS] - labels[UNKNOWN]
    false_alarms = detected.total() - detected[MALICIOUS] - detected[UNKNOWN]
    timelines = _sweep(*_by_address(activity, malicious), alerts)
    flow = ConfusionCounts(tp=detected[MALICIOUS], fp=false_alarms, tn=negatives - false_alarms,
                           fn=labels[MALICIOUS] - detected[MALICIOUS])
    return EvalReport(labels=labels, flow=flow, ip=timeline_confusion(timelines), timelines=timelines,
                      missing_evidence=sorted(evidence - starts.keys()), predating=predating)


def _by_address(*per_key: dict[object, set[int]]) -> list[dict[IPAddress, set[int]]]:
    """The maps ``per_key``, each key turned into its address; keys of one address merge.

    A str key is parsed once, any other key is an address already. The first
    map holds every key of the others.
    """
    address = {key: ipaddress.ip_address(key) if isinstance(key, str) else key for key in per_key[0]}
    merged = []
    for windows in per_key:
        out: dict[IPAddress, set[int]] = {}
        for key, ws in windows.items():
            ip = address[key]
            if ip in out:
                out[ip] |= ws
            else:
                out[ip] = ws
        merged.append(out)
    return merged


def _sweep(activity: dict, malicious: dict, alerts: dict) -> dict[IPAddress, list[WindowRun]]:
    """Each IP's maximal runs, from its activity, malicious and alert windows.

    Only a window with activity or a detection changes the state, so the
    sweep visits those windows, treats each quiet gap as one stretch, and
    starts a run only where the status changes.
    """
    events = [*activity.values(), *alerts.values()]
    if not events:
        return {}
    lo = min(min(ws) for ws in events)
    hi = max(max(ws) for ws in events)

    timelines: dict = {}
    for ip in sorted(set(activity) | set(alerts), key=lambda ip: (ip.version, int(ip))):
        acts = activity.get(ip, set())
        mals = malicious.get(ip, set())
        dets = alerts.get(ip, set())
        firsts: list[int] = []  # where each run starts, then hi + 1
        statuses: list[tuple[bool, bool]] = []
        status = None
        seen_detection = last_malicious = latched = False
        gap_start = lo
        for w in sorted(acts | dets):
            if w > gap_start and status != (False, latched):
                status = (False, latched)
                firsts.append(gap_start)
                statuses.append(status)
            if w in acts:
                last_malicious = w in mals
            seen_detection = seen_detection or w in dets
            latched = seen_detection and last_malicious
            here = (w in mals, w in dets or latched)
            if here != status:
                status = here
                firsts.append(w)
                statuses.append(here)
            gap_start = w + 1
        if hi >= gap_start and status != (False, latched):
            firsts.append(gap_start)
            statuses.append((False, latched))
        firsts.append(hi + 1)
        timelines[ip] = [
            WindowRun(first, end - first, truth, predicted)
            for first, end, (truth, predicted) in zip(firsts, firsts[1:], statuses)
        ]
    return timelines


def windows(runs: Iterable[WindowRun]) -> Iterator[WindowRun]:
    """The runs' windows in order, each a run of length 1."""
    for run in runs:
        for w in range(run.first_window, run.first_window + run.length):
            yield WindowRun(w, 1, run.truth, run.predicted)


def ip_detection_timeline(
    flows: Iterable[LabeledFlow], detections: Sequence[DetectionRecord], window: float, threshold: int = 1
) -> dict[IPAddress, list[WindowRun]]:
    """The runs of :func:`score`, expanded to one run per window."""
    runs = score(flows, detections, window, threshold).timelines
    return {ip: list(windows(ip_runs)) for ip, ip_runs in runs.items()}


def timeline_confusion(timelines: dict[IPAddress, list[WindowRun]]) -> ConfusionCounts:
    """Counts over runs; a run counts once per window."""
    tally: Counter[tuple[bool, bool]] = Counter()
    for runs in timelines.values():
        for run in runs:
            tally[run.truth, run.predicted] += run.length
    return ConfusionCounts(tp=tally[True, True], fp=tally[False, True], tn=tally[False, False], fn=tally[True, False])


def read_detections(stream: IO[str], source: str = "<detections>") -> list[DetectionRecord]:
    """Parse detections, {"ip", "time", "evidence": [uids]}, from JSON lines read as a log's (:func:`json_lines`)."""
    records: list[DetectionRecord] = []
    for obj, _, lineno in json_lines(surrogate_escaped(stream), source, "an object"):
        try:
            ip, time, evidence = obj["ip"], obj["time"], obj["evidence"]
            if type(ip) is not str:  # ip_address reads an int as an IPv4 address
                raise ValueError(f"ip {json.dumps(ip)} is not a string")
            ip = ipaddress.ip_address(ip)
        except (KeyError, ValueError) as exc:
            raise LogFormatError(f"{source}: line {lineno}: needs ip, time and evidence ({exc})") from None
        # a bool is not a time, and an int too large for a float is not finite
        if type(time) not in (int, float) or not abs(time) <= sys.float_info.max:
            raise LogFormatError(f"{source}: line {lineno}: time must be a finite number")
        if not isinstance(evidence, list) or not all(type(uid) is str for uid in evidence):
            raise LogFormatError(f"{source}: line {lineno}: evidence must be a list of uids")
        records.append(DetectionRecord(ip=ip, time=float(time), evidence=frozenset(evidence), lineno=lineno))
    return records


def _is_address(text: str) -> bool:
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


def _read_flows(reader: ZeekLogReader, skipped: list[int]) -> Iterator[tuple[str, float, str, str]]:
    """``(uid, start, src_text, label)`` of each of ``reader``'s rows with a uid, finite ts and source IP; once the
    rows end, the count of the others is appended to ``skipped``.

    The cells of each block are read by two readers resolved once per header: the first three columns, and the label
    near the end of a row. Each distinct source text is parsed once, only to tell whether its rows are skipped.
    """
    header = reader.header
    cells_of = cells_getter(header, reader.format, ("uid", "ts", "id.orig_h"))
    labels_of = cells_getter(header, reader.format, LABEL_FIELDS[:1])
    null = nulls(header)
    sources = dict.fromkeys(null, False)  # source text -> whether it is an address
    isfinite = math.isfinite
    count = 0
    for block in reader.blocks():
        for (uid, ts, src), label in zip(cells_of(block), labels_of(block)):
            is_address = sources.get(src)
            if is_address is None:
                is_address = sources[src] = _is_address(src)
            start = _to_float(ts)
            if uid in null or ts in null or start is None or not isfinite(start) or not is_address:
                count += 1
                continue
            yield uid, start, src, EMPTY_LABEL if label in null else label
    skipped.append(count)


def _checked(reader: ZeekLogReader, skipped: list[int]) -> None:
    """After the stream, so that bad rows come first and JSON keys are complete: the label column, then the skips."""
    if LABEL_FIELDS[0] not in reader.header.fields:
        raise UsageError(f"{reader.source} has no label column; run 'label' before 'eval'")
    if sum(skipped):
        logger.warning("%d rows skipped during evaluation (missing uid, ts or source IP)", sum(skipped))


def _score_log(detections_path: str | Path, window: float, threshold: int, cutoff: float | None, reader: ZeekLogReader,
               halves: Callable) -> tuple[EvalReport, list[DetectionRecord], int]:
    """:func:`evaluate`'s report, detections and skipped rows, the log tallied through ``halves``; its error first."""
    skipped: list[int] = []  # of this process
    flows = _read_flows(reader, skipped)
    half = lambda _: (_tally(flows, evidence, window, cutoff), skipped)  # noqa: E731
    join = lambda mine, theirs: (_merge(mine[0], theirs[0]), mine[1] + theirs[1])  # noqa: E731
    try:
        with open(detections_path, encoding="utf-8") as fh:
            detections = read_detections(fh, str(detections_path))
        with _times_checked(window):
            evidence, alerts = _alerts(detections, window, threshold, cutoff)
            counts, skips = halves(half, join)
    except (ZeekLabelError, OSError):
        for _ in flows:
            pass
        if skipped:  # the rows ended
            _checked(reader, skipped)
        raise
    _checked(reader, skips)
    return _finish(counts, detections, evidence, alerts), detections, sum(skips)


def evaluate(
    conn_labeled: str | Path, detections_path: str | Path, window: float, threshold: int = 1,
    cutoff: float | None = None, max_windows: int = MAX_WINDOWS,
) -> EvalReport:
    """:func:`score` a JSON-lines detections file against a labeled conn.log.

    The conn.log is streamed once, and its errors come first: when anything
    else fails before the stream ends, the rest of it is still read. The
    detections are read first; then, through :func:`zeekio.in_halves` (from
    1 MiB, its bytes weighed by TALLY_BYTE_COST), a forked child may tally the
    lines past the middle, merged into this process's tally as one pass would
    leave it. The label-column check reads the fields once the halves joined,
    so its error is final. A report of more than ``max_windows``
    (IP, window) decisions is a usage error that names the events at both ends
    of the span. Detections that predate their evidence are logged; evidence
    uids that name no scored flow are a usage error, which counts the rows skipped.
    """
    report, detections, skipped = in_halves("eval", Path(conn_labeled), _score_log, detections_path, window, threshold,
                                            cutoff, cost=TALLY_BYTE_COST)
    if report.timelines:  # every IP's runs span the same windows
        runs = next(iter(report.timelines.values()))
        lo, hi = runs[0].first_window, runs[-1].first_window + runs[-1].length - 1
        if (count := len(report.timelines) * (hi - lo + 1)) > max_windows:
            # each end's event: a detection in its window, else a flow
            first, last = (next((f"the detection at {d.time:.6f} ({detections_path} line {d.lineno})" for d in detections
                                 if len(d.evidence) >= threshold and math.floor(d.time / window) == w),
                                f"a flow in the window at {w * window:.6f} ({conn_labeled})") for w in (lo, hi))
            raise UsageError(f"the IP timeline would hold {count} windows of {window:g}s, from {first} to {last}; "
                             f"the bound is {max_windows} (--max-windows)")
    warn_foreign_labels(report.labels, "flows in scope")
    for det, latest in report.predating:
        logger.warning("detection of %s at %.6f predates evidence flow at %.6f", det.ip, det.time, latest)
    if report.missing_evidence:
        missing = ", ".join(report.missing_evidence)
        if skipped:  # a skipped row's uid names no scored flow
            were = ("was", "were")[skipped > 1]
            missing += f" ({skipped} row{'s' * (skipped > 1)} without a uid, finite ts or source IP {were} skipped)"
        raise UsageError(f"evidence uids not present in the labeled flows: {missing}")
    return report
