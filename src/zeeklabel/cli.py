"""Command line interface.

Subcommands: label (apply rules to conn.log), propagate (carry conn labels
into the other logs of a directory), eval (score detections against labels),
validate-config, show-ontology. Outputs never overwrite inputs; labeled
copies get a ``.labeled`` infix. Exit codes: 0 success, 1 data/runtime
problem, 2 usage or configuration problem.
"""

from __future__ import annotations

import argparse
import hashlib
import ipaddress
import json
import logging
import math
import sys
from collections import Counter
from pathlib import Path

from .errors import ConfigError, LogFormatError, UsageError
from .labeler import EMPTY_PAIR, label_file
from .metrics import (
    LabeledFlow,
    MetricsReport,
    check_detection_times,
    compute_metrics,
    flow_confusion,
    read_detections,
    timeline_confusion,
    timeline_runs,
    MALICIOUS,
    UNKNOWN,
)
from .ontology import load_ontology
from .propagate import propagate_dir
from .rules import load_config
from .zeekio import LABEL_FIELDS, ZeekLogReader, _to_float, field_getter

logger = logging.getLogger(__name__)


def _read_config(path: Path) -> tuple[str, str]:
    """Config text plus the sha256 of the file bytes."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8"), digest
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not valid UTF-8") from None


def _labeled_path(path: Path) -> Path:
    if path.name.endswith(".log"):
        return path.with_name(path.name[: -len(".log")] + ".labeled.log")
    return path.with_name(path.name + ".labeled")


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def cmd_label(ns: argparse.Namespace) -> int:
    config_path = Path(ns.config)
    conn_path = Path(ns.conn)
    text, digest = _read_config(config_path)
    _, ruleset = load_config(text)

    out_path = Path(ns.output) if ns.output else _labeled_path(conn_path)
    if out_path.resolve() == conn_path.resolve():
        raise UsageError(f"refusing to overwrite the input file {conn_path}")

    counts = label_file(conn_path, ruleset, out_path)
    histogram: Counter[str] = Counter()
    for pair, count in counts.items():
        histogram[pair[0]] += count
    rows = sum(counts.values())
    unlabeled = histogram.get(EMPTY_PAIR[0], 0)
    print(f"rows: {rows}")
    print(f"labeled: {rows - unlabeled}")
    print(f"(empty): {unlabeled}")
    for name, count in sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0])):
        if name != EMPTY_PAIR[0]:
            print(f"  {name}: {count}")
    print(f"config sha256: {digest}")
    print(f"wrote: {out_path}")
    return 0


# how each route is named in the summary line of a log
_ROUTE_NOTES = {"uid": "", "files": " (via conn_uids)", "x509": " (via ssl.log)", "none": " (no uid field)"}


def cmd_propagate(ns: argparse.Namespace) -> int:
    log_dir = Path(ns.log_dir)
    if not log_dir.is_dir():
        raise UsageError(f"{log_dir} is not a directory")
    report = propagate_dir(Path(ns.conn_labeled), log_dir, Path(ns.output) if ns.output else log_dir)
    for log in report.logs:
        print(
            f"{log.name}: {log.rows} rows, {log.labeled} labeled, "
            f"{log.rows - log.labeled} (empty){_ROUTE_NOTES[log.route]} -> {log.output.name}"
        )
    print(f"index: {report.index_uids} uids")
    return 0


def _load_flows(conn_path: Path) -> list[LabeledFlow]:
    flows: list[LabeledFlow] = []
    skipped = 0
    addresses: dict[str | None, ipaddress.IPv4Address | ipaddress.IPv6Address | None] = {}
    with open(conn_path, encoding="utf-8") as fh:
        reader = ZeekLogReader(fh, str(conn_path))
        header = reader.header
        uid_of, ts_of, src_of, label_of = (
            field_getter(header, reader.format, name)
            for name in ("uid", "ts", "id.orig_h", LABEL_FIELDS[0])
        )
        for record in reader.records():
            uid = uid_of(record)
            ts = _to_float(ts_of(record))
            src = src_of(record)
            if src not in addresses:
                try:
                    addresses[src] = ipaddress.ip_address(src)
                except ValueError:
                    addresses[src] = None
            src_ip = addresses[src]
            if uid is None or ts is None or not math.isfinite(ts) or src_ip is None:
                skipped += 1
                continue
            flows.append(LabeledFlow(uid, ts, src_ip, label_of(record) or EMPTY_PAIR[0]))
    # after the stream: bad rows are reported first, and JSON keys are complete
    if header.index_of(LABEL_FIELDS[0]) is None:
        raise UsageError(
            f"{conn_path} has no label column; run 'label' before 'eval'"
        )
    if skipped:
        logger.warning(
            "%d rows skipped during evaluation (missing uid, ts or source IP)",
            skipped,
        )
    return flows


def _score_json(report: MetricsReport) -> dict:
    return {
        "counts": vars(report.counts),
        "metrics": {
            "fpr": report.fpr,
            "tpr": report.tpr,
            "accuracy": report.accuracy,
            "f1": report.f1,
        },
    }


def _print_score(report: MetricsReport) -> None:
    c = report.counts
    print(f"  TP {c.tp}  FP {c.fp}  FN {c.fn}  TN {c.tn}")
    print(
        f"  FPR {_pct(report.fpr)}  TPR {_pct(report.tpr)}  "
        f"Accuracy {_pct(report.accuracy)}  F1 {_pct(report.f1)}"
    )


def cmd_eval(ns: argparse.Namespace) -> int:
    flows = _load_flows(Path(ns.conn_labeled))
    with open(ns.detections, encoding="utf-8") as fh:
        detections = read_detections(fh, str(ns.detections))
    check_detection_times(detections, flows)

    evidence: set[str] = set()
    for det in detections:
        evidence.update(det.evidence)

    cutoff = ns.cutoff
    flow_report = compute_metrics(flow_confusion(flows, evidence, cutoff))
    labels = Counter(f.label for f in flows if cutoff is None or f.start <= cutoff)
    scored = labels.total()

    timelines = timeline_runs(flows, detections, ns.window, ns.threshold)
    ip_counts = timeline_confusion(timelines)
    ip_report = compute_metrics(ip_counts)

    if ns.json:
        payload = {
            "parameters": {
                "window": ns.window,
                "threshold": ns.threshold,
                "cutoff": cutoff,
            },
            "flow": {
                "flows": scored,
                "malicious": labels[MALICIOUS],
                "unknown_excluded": labels[UNKNOWN],
                "unlabeled_negative": labels[EMPTY_PAIR[0]],
                **_score_json(flow_report),
            },
            "ip": {
                **_score_json(ip_report),
                "timelines": {
                    str(ip): [
                        {
                            "window_start": w * ns.window,
                            "truth": run.truth,
                            "predicted": run.predicted,
                            "status": run.status,
                        }
                        for run in runs
                        for w in range(run.first_window, run.first_window + run.length)
                    ]
                    for ip, runs in timelines.items()
                },
            },
        }
        print(json.dumps(payload, indent=2))
        return 0

    print("flow-level evaluation")
    print(
        f"  flows: {scored} (malicious {labels[MALICIOUS]}, "
        f"unknown excluded {labels[UNKNOWN]}, unlabeled {labels[EMPTY_PAIR[0]]})"
    )
    _print_score(flow_report)
    print(
        f"ip-level evaluation (window {ns.window:g}s, threshold {ns.threshold})"
    )
    for ip, runs in timelines.items():
        marks = " ".join(" ".join([run.status] * run.length) for run in runs)
        print(f"  {ip}: {marks}")
    _print_score(ip_report)
    return 0


def cmd_validate_config(ns: argparse.Namespace) -> int:
    text, digest = _read_config(Path(ns.config))
    spec, ruleset = load_config(text)
    print(f"config OK ({len(ruleset)} rules)")
    for lvl in spec.levels:
        kind = "extensible" if lvl.extensible else "fixed"
        print(f"  {lvl.name} ({kind}): {len(lvl.items)} items")
    print(f"config sha256: {digest}")
    return 0


def cmd_show_ontology(ns: argparse.Namespace) -> int:
    spec = load_ontology(_read_config(Path(ns.config))[0] if ns.config else "")
    if ns.json:
        payload = {
            lvl.name: {
                "mandatory": lvl.mandatory,
                "extensible": lvl.extensible,
                "items": list(lvl.items),
            }
            for lvl in spec.levels
        }
        print(json.dumps(payload, indent=2))
        return 0
    for lvl in spec.levels:
        flags = []
        if lvl.mandatory:
            flags.append("mandatory")
        flags.append("extensible" if lvl.extensible else "fixed")
        items = ", ".join(lvl.items) if lvl.items else "(none)"
        print(f"{lvl.name} [{'/'.join(flags)}]: {items}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeeklabel",
        description="Label Zeek conn.log flows from a rule config, propagate "
        "the labels to the other Zeek logs, and evaluate detections "
        "against them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="label a conn.log with a rule config")
    p.add_argument("conn", help="conn.log to label (TSV or JSON lines)")
    p.add_argument("--config", required=True, help="rule configuration file")
    p.add_argument("--output", help="output path (default: adds .labeled)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser(
        "propagate", help="copy conn.log labels onto the other logs by uid"
    )
    p.add_argument("conn_labeled", help="labeled conn.log")
    p.add_argument("log_dir", help="directory holding the other Zeek logs")
    p.add_argument("--output", help="output directory (default: log_dir)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("eval", help="score detections against flow labels")
    p.add_argument("conn_labeled", help="labeled conn.log (ground truth)")
    p.add_argument("detections", help="detections as JSON lines")
    p.add_argument(
        "--window", type=float, default=3600.0, help="window seconds (default 3600)"
    )
    p.add_argument(
        "--threshold",
        type=int,
        default=1,
        help="minimum evidence flows for a detection to count (default 1)",
    )
    p.add_argument(
        "--cutoff", type=float, default=None, help="only score flows starting at or before this epoch time"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate-config", help="parse and check a config file")
    p.add_argument("--config", required=True, help="rule configuration file")
    p.set_defaults(func=cmd_validate_config)

    p = sub.add_parser("show-ontology", help="print the label vocabulary")
    p.add_argument("--config", help="config file with ontology additions")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_show_ontology)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s: %(message)s", stream=sys.stderr
    )
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LogFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
