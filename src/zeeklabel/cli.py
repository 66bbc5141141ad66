"""Command line interface.

Subcommands: label (apply rules to conn.log), propagate (carry conn labels
into the other logs of a directory), eval (score detections against labels),
validate-config, show-ontology. Outputs never overwrite inputs (such a run
exits 2 before it writes anything); labeled copies get a ``.labeled`` infix.
Exit codes: 0 success, 1 data/runtime problem, 2 usage or configuration
problem.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable

from .errors import ConfigError, LogFormatError, UsageError
from .labeler import EMPTY_PAIR, label_file
from .metrics import MALICIOUS, MAX_WINDOWS, STATUS, UNKNOWN, ConfusionCounts, evaluate
from .ontology import load_ontology
from .propagate import propagate_dir
from .rules import load_config
from .zeekio import labeled_name


def _read_config(path: Path) -> tuple[str, str]:
    """Config text plus the sha256 of the file bytes."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8-sig"), digest
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not valid UTF-8") from None


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def cmd_label(ns: argparse.Namespace) -> int:
    config_path = Path(ns.config)
    conn_path = Path(ns.conn)
    text, digest = _read_config(config_path)
    _, ruleset = load_config(text)

    out_path = Path(ns.output) if ns.output else conn_path.with_name(labeled_name(conn_path.name))
    for path in (conn_path, config_path):
        if out_path.resolve() == path.resolve():
            raise UsageError(f"refusing to overwrite the input file {path}")

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


def _score_json(c: ConfusionCounts) -> dict:
    metrics = {name: getattr(c, name) for name in ("fpr", "tpr", "accuracy", "f1")}
    return {"counts": vars(c), "metrics": metrics}


def _score_text(c: ConfusionCounts) -> str:
    return (
        f"  TP {c.tp}  FP {c.fp}  FN {c.fn}  TN {c.tn}\n"
        f"  FPR {_pct(c.fpr)}  TPR {_pct(c.tpr)}  Accuracy {_pct(c.accuracy)}  F1 {_pct(c.f1)}\n"
    )


# windows a report write holds at most: about 150 KB of --json or 25 KB of text,
# so a report of any size takes no more memory than a small one
JSON_CHUNK_WINDOWS = 1024
TEXT_CHUNK_WINDOWS = 8192

_MARKS = {key: " " + status for key, status in STATUS.items()}
# a window object of json.dumps(payload, indent=2), split around its window_start
_WINDOW_HEAD = '\n        {\n          "window_start": '
_WINDOW_TAILS = {
    (truth, predicted): f',\n          "truth": {json.dumps(truth)},\n          "predicted": '
    f'{json.dumps(predicted)},\n          "status": "{status}"\n        }}'
    for (truth, predicted), status in STATUS.items()
}


def _json_windows(window: float, first: int, length: int, truth: bool, predicted: bool) -> str:
    """``length`` window objects from window ``first`` on, as the --json report spells them."""
    tail = _WINDOW_TAILS[truth, predicted]
    starts = map(window.__mul__, range(first, first + length))
    # the starts grow with the window, so only the ends can overflow to infinity
    finite = math.isfinite(first * window) and math.isfinite((first + length - 1) * window)
    windows = (tail + "," + _WINDOW_HEAD).join(map(float.__repr__ if finite else json.dumps, starts))
    return f"{_WINDOW_HEAD}{windows}{tail}"


def _write_timelines(write: Callable, timelines: dict, limit: int, joint: str, ends: Callable, spell: Callable) -> None:
    """Each IP's runs between its ``ends(ip, runs)``, ``limit`` windows to a write: a run is cut where
    it fills a write, each piece is ``spell(first, length, truth, predicted)``, and ``joint`` goes
    between the IPs and between the pieces of one IP."""
    buf: list[str] = []
    held = 0
    lead = ""
    for ip, runs in timelines.items():
        opening, closing = ends(ip, runs)
        buf += (lead, opening)
        lead = ""
        for first, length, truth, predicted in runs:
            while held + length >= limit:  # the run fills this write
                take = limit - held
                buf += (lead, spell(first, take, truth, predicted))
                write("".join(buf))
                buf.clear()
                lead = joint
                first += take
                length -= take
                held = 0
            if length:
                buf += (lead, spell(first, length, truth, predicted))
                lead = joint
                held += length
        buf.append(closing)
        lead = joint
    write("".join(buf))


def cmd_eval(ns: argparse.Namespace) -> int:
    report = evaluate(ns.conn_labeled, ns.detections, ns.window, ns.threshold, ns.cutoff, ns.max_windows)
    labels = report.labels
    if ns.json:
        # json.dumps(payload, indent=2) with the timelines written window by window
        payload = {
            "parameters": {"window": ns.window, "threshold": ns.threshold, "cutoff": ns.cutoff},
            "flow": {
                "flows": labels.total(),
                "malicious": labels[MALICIOUS],
                "unknown_excluded": labels[UNKNOWN],
                "unlabeled_negative": labels[EMPTY_PAIR[0]],
                **_score_json(report.flow),
            },
            "ip": {**_score_json(report.ip), "timelines": {}},
        }
        head, _, tail = json.dumps(payload, indent=2).rpartition("{}")
        head, tail = head + "{", ("\n    }" if report.timelines else "}") + tail + "\n"
        fmt = (
            JSON_CHUNK_WINDOWS, ",",
            lambda ip, runs: (f"\n      {json.dumps(str(ip))}: [", "\n      ]" if runs else "]"),
            partial(_json_windows, ns.window),
        )
    else:
        head = (
            f"flow-level evaluation\n  flows: {labels.total()} (malicious {labels[MALICIOUS]}, "
            f"unknown excluded {labels[UNKNOWN]}, unlabeled {labels[EMPTY_PAIR[0]]})\n{_score_text(report.flow)}"
            f"ip-level evaluation (window {ns.window:g}s, threshold {ns.threshold})\n"
        )
        tail = _score_text(report.ip)
        fmt = (
            TEXT_CHUNK_WINDOWS, "",
            lambda ip, runs: (f"  {ip}:" if runs else f"  {ip}: ", "\n"),
            lambda first, length, truth, predicted: _MARKS[truth, predicted] * length,
        )
    sys.stdout.write(head)
    _write_timelines(sys.stdout.write, report.timelines, *fmt)
    sys.stdout.write(tail)
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
    parser = argparse.ArgumentParser(prog="zeeklabel", description="Label Zeek conn.log flows from a rule config, "
                                     "propagate the labels to the other Zeek logs, and evaluate detections "
                                     "against them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="label a conn.log with a rule config")
    p.add_argument("conn", help="conn.log to label (TSV or JSON lines)")
    p.add_argument("--config", required=True, help="rule configuration file")
    p.add_argument("--output", help="output path (default: adds .labeled)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("propagate", help="copy conn.log labels onto the other logs by uid")
    p.add_argument("conn_labeled", help="labeled conn.log")
    p.add_argument("log_dir", help="directory holding the other Zeek logs")
    p.add_argument("--output", help="output directory (default: log_dir)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("eval", help="score detections against flow labels")
    p.add_argument("conn_labeled", help="labeled conn.log (ground truth)")
    p.add_argument("detections", help="detections as JSON lines")
    p.add_argument("--window", type=float, default=3600.0, help="window seconds (default 3600)")
    p.add_argument("--threshold", type=int, default=1,
                   help="minimum evidence flows for a detection to count (default 1)")
    p.add_argument("--cutoff", type=float, default=None, help="only score flows starting at or before this epoch time")
    p.add_argument("--max-windows", type=int, default=MAX_WINDOWS,
                   help=f"refuse a report of more (IP, window) decisions (default {MAX_WINDOWS})")
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
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s", stream=sys.stderr)
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LogFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# the import's objects live as long as the process: left out of every collection, none lands inside a command
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
