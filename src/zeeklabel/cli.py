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
import json
import logging
import math
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable

try:  # the interpreter's own SHA-256, not hashlib's: hashlib maps OpenSSL's libcrypto, 3.5 MB more memory in every run
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:  # a build without them
        from hashlib import sha256

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
    digest = sha256(data).hexdigest()
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
_ROUTE_NOTES = {"uid": "", "files": " (via conn_uids)", "x509": " (via ssl.log)", "none": " (no uid field)",
                "empty": " (0 bytes)"}


def cmd_propagate(ns: argparse.Namespace) -> int:
    log_dir = Path(ns.log_dir)
    if not log_dir.is_dir():
        raise UsageError(f"{log_dir} is not a directory")
    report = propagate_dir(Path(ns.conn_labeled), log_dir, Path(ns.output) if ns.output else log_dir)
    for log in report.logs:
        where = "a certificate chain" if log.route == "x509" else "the index"
        unjoined = f", {log.unjoined} not in {where}" if log.unjoined else ""
        print(
            f"{log.name}: {log.rows} rows, {log.labeled} labeled, "
            f"{log.rows - log.labeled} (empty){_ROUTE_NOTES[log.route]}{unjoined} -> {log.output.name}"
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


# windows a report write holds at most: about 150 KB of --json or 3 KB of text, gathered by
# stdout's own buffer, so a report of any size takes no more memory than a small one
CHUNK_WINDOWS = 1024
# window starts a --json report spells once, when its span holds no more: about 1 MB of text, where a week
# of one-minute windows is 10,080; a longer span is spelled a piece at a time, so memory stays bounded
SPELLED_WINDOWS = 1 << 14

_MARKS = {key: " " + status for key, status in STATUS.items()}
# a window object of json.dumps(payload, indent=2), split around its window_start
_WINDOW_HEAD = '\n        {\n          "window_start": '
_WINDOW_TAILS = {
    (truth, predicted): f',\n          "truth": {json.dumps(truth)},\n          "predicted": '
    f'{json.dumps(predicted)},\n          "status": "{status}"\n        }}'
    for (truth, predicted), status in STATUS.items()
}


def _starts(window: float, first: int, length: int) -> list[str]:
    """The starts of ``length`` windows from window ``first`` on, as json.dumps spells them."""
    starts = map(window.__mul__, range(first, first + length))
    # the starts grow with the window, so only the ends can overflow to infinity
    finite = math.isfinite(first * window) and math.isfinite((first + length - 1) * window)
    return list(map(float.__repr__ if finite else json.dumps, starts))


def _json_windows(window: float, spelled: tuple[int, list[str]], first: int, length: int, truth: bool,
                  predicted: bool) -> str:
    """``length`` window objects from window ``first`` on, as the --json report spells them: their starts are a
    slice of ``spelled``, ``(lo, the starts from window lo on)``, where it holds them all, else spelled here."""
    lo, texts = spelled
    at = first - lo
    starts = texts[at : at + length] if 0 <= at <= len(texts) - length else _starts(window, first, length)
    tail = _WINDOW_TAILS[truth, predicted]
    return f"{_WINDOW_HEAD}{(tail + ',' + _WINDOW_HEAD).join(starts)}{tail}"


def _write_timelines(write: Callable, timelines: dict, joint: str, ends: Callable, spell: Callable) -> None:
    """Each IP's runs between its ``ends(ip, runs)``, a run cut into pieces of at most ``CHUNK_WINDOWS`` windows,
    one write each with the ends and joints before it: a piece is ``spell(first, length, truth, predicted)``, and
    ``joint`` goes between the IPs and between the pieces of one IP. The last IP's closing is a write of its own."""
    held = ""  # the ends of IPs and the joints between them, written with the next piece
    for i, (ip, runs) in enumerate(timelines.items()):
        opening, closing = ends(ip, runs)
        lead = held + joint * (i > 0) + opening
        for first, length, truth, predicted in runs:
            for start in range(first, first + length, CHUNK_WINDOWS):
                write(lead + spell(start, min(CHUNK_WINDOWS, first + length - start), truth, predicted))
                lead = joint
        held = closing if runs else lead + closing
    write(held)


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
        # every IP spans the same windows: their starts are spelled once, when there are not too many
        lo = min((runs[0].first_window for runs in report.timelines.values() if runs), default=0)
        end = max((runs[-1].first_window + runs[-1].length for runs in report.timelines.values() if runs), default=lo)
        spelled = (lo, _starts(ns.window, lo, end - lo) if end - lo <= SPELLED_WINDOWS else [])
        fmt = (
            ",",
            lambda ip, runs: (f"\n      {json.dumps(str(ip))}: [", "\n      ]" if runs else "]"),
            partial(_json_windows, ns.window, spelled),
        )
    else:
        head = (
            f"flow-level evaluation\n  flows: {labels.total()} (malicious {labels[MALICIOUS]}, "
            f"unknown excluded {labels[UNKNOWN]}, unlabeled {labels[EMPTY_PAIR[0]]})\n{_score_text(report.flow)}"
            f"ip-level evaluation (window {ns.window:g}s, threshold {ns.threshold})\n"
        )
        tail = _score_text(report.ip)
        fmt = (
            "",
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
