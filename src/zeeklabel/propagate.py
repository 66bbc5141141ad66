"""Carrying conn.log labels to the other Zeek logs.

Most logs share conn.log's uid, so their rows take the labels of the flow
they belong to. Two logs need indirection: files.log points at its flows
through the ``conn_uids`` set, and x509.log is reachable only through
ssl.log (certificate id -> ssl cert chain -> ssl uid). When one row has
several parent flows the labels merge by severity: Malicious beats Unknown
beats Benign beats ``(empty)``, ties keeping the first candidate seen.

:func:`propagate_dir` runs the whole pipeline over a log directory. An
x509 log is known by its name or ``#path``; any other log's record finds its
flows through the columns (TSV) or keys (JSON lines) it has.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import LogFormatError
from .labeler import EMPTY_PAIR, LabelPair, UidIndex, index_from_labeled_rows
from .zeekio import ZeekLogReader, field_getter, first_getter, replace_all_on_success, set_getter, write_labeled
from .zeekio import logger as zeekio_logger

logger = logging.getLogger(__name__)

_RANK = {"Malicious": 3, "Unknown": 2, "Benign": 1}

# accepted spellings of the join fields across Zeek versions
SSL_CHAIN_FIELDS = ("cert_chain_fuids", "cert_chain_fps")
X509_ID_FIELDS = ("id", "fingerprint")


def _rank(pair: LabelPair | None) -> int:
    if pair is None:
        return 0
    return _RANK.get(pair[0], 0)


def merge_labels(candidates: list[LabelPair | None]) -> LabelPair:
    """Pick the most severe candidate pair; None entries count as (empty)."""
    best: LabelPair | None = None
    best_rank = -1
    for candidate in candidates:
        rank = _rank(candidate)
        if rank > best_rank:
            best = candidate
            best_rank = rank
    if best is None:
        return EMPTY_PAIR
    return best


def accumulate_cert_labels(
    reader: ZeekLogReader, index: UidIndex, mapping: dict[str, LabelPair]
) -> None:
    """Fold ssl rows into a certificate-id -> merged-labels mapping."""
    header = reader.header
    uid_of = field_getter(header, reader.format, "uid")
    chain_of = first_getter(header, reader.format, SSL_CHAIN_FIELDS, set_getter)
    for record in reader.records():
        uid = uid_of(record)
        pair = (index.get(uid) if uid is not None else None) or EMPTY_PAIR
        for fid in chain_of(record) or ():
            current = mapping.get(fid)
            if current is None or _rank(pair) > _rank(current):
                mapping[fid] = pair
    # after the stream: bad rows are reported first, and JSON keys are complete
    if not any(name in header.fields for name in SSL_CHAIN_FIELDS):
        raise LogFormatError(
            f"{reader.source}: ssl log has no certificate chain field "
            f"({' or '.join(SSL_CHAIN_FIELDS)})"
        )


def _pair_function(
    x509: bool, reader: ZeekLogReader, index: UidIndex, cert_map: dict[str, LabelPair]
) -> Callable[[list[str] | dict], LabelPair]:
    """The labels of one record of ``reader``'s log.

    An x509 record takes its certificate's labels. Any other record takes
    those of its ``conn_uids`` when it has that column or key, else of its
    ``uid``, else of its ``uids``; an unset ``uid`` falls back to ``uids``.
    """
    header, fmt = reader.header, reader.format
    if x509:
        fid_of = first_getter(header, fmt, X509_ID_FIELDS)
        cert_get = cert_map.get
        return lambda record: cert_get(fid_of(record), EMPTY_PAIR)
    get = index.get
    conn_uids_of = first_getter(header, fmt, ("conn_uids",), set_getter)
    uid_of = field_getter(header, fmt, "uid")
    uids_of = set_getter(header, fmt, "uids")

    def lookup(record):
        uids = conn_uids_of(record)
        if uids is None:
            uid = uid_of(record)
            if uid is not None:
                return get(uid) or EMPTY_PAIR
            uids = uids_of(record)
        return merge_labels([get(u) for u in uids]) if uids else EMPTY_PAIR

    return lookup


@dataclass
class LogReport:
    """What propagation did to one log."""

    name: str
    route: str
    rows: int
    labeled: int
    output: Path


@dataclass
class PropagateReport:
    """The uid index's counts, and one entry per log in the order written."""

    index_uids: int
    index_duplicates: int
    index_skipped_unset: int
    logs: list[LogReport] = field(default_factory=list)


def propagate_dir(
    conn_labeled: str | Path, log_dir: str | Path, out_dir: str | Path
) -> PropagateReport:
    """Label every other ``*.log`` in ``log_dir`` from a labeled conn.log.

    Each output is ``<stem>.labeled.log`` in ``out_dir`` (created if
    missing), written in name order to a temp file. The outputs are moved
    into place only after the last one is complete, so a run that fails
    leaves none of them, and no directory it created. Every log's header is
    read, and the ssl certificate map built, before ``out_dir`` is created
    and the first output is written.
    """
    conn_labeled, log_dir, out_dir = Path(conn_labeled), Path(log_dir), Path(out_dir)
    with open(conn_labeled, encoding="utf-8") as src:
        index = index_from_labeled_rows(ZeekLogReader(src, str(conn_labeled)))

    # a log's header is read by the directory scan and again when the log is
    # labeled, an ssl log's also for the certificate map: a repeated column
    # is reported once per log
    seen: set[str] = set()

    def first_time(record: logging.LogRecord) -> bool:
        message = record.getMessage()
        fresh = message not in seen
        seen.add(message)
        return fresh

    zeekio_logger.addFilter(first_time)
    try:
        conn_resolved = conn_labeled.resolve()
        source = conn_labeled.name.replace(".labeled", "")
        logs: dict[Path, bool] = {}  # every log to label -> whether it is an x509 log
        for path in sorted(log_dir.iterdir()):
            if not (
                path.is_file()
                and path.name.endswith(".log")
                and ".labeled" not in path.name
                and path.resolve() != conn_resolved
            ):
                continue
            with open(path, encoding="utf-8") as fh:
                header = ZeekLogReader(fh, str(path)).header
            stem = path.name.split(".", 1)[0]
            if stem == "conn" or header.path == "conn":
                # a flow log is where labels come from, not a propagation target
                if path.name == source:
                    logger.info("%s is the label source; skipping", path.name)
                else:
                    logger.warning("%s is a conn log but not %s, the label source; skipping", path.name, source)
            else:
                logs[path] = stem == "x509" or header.path == "x509"

        cert_map: dict[str, LabelPair] = {}
        if any(logs.values()):
            ssl_paths = [p for p, x509 in logs.items() if not x509 and p.name.split(".", 1)[0] == "ssl"]
            if not ssl_paths:
                logger.warning(
                    "x509 log present but no ssl.log found; certificates will be "
                    "labeled (empty)"
                )
            for ssl_path in ssl_paths:
                with open(ssl_path, encoding="utf-8") as fh:
                    accumulate_cert_labels(ZeekLogReader(fh, str(ssl_path)), index, cert_map)

        report = PropagateReport(len(index), index.duplicates, index.skipped_unset)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            with replace_all_on_success() as open_output:
                for path, x509 in logs.items():
                    out_path = out_dir / (path.name[: -len(".log")] + ".labeled.log")
                    with open(path, encoding="utf-8") as src, open_output(out_path) as dst:
                        reader = ZeekLogReader(src, str(path))
                        pair_of = _pair_function(x509, reader, index, cert_map)
                        counts = write_labeled(dst, reader, reader.records(), pair_of)
                    # the route a JSON log took is known only once all its keys are
                    fields = reader.header.fields
                    route = (
                        "x509" if x509
                        else "files" if "conn_uids" in fields
                        else "uid" if "uid" in fields or "uids" in fields
                        else "none"
                    )
                    if route == "none":
                        logger.warning("%s has no uid linkage; passing rows through as (empty)", path.name)
                    rows = sum(counts.values())
                    report.logs.append(LogReport(path.name, route, rows, rows - counts.get(EMPTY_PAIR, 0), out_path))
        except BaseException:
            for d in made:  # deepest first; a directory that existed before stays
                with contextlib.suppress(OSError):
                    d.rmdir()
            raise
        return report
    finally:
        zeekio_logger.removeFilter(first_time)
