"""Carrying conn.log labels to the other Zeek logs.

Most logs share conn.log's uid, so their rows take the labels of the flow
they belong to. Two logs need indirection: files.log points at its flows
through the ``conn_uids`` set, and x509.log is reachable only through
ssl.log (certificate id -> ssl cert chain -> ssl uid). When one row has
several parent flows the labels merge by severity: Malicious beats Unknown
beats Benign beats ``(empty)``, ties keeping the first candidate seen.

:func:`propagate_dir` runs the whole pipeline over a log directory. Each
log's route is chosen once from its header, and with it the function that
labels one record of that log.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import LogFormatError
from .labeler import EMPTY_PAIR, LabelPair, UidIndex, index_from_labeled_rows
from .zeekio import ZeekHeader, ZeekLogReader, ZeekLogWriter, field_getter, replace_all_on_success, set_getter

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


def _field_alias(header: ZeekHeader, names: tuple[str, ...]) -> str | None:
    for name in names:
        if name in header.fields:
            return name
    return None


def accumulate_cert_labels(
    reader: ZeekLogReader, index: UidIndex, mapping: dict[str, LabelPair]
) -> None:
    """Fold ssl rows into a certificate-id -> merged-labels mapping."""
    header = reader.header
    chain_field = _field_alias(header, SSL_CHAIN_FIELDS)
    if chain_field is None:
        raise LogFormatError(
            f"{reader.source}: ssl log has no certificate chain field "
            f"({' or '.join(SSL_CHAIN_FIELDS)})"
        )
    uid_of = field_getter(header, reader.format, "uid")
    chain_of = set_getter(header, reader.format, chain_field)
    for record in reader.records():
        uid = uid_of(record)
        pair = (index.get(uid) if uid is not None else None) or EMPTY_PAIR
        for fid in chain_of(record):
            current = mapping.get(fid)
            if current is None or _rank(pair) > _rank(current):
                mapping[fid] = pair


def _route_for(path: Path, header: ZeekHeader) -> str:
    """How a log's rows find their flows: conn, files, x509, uid or none."""
    stem = path.name.split(".", 1)[0]
    if stem == "conn" or header.path == "conn":
        return "conn"
    if "conn_uids" in header.fields:
        return "files"
    if stem == "x509" or header.path == "x509":
        return "x509"
    if "uid" in header.fields or "uids" in header.fields:
        return "uid"
    return "none"


def _pair_function(
    route: str, reader: ZeekLogReader, index: UidIndex, cert_map: dict[str, LabelPair]
) -> Callable[[list[str] | dict], LabelPair]:
    """The labels of one record of ``reader``'s log, for its route."""
    header, fmt = reader.header, reader.format
    get = index.get
    if route == "uid":
        uid_of = field_getter(header, fmt, "uid")
        uids_of = set_getter(header, fmt, "uids")

        def by_uid(record):
            uid = uid_of(record)
            if uid is not None:
                return get(uid) or EMPTY_PAIR
            uids = uids_of(record)
            return merge_labels([get(u) for u in uids]) if uids else EMPTY_PAIR

        return by_uid
    if route == "files":
        conn_uids_of = set_getter(header, fmt, "conn_uids")

        def by_conn_uids(record):
            uids = conn_uids_of(record)
            return merge_labels([get(u) for u in uids]) if uids else EMPTY_PAIR

        return by_conn_uids
    id_field = _field_alias(header, X509_ID_FIELDS) if route == "x509" else None
    if id_field is not None:
        fid_of = field_getter(header, fmt, id_field)
        cert_get = cert_map.get

        def by_certificate(record):
            fid = fid_of(record)
            return EMPTY_PAIR if fid is None else cert_get(fid, EMPTY_PAIR)

        return by_certificate
    return lambda record: EMPTY_PAIR


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
    leaves none of them. Every log's header is read, and the ssl certificate
    map built, before the first output is written.
    """
    conn_labeled, log_dir, out_dir = Path(conn_labeled), Path(log_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(conn_labeled, encoding="utf-8") as src:
        index = index_from_labeled_rows(ZeekLogReader(src, str(conn_labeled)))

    conn_resolved = conn_labeled.resolve()
    routes: dict[Path, str] = {}
    for path in sorted(log_dir.iterdir()):
        if not (
            path.is_file()
            and path.name.endswith(".log")
            and ".labeled" not in path.name
            and path.resolve() != conn_resolved
        ):
            continue
        with open(path, encoding="utf-8") as fh:
            route = _route_for(path, ZeekLogReader(fh, str(path)).header)
        if route == "conn":
            # the flow log is where the labels come from, not a propagation target
            logger.info("%s is the label source; skipping", path.name)
        else:
            routes[path] = route

    cert_map: dict[str, LabelPair] = {}
    if "x509" in routes.values():
        ssl_paths = [
            p for p, route in routes.items() if route == "uid" and p.name.split(".", 1)[0] == "ssl"
        ]
        if not ssl_paths:
            logger.warning(
                "x509 log present but no ssl.log found; certificates will be "
                "labeled (empty)"
            )
        for ssl_path in ssl_paths:
            with open(ssl_path, encoding="utf-8") as fh:
                accumulate_cert_labels(ZeekLogReader(fh, str(ssl_path)), index, cert_map)

    report = PropagateReport(len(index), index.duplicates, index.skipped_unset)
    with replace_all_on_success() as open_output:
        for path, route in routes.items():
            out_path = out_dir / (path.name[: -len(".log")] + ".labeled.log")
            if route == "none":
                logger.warning("%s has no uid linkage; passing rows through as (empty)", path.name)
            with open(path, encoding="utf-8") as src, open_output(out_path) as dst:
                reader = ZeekLogReader(src, str(path))
                writer = ZeekLogWriter(dst, reader.header, reader.format)
                counts = writer.write_rows(reader.records(), _pair_function(route, reader, index, cert_map))
                writer.finish(reader.trailer)
            rows = sum(counts.values())
            report.logs.append(LogReport(path.name, route, rows, rows - counts.get(EMPTY_PAIR, 0), out_path))
    return report
