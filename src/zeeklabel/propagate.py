"""Carrying conn.log labels to the other Zeek logs.

Most logs share conn.log's uid, so their rows take the labels of the flow
they belong to. Two logs need indirection: files.log points at its flows
through the ``conn_uids`` set, and x509.log is reachable only through
ssl.log (certificate id -> ssl cert chain -> ssl uid). When one row has
several parent flows the labels merge by severity: Malicious beats Unknown
beats Benign beats ``(empty)``, ties keeping the first candidate seen.

:func:`propagate_dir` runs the whole pipeline over a log directory and
labels each log in one pass. The ssl logs go first: the labels each ssl row is
written with, merged by severity, fill the certificate map, so the map is
complete before any x509 log is read. An x509 log is known by its name or
``#path``; any other log's record finds its flows through the columns (TSV)
or keys (JSON lines) it has.
"""

from __future__ import annotations

import contextlib
import logging
from itertools import repeat
from pathlib import Path
from typing import Callable

from .errors import LogFormatError, UsageError
from .labeler import EMPTY_PAIR, LabelPair, UidIndex, index_from_labeled_rows
from .ontology import BENIGN, MALICIOUS, UNKNOWN
from .values import Value
from .zeekio import ZeekHeader, ZeekLogReader, can_fork, first_getter, held_back, in_halves, in_two_processes
from .zeekio import labeled_name, nulls, release, replace_all_on_success, write_labeled

logger = logging.getLogger(__name__)

_RANK = {MALICIOUS: 3, UNKNOWN: 2, BENIGN: 1}

# a log's weight in the split between two processes: its bytes, a JSON-lines log's times JSON_BYTE_COST, what
# one costs per byte against TSV: on the bench propagate input, dns.log takes 1.3x the time per byte of http.log
# and files.log together (1.7x http.log's, 0.85x files.log's)
JSON_BYTE_COST = 1.3
# the uid index's work per byte against label's: it forks from 1 MiB, where two processes begin to pay
INDEX_BYTE_COST = 3 / 4
NO_SSL_WARNING = "x509 log present but no ssl.log found; certificates will be labeled (empty)"

# accepted spellings of the join fields across Zeek versions
SSL_CHAIN_FIELDS = ("cert_chain_fuids", "cert_chain_fps")
X509_ID_FIELDS = ("id", "fingerprint")


def _rank(pair: LabelPair | None) -> int:
    return 0 if pair is None else _RANK.get(pair[0], 0)


def merge_labels(candidates: list[LabelPair | None]) -> LabelPair:
    """Pick the most severe candidate pair; None entries count as (empty)."""
    return max(candidates, key=_rank, default=None) or EMPTY_PAIR  # max keeps the first of a rank


def _keyed(header: ZeekHeader, keys_of: Callable, mapping: dict[str, LabelPair]) -> Callable[[list], list]:
    """The labels of a block's records: those of each one's key (``keys_of`` of the block) in ``mapping``, (empty)
    when it is unset or absent. Where a null text of the log is a key of ``mapping``, the keys are looked up in a
    copy without them."""
    null = nulls(header)
    get = mapping.get if mapping.keys().isdisjoint(null) else {key: mapping[key] for key in mapping.keys() - null}.get
    return lambda block: list(map(get, keys_of(block), repeat(EMPTY_PAIR)))


def _pairs_function(kind: str, reader: ZeekLogReader, index: UidIndex,
                    cert_map: dict[str, LabelPair]) -> Callable[[list], list[LabelPair]]:
    """The labels of each record of a block of ``reader``'s log, whose ``kind`` is ``x509``, ``ssl`` or other.

    An x509 record takes its certificate's labels. Any other record takes the merged labels of its ``conn_uids``
    when it has that column or key, else of its set ``uid``, else of its ``uids``; an ssl record's pair is also
    merged by severity into ``cert_map`` for each certificate of its chain. A TSV log's columns are chosen once; a
    JSON object is judged on its own keys.
    """
    header, fmt = reader.header, reader.format
    if kind == "x509":
        return _keyed(header, first_getter(header, fmt, X509_ID_FIELDS), cert_map)
    if kind == "ssl":
        flow_pairs_of = _pairs_function("other", reader, index, cert_map)
        chains_of = first_getter(header, fmt, SSL_CHAIN_FIELDS, members=True)

        def folded(block: list) -> list[LabelPair]:
            pairs = flow_pairs_of(block)
            for pair, fids in zip(pairs, chains_of(block)):
                if fids:
                    rank = _RANK.get(pair[0], 0)
                    for fid in fids:  # the first pair of the highest rank wins
                        current = cert_map.get(fid)
                        if current is None or rank > _RANK.get(current[0], 0):
                            cert_map[fid] = pair
            return pairs

        return folded
    uid_of = first_getter(header, fmt, ("uid",))
    if fmt == "tsv" and "conn_uids" not in header.fields and "uids" not in header.fields:
        return _keyed(header, uid_of, index)
    get, null = index.get, nulls(header)
    conn_uids_of = first_getter(header, fmt, ("conn_uids",), members=True)
    uids_of = first_getter(header, fmt, ("uids",), members=True)

    def pairs_of(block: list) -> list[LabelPair]:
        if fmt == "json":  # objects that all hold a set str uid, and no conn_uids key read so far: uids as read
            uids = list(map(dict.get, block, repeat("uid")))
            if set(map(type, uids)) == {str} and null.isdisjoint(uids) and "conn_uids" not in header.fields:
                return list(map(get, uids, repeat(EMPTY_PAIR)))
        return [merge_labels(list(map(get, ids if ids is not None else [uid] if uid not in null else more or [])))
                for ids, uid, more in zip(conn_uids_of(block), uid_of(block), uids_of(block))]

    return pairs_of


class LogReport(Value):
    """What propagation did to one log."""

    def __init__(self, name: str, route: str, rows: int, labeled: int, output: Path) -> None:
        self._set(name=name, route=route, rows=rows, labeled=labeled, output=output)


class PropagateReport(Value):
    """The uid index's counts, and one entry per log in the order written."""

    def __init__(self, index_uids: int, index_duplicates: int, index_skipped_unset: int,
                 logs: list[LogReport] | None = None) -> None:
        self._set(index_uids=index_uids, index_duplicates=index_duplicates, index_skipped_unset=index_skipped_unset,
                  logs=[] if logs is None else logs)


def propagate_dir(conn_labeled: str | Path, log_dir: str | Path, out_dir: str | Path) -> PropagateReport:
    """Label every other ``*.log`` in ``log_dir`` from a labeled conn.log.

    Each log is labeled in one pass: the ssl logs first, whose certificates
    take the labels each ssl row is written with, merged by severity, then the
    rest in name order, so an x509 log always finds the certificate map
    complete. Each output is ``<stem>.labeled.log`` in ``out_dir``, created
    (with its parents) before the first log is read, and is written to a temp
    file. The outputs are moved into place only after the last one is
    complete, so a run that fails leaves none of them, and no directory it
    created. The report lists the logs in name order.

    The uid index is built through :func:`zeekio.in_halves`, its bytes weighed by INDEX_BYTE_COST: from 1 MiB on
    two CPUs, a forked child indexes the lines past the middle of ``conn_labeled``. Then at most one forked child
    labels about half of the logs by weight, where :func:`zeekio.can_fork` allows for the bytes of those other
    than ``conn.*``; only then is each log's header read a second time, to weigh it. The ssl logs and the x509
    logs (by name or by ``#path``) always stay in this process, which alone holds the certificate map. The child
    writes the temp files that this process named and made before the fork. Outputs, messages, errors and
    all-or-nothing writes are those of one process.
    """
    conn_labeled, log_dir, out_dir = Path(conn_labeled), Path(log_dir), Path(out_dir)
    conn_resolved = conn_labeled.resolve()
    source = conn_labeled.name.replace(".labeled", "")
    stems = {
        path: path.name.split(".", 1)[0] for path in log_dir.iterdir()
        if path.is_file() and path.name.endswith(".log") and ".labeled" not in path.name
        and path.resolve() != conn_resolved
    }
    order = sorted(stems, key=lambda path: (stems[path] != "ssl", path.name))
    n_ssl = sum(stem == "ssl" for stem in stems.values())
    ssl_readers: list[ZeekLogReader] = []
    warned: list[Path] = []  # the x509 log that warned there was no ssl log
    cert_map: dict[str, LabelPair] = {}
    output_of = lambda path: out_dir / labeled_name(path.name)  # noqa: E731

    def kind_of(path: Path, reader: ZeekLogReader | None) -> str:
        """``conn`` or ``x509`` by the stem or ``#path`` of ``path``, else ``ssl`` by its stem, else ``other``."""
        names = (stems[path], reader and reader.header.path)
        return "conn" if "conn" in names else "x509" if "x509" in names else "ssl" if names[0] == "ssl" else "other"

    inputs = {conn_resolved: conn_labeled, **{path.resolve(): path for path in stems}}
    for path, stem in stems.items():  # an output that is an input would replace it; a conn log is not written
        if (hit := inputs.get(output_of(path).resolve())) is not None and stem != "conn":
            with contextlib.suppress(LogFormatError, OSError), open(path, encoding="utf-8") as src:
                if kind_of(path, ZeekLogReader(src, str(path))) == "conn":
                    continue
            raise UsageError(f"refusing to overwrite the input file {hit}")
    index = in_halves("propagate", conn_labeled, index_from_labeled_rows, cost=INDEX_BYTE_COST)
    report = PropagateReport(len(index), index.duplicates, index.skipped_unset)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]

    def label_log(path: Path) -> LogReport | None:
        # a conn log by its name is skipped unread, whatever it holds
        with open(path, encoding="utf-8") if stems[path] != "conn" else contextlib.nullcontext() as src:
            reader = src and ZeekLogReader(src, str(path))
            kind = kind_of(path, reader)
            if kind == "conn":
                # a flow log is where labels come from, not a propagation target
                if path.name == source:
                    logger.info("%s is the label source; skipping", path.name)
                else:
                    logger.warning("%s is a conn log but not %s, the label source; skipping", path.name, source)
                return None
            x509 = kind == "x509"
            if x509 and order.index(path) < n_ssl - 1:  # its certificate map would be partial
                raise LogFormatError(f"{path}: x509 log sorts before an ssl log; rename it (e.g. x509.log)")
            if x509 and not ssl_readers and not warned:  # only for the first x509 log
                warned.append(path)
                logger.warning(NO_SSL_WARNING)
            if kind == "ssl":
                ssl_readers.append(reader)
            with open_output(output_of(path)) as dst:
                counts = write_labeled(dst, reader, reader.blocks(), _pairs_function(kind, reader, index, cert_map))
        # the route a JSON log took is known only once all its keys are
        fields = reader.header.fields
        route = ("x509" if x509 else "files" if "conn_uids" in fields
                 else "uid" if "uid" in fields or "uids" in fields else "none")
        if route == "none":
            logger.warning("%s has no uid linkage; passing rows through as (empty)", path.name)
        elif x509 and not any(name in fields for name in X509_ID_FIELDS):
            logger.warning("%s has no certificate id field (%s); passing rows through as (empty)", path.name,
                           " or ".join(X509_ID_FIELDS))
        rows = sum(counts.values())
        return LogReport(path.name, route, rows, rows - counts.get(EMPTY_PAIR, 0), output_of(path))

    def survey(path: Path) -> tuple[float, bool] | None:
        """The weight of ``path`` in the split and whether it stays in this process; None for a conn log."""
        with open(path, encoding="utf-8") as src:
            reader = ZeekLogReader(src, str(path))
        kind = kind_of(path, reader)
        if kind == "conn":
            return None
        weight = path.stat().st_size * (JSON_BYTE_COST if reader.format == "json" else 1)
        return weight, kind in ("ssl", "x509")  # only this process holds a certificate map

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with replace_all_on_success() as open_output:
            outcomes = _in_two_processes(order, label_log, lambda path: open_output(output_of(path)).close(), survey)
            for path in order:
                # each log's messages, then its error, in read order however many processes ran
                records, log, error = outcomes.get(path) or held_back(label_log, path)
                release(records, None, error)
                if log is not None:
                    report.logs.append(log)
            # after the last log: a bad row of any log is reported first, and JSON keys are complete
            if any(log.route == "x509" for log in report.logs):
                for reader in ssl_readers:
                    if not any(name in reader.header.fields for name in SSL_CHAIN_FIELDS):
                        raise LogFormatError(f"{reader.source}: ssl log has no certificate chain field "
                                             f"({' or '.join(SSL_CHAIN_FIELDS)})")
    except BaseException:
        for d in made:  # deepest first; a directory that existed before stays
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    report.logs.sort(key=lambda log: log.name)
    return report


def _in_two_processes(
    paths: list[Path], label_log: Callable, create: Callable[[Path], None],
    survey: Callable[[Path], tuple[float, bool] | None],
) -> dict[Path, tuple]:
    """The outcomes of ``paths`` from this process and one forked child, or {} where a fork is not worth it.

    Where :func:`zeekio.can_fork` allows, ``survey`` reads each log, its messages and error held back for when
    it is labeled; a log it gives None, or that fails, is left to the caller. Before the fork, ``create`` makes the
    temp file of each log the child is to label; a log it fails for stays here. This process labels its own in order.
    """
    logs = [path for path in paths if not path.name.startswith("conn.")]  # skipped, no work
    if not can_fork(sum(path.stat().st_size for path in logs)):
        return {}
    surveyed = {path: found for path in logs if (found := held_back(survey, path)[1]) is not None}
    theirs, mine = [], [path for path, (_, stays) in surveyed.items() if stays]
    weight = lambda group: sum(surveyed[path][0] for path in group)  # noqa: E731
    for path in sorted(surveyed.keys() - set(mine), key=lambda path: (-surveyed[path][0], paths.index(path))):
        # largest first, to the lighter group
        (theirs if weight(theirs) <= weight(mine) and not held_back(create, path)[2] else mine).append(path)
    if not (theirs and mine):
        return {}
    # neither process stops at a failing log: which fails first in read order shows only at the end
    return in_two_processes(
        "propagate", lambda: ((path, held_back(label_log, path)) for path in theirs),
        lambda: {path: held_back(label_log, path) for path in sorted(mine, key=paths.index)},
        lambda items, outcomes: {**dict(items), **outcomes})
