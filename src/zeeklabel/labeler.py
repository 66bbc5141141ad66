"""Applying a RuleSet to conn.log flows and indexing the result by UID.

Rules are tried in file order and the first match wins, so specific rules
belong above general ones in the config. Flows no rule matches get the
``(empty)`` pair rather than a verdict; absence of evidence is not Benign.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable

from .errors import LogFormatError, UsageError
from .rules import RuleSet
from .zeekio import LABEL_FIELDS, ConnSchema, Flow, ZeekLogReader, ZeekLogTable
from .zeekio import field_getter, replace_all_on_success, write_labeled

logger = logging.getLogger(__name__)

EMPTY_LABEL = "(empty)"
EMPTY_PAIR = (EMPTY_LABEL, EMPTY_LABEL)

LabelPair = tuple[str, str]


def apply_rules(ruleset: RuleSet, flow: Flow) -> LabelPair:
    """The label pair of the first rule that matches the flow, else (empty)."""
    rule = ruleset.first_match(flow)
    return EMPTY_PAIR if rule is None else rule.label_pair


def _pair_function(
    ruleset: RuleSet, log: ZeekLogReader | ZeekLogTable
) -> Callable[[list[str] | dict], LabelPair]:
    """The label pair of one record of ``log``, a conn.log."""
    schema = ConnSchema(log.header, log.format)
    return lambda record: apply_rules(ruleset, Flow(record, schema))


def label_conn(table: ZeekLogTable, ruleset: RuleSet) -> list[LabelPair]:
    """One (label, detailed_label) pair per record, in record order."""
    if "uid" not in table.header.fields:
        raise LogFormatError("flow table has no uid field")
    return list(map(_pair_function(ruleset, table), table.records))


def label_file(conn_path: str | Path, ruleset: RuleSet, out_path: str | Path) -> dict[LabelPair, int]:
    """Stream a conn.log into its labeled copy at ``out_path``; rows per label pair.

    The copy appears only once complete, and only if the log has a uid column.
    """
    with open(conn_path, encoding="utf-8") as src, replace_all_on_success() as open_output:
        reader = ZeekLogReader(src, str(conn_path))
        with open_output(Path(out_path)) as dst:
            counts = write_labeled(dst, reader, reader.records(), _pair_function(ruleset, reader))
        # after the stream, before the move: a JSON log's fields are complete only now
        if "uid" not in reader.header.fields:
            raise LogFormatError(f"{conn_path}: flow table has no uid field")
    return counts


class UidIndex(dict):
    """uid -> (label, detailed_label); first writer of a uid wins.

    ``get`` returns None for absent uids, which is distinct from a present
    uid that carries the ``(empty)`` pair. Equal pairs share one tuple.
    """

    duplicates = 0
    skipped_unset = 0


def index_from_labeled_rows(reader: ZeekLogReader) -> UidIndex:
    """Index a labeled conn.log stream by uid.

    Rows with an unset uid cannot be joined against and are skipped with a
    warning; duplicate uids keep their first labels. An unset label cell
    reads as ``(empty)``.
    """
    header = reader.header
    uid_of, label_of, detail_of = (
        field_getter(header, reader.format, name) for name in ("uid", *LABEL_FIELDS)
    )
    index = UidIndex()
    add = index.setdefault
    pairs = {EMPTY_PAIR: EMPTY_PAIR}
    intern = pairs.setdefault
    rows = unset = 0
    for record in reader.records():
        uid = uid_of(record)
        if uid is None:
            unset += 1
            continue
        rows += 1
        pair = (label_of(record) or EMPTY_LABEL, detail_of(record) or EMPTY_LABEL)
        add(uid, intern(pair, pair))
    # after the stream: bad rows are reported first, and JSON keys are complete
    if not all(name in header.fields for name in LABEL_FIELDS):
        raise UsageError(
            "labeled conn.log has no label/detailed_label columns; run "
            "'label' before 'propagate'"
        )
    index.skipped_unset = unset
    index.duplicates = rows - len(index)
    _warn_index(index)
    return index


def _warn_index(index: UidIndex) -> None:
    if index.skipped_unset:
        logger.warning(
            "%d conn rows had no uid and were left out of the index",
            index.skipped_unset,
        )
    if index.duplicates:
        logger.warning(
            "%d duplicate uids in conn.log; kept the first labels for each",
            index.duplicates,
        )
