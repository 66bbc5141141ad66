"""Applying a RuleSet to conn.log flows and indexing the result by UID.

Rules are tried in file order and the first match wins, so specific rules
belong above general ones in the config. Flows no rule matches get the
``(empty)`` pair rather than a verdict; absence of evidence is not Benign.
"""

from __future__ import annotations

import logging

from .errors import UsageError
from .rules import RuleSet
from .zeekio import LABEL_FIELDS, ConnSchema, Flow, ZeekLogReader, ZeekLogTable, field_getter

logger = logging.getLogger(__name__)

EMPTY_LABEL = "(empty)"
EMPTY_PAIR = (EMPTY_LABEL, EMPTY_LABEL)

LabelPair = tuple[str, str]


def apply_rules(ruleset: RuleSet, flow: Flow) -> LabelPair:
    """The label pair of the first rule that matches the flow, else (empty)."""
    rule = ruleset.first_match(flow)
    return EMPTY_PAIR if rule is None else rule.label_pair


def label_conn(table: ZeekLogTable, ruleset: RuleSet) -> list[LabelPair]:
    """One (label, detailed_label) pair per record, in record order."""
    schema = ConnSchema(table.header, table.format)
    return [apply_rules(ruleset, Flow(record, schema)) for record in table.records]


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
    if not all(name in header.fields for name in LABEL_FIELDS):
        raise UsageError(
            "labeled conn.log has no label/detailed_label columns; run "
            "'label' before 'propagate'"
        )
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
