"""Applying a RuleSet to conn.log flows and indexing the result by UID.

Rules are tried in file order and the first match wins, so specific rules
belong above general ones in the config. Flows no rule matches get the
``(empty)`` pair rather than a verdict; absence of evidence is not Benign.
"""

from __future__ import annotations

import logging
from typing import Iterable, Iterator

from .errors import UsageError
from .rules import RuleSet
from .zeekio import LABEL_FIELDS, ConnSchema, Flow, Row, ZeekHeader, ZeekLogTable, row_field

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
    return [apply_rules(ruleset, schema.view(row)) for row in table.iter_rows()]


class UidIndex:
    """uid -> (label, detailed_label); first writer of a uid wins.

    ``get`` returns None for absent uids, which is distinct from a present
    uid that carries the ``(empty)`` pair.
    """

    def __init__(self) -> None:
        self._map: dict[str, LabelPair] = {}
        self.duplicates = 0
        self.skipped_unset = 0

    def add(self, uid: str, pair: LabelPair) -> None:
        if uid in self._map:
            self.duplicates += 1
            return
        self._map[uid] = pair

    def get(self, uid: str) -> LabelPair | None:
        return self._map.get(uid)

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, uid: str) -> bool:
        return uid in self._map


def build_uid_index(
    table: ZeekLogTable, assignments: list[LabelPair]
) -> UidIndex:
    """Index labeled conn rows by uid.

    Rows with an unset uid cannot be joined against and are skipped with a
    warning; duplicate uids keep their first labels.
    """
    if len(assignments) != len(table.records):
        raise UsageError(
            f"{len(assignments)} label pairs for {len(table.records)} records"
        )
    index = UidIndex()
    header = table.header
    for row, pair in zip(table.iter_rows(), assignments):
        uid = row_field(row, header, "uid")
        if uid is None:
            index.skipped_unset += 1
            continue
        index.add(uid, pair)
    _warn_index(index)
    return index


def labels_of_table(table: ZeekLogTable) -> list[LabelPair]:
    """Read back the label columns of an already-labeled table."""
    label_idx = table.header.index_of(LABEL_FIELDS[0])
    detail_idx = table.header.index_of(LABEL_FIELDS[1])
    if label_idx is None or detail_idx is None:
        raise UsageError(
            "table has no label/detailed_label columns; label it first"
        )
    return [(cells[label_idx], cells[detail_idx]) for cells in table.records]


def index_from_labeled_rows(
    header: ZeekHeader, rows: Iterable[Row] | Iterator[Row]
) -> UidIndex:
    """Build a UidIndex from a labeled conn.log stream."""
    if not all(name in header.fields for name in LABEL_FIELDS):
        raise UsageError(
            "labeled conn.log has no label/detailed_label columns; run "
            "'label' before 'propagate'"
        )
    index = UidIndex()
    for row in rows:
        uid = row_field(row, header, "uid")
        if uid is None:
            index.skipped_unset += 1
            continue
        label = row_field(row, header, LABEL_FIELDS[0])
        detail = row_field(row, header, LABEL_FIELDS[1])
        index.add(
            uid,
            (
                EMPTY_LABEL if label is None else label,
                EMPTY_LABEL if detail is None else detail,
            ),
        )
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
