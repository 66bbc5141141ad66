"""Applying a RuleSet to conn.log flows and indexing the result by UID.

Rules are tried in file order and the first match wins, so specific rules
belong above general ones in the config. Flows no rule matches get the
``(empty)`` pair rather than a verdict; absence of evidence is not Benign.
"""

from __future__ import annotations

import logging
from collections import Counter
from itertools import compress
from operator import not_
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .errors import LogFormatError, UsageError
from .ontology import EMPTY_DETAIL as EMPTY_LABEL, LABEL_ITEMS
from .rules import RuleSet
from .zeekio import LABEL_FIELDS, ZeekLogReader, ZeekLogTable, cells_getter, in_halves, nulls, replace_all_on_success
from .zeekio import write_labeled

logger = logging.getLogger(__name__)

EMPTY_PAIR = (EMPTY_LABEL, EMPTY_LABEL)

LabelPair = tuple[str, str]


def _pairs_function(ruleset: RuleSet, log: ZeekLogReader | ZeekLogTable) -> Callable[[list], list[LabelPair]]:
    """The label pairs of a block of ``log``'s records, a conn.log's: each one's first matching rule's, else (empty)."""
    pairs = [rule.label_pair for rule in ruleset.rules] + [EMPTY_PAIR]
    classify = ruleset.classifier(log.header, log.format)
    return lambda block: list(map(pairs.__getitem__, map(classify, block)))


def label_conn(table: ZeekLogTable, ruleset: RuleSet) -> list[LabelPair]:
    """One (label, detailed_label) pair per record, in record order."""
    if "uid" not in table.header.fields:
        raise LogFormatError("flow table has no uid field")
    return _pairs_function(ruleset, table)(list(table.iter_rows()))


def label_file(conn_path: str | Path, ruleset: RuleSet, out_path: str | Path) -> dict[LabelPair, int]:
    """Stream a conn.log into its labeled copy at ``out_path``; rows per label pair.

    The copy appears only once complete, and only if the log has a uid column.
    Through :func:`zeekio.in_halves`: from zeekio.FORK_MIN_BYTES, on two CPUs, a forked child labels the lines past
    the middle into a part file appended to the copy, as one process would. The uid check reads the fields once the
    halves joined, so its error is final.
    """
    return in_halves("label", conn_path, _label, ruleset, out_path)


def _label(ruleset: RuleSet, out_path: str | Path, reader: ZeekLogReader, halves: Callable) -> dict[LabelPair, int]:
    """Label the log through ``halves``: each half's rows per pair, added up."""
    pairs_of = _pairs_function(ruleset, reader)
    label = lambda dst: write_labeled(dst, reader, reader.blocks(), pairs_of)  # noqa: E731
    join = lambda mine, theirs: dict(Counter(mine) + Counter(theirs))  # noqa: E731
    with replace_all_on_success() as open_output:
        with open_output(Path(out_path)) as dst:
            counts = halves(label, join, dst)
        # after the stream, before the move: a JSON log's fields are complete only now
        if "uid" not in reader.header.fields:
            raise LogFormatError(f"{reader.source}: flow table has no uid field")
    return counts


class UidIndex(dict):
    """uid -> (label, detailed_label); first writer of a uid wins.

    ``get`` returns None for absent uids, which is distinct from a present
    uid that carries the ``(empty)`` pair. Equal pairs share one tuple.
    """

    duplicates = 0
    skipped_unset = 0


def index_from_labeled_rows(reader: ZeekLogReader, halves: Callable = lambda half, join, send: half(None)) -> UidIndex:
    """Index a labeled conn.log stream by uid, through ``halves`` as :func:`zeekio.in_halves` gives it.

    Rows with an unset uid cannot be joined against and are skipped with a warning; duplicate uids keep their
    first labels. An unset label cell reads as ``(empty)``. A log without a ``uid`` column is an error.
    """
    header = reader.header
    uids_of = cells_getter(header, reader.format, ("uid",))
    labels_of = cells_getter(header, reader.format, LABEL_FIELDS)
    null = nulls(header)

    def half(_) -> tuple:
        index = UidIndex()
        pairs = {EMPTY_PAIR: EMPTY_PAIR}
        intern = pairs.setdefault
        read: dict[tuple, LabelPair] = {}  # label cells as read -> their pair

        def pair_of(cells: tuple) -> LabelPair:
            pair = read.get(cells)
            if pair is None:
                pair = tuple(EMPTY_LABEL if text in null else text for text in cells)
                pair = read[cells] = intern(pair, pair)
            return pair

        rows = unset = 0
        for block in reader.blocks():
            uids, labels = uids_of(block), labels_of(block)
            if not null.isdisjoint(uids):  # the rows of an unset uid are left out
                left_out = list(map(null.__contains__, uids))
                unset += left_out.count(True)
                uids, labels = (list(compress(cells, map(not_, left_out))) for cells in (uids, labels))
            found = list(map(read.get, labels))
            _add_run(index, uids, list(map(pair_of, labels)) if None in found else found)
            rows += len(uids)
        return index, pairs, rows, unset

    def send(theirs: tuple) -> Iterator[tuple]:  # the child's pairs and counts, then runs of uids and pair numbers
        index, pairs, rows, unset = theirs
        yield list(pairs), rows, unset
        number = {pair: i for i, pair in enumerate(pairs)}
        uids, numbers = list(index), list(map(number.__getitem__, index.values()))
        yield from ((uids[at : at + 4096], numbers[at : at + 4096]) for at in range(0, len(uids), 4096))

    def join(mine: tuple, theirs: Iterator[tuple]) -> tuple:
        (index, pairs, rows, unset), (their_pairs, their_rows, their_unset) = mine, next(theirs)
        same = [pairs.setdefault(pair, pair) for pair in their_pairs]  # each pair one of this process's tuples
        for uids, numbers in theirs:  # the child's uids after this process's, loaded a run at a time
            _add_run(index, uids, list(map(same.__getitem__, numbers)))
        return index, pairs, rows + their_rows, unset + their_unset

    index, pairs, rows, unset = halves(half, join, send=send)
    # after the stream: bad rows are reported first, and JSON keys are complete
    if not all(name in header.fields for name in LABEL_FIELDS):
        raise UsageError("labeled conn.log has no label/detailed_label columns; run 'label' before 'propagate'")
    if "uid" not in header.fields:
        raise LogFormatError(f"{reader.source}: flow table has no uid field")
    for pair in pairs:  # a JSON escape can spell a lone surrogate, which no output can hold
        for text in pair:
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:
                    raise LogFormatError(
                        f"{reader.source}: label {text!r} holds an unpaired surrogate escape") from None
    index.skipped_unset = unset
    index.duplicates = rows - len(index)
    if unset:
        logger.warning("%d conn rows had no uid and were left out of the index", unset)
    if index.duplicates:
        logger.warning("%d duplicate uids in conn.log; kept the first labels for each", index.duplicates)
    # per distinct pair: the uids are counted only when a label is foreign
    foreign = {label for label, _ in pairs if label not in LABEL_ITEMS and label != EMPTY_LABEL}
    if foreign:
        warn_foreign_labels(Counter(label for label, _ in index.values() if label in foreign), "uids")
    return index


def _add_run(index: UidIndex, uids: list[str], pairs: list[LabelPair]) -> None:
    """Add ``uids`` with their ``pairs`` after the index's own, with no Python loop per uid; a uid held already, or
    met twice in the run, keeps its first labels."""
    run = dict(zip(uids, pairs))
    if len(run) < len(uids):
        run.update(zip(reversed(uids), reversed(pairs)))
    kept = {uid: index[uid] for uid in index.keys() & run}
    index.update(run)
    index.update(kept)


def warn_foreign_labels(counts: Mapping[str, int], unit: str) -> None:
    """Warn once for each label in ``counts`` outside the ontology's label level.

    Such a value (a misspelled or foreign verdict) is kept as written, never
    case-folded, but nothing ranks or scores it as a verdict.
    """
    for label, count in counts.items():
        if label not in LABEL_ITEMS and label != EMPTY_LABEL:
            logger.warning("%d %s carry the label %r, which is none of %s or %s",
                           count, unit, label, ", ".join(LABEL_ITEMS), EMPTY_LABEL)
