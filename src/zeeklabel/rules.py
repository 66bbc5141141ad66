"""The flow-matching rule language.

A rule is a header line ``Label, detailed-label:`` followed by one or more
condition lines starting with ``-``. Conditions on one line are ANDed
(``and`` or ``&``); the lines of a rule are ORed. Columns are the classic
netflow dozen (Date, start, Duration, Proto, srcIP, srcPort, dstIP, dstPort,
State, Tos, Packets, Bytes). :data:`COLUMNS` defines each column's reading:
its value kind, the conn.log fields it reads and the converter of their
text. :class:`ConnSchema` reads a record by it, and so does the classifier.

Values are typed at parse time: ports/counters as numbers, IPs as addresses
(exact addresses only, no CIDR), Date as a calendar date, start as epoch
seconds. Ordering operators are limited to numeric and temporal columns;
``=`` works everywhere and compares Proto/State case-insensitively and IPs
as addresses, so IPv6 spelling variants are equal.

:meth:`RuleSet.classifier` compiles the rule set once per conn.log header
into one function from a record to the number of its first matching rule,
as a packet filter is compiled against the packet layout (McCanne &
Jacobson, "The BSD Packet Filter", USENIX Winter 1993). It files each
condition line under one of its ``=`` conditions on srcIP, dstIP, dstPort
or Proto (tuple space search, Srinivasan, Suri & Varghese, SIGCOMM 1999),
reads those four key cells straight from the record, and tests a record only
against the lines filed under its own values and the lines with no such
condition, each line a generated test that converts just the cells it
needs; the lowest matching rule number wins. :func:`match_rule` over a
:class:`Flow` is the plain reading of the same semantics.
"""

from __future__ import annotations

import datetime
import ipaddress
import operator
import re
from functools import cached_property, lru_cache
from types import CodeType
from typing import Callable, NamedTuple

from .config import SECTION_RULES, split_sections
from .errors import ConfigError
from .ontology import (
    LabelAssignment,
    OntologySpec,
    load_ontology,
    parse_detailed_label,
    render_detailed_label,
    validate_assignment,
)
from .values import Frozen
from .zeekio import ZeekHeader, _projection, _to_float, field_getter


def _to_int(text: str) -> int | None:
    # int() first keeps counters past 2**53 exact; int(float()) takes "80.0" and "1e3"
    try:
        return int(text)
    except ValueError:
        try:
            return int(float(text))
        except (ValueError, OverflowError):
            return None


def _address(text: str) -> str | None:
    # IPv4 text is kept as written: ipaddress accepts only the canonical
    # dotted quad, so no other spelling can equal a rule's address anyway
    if ":" not in text:
        return text
    try:
        return str(ipaddress.ip_address(text))
    except ValueError:
        return None


def _utc_date(text: str) -> datetime.date | None:
    try:
        return datetime.datetime.fromtimestamp(float(text), tz=datetime.timezone.utc).date()
    except (OverflowError, OSError, ValueError):
        return None


class Column(NamedTuple):
    """How a rule column reads a conn.log record."""

    kind: str  # ordering operators apply to the kinds other than string and ip
    fields: tuple[str, ...]  # two fields are the halves of a sum, an unset half counting as 0
    convert: Callable[[str], object]  # a set field's text to the value, None if it does not parse


COLUMNS: dict[str, Column] = {
    "Date": Column("date", ("ts",), _utc_date),
    "start": Column("epoch", ("ts",), _to_float),
    "Duration": Column("number", ("duration",), _to_float),
    "Proto": Column("string", ("proto",), str.lower),
    "srcIP": Column("ip", ("id.orig_h",), _address),
    "srcPort": Column("number", ("id.orig_p",), _to_int),
    "dstIP": Column("ip", ("id.resp_h",), _address),
    "dstPort": Column("number", ("id.resp_p",), _to_int),
    "State": Column("string", ("conn_state",), str.lower),
    "Tos": Column("number", ("tos",), _to_int),
    "Packets": Column("number", ("orig_pkts", "resp_pkts"), _to_int),
    "Bytes": Column("number", ("orig_bytes", "resp_bytes"), _to_int),
}


class Flow(dict):
    """One conn.log record as a memo of its rule-column values.

    ``value(column)`` (or ``flow[column]``) reads a rule column's typed value
    through its schema's per-header reader on first use and keeps it, so each
    column is converted at most once per row however many conditions test it.
    None means unset: the cell is unset or absent or does not parse as its
    type. Packets/Bytes count unset halves as 0, so a partially logged flow
    still has a volume. Date is the UTC date of ``start``. Proto and State are
    lowercased, IPs are address text in canonical form.
    """

    __slots__ = ("_record", "_schema")

    def __init__(self, record: str | dict, schema: ConnSchema) -> None:
        self._record = record
        self._schema = schema

    def __missing__(self, column: str):
        value = self[column] = self._schema.readers[column](self._record)
        return value

    value = dict.__getitem__


class ConnSchema:
    """The rule columns of one conn.log layout, each resolved once to a reader.

    ``readers[column]`` maps a record of ``header`` and ``fmt`` to the column's
    typed value: its fields' text from :func:`zeeklabel.zeekio.field_getter`,
    converted as ``COLUMNS`` says. So a JSON value reads as the text Zeek's
    TSV writer prints for it.
    """

    def __init__(self, header: ZeekHeader, fmt: str) -> None:
        def read(name: str, convert: Callable) -> Callable:
            get = field_getter(header, fmt, name)
            return lambda record: None if (text := get(record)) is None else convert(text)

        def total(orig: Callable, resp: Callable) -> Callable:
            return lambda record: (orig(record) or 0) + (resp(record) or 0)

        self.readers: dict[str, Callable[[str | dict], object]] = {}
        for column, (_, fields, convert) in COLUMNS.items():
            halves = [read(name, convert) for name in fields]
            self.readers[column] = halves[0] if len(halves) == 1 else total(*halves)

    def view(self, record: str | dict) -> Flow:
        return Flow(record, self)


_ORDERINGS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}
# columns whose "=" conditions index a RuleSet, the most selective first
_INDEXED_COLUMNS = ("srcIP", "dstIP", "dstPort", "Proto")

_CONDITION_RE = re.compile(r"^(\w+)\s*(<=|>=|<|>|=)\s*(\S+)$")
_SPLIT_RE = re.compile(r"(?i)\s+and\s+|\s*&\s*")


class Condition(Frozen):
    def __init__(self, column: str, op: str, value: object) -> None:
        self._set(column=column, op=op, value=value)

    @cached_property
    def key(self) -> object:
        """The value typed as :class:`Flow` reads the column."""
        kind = COLUMNS[self.column].kind
        if kind == "string":
            return self.value.lower()  # type: ignore[attr-defined]
        if kind == "ip":
            return str(self.value)
        return self.value

    @cached_property
    def test(self) -> Callable[[Flow], bool]:
        """This condition as a predicate over a flow; unset never matches."""
        column, want = self.column, self.key
        if self.op == "=":
            return lambda flow: flow.value(column) == want
        compare = _ORDERINGS[self.op]
        return lambda flow: (have := flow.value(column)) is not None and compare(have, want)


class ConditionGroup(Frozen):
    """One rule line: the conjunction of its conditions."""

    def __init__(self, conditions: tuple[Condition, ...]) -> None:
        self._set(conditions=conditions)


class Rule(Frozen):
    _fields = ("assignment", "groups", "label_text", "detail_text")  # not source_line: a re-rendered rule is equal

    def __init__(self, assignment: LabelAssignment, groups: tuple[ConditionGroup, ...], label_text: str,
                 detail_text: str, source_line: int = 0) -> None:
        self._set(assignment=assignment, groups=groups, label_text=label_text, detail_text=detail_text,
                  source_line=source_line)

    @property
    def label_pair(self) -> tuple[str, str]:
        return (self.label_text, self.detail_text)


class RuleSet(Frozen):
    """Rules in file order; earlier rules win when several match."""

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        self._set(rules=rules)

    def __len__(self) -> int:
        return len(self.rules)

    def classifier(self, header: ZeekHeader, fmt: str) -> Callable[[str | dict], int]:
        """A function from a record to the number of the first rule it matches, ``len(self)`` if none.

        Built once per conn.log header: the records are those of the blocks
        :meth:`zeeklabel.zeekio.ZeekLogReader.blocks` yields for ``header``
        and ``fmt``, and each is read as :class:`ConnSchema` reads it.
        """
        return _Compiler(header, fmt).classifier(self.rules)


_PY_OPS = {"=": "==", "<": "<", ">": ">", "<=": "<=", ">=": ">="}
_SCAN = """\
    if e:
        for n, f in e:
            if n >= best: break
            if f is None or f(r):
                best = n
                break
"""


class _Compiler:
    """A RuleSet's classifier for one conn.log layout, as Python source run by ``exec``.

    The source text comes only from the tables above, whose keys are the only
    columns and operators a parsed rule has. A config value enters as a
    parameter of the factory that makes a line's test; a cell index (TSV) or
    ``field_getter`` (JSON), a converter and a bucket table as a name bound in
    the exec namespace. Lines of one shape share one compiled factory. A TSV
    line is split once, only as far as the fields the tests fetch.
    """

    def __init__(self, header: ZeekHeader, fmt: str) -> None:
        self.header = header
        self.used: dict[str, int] = {}  # the TSV fields fetched, by cell index
        self.json = fmt == "json"
        self.unset = "t is None" if self.json else "t in null"
        self.null = frozenset((header.unset_field, header.empty_field, ""))
        self.ns: dict[str, object] = {"null": self.null}
        self.ns.update((f"to_{name}", column.convert) for name, column in COLUMNS.items())
        for column in COLUMNS.values():
            for name in column.fields:
                where = field_getter(header, fmt, name) if self.json else header.index_of(name)
                if where is not None:  # a TSV header may lack the field
                    self.ns[_ident(name)] = where

    def present(self, column: str) -> bool:
        return _ident(COLUMNS[column].fields[0]) in self.ns

    def fetch(self, field: str) -> str:
        """A statement that sets ``t`` to the field's text, which ``self.unset`` tests."""
        if self.json:
            return f"t = {_ident(field)}(r)"
        self.used.setdefault(_ident(field), self.ns[_ident(field)])
        return f"t = r[{_ident(field)}]"

    def convert(self, column: str) -> str:
        """The column's value of the set text ``t``; IPv4 text is kept as written."""
        if COLUMNS[column].kind == "ip":
            return f't if ":" not in t else to_{column}(t)'
        return f"to_{column}(t)"

    def test(self, conditions: list[Condition]) -> Callable[[list[str] | dict], bool] | None:
        """A test that a record meets every condition; each column is converted once.

        None when a condition's column is absent from the header, as such a
        line never matches.
        """
        values: list[object] = []
        body: list[str] = []
        by_column: dict[str, list[Condition]] = {}
        for c in conditions:
            by_column.setdefault(c.column, []).append(c)
        for column, conds in by_column.items():
            compare = []
            for c in conds:
                compare.append(f"v {_PY_OPS[c.op]} w{len(values)}")
                values.append(c.key)
            compare = " and ".join(compare)
            fields = COLUMNS[column].fields
            if len(fields) == 2:  # a volume: the sum of its set halves
                body.append("v = 0")
                for field in fields:
                    if _ident(field) in self.ns:
                        body += [self.fetch(field), f"if not ({self.unset}): v += {self.convert(column)} or 0"]
                body.append(f"if not ({compare}): return False")
            elif self.present(column):
                body += [
                    self.fetch(fields[0]),
                    f"if {self.unset}: return False",
                    f"v = {self.convert(column)}",
                    f"if v is None or not ({compare}): return False",
                ]
            else:
                return None
        params = ", ".join(f"w{k}" for k in range(len(values)))
        source = "".join(
            [f"def make({params}):\n    def test(r):\n"]
            + [f"        {line}\n" for line in body]
            + ["        return True\n    return test\n"]
        )
        exec(_compiled(source), self.ns)
        return self.ns.pop("make")(*values)

    def classifier(self, rules: tuple[Rule, ...]) -> Callable[[str | dict], int]:
        # tuple space search: each line is filed under one of its "=" conditions
        # on an indexed column, the first in _INDEXED_COLUMNS order, or as keyless
        buckets: dict[str, dict[object, list]] = {c: {} for c in _INDEXED_COLUMNS}
        keyless: list = []
        for number, rule in enumerate(rules):
            for group in rule.groups:
                keys = [c for c in group.conditions if c.op == "=" and c.column in buckets]
                key = min(keys, key=lambda c: _INDEXED_COLUMNS.index(c.column), default=None)
                if key is not None and not self.present(key.column):
                    continue
                rest = [c for c in group.conditions if c is not key]
                test = self.test(rest) if rest else None
                if rest and test is None:
                    continue
                entries = keyless if key is None else buckets[key.column].setdefault(key.key, [])
                entries.append((number, test))

        source = ["def classify(r):\n    best = none\n"]
        self.ns["none"] = len(rules)
        for column, found in buckets.items():
            if not found:
                continue
            table = self.ns[f"k_{column}"] = {key: tuple(entries) for key, entries in found.items()}
            _, fields, to = COLUMNS[column]
            key = self.convert(column)
            # a TSV cell needs no unset test when no null text converts to a key
            if self.json or any(to(text) in table for text in self.null):
                key = f"None if {self.unset} else {key}"
            source.append(f"    {self.fetch(fields[0])}\n    e = k_{column}.get({key})\n{_SCAN}")
        if keyless:
            self.ns["keyless"] = tuple(keyless)
            source.append(f"    e = keyless\n{_SCAN}")
        if self.used:  # each fetched field's index becomes its place in the split
            self.ns["split"], self.ns["maxsplit"], at = _projection(self.header, list(self.used.values()))
            self.ns.update(zip(self.used, at), sep=self.header.separator)
            source.insert(1, "    r = split(r, sep, maxsplit)\n")
        exec(_compiled("".join(source + ["    return best\n"])), self.ns)
        return self.ns["classify"]


@lru_cache(maxsize=1024)
def _compiled(source: str) -> CodeType:
    """The code of generated source; lines of one shape share it."""
    return compile(source, "<classifier>", "exec")


def _ident(field: str) -> str:
    """The name a conn.log field's cell index or getter is bound to."""
    return field.replace(".", "_")


def _parse_value(column: str, op: str, text: str, lineno: int) -> object:
    kind = COLUMNS[column].kind
    if kind == "string":
        if op != "=":
            raise ConfigError(
                f"line {lineno}: ordering operator '{op}' is not defined for "
                f"string column '{column}'"
            )
        return text
    if kind == "ip":
        if op != "=":
            raise ConfigError(
                f"line {lineno}: ordering operator '{op}' is not defined for "
                f"address column '{column}'"
            )
        if "/" in text:
            raise ConfigError(
                f"line {lineno}: CIDR ranges are not supported; give an exact "
                f"address instead of '{text}'"
            )
        try:
            return ipaddress.ip_address(text)
        except ValueError:
            raise ConfigError(f"line {lineno}: '{text}' is not an IP address") from None
    if kind == "date":
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: Date expects YYYY-MM-DD, got '{text}'"
            ) from None
    # number / epoch
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: column '{column}' expects a number, got '{text}'"
        ) from None


def _parse_condition(text: str, lineno: int) -> Condition:
    m = _CONDITION_RE.match(text.strip())
    if not m:
        raise ConfigError(
            f"line {lineno}: expected 'column op value', got '{text.strip()}'"
        )
    column, op, value_text = m.groups()
    if column not in COLUMNS:
        raise ConfigError(
            f"line {lineno}: unknown column '{column}' (choose from "
            f"{', '.join(COLUMNS)})"
        )
    return Condition(column, op, _parse_value(column, op, value_text, lineno))


def _parse_group(text: str, lineno: int) -> ConditionGroup:
    pieces = _SPLIT_RE.split(text)
    if any(not p.strip() for p in pieces):
        raise ConfigError(f"line {lineno}: dangling conjunction in '{text.strip()}'")
    return ConditionGroup(tuple(_parse_condition(p, lineno) for p in pieces))


def parse_ruleset(text: str, spec: OntologySpec) -> RuleSet:
    """Parse the rules section of a config against a loaded ontology.

    ``text`` may be a full config file (sections are honored) or bare rule
    lines. Headers are validated against the ontology immediately, so a
    RuleSet that parses is a RuleSet that labels.
    """
    rules: list[Rule] = []
    header: tuple[LabelAssignment, str, str, int] | None = None
    groups: list[ConditionGroup] = []

    def finish() -> None:
        nonlocal header, groups
        if header is None:
            return
        assignment, label_text, detail_text, lineno = header
        if not groups:
            raise ConfigError(f"line {lineno}: rule '{label_text}, {detail_text}:' has no condition lines")
        rules.append(
            Rule(assignment, tuple(groups), label_text, detail_text, lineno)
        )
        header = None
        groups = []

    for lineno, line in split_sections(text)[SECTION_RULES]:
        body = line.strip()
        if body.startswith("-"):
            if header is None:
                raise ConfigError(
                    f"line {lineno}: condition line appears before any rule header"
                )
            groups.append(_parse_group(body[1:], lineno))
            continue
        if not body.endswith(":"):
            raise ConfigError(
                f"line {lineno}: expected a 'label, detailed-label:' header or "
                f"a '- condition' line"
            )
        finish()
        head = body[:-1]
        if "," not in head:
            raise ConfigError(
                f"line {lineno}: rule header needs 'label, detailed-label', got '{head}'"
            )
        label_text, _, detail_text = head.partition(",")
        label_text = label_text.strip()
        detail_text = detail_text.strip()
        try:
            detail = parse_detailed_label(detail_text, spec)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        assignment = LabelAssignment(label_text, detail)
        problems = validate_assignment(assignment, spec)
        if problems:
            raise ConfigError(f"line {lineno}: " + "; ".join(problems))
        # re-render so the stored detail string is canonical level order
        header = (assignment, label_text, render_detailed_label(assignment), lineno)
    finish()
    return RuleSet(tuple(rules))


def load_config(text: str) -> tuple[OntologySpec, RuleSet]:
    """Load a combined config file: ontology section plus rules section."""
    spec = load_ontology(text)
    return spec, parse_ruleset(text, spec)


def match_rule(rule: Rule, flow: Flow) -> bool:
    """True iff any condition line matches in full."""
    return any(all(c.test(flow) for c in group.conditions) for group in rule.groups)


def _render_value(cond: Condition) -> str:
    if isinstance(cond.value, datetime.date):
        return cond.value.isoformat()
    return str(cond.value)


def render_ruleset(ruleset: RuleSet) -> str:
    """Render back to config text that parses to an equal RuleSet."""
    lines: list[str] = []
    for rule in ruleset.rules:
        lines.append(f"{rule.label_text}, {rule.detail_text}:")
        for group in rule.groups:
            rendered = " and ".join(
                f"{c.column}{c.op}{_render_value(c)}" for c in group.conditions
            )
            lines.append(f"    - {rendered}")
    return "\n".join(lines) + ("\n" if lines else "")
