"""The flow-matching rule language.

A rule is a header line ``Label, detailed-label:`` followed by one or more
condition lines starting with ``-``. Conditions on one line are ANDed
(``and`` or ``&``); the lines of a rule are ORed. Columns are the classic
netflow dozen (Date, start, Duration, Proto, srcIP, srcPort, dstIP, dstPort,
State, Tos, Packets, Bytes), read from conn.log records as
:class:`zeeklabel.zeekio.ConnSchema` reads them.

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
:class:`zeeklabel.zeekio.Flow` is the plain reading of the same semantics.
"""

from __future__ import annotations

import datetime
import ipaddress
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import CodeType
from typing import Callable

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
from .zeekio import Flow, ZeekHeader, _address, _to_float, _to_int, _utc_date, field_getter

# column -> value kind; ordering operators apply to the non-string kinds
COLUMNS: dict[str, str] = {
    "Date": "date",
    "start": "epoch",
    "Duration": "number",
    "Proto": "string",
    "srcIP": "ip",
    "srcPort": "number",
    "dstIP": "ip",
    "dstPort": "number",
    "State": "string",
    "Tos": "number",
    "Packets": "number",
    "Bytes": "number",
}

_ORDERINGS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}
# columns whose "=" conditions index a RuleSet, the most selective first
_INDEXED_COLUMNS = ("srcIP", "dstIP", "dstPort", "Proto")

_CONDITION_RE = re.compile(r"^(\w+)\s*(<=|>=|<|>|=)\s*(\S+)$")
_SPLIT_RE = re.compile(r"(?i)\s+and\s+|\s*&\s*")


@dataclass(frozen=True)
class Condition:
    column: str
    op: str
    value: object

    @cached_property
    def key(self) -> object:
        """The value typed as :class:`zeeklabel.zeekio.Flow` reads the column."""
        if COLUMNS[self.column] == "string":
            return self.value.lower()  # type: ignore[attr-defined]
        if COLUMNS[self.column] == "ip":
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


@dataclass(frozen=True)
class ConditionGroup:
    """One rule line: the conjunction of its conditions."""

    conditions: tuple[Condition, ...]


@dataclass(frozen=True)
class Rule:
    assignment: LabelAssignment
    groups: tuple[ConditionGroup, ...]
    label_text: str
    detail_text: str
    source_line: int = field(default=0, compare=False)

    @property
    def label_pair(self) -> tuple[str, str]:
        return (self.label_text, self.detail_text)


@dataclass(frozen=True)
class RuleSet:
    """Rules in file order; earlier rules win when several match."""

    rules: tuple[Rule, ...]

    def __len__(self) -> int:
        return len(self.rules)

    def classifier(self, header: ZeekHeader, fmt: str) -> Callable[[list[str] | dict], int]:
        """A function from a record to the number of the first rule it matches, ``len(self)`` if none.

        Built once per conn.log header: the records are what
        :meth:`zeeklabel.zeekio.ZeekLogReader.records` yields for ``header``
        and ``fmt``, and each is read as :class:`zeeklabel.zeekio.ConnSchema`
        reads it.
        """
        return _Compiler(header, fmt).classifier(self.rules)


# rule column -> (its conn.log fields, converter of a set cell's text), as
# zeekio.ConnSchema reads it; Packets and Bytes add two counters, unset as 0
_SOURCES: dict[str, tuple[tuple[str, ...], Callable[[str], object]]] = {
    "Date": (("ts",), lambda text: _utc_date(_to_float(text))),
    "start": (("ts",), _to_float),
    "Duration": (("duration",), _to_float),
    "Proto": (("proto",), str.lower),
    "srcIP": (("id.orig_h",), _address),
    "srcPort": (("id.orig_p",), _to_int),
    "dstIP": (("id.resp_h",), _address),
    "dstPort": (("id.resp_p",), _to_int),
    "State": (("conn_state",), str.lower),
    "Tos": (("tos",), _to_int),
    "Packets": (("orig_pkts", "resp_pkts"), _to_int),
    "Bytes": (("orig_bytes", "resp_bytes"), _to_int),
}
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
    the exec namespace. Lines of one shape share one compiled factory.
    """

    def __init__(self, header: ZeekHeader, fmt: str) -> None:
        self.json = fmt == "json"
        self.unset = "t is None" if self.json else "t in null"
        self.null = frozenset((header.unset_field, header.empty_field, ""))
        self.ns: dict[str, object] = {"null": self.null}
        self.ns.update((f"to_{column}", conv) for column, (_, conv) in _SOURCES.items())
        for names, _ in _SOURCES.values():
            for name in names:
                where = field_getter(header, fmt, name) if self.json else header.index_of(name)
                if where is not None:  # a TSV header may lack the field
                    self.ns[_ident(name)] = where

    def present(self, column: str) -> bool:
        return _ident(_SOURCES[column][0][0]) in self.ns

    def fetch(self, field: str) -> str:
        """A statement that sets ``t`` to the field's text, which ``self.unset`` tests."""
        return f"t = {_ident(field)}(r)" if self.json else f"t = r[{_ident(field)}]"

    def convert(self, column: str) -> str:
        """The column's value of the set text ``t``; IPv4 text is kept as written."""
        if COLUMNS[column] == "ip":
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
            fields, _ = _SOURCES[column]
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

    def classifier(self, rules: tuple[Rule, ...]) -> Callable[[list[str] | dict], int]:
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
            fields, to = _SOURCES[column]
            key = self.convert(column)
            # a TSV cell needs no unset test when no null text converts to a key
            if self.json or any(to(text) in table for text in self.null):
                key = f"None if {self.unset} else {key}"
            source.append(f"    {self.fetch(fields[0])}\n    e = k_{column}.get({key})\n{_SCAN}")
        if keyless:
            self.ns["keyless"] = tuple(keyless)
            source.append(f"    e = keyless\n{_SCAN}")
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
    kind = COLUMNS[column]
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
