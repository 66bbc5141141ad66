"""The flow-matching rule language.

A rule is a header line ``Label, detailed-label:`` followed by one or more
condition lines starting with ``-``. Conditions on one line are ANDed
(``and`` or ``&``); the lines of a rule are ORed. Columns are the classic
netflow dozen (Date, start, Duration, Proto, srcIP, srcPort, dstIP, dstPort,
State, Tos, Packets, Bytes) evaluated against conn.log records through
:class:`zeeklabel.zeekio.Flow`.

Values are typed at parse time: ports/counters as numbers, IPs as addresses
(exact addresses only, no CIDR), Date as a calendar date, start as epoch
seconds. Ordering operators are limited to numeric and temporal columns;
``=`` works everywhere and compares Proto/State case-insensitively and IPs
as addresses, so IPv6 spelling variants are equal.

Conditions compile once into predicates over a flow. A RuleSet files each
condition line under one of its ``=`` conditions on srcIP, dstIP, dstPort
or Proto (tuple space search, Srinivasan, Suri & Varghese, SIGCOMM 1999), so
a flow is tested only against the lines filed under its own values and the
lines with no such condition; the lowest matching rule number wins.
"""

from __future__ import annotations

import datetime
import ipaddress
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:
    from .zeekio import Flow

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
    def test(self) -> Callable[["Flow"], bool]:
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

    @cached_property
    def _index(self) -> tuple[list, list]:
        # ([(column, {key: entries})], keyless entries); an entry is
        # (rule number, predicate for the rest of the line), in rule order
        buckets: dict[str, dict[object, list]] = {c: {} for c in _INDEXED_COLUMNS}
        keyless: list = []
        for number, rule in enumerate(self.rules):
            for group in rule.groups:
                keys = [c for c in group.conditions if c.op == "=" and c.column in buckets]
                key = min(keys, key=lambda c: _INDEXED_COLUMNS.index(c.column), default=None)
                entries = keyless if key is None else buckets[key.column].setdefault(key.key, [])
                entries.append((number, _all_of([c for c in group.conditions if c is not key])))
        return [(c, b) for c, b in buckets.items() if b], keyless

    def first_match(self, flow: "Flow") -> Rule | None:
        """The first rule in file order that matches the flow, if any."""
        keyed, keyless = self._index
        best = len(self.rules)
        for entries in [b.get(flow.value(c), ()) for c, b in keyed] + [keyless]:
            for number, test in entries:  # in rule order, so stop at the first hit
                if number >= best:
                    break
                if test(flow):
                    best = number
                    break
        return self.rules[best] if best < len(self.rules) else None


def _all_of(conditions) -> Callable[["Flow"], bool]:
    """The conjunction of the conditions' predicates; True when there are none."""
    if not conditions:
        return lambda flow: True
    first = conditions[0].test
    if len(conditions) == 1:
        return first
    rest = _all_of(conditions[1:])
    return lambda flow: first(flow) and rest(flow)


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


def match_rule(rule: Rule, flow: "Flow") -> bool:
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
