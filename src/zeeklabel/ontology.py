"""Label ontology: seven ordered levels and the detailed-label string form.

Level 1 (``label``) is the mandatory verdict. Levels 2-7 are optional detail:
source, destination, technique, sub-technique, process, app-protocol. The
first three levels are fixed vocabularies; the last four start empty and are
populated from the config file. Detail items never contain ``-`` because the
rendered detailed label joins them with dashes, and they are unique across
levels 2-7 so a rendered string parses back without positional bookkeeping.
"""

from __future__ import annotations

import re
from typing import Mapping

from .config import SECTION_ONTOLOGY, split_sections
from .errors import ConfigError
from .values import Frozen

LEVEL_NAMES = (
    "label",
    "source",
    "destination",
    "technique",
    "sub-technique",
    "process",
    "app-protocol",
)
DETAIL_LEVELS = LEVEL_NAMES[1:]

EMPTY_DETAIL = "(empty)"

_LEVEL_ALIASES = {"app-process": "process"}
# the label level is fixed: a config can add no verdict
LABEL_ITEMS = BENIGN, MALICIOUS, UNKNOWN = ("Benign", "Malicious", "Unknown")
_BUILTIN_ITEMS: dict[str, tuple[str, ...]] = {
    "label": LABEL_ITEMS,
    "source": ("From_malicious", "From_benign"),
    "destination": ("To_malicious", "To_benign"),
}
_IDENT_RE = re.compile(r"^[A-Za-z0-9_.]+$")


def canonical_level(name: str) -> str | None:
    """Map a level name (or accepted alias) to its canonical form."""
    resolved = _LEVEL_ALIASES.get(name, name)
    return resolved if resolved in LEVEL_NAMES else None


class LevelSpec(Frozen):
    def __init__(self, name: str, mandatory: bool, extensible: bool, items: tuple[str, ...]) -> None:
        self._set(name=name, mandatory=mandatory, extensible=extensible, items=items)


class OntologySpec(Frozen):
    """The full level/item vocabulary a config file is validated against; no detail item is in two levels."""

    def __init__(self, levels: tuple[LevelSpec, ...]) -> None:
        seen: dict[str, str] = {}
        for lvl in levels[1:]:
            for item in lvl.items:
                if (first := seen.setdefault(item, lvl.name)) != lvl.name:
                    raise ConfigError(f"item '{item}' appears in both '{first}' and '{lvl.name}'; "
                                      "detail items must be unique across levels")
        self._set(levels=levels)

    def level(self, name: str) -> LevelSpec:
        canon = canonical_level(name)
        for lvl in self.levels:
            if lvl.name == canon:
                return lvl
        raise KeyError(name)

    def level_of_item(self, item: str) -> str | None:
        """The name of the detail level (2-7) holding ``item``, or None."""
        return next((lvl.name for lvl in self.levels[1:] if item in lvl.items), None)


class LabelAssignment(Frozen):
    """One verdict plus its optional per-level detail items.

    Detail keys are canonicalized on construction so ``app-process`` and
    ``process`` refer to the same slot.
    """

    def __init__(self, label: str, detail: Mapping[str, str] | None = None) -> None:
        canon = {_LEVEL_ALIASES.get(k, k): v for k, v in (detail or {}).items()}
        self._set(label=label, detail=canon)


def load_ontology(config_text: str) -> OntologySpec:
    """Build an OntologySpec from a config file's ontology section.

    Ontology lines look like ``technique: Discovery, Initial_access``. The
    fixed levels (label/source/destination) may re-list their built-in items
    but cannot gain new ones. Items may not repeat within a level, nor a
    detail item appear in two levels (:class:`OntologySpec` refuses it).
    """
    items: dict[str, list[str]] = {
        name: list(_BUILTIN_ITEMS.get(name, ())) for name in LEVEL_NAMES
    }
    for lineno, line in split_sections(config_text)[SECTION_ONTOLOGY]:
        body = line.strip()
        if ":" not in body:
            raise ConfigError(
                f"line {lineno}: expected 'level: Item, Item, ...' in ontology section"
            )
        raw_name, _, rest = body.partition(":")
        name = canonical_level(raw_name.strip())
        if name is None:
            raise ConfigError(
                f"line {lineno}: unknown ontology level '{raw_name.strip()}'"
            )
        for token in rest.split(","):
            item = token.strip()
            if not item:
                continue
            if not _IDENT_RE.match(item):
                raise ConfigError(
                    f"line {lineno}: invalid item '{item}' (letters, digits, "
                    f"'_' and '.' only; '-' is reserved for joining)"
                )
            if name in _BUILTIN_ITEMS:
                if item in items[name]:
                    continue
                raise ConfigError(
                    f"line {lineno}: level '{name}' is fixed and cannot take "
                    f"new item '{item}'"
                )
            if item in items[name]:
                raise ConfigError(
                    f"line {lineno}: duplicate item '{item}' in level '{name}'"
                )
            items[name].append(item)

    levels = tuple(
        LevelSpec(
            name=name,
            mandatory=name == "label",
            extensible=name not in _BUILTIN_ITEMS,
            items=tuple(items[name]),
        )
        for name in LEVEL_NAMES
    )
    return OntologySpec(levels)


def validate_assignment(assignment: LabelAssignment, spec: OntologySpec) -> list[str]:
    """Return a list of violations; an empty list means the assignment is valid.

    Validation is total: it never raises on bad input, it describes it.
    """
    problems: list[str] = []
    label_level = spec.level("label")
    if assignment.label not in label_level.items:
        problems.append(
            f"label '{assignment.label}' is not one of {', '.join(label_level.items)}"
        )
    for raw_name, item in assignment.detail.items():
        name = canonical_level(raw_name)
        if name is None or name == "label":
            problems.append(f"'{raw_name}' is not a detail level")
            continue
        if item not in spec.level(name).items:
            problems.append(f"level '{name}': unknown item '{item}'")
    if "sub-technique" in assignment.detail and "technique" not in assignment.detail:
        problems.append("sub-technique requires a technique")
    return problems


def render_detailed_label(assignment: LabelAssignment) -> str:
    """Join the present detail items in level order; no detail -> '(empty)'."""
    parts = [
        assignment.detail[name] for name in DETAIL_LEVELS if name in assignment.detail
    ]
    return "-".join(parts) if parts else EMPTY_DETAIL


def parse_detailed_label(text: str, spec: OntologySpec) -> dict[str, str]:
    """Resolve a dash-joined detail string back to {level: item}.

    Items carry their own identity (global uniqueness across levels 2-7), so
    tokens may appear in any order. ``(empty)`` parses to no detail.
    """
    if text == EMPTY_DETAIL:
        return {}
    detail: dict[str, str] = {}
    for token in text.split("-"):
        if not token:
            raise ConfigError(f"empty item in detailed label '{text}'")
        name = spec.level_of_item(token)
        if name is None:
            raise ConfigError(f"unknown detail item '{token}'")
        if name in detail:
            raise ConfigError(
                f"level '{name}' appears twice in detailed label '{text}'"
            )
        detail[name] = token
    return detail
