from __future__ import annotations

import random

import pytest

from zeeklabel.errors import ConfigError
from zeeklabel.ontology import (
    DETAIL_LEVELS,
    LEVEL_NAMES,
    LabelAssignment,
    LevelSpec,
    OntologySpec,
    canonical_level,
    load_ontology,
    parse_detailed_label,
    render_detailed_label,
    validate_assignment,
)

RICH_CONFIG = """
[ontology]
technique: Discovery, DoS, Command_and_control
sub-technique: Port_discovery, DDoS
process: Linux, Nmap
app-protocol: NTP, DNS
"""


def test_level_names_in_order():
    assert LEVEL_NAMES == (
        "label",
        "source",
        "destination",
        "technique",
        "sub-technique",
        "process",
        "app-protocol",
    )
    assert DETAIL_LEVELS == LEVEL_NAMES[1:]


def test_builtin_vocabulary():
    spec = load_ontology("")
    assert spec.level("label").items == ("Benign", "Malicious", "Unknown")
    assert spec.level("source").items == ("From_malicious", "From_benign")
    assert spec.level("destination").items == ("To_malicious", "To_benign")
    for name in ("technique", "sub-technique", "process", "app-protocol"):
        lvl = spec.level(name)
        assert lvl.items == ()
        assert lvl.extensible
    assert spec.level("label").mandatory
    assert not spec.level("source").mandatory
    assert not spec.level("label").extensible


def test_level_alias_app_process():
    assert canonical_level("app-process") == "process"
    assert canonical_level("process") == "process"
    assert canonical_level("bogus") is None
    spec = load_ontology("[ontology]\napp-process: Nmap\n")
    assert spec.level("process").items == ("Nmap",)


def test_load_ontology_extends_levels():
    spec = load_ontology(RICH_CONFIG)
    assert spec.level("technique").items == ("Discovery", "DoS", "Command_and_control")
    assert spec.level("app-protocol").items == ("NTP", "DNS")


def test_load_ontology_may_relist_builtin_items():
    spec = load_ontology("[ontology]\nlabel: Benign, Malicious\nsource: From_benign\n")
    assert spec.level("label").items == ("Benign", "Malicious", "Unknown")


def test_load_ontology_rejects_new_item_in_fixed_level():
    with pytest.raises(ConfigError, match="line 2.*fixed.*Suspicious"):
        load_ontology("[ontology]\nlabel: Suspicious\n")


def test_load_ontology_rejects_duplicate_within_level():
    with pytest.raises(ConfigError, match="duplicate item 'Nmap'"):
        load_ontology("[ontology]\nprocess: Nmap, Linux, Nmap\n")


def test_load_ontology_rejects_same_item_in_two_levels():
    with pytest.raises(ConfigError, match="'Nmap' appears in both"):
        load_ontology("[ontology]\ntechnique: Nmap\nprocess: Nmap\n")


@pytest.mark.parametrize("item", ["has space", "dash-ed", "semi;colon", "café"])
def test_load_ontology_rejects_bad_identifiers(item):
    with pytest.raises(ConfigError, match="invalid item"):
        load_ontology(f"[ontology]\ntechnique: {item}\n")


def test_load_ontology_accepts_dots_and_digits():
    spec = load_ontology("[ontology]\ntechnique: T1046, CVE_2014.9222\n")
    assert spec.level("technique").items == ("T1046", "CVE_2014.9222")


def test_load_ontology_rejects_unknown_level():
    with pytest.raises(ConfigError, match="unknown ontology level 'severity'"):
        load_ontology("[ontology]\nseverity: High\n")


def test_load_ontology_line_without_colon():
    with pytest.raises(ConfigError, match="line 2: expected 'level: Item"):
        load_ontology("[ontology]\njust some words\n")


def test_unknown_section_marker():
    with pytest.raises(ConfigError, match=r"unknown section \[labels\]"):
        load_ontology("[labels]\ntechnique: X\n")


def test_validate_assignment_ok():
    spec = load_ontology(RICH_CONFIG)
    a = LabelAssignment(
        "Malicious",
        {
            "source": "From_malicious",
            "destination": "To_benign",
            "technique": "Discovery",
            "sub-technique": "Port_discovery",
            "process": "Linux",
        },
    )
    assert validate_assignment(a, spec) == []


def test_validate_assignment_reports_all_problems():
    spec = load_ontology(RICH_CONFIG)
    a = LabelAssignment(
        "Odd", {"technique": "Nope", "sub-technique": "Port_discovery"}
    )
    problems = validate_assignment(a, spec)
    assert any("label 'Odd'" in p for p in problems)
    assert any("unknown item 'Nope'" in p for p in problems)


def test_validate_sub_technique_requires_technique():
    spec = load_ontology(RICH_CONFIG)
    a = LabelAssignment("Malicious", {"sub-technique": "DDoS"})
    assert validate_assignment(a, spec) == ["sub-technique requires a technique"]
    b = LabelAssignment("Malicious", {"technique": "DoS", "sub-technique": "DDoS"})
    assert validate_assignment(b, spec) == []


def test_assignment_detail_keys_canonicalized():
    a = LabelAssignment("Benign", {"app-process": "Nmap"})
    assert a.detail == {"process": "Nmap"}


def test_render_detailed_label_level_order():
    a = LabelAssignment(
        "Malicious",
        {
            "process": "Linux",
            "source": "From_malicious",
            "technique": "DoS",
            "destination": "To_benign",
            "sub-technique": "DDoS",
            "app-protocol": "NTP",
        },
    )
    assert render_detailed_label(a) == "From_malicious-To_benign-DoS-DDoS-Linux-NTP"


def test_render_detailed_label_empty():
    assert render_detailed_label(LabelAssignment("Benign")) == "(empty)"


def test_parse_detailed_label_any_token_order():
    spec = load_ontology(RICH_CONFIG)
    detail = parse_detailed_label("Linux-From_malicious-Port_discovery-Discovery", spec)
    assert detail == {
        "source": "From_malicious",
        "process": "Linux",
        "sub-technique": "Port_discovery",
        "technique": "Discovery",
    }


def test_parse_detailed_label_empty_marker():
    assert parse_detailed_label("(empty)", load_ontology(RICH_CONFIG)) == {}


def test_parse_detailed_label_source_and_destination_only():
    spec = load_ontology("")
    detail = parse_detailed_label("From_benign-To_benign", spec)
    assert detail == {"source": "From_benign", "destination": "To_benign"}


def test_parse_detailed_label_unknown_item():
    with pytest.raises(ConfigError, match="unknown detail item 'Warp'"):
        parse_detailed_label("From_benign-Warp", load_ontology(RICH_CONFIG))


def test_parse_detailed_label_level_used_twice():
    with pytest.raises(ConfigError, match="level 'technique' appears twice"):
        parse_detailed_label("Discovery-DoS", load_ontology(RICH_CONFIG))


def test_parse_detailed_label_empty_token():
    with pytest.raises(ConfigError, match="empty item"):
        parse_detailed_label("From_benign--To_benign", load_ontology(RICH_CONFIG))


def test_render_parse_round_trip_seeded():
    spec = load_ontology(RICH_CONFIG)
    rng = random.Random(7)
    pools = {
        name: spec.level(name).items for name in DETAIL_LEVELS
    }
    for _ in range(200):
        detail = {}
        for name in DETAIL_LEVELS:
            if pools[name] and rng.random() < 0.5:
                detail[name] = rng.choice(pools[name])
        if "sub-technique" in detail and "technique" not in detail:
            del detail["sub-technique"]
        a = LabelAssignment(rng.choice(("Benign", "Malicious", "Unknown")), detail)
        assert validate_assignment(a, spec) == []
        rendered = render_detailed_label(a)
        assert parse_detailed_label(rendered, spec) == dict(a.detail)


def test_level_of_an_unknown_name_is_a_key_error():
    with pytest.raises(KeyError):
        load_ontology("").level("bogus")


def test_an_ontology_line_skips_empty_items():
    spec = load_ontology("[ontology]\ntechnique: Discovery, , Scan,\n")
    assert spec.level("technique").items == ("Discovery", "Scan")


@pytest.mark.parametrize("key", ["label", "bogus"])
def test_validate_assignment_names_a_key_that_is_no_detail_level(key):
    assignment = LabelAssignment("Benign", {key: "Benign"})
    assert validate_assignment(assignment, load_ontology("")) == [f"'{key}' is not a detail level"]


def test_a_spec_with_one_item_in_two_detail_levels_is_refused_at_construction():
    """Not only load_ontology: any spec, so a detailed label parses back to one level per item."""
    shared = {"technique": ("Scan",), "process": ("Nmap", "Scan")}
    levels = tuple(
        LevelSpec(lvl.name, lvl.mandatory, lvl.extensible, lvl.items + shared.get(lvl.name, ()))
        for lvl in load_ontology("").levels
    )
    with pytest.raises(ConfigError) as exc:
        OntologySpec(levels)
    assert str(exc.value) == (
        "item 'Scan' appears in both 'technique' and 'process'; detail items must be unique across levels"
    )
