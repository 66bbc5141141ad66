"""The result and rule types are plain classes that keep what callers use of them: constructors,
``==`` and ``hash``, immutability, fresh default lists, and pickling across the fork. And importing
the command line loads neither ``dataclasses`` nor ``inspect``, nor ``pickle`` before a child starts."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from zeeklabel.metrics import ConfusionCounts, DetectionRecord, EvalReport
from zeeklabel.ontology import LabelAssignment, LevelSpec, OntologySpec
from zeeklabel.propagate import LogReport, PropagateReport
from zeeklabel.rules import Condition, ConditionGroup, Rule, RuleSet
from zeeklabel.zeekio import ZeekHeader, ZeekLogTable

SRC = Path(__file__).resolve().parent.parent / "src"


def _rule(source_line: int) -> Rule:
    group = ConditionGroup((Condition("dstPort", "=", 22), Condition("Proto", "=", "tcp")))
    return Rule(LabelAssignment("Malicious", {"attack": "Scan"}), (group,), "Malicious", "Scan", source_line)


def _detection(lineno: int) -> DetectionRecord:
    return DetectionRecord("10.0.0.1", 1674560400.0, frozenset({"C1", "C2"}), lineno=lineno)


def test_importing_the_command_line_loads_no_dataclasses_inspect_or_pickle():
    # nor socket and the selectors it imports: rules needs only _socket's inet_pton and inet_ntop
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    unwanted = "{'dataclasses', 'inspect', 'pickle', 'socket', 'selectors'}"
    code = f"import sys, zeeklabel.cli; print(*sorted({unwanted} & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []


def test_rule_equality_ignores_its_source_line_and_a_detection_its_line_number():
    assert _rule(3) == _rule(40) and _rule(3) != _rule(40).groups[0]
    assert RuleSet((_rule(3),)) == RuleSet((_rule(40),))
    assert _rule(3) != Rule(_rule(3).assignment, (), "Malicious", "Scan", 3)
    assert _detection(1) == _detection(9)
    assert _detection(1) != DetectionRecord("10.0.0.1", 1674560400.5, frozenset({"C1", "C2"}), lineno=1)


def test_equal_values_hash_equal_and_mutable_ones_do_not_hash():
    pairs = [
        (_detection(1), _detection(9)),
        (ConfusionCounts(1, 2, 3, 4), ConfusionCounts(tp=1, fp=2, tn=3, fn=4)),
        (Condition("srcIP", "=", "10.0.0.1"), Condition(column="srcIP", op="=", value="10.0.0.1")),
        (LevelSpec("label", True, False, ("Benign",)), LevelSpec("label", True, False, ("Benign",))),
    ]
    for one, other in pairs:
        assert one == other and hash(one) == hash(other)
    assert len({ConfusionCounts(), ConfusionCounts(0, 0, 0, 0), ConfusionCounts(fn=1)}) == 2
    for mutable in (ZeekHeader(), PropagateReport(1, 0, 0), LogReport("http.log", "uid", 2, 1, Path("x"))):
        with pytest.raises(TypeError):
            hash(mutable)


@pytest.mark.parametrize("value, name", [
    (ConfusionCounts(), "tp"),
    (_detection(1), "lineno"),
    (_rule(3), "source_line"),
    (Condition("dstPort", "=", 22), "value"),
    (ConditionGroup(()), "conditions"),
    (RuleSet(()), "rules"),
    (LabelAssignment("Benign"), "detail"),
    (LevelSpec("label", True, False, ()), "items"),
    (OntologySpec(()), "levels"),
])
def test_a_frozen_value_refuses_assignment(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_a_condition_caches_its_key_and_test():
    condition = Condition("Proto", "=", "TCP")
    assert condition.key == "tcp" and condition.key is condition.key
    assert condition.test is condition.test


def test_default_lists_are_fresh_for_each_instance():
    one, other = ZeekHeader(), ZeekHeader()
    one.fields.append("ts")
    one.preamble.append("#path\tconn")
    assert other.fields == [] and other.preamble == []
    first, second = PropagateReport(1, 0, 0), PropagateReport(1, 0, 0)
    first.logs.append(LogReport("http.log", "uid", 2, 1, Path("http.labeled.log")))
    assert second.logs == []
    tables = [ZeekLogTable(ZeekHeader(), [], [], "json") for _ in range(2)]
    tables[0].texts.append(("{}", 9))
    assert tables[1].texts == [] and tables[1].source == "<log>"
    fields = ["ts", "uid"]
    assert ZeekHeader(fields=fields).fields is fields


def test_a_label_assignment_canonicalizes_its_detail_keys():
    assert LabelAssignment("Malicious", {"app-process": "x"}).detail == {"process": "x"}
    assert LabelAssignment("Benign").detail == {}
    assert LabelAssignment("Benign") == LabelAssignment("Benign", {})


def test_the_values_that_cross_the_fork_survive_pickling():
    header = ZeekHeader(separator="|", path="conn", fields=["ts", "uid"], types=["time", "string"])
    log = LogReport("http.log", "uid", 5, 3, Path("out/http.labeled.log"))
    report = PropagateReport(10, 1, 2, [log])
    for value in (header, log, report, ConfusionCounts(1, 2, 3, 4)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value) and vars(copy) == vars(value)


def test_an_eval_report_compares_by_its_fields():
    def report(**changes):
        fields = dict(labels={}, flow=ConfusionCounts(), ip=ConfusionCounts(), timelines={}, missing_evidence=[],
                      predating=[])
        return EvalReport(**{**fields, **changes})

    assert report() == report() and report() != report(missing_evidence=["C9"])
    assert "missing_evidence=[]" in repr(report())
