"""Ground-truth labeling for Zeek logs.

Label conn.log flows from a small rule language, carry the labels to the
rest of a Zeek log directory through the shared UIDs, and evaluate
detection output against the result at flow and source-IP granularity.
"""

from .errors import ConfigError, LogFormatError, UsageError, ZeekLabelError
from .labeler import (
    EMPTY_LABEL,
    EMPTY_PAIR,
    UidIndex,
    apply_rules,
    label_conn,
)
from .metrics import (
    ConfusionCounts,
    DetectionRecord,
    LabeledFlow,
    MetricsReport,
    WindowStatus,
    compute_metrics,
    flow_confusion,
    ip_detection_timeline,
    read_detections,
    timeline_confusion,
)
from .ontology import (
    DETAIL_LEVELS,
    EMPTY_DETAIL,
    LEVEL_NAMES,
    LabelAssignment,
    LevelSpec,
    OntologySpec,
    builtin_ontology,
    load_ontology,
    parse_detailed_label,
    render_detailed_label,
    validate_assignment,
)
from .propagate import merge_labels, propagate_dir
from .rules import (
    COLUMNS,
    Condition,
    ConditionGroup,
    Rule,
    RuleSet,
    load_config,
    match_rule,
    parse_ruleset,
    render_ruleset,
)
from .zeekio import (
    ConnSchema,
    ZeekHeader,
    ZeekLogReader,
    ZeekLogTable,
    ZeekLogWriter,
    read_log,
    write_log,
)

__version__ = "0.1.0"

__all__ = [
    "COLUMNS",
    "ConfigError",
    "Condition",
    "ConditionGroup",
    "ConfusionCounts",
    "ConnSchema",
    "DETAIL_LEVELS",
    "DetectionRecord",
    "EMPTY_DETAIL",
    "EMPTY_LABEL",
    "EMPTY_PAIR",
    "LEVEL_NAMES",
    "LabelAssignment",
    "LabeledFlow",
    "LevelSpec",
    "LogFormatError",
    "MetricsReport",
    "OntologySpec",
    "Rule",
    "RuleSet",
    "UidIndex",
    "UsageError",
    "WindowStatus",
    "ZeekHeader",
    "ZeekLabelError",
    "ZeekLogReader",
    "ZeekLogTable",
    "ZeekLogWriter",
    "apply_rules",
    "builtin_ontology",
    "compute_metrics",
    "flow_confusion",
    "ip_detection_timeline",
    "label_conn",
    "load_config",
    "load_ontology",
    "match_rule",
    "merge_labels",
    "parse_detailed_label",
    "parse_ruleset",
    "propagate_dir",
    "read_detections",
    "read_log",
    "render_detailed_label",
    "render_ruleset",
    "timeline_confusion",
    "validate_assignment",
    "write_log",
]
