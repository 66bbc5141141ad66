"""Ground-truth labeling for Zeek logs.

Label conn.log flows from a small rule language, carry the labels to the
rest of a Zeek log directory through the shared UIDs, and evaluate
detection output against the result at flow and source-IP granularity.

The names here are the ones the README's "Library use" documents; every
other name is imported from its submodule.
"""

from .errors import ConfigError, LogFormatError, UsageError, ZeekLabelError
from .labeler import label_conn
from .propagate import propagate_dir
from .rules import load_config
from .zeekio import read_log, write_log

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "LogFormatError",
    "UsageError",
    "ZeekLabelError",
    "label_conn",
    "load_config",
    "propagate_dir",
    "read_log",
    "write_log",
]
