"""Counters and spans around zeeklabel's public functions, installed from outside.

Functions called once per row become counters: calls, summed nanoseconds and
a tally of the results that count as hits. Functions called once per command
become spans: name, start, end and parent span. Everything stays in memory
until :meth:`Tracer.report`. A target that the imported zeeklabel does not
have is listed as absent instead of failing the run.

With ``heap=True`` only the spans are installed, and each span also records
the peak of ``tracemalloc``'s traced memory above its starting level, and the
memory it left allocated when it returned.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

EMPTY_LABEL = "(empty)"

# metric prefix -> (module, attribute path, which results count as hits)
COUNTERS = {
    "rules.match_rule": ("zeeklabel.rules", "match_rule", lambda matched: matched is True),
    "labeler.apply_rules": ("zeeklabel.labeler", "apply_rules", lambda pair: isinstance(pair, tuple) and pair[:1] != (EMPTY_LABEL,)),
    "propagate.lookup_row": ("zeeklabel.propagate", "lookup_row", None),
    "propagate.files_row_labels": ("zeeklabel.propagate", "files_row_labels", None),
    "zeekio.write": ("zeeklabel.zeekio", "ZeekLogWriter.write_row", None),
}
# generator methods: one call per row yielded
ROW_GENERATORS = {
    "zeekio.read": ("zeeklabel.zeekio", "ZeekLogReader.rows"),
}
SPANS = {
    "config.load_config": ("zeeklabel.rules", "load_config"),
    "labeler.index_build": ("zeeklabel.labeler", "index_from_labeled_rows"),
    "propagate.cert_map": ("zeeklabel.propagate", "accumulate_cert_labels"),
    "cli.load_flows": ("zeeklabel.cli", "_load_flows"),
    "metrics.read_detections": ("zeeklabel.metrics", "read_detections"),
    "metrics.check_detection_times": ("zeeklabel.metrics", "check_detection_times"),
    "metrics.flow_confusion": ("zeeklabel.metrics", "flow_confusion"),
    "metrics.timeline": ("zeeklabel.metrics", "ip_detection_timeline"),
    "metrics.timeline_confusion": ("zeeklabel.metrics", "timeline_confusion"),
}


class _Frame:
    __slots__ = ("name", "start", "child_ns", "base", "max_peak")

    def __init__(self, name: str, start: int) -> None:
        self.name = name
        self.start = start
        self.child_ns = 0
        self.base = 0
        self.max_peak = 0


class Tracer:
    def __init__(self, heap: bool = False) -> None:
        self.heap = heap
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns, hits]
        self.spans: list[dict] = []
        self.facts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._depth = 0  # nesting of counted calls; only the outermost is charged to a span

    # -- installing

    def install(self) -> None:
        targets = {name: (mod, path) for name, (mod, path) in SPANS.items()}
        if not self.heap:
            targets.update({name: (mod, path) for name, (mod, path, _) in COUNTERS.items()})
            targets.update(ROW_GENERATORS)
        for name, (module_name, path) in targets.items():
            owner, attr, original = _resolve(module_name, path)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if name in SPANS:
                wrapper = self.span(name, original)
            elif name in ROW_GENERATORS:
                wrapper = self._row_generator(name, original)
            else:
                wrapper = self._counter(name, original, COUNTERS[name][2])
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)

    # -- wrappers

    def _charge(self, elapsed: int) -> None:
        if self._stack:
            self._stack[-1].child_ns += elapsed

    def _counter(self, name, fn, hit):
        stat = self.counters[name] = [0, 0, 0]
        clock = time.perf_counter_ns

        def counted(*args, **kwargs):
            self._depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self._depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                if not self._depth:
                    self._charge(elapsed)
            if hit is not None and hit(result):
                stat[2] += 1
            return result

        return counted

    def _row_generator(self, name, fn):
        stat = self.counters[name] = [0, 0, 0]
        clock = time.perf_counter_ns

        def rows(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                t0 = clock()
                try:
                    row = next(it)
                except StopIteration:
                    elapsed = clock() - t0
                    stat[1] += elapsed
                    if not self._depth:
                        self._charge(elapsed)
                    return
                elapsed = clock() - t0
                stat[0] += 1
                stat[1] += elapsed
                if not self._depth:
                    self._charge(elapsed)
                yield row

        return rows

    def span(self, name, fn):
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            frame = _Frame(name, 0)
            parent = self._stack[-1] if self._stack else None
            if self.heap:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.max_peak = max(parent.max_peak, peak)
                tracemalloc.reset_peak()
                frame.base = frame.max_peak = current
            self._stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                record = {
                    "name": name,
                    "start_ns": frame.start,
                    "end_ns": end,
                    "parent": parent.name if parent is not None else None,
                    "self_ns": end - frame.start - frame.child_ns,
                }
                if self.heap:
                    current, peak = tracemalloc.get_traced_memory()
                    top = max(frame.max_peak, peak)
                    record["peak_heap_bytes"] = top - frame.base
                    record["retained_bytes"] = current - frame.base
                    if parent is not None:
                        parent.max_peak = max(parent.max_peak, top)
                self.spans.append(record)
                if parent is not None:
                    parent.child_ns += end - frame.start
            self._observe(name, result)
            return result

        return spanned

    def _observe(self, name: str, result) -> None:
        """Read counts off a span's result; a result of another shape adds none."""
        if name == "labeler.index_build":
            if hasattr(result, "__len__"):
                self.facts["index_uids"] = len(result)
            attrs = {"duplicates": "index_duplicates", "skipped_unset": "index_skipped_unset"}
        elif name == "metrics.timeline_confusion":
            attrs = {k: f"timeline_{k}" for k in ("tp", "fp", "fn", "tn")}
        else:
            return
        for attr, fact in attrs.items():
            value = getattr(result, attr, None)
            if isinstance(value, int):
                self.facts[fact] = value

    # -- reporting

    def report(self) -> dict:
        zeekio = sys.modules.get("zeeklabel.zeekio")
        cache_info = getattr(getattr(zeekio, "_parse_ip", None), "cache_info", None)
        if cache_info is not None:
            self.facts["ip_parse_misses"] = cache_info().misses
        elif not self.heap:
            self.absent.append("zeeklabel.zeekio._parse_ip.cache_info")
        return {
            "counters": {k: {"calls": v[0], "ns": v[1], "hits": v[2]} for k, v in self.counters.items()},
            "spans": self.spans,
            "facts": self.facts,
            "absent": self.absent,
        }


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for a dotted path; value None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, attr, getattr(owner, attr, None)


def _rebind(original, wrapper) -> None:
    """Replace every module-level binding of ``original`` inside zeeklabel."""
    for name, module in list(sys.modules.items()):
        if name != "zeeklabel" and not name.startswith("zeeklabel."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
