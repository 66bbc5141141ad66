"""zeeklabel benchmark: one workload, one command at a time, in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a zeeklabel checkout; it imports the package from
``src/``. It writes the seeded inputs of the workload under
``.bench_work/`` before any timing, then starts ``bench/child.py`` once per
run of the command, the next only after the last has ended, until ``--seconds``
have passed. Every run gets a fresh interpreter, so its ``ru_maxrss`` is its
own, and its outputs are checked against the generator's expectations.

With ``--trace 0`` it reports the end-to-end metrics, as medians over the runs.
With ``--trace 1`` it alternates untraced and traced runs and finishes with one
run under tracemalloc, and reports the per-layer metrics. The last line of
standard output is the result object; the line before it holds the
provenance, quartiles and sample counts. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GENERATORS, Workload

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
MIN_RUNS = 3  # cycles of runs, even when fewer fit into --seconds
RUN_LIMIT_S = 170  # every child has ended by then, well within 180 s
TRACE_LOOP_LIMIT_S = 100  # leaves the tracemalloc run time to finish
# child.calibrate() on the 2-vCPU Xeon VM where the benchmark was written, at
# its fastest; the CPU speed there changes by up to 2x within seconds
CALIBRATION_REF_NS = 40_000_000

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PROPAGATED_LOGS = ("http", "dns", "files", "ssl", "x509", "software")
HEAP_SPANS = ("labeler.index_build", "cli.load_flows", "metrics.timeline", "cli.main")


class Run:
    """One spawned child: what it measured and whether its outputs were right.

    Times are scaled to the reference CPU speed: multiplied by
    CALIBRATION_REF_NS over the time the child took for the calibration loop
    (see child.calibrate). Raw times stay available as ``raw_*``.
    """

    def __init__(self, mode: str, spawn_ns: int, result: dict | None, problems: list[str], stdout: Path):
        self.mode = mode
        self.result = result or {}
        self.problems = problems
        self.stdout_bytes = stdout.stat().st_size if stdout.exists() else 0
        self.labeled_ratio: dict[str, float] = {}
        self.raw_setup_s = self.setup_s = None
        if "ready_ns" in self.result:
            calibration = self.result["calibration_ns"]
            self.calibration_s = statistics.mean(calibration) / 1e9
            self.speed = CALIBRATION_REF_NS / statistics.mean(calibration)
            self.raw_setup_s = (self.result["ready_ns"] - spawn_ns) / 1e9
            # the first calibration runs right after set-up ends
            self.setup_s = self.raw_setup_s * CALIBRATION_REF_NS / calibration[0]

    @property
    def raw_wall_s(self) -> float:
        return self.result["wall_ns"] / 1e9

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.speed

    @property
    def raw_cpu_s(self) -> float:
        return self.result["cpu_s"]

    @property
    def cpu_s(self) -> float:
        return self.raw_cpu_s * self.speed


class Bench:
    def __init__(self, root: Path, workload: Workload, work: Path, limit: float) -> None:
        self.root = root
        self.workload = workload
        self.work = work
        self.limit = limit  # monotonic time by which every child must have ended
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # the same hash seed in every run keeps set and dict layouts, and their cost, alike
        self.env["PYTHONHASHSEED"] = "0"
        self.runs: list[Run] = []

    def invoke(self, mode: str) -> Run:
        wl = self.workload
        wl.clean_outputs()
        stdout, stderr, result_path = (self.work / n for n in ("stdout.txt", "stderr.txt", "result.json"))
        result_path.unlink(missing_ok=True)
        argv = [] if mode == "probe" else wl.argv
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), mode, str(result_path), *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.root,
            )
            try:
                exit_code = proc.wait(timeout=max(1.0, self.limit - time.monotonic()))
            except subprocess.TimeoutExpired:
                exit_code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = None
        if exit_code != 0 or result is None:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
            problems = [f"child exited with {exit_code}: {' '.join(tail)}"]
        else:
            problems = self.judge(mode, result)
        run = Run(mode, spawn_ns, result if not problems else None, problems, stdout)
        if mode == "trace" and not problems:
            run.labeled_ratio = {p.name.split(".", 1)[0]: _labeled_ratio(p) for p in wl.expected_files}
        self.runs.append(run)
        return run

    def judge(self, mode: str, result: dict) -> list[str]:
        """Problems with a finished child's result and outputs; empty if correct."""
        src = str(self.root / "src")
        if not result["zeeklabel_file"].startswith(src):
            return [f"imported zeeklabel from {result['zeeklabel_file']}, not {src}"]
        if result["error"] or result["rc"] != 0:
            return [f"main returned {result['rc']} ({result['error']})"]
        if mode == "probe":
            return []
        stdout = self.work / "stdout.txt"
        return self.workload.check(stdout.read_text(encoding="utf-8", errors="replace"))

    def loop(self, modes: tuple[str, ...], until: float, latest: float) -> None:
        """Cycle through ``modes`` until the next cycle would end after ``until``
        (but at least MIN_RUNS times), and never past ``latest``."""
        cycles: list[float] = []
        while True:
            started = time.monotonic()
            for mode in modes:
                self.invoke(mode)
            cycles.append(time.monotonic() - started)
            next_end = time.monotonic() + statistics.median(cycles)
            if next_end > latest or (len(cycles) >= MIN_RUNS and next_end > until):
                return


def _labeled_ratio(path: Path) -> float:
    rows = labeled = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows += 1
            label = json.loads(line)["label"] if line.startswith("{") else line.rsplit("\t", 2)[1]
            labeled += label != "(empty)"
    return labeled / rows if rows else 0.0


def _summary(values: list[float]) -> dict:
    """Median, quartiles and, once there are enough samples, the highest
    percentile that has ten samples above it."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    if len(values) > 10:
        out["tail_percentile"] = 100 * (len(values) - 10) / len(values)
        out["tail"] = sorted(values)[-11]
    out["samples"] = values
    return out


def end_to_end(runs: list[Run]) -> tuple[dict[str, dict], dict[str, dict]]:
    """End-to-end metrics, and the unscaled times beside them for the report."""
    plain = [r for r in runs if r.mode == "plain" and not r.problems]
    setups = [r for r in runs if r.setup_s is not None]
    samples = {
        "wall_s": [r.wall_s for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
        "peak_rss_mb": [r.result["maxrss_kb"] / 1024 for r in plain],
        "setup_s": [r.setup_s for r in setups],
    }
    raw = {
        "raw_wall_s": [r.raw_wall_s for r in plain],
        "raw_cpu_s": [r.raw_cpu_s for r in plain],
        "raw_setup_s": [r.raw_setup_s for r in setups],
        "calibration_s": [r.calibration_s for r in setups],
    }
    metrics = {name: {**_summary(v), "unit": END_TO_END_UNITS[name]} for name, v in samples.items() if v}
    return metrics, {name: {**_summary(v), "unit": "s"} for name, v in raw.items() if v}


def _per_run_layers(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; layers it did not exercise read 0."""
    trace = run.result["trace"]
    counters = trace["counters"]
    facts = trace["facts"]
    spans: dict[str, list[dict]] = {}
    for span in trace["spans"]:
        spans.setdefault(span["name"], []).append(span)

    def calls(name):
        return counters.get(name, {}).get("calls", 0)

    def per(num, den):
        return num / den if den else 0.0

    def us_per_row(name):
        c = counters.get(name, {})
        return per(c.get("ns", 0) / 1e3, c.get("calls", 0))

    def span_s(name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans.get(name, [])) / 1e9

    rows = calls("labeler.apply_rules")
    match = counters.get("rules.match_rule", {})
    decisions = sum(facts.get(f"timeline_{k}", 0) for k in ("tp", "fp", "fn", "tn"))
    useful = sum(facts.get(f"timeline_{k}", 0) for k in ("tp", "fp", "fn"))
    out = {
        "rules.match_calls_per_row": (per(match.get("calls", 0), rows), "count"),
        "rules.match_hit_ratio": (per(match.get("hits", 0), match.get("calls", 0)), "ratio"),
        "rules.ip_parse_misses_per_row": (per(facts.get("ip_parse_misses", 0), rows), "count"),
        "labeler.apply_rules.us_per_row": (us_per_row("labeler.apply_rules"), "us"),
        "labeler.labeled_ratio": (per(counters.get("labeler.apply_rules", {}).get("hits", 0), rows), "ratio"),
        "config.load_config_s": (span_s("config.load_config"), "s"),
        "zeekio.read.us_per_row": (us_per_row("zeekio.read"), "us"),
        "zeekio.write.us_per_row": (us_per_row("zeekio.write"), "us"),
        "zeekio.rows_read": (calls("zeekio.read"), "count"),
        "zeekio.rows_written": (calls("zeekio.write"), "count"),
        "labeler.index_build_s": (span_s("labeler.index_build"), "s"),
        "labeler.index_uids": (facts.get("index_uids", 0), "count"),
        "labeler.index_duplicates": (facts.get("index_duplicates", 0), "count"),
        "labeler.index_skipped_unset": (facts.get("index_skipped_unset", 0), "count"),
        "propagate.lookup_row.us_per_row": (us_per_row("propagate.lookup_row"), "us"),
        "propagate.files_row_labels.us_per_row": (us_per_row("propagate.files_row_labels"), "us"),
        "propagate.cert_map_s": (span_s("propagate.cert_map"), "s"),
        "cli.load_flows_s": (span_s("cli.load_flows"), "s"),
        "metrics.read_detections_s": (span_s("metrics.read_detections"), "s"),
        "metrics.check_detection_times_s": (span_s("metrics.check_detection_times"), "s"),
        "metrics.flow_confusion_s": (span_s("metrics.flow_confusion"), "s"),
        "metrics.timeline_s": (span_s("metrics.timeline"), "s"),
        "metrics.timeline_confusion_s": (span_s("metrics.timeline_confusion"), "s"),
        "metrics.timeline_decisions": (decisions, "count"),
        "metrics.timeline_useful_ratio": (per(useful, decisions), "ratio"),
        "cli.self_s": (sum(s["self_ns"] for s in spans.get("cli.main", [])) / 1e9, "s"),
        "cli.stdout_bytes": (run.stdout_bytes, "B"),
    }
    for log in PROPAGATED_LOGS:
        out[f"propagate.labeled_ratio.{log}"] = (run.labeled_ratio.get(log, 0.0), "ratio")
    return out


def _heap_layers(run: Run | None) -> dict[str, tuple[float, str]]:
    spans: dict[str, dict] = {}
    facts: dict = {}
    if run is not None and not run.problems:
        facts = run.result["trace"]["facts"]
        for span in run.result["trace"]["spans"]:
            held = spans.get(span["name"])
            if held is None or span["peak_heap_bytes"] > held["peak_heap_bytes"]:
                spans[span["name"]] = span
    out = {
        f"{name}.peak_heap_mb": (spans[name]["peak_heap_bytes"] / 2**20 if name in spans else 0.0, "MB")
        for name in HEAP_SPANS
    }
    index = spans.get("labeler.index_build")
    uids = facts.get("index_uids", 0)
    out["labeler.index_bytes_per_uid"] = (index["retained_bytes"] / uids if index and uids else 0.0, "B")
    return out


def per_layer(runs: list[Run]) -> dict[str, dict]:
    traced = [r for r in runs if r.mode == "trace" and not r.problems]
    plain = [r for r in runs if r.mode == "plain" and not r.problems]
    heap = next((r for r in runs if r.mode == "heap"), None)
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in traced:
        for name, (value, unit) in _per_run_layers(run).items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
    for name, (value, unit) in _heap_layers(heap).items():
        samples[name] = [value]
        units[name] = unit
    if traced and plain:
        ratio = statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
        samples["trace.overhead_ratio"] = [ratio]
        units["trace.overhead_ratio"] = "ratio"
    return {name: {**_summary(v), "unit": units[name]} for name, v in samples.items()}


def provenance(root: Path, args, wl: Workload) -> dict:
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "command": ["zeeklabel", *(a.replace(str(root) + os.sep, "") for a in wl.argv)],
        "input_rows": wl.rows,
        "input_stats": wl.stats,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zeeklabel" / "cli.py").is_file():
        print(f"error: {root} is not a zeeklabel checkout (no src/zeeklabel/cli.py)", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally blocks, which stop the child and clean up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    started = time.monotonic()
    try:
        wl = GENERATORS[args.workload](work / "in", args.seed)
        bench = Bench(root, wl, work, limit=started + RUN_LIMIT_S)
        warm = bench.invoke("probe")  # compiles bytecode once, as an install would
        if warm.problems:
            print(f"error: zeeklabel does not start: {warm.problems[0]}", file=sys.stderr)
            return 1
        bench.runs.clear()
        until = time.monotonic() + args.seconds
        report: dict = provenance(root, args, wl)
        if args.trace:
            bench.loop(("plain", "trace"), until, latest=started + TRACE_LOOP_LIMIT_S)
            bench.invoke("heap")
            metrics = per_layer(bench.runs)
        else:
            bench.loop(("plain",), until, latest=started + RUN_LIMIT_S - 10)
            metrics, report["unscaled"] = end_to_end(bench.runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    failed = [r for r in bench.runs if r.problems]
    problems = [p for r in failed for p in r.problems]
    report["runs"] = {m: sum(r.mode == m for r in bench.runs) for m in ("plain", "trace", "heap")}
    report["metrics"] = metrics
    report["absent"] = sorted({a for r in bench.runs for a in r.result.get("trace", {}).get("absent", [])})
    report["problems"] = problems[:20]
    for problem in problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(bench.runs),
        "failed": len(failed),
        "metrics": {name: {"value": m["median"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
