"""Run the ROADMAP's Baseline input shapes once each through the harness.

    python3 bench/baseline_shapes.py [SHAPE ...]

Run from the root of the checkout. Each shape is generated, run once untraced
in a fresh process like a benchmark run, and checked where an expectation is
cheap to state. One line per shape gives its wall and CPU time as measured
(not scaled), its peak RSS and the standard output size. These shapes are
recorded in NOTES.md for comparison with the ROADMAP; they are not workloads
of the benchmark, because one run of several takes longer than a benchmark
run may.
"""

from __future__ import annotations

import ipaddress
import json
import random
import shutil
import sys
import time
from pathlib import Path

import run
from workloads import (
    CONN_FIELDS,
    CONN_TYPES,
    DAY1,
    Workload,
    _conn_line,
    _flow_counts,
    _labeled_path,
    _TsvLog,
    _window_counts,
    gen_eval_flows,
)

# the rows and config of criterion 8 in tests/test_acceptance.py
_BIG_RULES = """\
Malicious, From_malicious-To_malicious:
    - srcIP=10.0.0.7 & Proto=tcp
Benign, (empty):
    - dstPort=443
"""


def _big_conn_line(i: int) -> str:
    src = f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}"
    return (
        f"{1674550000 + i * 0.001:.6f}\tCBIG{i:08d}\t{src}\t40000"
        f"\t203.0.113.10\t443\ttcp\tssl\t1.5\t900\t4100\tSF\t-\t-\t0"
        f"\tShADadfF\t12\t1860\t10\t4900\t-"
    )


def _big_pair(i: int) -> tuple[str, str]:
    src_is_7 = i & 0xFFFFFF == 7  # 10.0.0.7
    return ("Malicious", "From_malicious-To_malicious") if src_is_7 else ("Benign", "(empty)")


def label_300k(directory: Path) -> Workload:
    conn = _TsvLog(directory / "conn.log", "conn", CONN_FIELDS, CONN_TYPES)
    for i in range(300_000):
        conn.row(_big_conn_line(i), _big_pair(i))
    digest = conn.close()
    config = directory / "big.conf"
    config.write_text(_BIG_RULES, encoding="utf-8")
    return Workload("label_300k", ["label", str(conn.path), "--config", str(config)],
                    {"conn": 300_000}, expected_files={_labeled_path(conn.path): digest})


def propagate_300k_150k(directory: Path) -> Workload:
    conn = _TsvLog(directory / "conn.labeled.log", "conn", CONN_FIELDS + ["label", "detailed_label"],
                   CONN_TYPES + ["string", "string"], labeled_copy=False)
    for i in range(300_000):
        pair = _big_pair(i)
        conn.row(f"{_big_conn_line(i)}\t{pair[0]}\t{pair[1]}")
    conn.close()
    logs = directory / "logs"
    logs.mkdir()
    http = _TsvLog(logs / "http.log", "http",
                   "ts uid id.orig_h id.orig_p id.resp_h id.resp_p method uri".split(),
                   "time string addr port addr port string string".split())
    for i in range(150_000):
        http.row(f"{1674550000 + i * 0.002:.6f}\tCBIG{i:08d}\t10.0.0.1\t40000\t203.0.113.10\t80\tGET\t/{i}",
                 _big_pair(i))
    digest = http.close()
    return Workload("propagate_300k_150k", ["propagate", str(conn.path), str(logs)],
                    {"conn": 300_000, "http": 150_000}, expected_files={_labeled_path(http.path): digest})


def eval_300k(directory: Path, as_json: bool) -> Workload:
    wl = gen_eval_flows(directory, 1, flows=300_000, ips=2000)
    if not as_json:
        wl.argv.remove("--json")
        wl.json_output = False
    wl.name = "eval_300k_json" if as_json else "eval_300k_text"
    return wl


def timeline_week(directory: Path, ips: int, as_json: bool) -> Workload:
    """One flow per address, spread over one week; one-minute windows."""
    rng = random.Random(f"timeline:{ips}")
    conn = _TsvLog(directory / "conn.labeled.log", "conn", CONN_FIELDS + ["label", "detailed_label"],
                   CONN_TYPES + ["string", "string"], labeled_copy=False)
    flows, detections, det_lines = [], [], []
    for i in range(ips):
        ts = round(DAY1 + rng.random() * 7 * 86400, 6)
        ip = f"10.9.{i // 250}.{i % 250 + 1}"
        label = "Malicious" if i % 4 == 0 else "Benign"
        detail = "From_malicious-To_benign" if label == "Malicious" else "From_benign-To_benign"
        line = _conn_line(ts, f"CTW{i:08d}", ip, 40000, "100.64.0.1", 443, "tcp", "ssl", "0.8", "500", "900", "SF", 8, 9)
        conn.row(f"{line}\t{label}\t{detail}")
        flows.append((f"CTW{i:08d}", ts, ipaddress.ip_address(ip), label))
        if i % 2 == 0:
            detections.append((ipaddress.ip_address(ip), ts + 30, [f"CTW{i:08d}"]))
            det_lines.append(json.dumps({"ip": ip, "time": ts + 30, "evidence": [f"CTW{i:08d}"]}))
    conn.close()
    det_path = directory / "detections.jsonl"
    det_path.write_text("\n".join(det_lines) + "\n", encoding="utf-8")
    argv = ["eval", str(conn.path), str(det_path), "--window", "60"] + (["--json"] if as_json else [])
    evidence = {u for _, _, ev in detections for u in ev}
    return Workload(f"timeline_{ips}ip_{'json' if as_json else 'text'}", argv,
                    {"conn": ips, "detections": len(detections)},
                    expected_counts={"flow": _flow_counts(flows, evidence),
                                     "ip": _window_counts(flows, detections, 60.0)},
                    json_output=as_json)


SHAPES = {
    "label_300k": label_300k,
    "propagate_300k_150k": propagate_300k_150k,
    "eval_300k_text": lambda d: eval_300k(d, False),
    "eval_300k_json": lambda d: eval_300k(d, True),
    "timeline_100ip_text": lambda d: timeline_week(d, 100, False),
    "timeline_100ip_json": lambda d: timeline_week(d, 100, True),
    "timeline_400ip_text": lambda d: timeline_week(d, 400, False),
}


def main(names: list[str]) -> int:
    root = Path.cwd()
    for name in names or SHAPES:
        work = root / ".bench_work" / f"shape-{name}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "in").mkdir(parents=True)
        try:
            wl = SHAPES[name](work / "in")
            bench = run.Bench(root, wl, work, limit=time.monotonic() + 600)
            bench.invoke("probe")
            r = bench.invoke("plain")
            if r.problems:
                print(f"{name}: FAILED {r.problems}")
                continue
            print(f"{name}: rows {wl.rows} wall {r.raw_wall_s:.2f} s, cpu {r.raw_cpu_s:.2f} s, "
                  f"peak RSS {r.result['maxrss_kb'] / 1024:.0f} MB, stdout {r.stdout_bytes / 1e6:.1f} MB, "
                  f"scaled wall {r.wall_s:.2f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
