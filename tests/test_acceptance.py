"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Every check recomputes its expectation independently of the code under test
(frozen constants, brute-force evaluators, or raw re-reads of the input
files), so a passing line certifies behavior, not self-consistency.
"""

from __future__ import annotations

import gc
import io
import json
import random
import time
import tracemalloc

from conftest import DATA_DIR
from randgen import (
    ONTOLOGY_TEXT,
    flow_to_cells,
    gen_case,
    make_flow,
    oracle_first_match,
    oracle_match,
)

from zeeklabel.cli import main
from zeeklabel.labeler import EMPTY_PAIR, label_conn
from zeeklabel.metrics import LabeledFlow, ip_detection_timeline, read_detections
from zeeklabel.ontology import (
    DETAIL_LEVELS,
    LabelAssignment,
    load_ontology,
    parse_detailed_label,
    render_detailed_label,
)
from zeeklabel.rules import ConnSchema, load_config, parse_ruleset, render_ruleset
from zeeklabel.zeekio import read_log, row_field, row_set_field, write_log

FIG2 = DATA_DIR / "fig2"
TIMELINE = DATA_DIR / "timeline"
PROPLOGS = DATA_DIR / "proplogs"

# 66.7% etc. are reported to one decimal; allow 0.1 percentage point
PCT_TOL = 0.001


def _report(n: int, desc: str, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"criterion {n} failed: {desc}{tail}"


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return read_log(fh, str(path))


def test_criterion_1_fig2_eval_metrics_and_runtime(capsys):
    started = time.perf_counter()
    rc = main(
        ["eval", str(FIG2 / "conn.labeled.log"), str(FIG2 / "detections.jsonl"), "--json"]
    )
    elapsed = time.perf_counter() - started
    payload = json.loads(capsys.readouterr().out)
    m = payload["flow"]["metrics"]
    ok = (
        rc == 0
        and abs(m["fpr"] - 0.100) <= PCT_TOL
        and abs(m["tpr"] - 0.600) <= PCT_TOL
        and abs(m["accuracy"] - 0.800) <= PCT_TOL
        and abs(m["f1"] - 0.667) <= PCT_TOL
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(
            1,
            "eval reproduces FPR 10% / TPR 60% / Accuracy 80% / F1 66.7%",
            ok,
            f"fpr={m['fpr']:.4f} tpr={m['tpr']:.4f} acc={m['accuracy']:.4f} "
            f"f1={m['f1']:.4f} in {elapsed:.3f}s",
        )


def test_criterion_2_port_scan_golden(capsys):
    config = (DATA_DIR / "portscan.conf").read_text()
    _, ruleset = load_config(config)
    table = _read(DATA_DIR / "portscan" / "conn.log")
    pairs = label_conn(table, ruleset)

    scan_detail = "From_malicious-To_benign-Discovery-Port_discovery-Linux"
    h = table.header
    src_i, dst_i, proto_i = (
        h.index_of("id.orig_h"),
        h.index_of("id.resp_h"),
        h.index_of("proto"),
    )
    scan_rows = 0
    mislabels = 0
    for cells, pair in zip(table.records, pairs):
        is_scan = (
            cells[src_i] == "44.61.93.2"
            and cells[dst_i] == "192.168.1.100"
            and cells[proto_i] == "tcp"
        )
        expected = ("Malicious", scan_detail) if is_scan else EMPTY_PAIR
        scan_rows += is_scan
        mislabels += pair != expected
    ok = len(table) == 30 and scan_rows == 10 and mislabels == 0
    with capsys.disabled():
        _report(
            2,
            "port-scan config labels the 10 scan flows and nothing else",
            ok,
            f"{scan_rows} scan rows, {mislabels} mislabeled of {len(table)}",
        )


def test_criterion_3_dos_rule_parse_and_rerender(capsys):
    spec, ruleset = load_config((DATA_DIR / "dos.conf").read_text())
    tokens = [
        [(c.column, c.op, str(c.value)) for c in g.conditions]
        for r in ruleset.rules
        for g in r.groups
    ]
    expected_tokens = [
        [("srcIP", "=", "77.67.96.222"), ("Proto", "=", "UDP")],
        [("srcIP", "=", "122.17.49.142"), ("Proto", "=", "TCP")],
        [("dstIP", "=", "2a00:1450:400c:c05::69")],
    ]
    header_ok = (
        len(ruleset) == 1
        and ruleset.rules[0].label_text == "Malicious"
        and ruleset.rules[0].detail_text
        == "From_malicious-To_benign-DoS-DDoS-Linux-NTP"
    )
    reparsed = parse_ruleset(render_ruleset(ruleset), spec)
    ok = header_ok and tokens == expected_tokens and reparsed == ruleset
    with capsys.disabled():
        _report(
            3,
            "DoS example parses token-for-token and survives render/reparse",
            ok,
            f"{len(tokens)} groups",
        )


def _independent_merge(pairs):
    rank = {"Malicious": 3, "Unknown": 2, "Benign": 1}
    best, best_rank = ("(empty)", "(empty)"), 0
    for pair in pairs:
        r = rank.get(pair[0], 0)
        if r > best_rank:
            best, best_rank = pair, r
    return best


def test_criterion_4_propagation_integrity(tmp_path, capsys):
    import shutil

    workdir = tmp_path / "logs"
    shutil.copytree(PROPLOGS, workdir)
    assert main(
        ["label", str(workdir / "conn.log"), "--config", str(workdir / "labeling.conf")]
    ) == 0
    assert main(
        ["propagate", str(workdir / "conn.labeled.log"), str(workdir)]
    ) == 0
    capsys.readouterr()

    labeled_conn = _read(workdir / "conn.labeled.log")
    li, di = (
        labeled_conn.header.index_of("label"),
        labeled_conn.header.index_of("detailed_label"),
    )
    uid_i = labeled_conn.header.index_of("uid")
    conn_labels = {
        cells[uid_i]: (cells[li], cells[di]) for cells in labeled_conn.records
    }

    raw_ssl = _read(PROPLOGS / "ssl.log")
    chain_parents: dict[str, list[str]] = {}
    for row in raw_ssl.iter_rows():
        uid = row_field(row, raw_ssl.header, "uid")
        for fid in row_set_field(row, raw_ssl.header, "cert_chain_fuids"):
            chain_parents.setdefault(fid, []).append(uid)

    checked = 0
    bad = 0
    for name in ("dns", "http", "ssl", "files", "x509"):
        raw = _read(PROPLOGS / f"{name}.log")
        labeled = _read(workdir / f"{name}.labeled.log")
        assert len(raw) == len(labeled)
        for raw_row, cells in zip(raw.iter_rows(), labeled.records):
            got = (cells[-2], cells[-1])
            if name == "files":
                uids = row_set_field(raw_row, raw.header, "conn_uids")
                want = _independent_merge(
                    [conn_labels.get(u, EMPTY_PAIR) for u in uids]
                )
            elif name == "x509":
                fid = row_field(raw_row, raw.header, "id")
                parents = chain_parents.get(fid, [])
                want = _independent_merge(
                    [conn_labels.get(u, EMPTY_PAIR) for u in parents]
                )
            else:
                uid = row_field(raw_row, raw.header, "uid")
                want = conn_labels.get(uid, EMPTY_PAIR)
            checked += 1
            bad += got != want
    ok = bad == 0 and checked == 21
    with capsys.disabled():
        _report(
            4,
            "every propagated row matches its conn.log labels (exhaustive)",
            ok,
            f"{checked} rows checked, {bad} mismatches",
        )


def test_criterion_5_dsl_oracle_equivalence(capsys):
    from conftest import conn_log_text
    from zeeklabel.rules import match_rule

    rng = random.Random(3517)
    cases = 0
    disagreements = 0
    while cases < 1000:
        config_text, oracle_rules = gen_case(rng, max_rules=5, max_groups=4, max_conds=4)
        _, ruleset = load_config(config_text)
        flows = [make_flow(rng) for _ in range(min(8, 1000 - cases))]
        table = read_log(
            io.StringIO(conn_log_text([flow_to_cells(f) for f in flows])), "<gen>"
        )
        schema = ConnSchema(table.header, table.format)
        got_pairs = label_conn(table, ruleset)
        for row, flow, got in zip(table.iter_rows(), flows, got_pairs):
            want = oracle_first_match(oracle_rules, flow)
            if got != want:
                disagreements += 1
            view = schema.view(row)
            for rule, oracle_rule in zip(ruleset.rules, oracle_rules):
                if match_rule(rule, view) != oracle_match(oracle_rule, flow):
                    disagreements += 1
            cases += 1
    ok = disagreements == 0 and cases == 1000
    with capsys.disabled():
        _report(
            5,
            "1000 random rulesets/flows agree with the brute-force oracle",
            ok,
            f"{cases} cases, {disagreements} disagreements",
        )


def test_criterion_6_round_trip_properties(capsys):
    spec = load_ontology(ONTOLOGY_TEXT)
    rng = random.Random(2204)
    pools = {name: spec.level(name).items for name in DETAIL_LEVELS}
    rt_failures = 0
    for _ in range(500):
        detail = {
            name: rng.choice(pools[name])
            for name in DETAIL_LEVELS
            if pools[name] and rng.random() < 0.6
        }
        if "sub-technique" in detail and "technique" not in detail:
            del detail["sub-technique"]
        assignment = LabelAssignment(
            rng.choice(("Benign", "Malicious", "Unknown")), detail
        )
        rendered = render_detailed_label(assignment)
        if parse_detailed_label(rendered, spec) != dict(assignment.detail):
            rt_failures += 1

    byte_failures = 0
    fixtures = sorted(PROPLOGS.glob("*.log")) + [DATA_DIR / "portscan" / "conn.log"]
    for path in fixtures:
        original = path.read_text().splitlines()
        table = _read(path)
        out = io.StringIO()
        write_log(table, [EMPTY_PAIR] * len(table), out)
        written = out.getvalue().splitlines()
        if len(original) != len(written):
            byte_failures += 1
            continue
        for old, new in zip(original, written):
            if old.startswith("#fields"):
                expected = old + "\tlabel\tdetailed_label"
            elif old.startswith("#types"):
                expected = old + "\tstring\tstring"
            elif old.startswith("#"):
                expected = old
            else:
                expected = old + "\t(empty)\t(empty)"
            if new != expected:
                byte_failures += 1
    ok = rt_failures == 0 and byte_failures == 0
    with capsys.disabled():
        _report(
            6,
            "500 assignment round-trips and byte-stable TSV rewrites",
            ok,
            f"{rt_failures} render/parse failures, {byte_failures} byte diffs "
            f"across {len(fixtures)} files",
        )


def test_criterion_7_timeline_narrative(capsys):
    import ipaddress

    table = _read(TIMELINE / "conn.labeled.log")
    h = table.header
    flows = [
        LabeledFlow(
            uid=cells[h.index_of("uid")],
            start=float(cells[h.index_of("ts")]),
            src_ip=ipaddress.ip_address(cells[h.index_of("id.orig_h")]),
            label=cells[h.index_of("label")],
        )
        for cells in table.records
    ]
    with open(TIMELINE / "detections.jsonl", encoding="utf-8") as fh:
        detections = read_detections(fh)
    timelines = ip_detection_timeline(flows, detections, window=3600.0)
    attacker = ipaddress.ip_address("10.0.0.5")
    truth = ["P" if s.truth else "N" for s in timelines[attacker]]
    statuses = [s.status for s in timelines[attacker]]
    ok = truth == ["P", "N", "P"] and statuses == ["TP", "TN", "TP"]
    with capsys.disabled():
        _report(
            7,
            "attack/pause/attack narrative scores P,N,P and TP,TN,TP",
            ok,
            f"truth={','.join(truth)} statuses={','.join(statuses)}",
        )


_BIG_HEADER = (
    "#separator \\x09\n"
    "#set_separator\t,\n"
    "#empty_field\t(empty)\n"
    "#unset_field\t-\n"
    "#path\t{path}\n"
    "#open\t2023-01-24-13-00-00\n"
)
_CONN_FIELDS_LINE = (
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tservice"
    "\tduration\torig_bytes\tresp_bytes\tconn_state\tlocal_orig\tlocal_resp"
    "\tmissed_bytes\thistory\torig_pkts\torig_ip_bytes\tresp_pkts\tresp_ip_bytes"
    "\ttunnel_parents\n"
    "#types\ttime\tstring\taddr\tport\taddr\tport\tenum\tstring\tinterval\tcount"
    "\tcount\tstring\tbool\tbool\tcount\tstring\tcount\tcount\tcount\tcount"
    "\tset[string]\n"
)
_HTTP_FIELDS_LINE = (
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tmethod\turi\n"
    "#types\ttime\tstring\taddr\tport\taddr\tport\tstring\tstring\n"
)


def _write_big_conn(path, n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_BIG_HEADER.format(path="conn") + _CONN_FIELDS_LINE)
        chunk: list[str] = []
        for i in range(n):
            src = f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}"
            chunk.append(
                f"{1674550000 + i * 0.001:.6f}\tCBIG{i:08d}\t{src}\t40000"
                f"\t203.0.113.10\t443\ttcp\tssl\t1.5\t900\t4100\tSF\t-\t-\t0"
                f"\tShADadfF\t12\t1860\t10\t4900\t-"
            )
            if len(chunk) == 100_000:
                fh.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            fh.write("\n".join(chunk) + "\n")
        fh.write("#close\t2023-01-24-14-00-00\n")


def _write_big_http(path, n: int, conn_rows: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_BIG_HEADER.format(path="http") + _HTTP_FIELDS_LINE)
        chunk: list[str] = []
        for i in range(n):
            uid = f"CBIG{i % conn_rows:08d}"
            chunk.append(
                f"{1674550000 + i * 0.002:.6f}\t{uid}\t10.0.0.1\t40000"
                f"\t203.0.113.10\t80\tGET\t/{i}"
            )
            if len(chunk) == 100_000:
                fh.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            fh.write("\n".join(chunk) + "\n")
        fh.write("#close\t2023-01-24-14-00-00\n")


def test_criterion_8_scale_and_memory(tmp_path, capsys):
    conn_rows = 1_000_000
    http_rows = 500_000
    big = tmp_path / "big"
    big.mkdir()
    _write_big_conn(big / "conn.log", conn_rows)
    _write_big_http(big / "http.log", http_rows, conn_rows)
    config = tmp_path / "big.conf"
    config.write_text(
        "Malicious, From_malicious-To_malicious:\n"
        "    - srcIP=10.0.0.7 & Proto=tcp\n"
        "Benign, (empty):\n"
        "    - dstPort=443\n"
    )

    started = time.perf_counter()
    assert main(
        ["label", str(big / "conn.log"), "--config", str(config)]
    ) == 0
    assert main(
        ["propagate", str(big / "conn.labeled.log"), str(big)]
    ) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    time_ok = elapsed < 60.0

    # memory property: with one conn index, quadrupling the dependent log
    # must not move the propagation peak (streaming, index-bound memory)
    small = tmp_path / "mem_small"
    large = tmp_path / "mem_large"
    for d, rows in ((small, 40_000), (large, 160_000)):
        d.mkdir()
        _write_big_conn(d / "conn.log", 50_000)
        _write_big_http(d / "http.log", rows, 50_000)
        assert main(
            ["label", str(d / "conn.log"), "--config", str(config)]
        ) == 0
    capsys.readouterr()

    peaks: list[int] = []
    for d in (small, large):
        gc.collect()
        tracemalloc.start()
        assert main(["propagate", str(d / "conn.labeled.log"), str(d)]) == 0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak)
    capsys.readouterr()
    mem_ok = peaks[1] <= peaks[0] * 1.5 + (1 << 20)

    ok = time_ok and mem_ok
    with capsys.disabled():
        _report(
            8,
            "1M conn + 500k dependent rows labeled+propagated under 60s, "
            "memory flat in dependent-log size",
            ok,
            f"{elapsed:.1f}s; peaks {peaks[0] / 1e6:.1f}MB vs {peaks[1] / 1e6:.1f}MB "
            f"at 4x dependent rows",
        )
