"""Seeded input generators and reference results for the benchmark workloads.

Each generator writes one workload's input files into an empty directory and
returns a :class:`Workload`: the zeeklabel command line, the input row count
of every log, and the expected results. The expectations are worked out here
from what the generator planted, without importing zeeklabel, so a wrong
label or count from the program under test shows as a failed run.

The same seed always gives the same bytes: every random choice comes from one
``random.Random`` per workload, and nothing depends on hash or set order.
"""

from __future__ import annotations

import hashlib
import itertools
import ipaddress
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

EMPTY = "(empty)"
EMPTY_PAIR = (EMPTY, EMPTY)
_RANK = {"Malicious": 3, "Unknown": 2, "Benign": 1}

DAY1 = 1674518400  # 2023-01-24 00:00:00 UTC
DAY2 = DAY1 + 86400

CONN_FIELDS = (
    "ts uid id.orig_h id.orig_p id.resp_h id.resp_p proto service duration "
    "orig_bytes resp_bytes conn_state local_orig local_resp missed_bytes "
    "history orig_pkts orig_ip_bytes resp_pkts resp_ip_bytes tunnel_parents"
).split()
CONN_TYPES = (
    "time string addr port addr port enum string interval count count string "
    "bool bool count string count count count count set[string]"
).split()

_COUNTS_RE = re.compile(r"^\s*TP (\d+)\s+FP (\d+)\s+FN (\d+)\s+TN (\d+)\s*$")


@dataclass
class Workload:
    """What one generated workload runs and what it must produce."""

    name: str
    argv: list[str]
    rows: dict[str, int]
    # output path -> sha256 of the exact bytes the program must write
    expected_files: dict[Path, str] = field(default_factory=dict)
    # "flow"/"ip" -> {"tp", "fp", "fn", "tn"} for the eval workloads
    expected_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    json_output: bool = False
    stats: dict[str, int] = field(default_factory=dict)

    def clean_outputs(self) -> None:
        for path in self.expected_files:
            path.unlink(missing_ok=True)

    def check(self, stdout: str) -> list[str]:
        """Problems with one run's outputs; an empty list means correct."""
        problems: list[str] = []
        for path, digest in self.expected_files.items():
            try:
                got = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError as exc:
                problems.append(f"{path.name}: {exc.strerror}")
                continue
            if got != digest:
                problems.append(f"{path.name}: sha256 {got[:12]} != expected {digest[:12]}")
        if self.expected_counts:
            try:
                counts = _parse_eval_counts(stdout, self.json_output)
            except (ValueError, KeyError, TypeError) as exc:
                return problems + [f"eval output unreadable: {exc}"]
            for level, want in self.expected_counts.items():
                if counts.get(level) != want:
                    problems.append(f"{level} counts {counts.get(level)} != expected {want}")
        return problems


def _parse_eval_counts(stdout: str, is_json: bool) -> dict[str, dict[str, int]]:
    if is_json:
        payload = json.loads(stdout)
        return {
            level: {k: int(payload[level]["counts"][k]) for k in ("tp", "fp", "fn", "tn")}
            for level in ("flow", "ip")
        }
    found = []
    for line in stdout.splitlines():
        m = _COUNTS_RE.match(line)
        if m:
            found.append(dict(zip(("tp", "fp", "fn", "tn"), map(int, m.groups()))))
    if len(found) != 2:
        raise ValueError(f"expected 2 'TP FP FN TN' lines, found {len(found)}")
    return {"flow": found[0], "ip": found[1]}


# --------------------------------------------------------------------------
# shared writing helpers


def _preamble(path: str, fields: list[str], types: list[str]) -> list[str]:
    return [
        "#separator \\x09",
        "#set_separator\t,",
        "#empty_field\t(empty)",
        "#unset_field\t-",
        f"#path\t{path}",
        "#open\t2023-01-24-00-00-00",
        "#fields\t" + "\t".join(fields),
        "#types\t" + "\t".join(types),
    ]


_CLOSE = "#close\t2023-01-31-00-00-00"


class _TsvLog:
    """Writes a TSV log and, alongside, the labeled copy the program must write."""

    def __init__(self, path: Path, zeek_path: str, fields: list[str], types: list[str],
                 labeled_copy: bool = True):
        self.path = path
        self._in: list[str] = []
        self._out: list[str] | None = [] if labeled_copy else None
        for line in _preamble(zeek_path, fields, types):
            self._in.append(line)
            if self._out is not None:
                if line.startswith("#fields\t"):
                    line += "\tlabel\tdetailed_label"
                elif line.startswith("#types\t"):
                    line += "\tstring\tstring"
                self._out.append(line)

    def row(self, line: str, pair: tuple[str, str] = EMPTY_PAIR) -> None:
        self._in.append(line)
        if self._out is not None:
            self._out.append(f"{line}\t{pair[0]}\t{pair[1]}")

    def close(self) -> str:
        """Write the input file; return the sha256 of the expected labeled copy."""
        self._in.append(_CLOSE)
        self.path.write_text("\n".join(self._in) + "\n", encoding="utf-8")
        if self._out is None:
            return ""
        self._out.append(_CLOSE)
        return hashlib.sha256(("\n".join(self._out) + "\n").encode()).hexdigest()


def _labeled_path(path: Path) -> Path:
    return path.with_name(path.name[: -len(".log")] + ".labeled.log")


class _Uids:
    """Zeek-style ids of 17 characters after the prefix, unique within a workload."""

    def __init__(self, rng: random.Random, prefix: str):
        self._rng = rng
        self._prefix = prefix
        self._n = 0

    def __call__(self) -> str:
        self._n += 1
        return f"{self._prefix}{self._rng.getrandbits(44):011x}{self._n:06x}"


def _net(dotted: str) -> int:
    return int(ipaddress.IPv4Address(dotted))


def _v4(n: int, base: int) -> str:
    value = base + n
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


_NET_10_0 = _net("10.0.0.0")
_NET_10_1 = _net("10.1.0.0")
_NET_100_64 = _net("100.64.0.0")
_NET_172_16 = _net("172.16.0.0")
_NET_192_0_2 = _net("192.0.2.0")
_NET_198_18 = _net("198.18.0.0")


def _zipf_cum(n: int, s: float = 1.1) -> list[float]:
    """Cumulative Zipf weights, for ``random.choices(..., cum_weights=...)``."""
    return list(itertools.accumulate(1.0 / (i + 1) ** s for i in range(n)))


def _conn_line(
    ts: float, uid: str, src: str, sport: int, dst: str, dport: int, proto: str,
    service: str, duration: str, ob: str, rb: str, state: str, opk: int, rpk: int,
) -> str:
    oib = int(ob) + 40 * opk if ob != "-" else 0
    rib = int(rb) + 40 * rpk if rb != "-" else 0
    return (
        f"{ts:.6f}\t{uid}\t{src}\t{sport}\t{dst}\t{dport}\t{proto}\t{service}"
        f"\t{duration}\t{ob}\t{rb}\t{state}\t-\t-\t0\tShADadfF\t{opk}\t{oib}"
        f"\t{rpk}\t{rib}\t-"
    )


# --------------------------------------------------------------------------
# label: many per-host rules, most flows fall through all of them

LABEL_ONTOLOGY = """\
[ontology]
technique: Discovery, Impact, Command_and_control, Lateral_movement
sub-technique: Port_discovery, Network_DoS
process: Linux, Windows
app-protocol: HTTPS, DNS
"""

_HOST_DETAILS = (
    "From_malicious-To_benign-Discovery-Port_discovery-Linux",
    "From_malicious-To_benign-Lateral_movement-Windows",
    "From_malicious-To_malicious-Command_and_control",
)
_P_DOS = ("Malicious", "From_malicious-To_benign-Impact-Network_DoS")
_P_HTTPS = ("Benign", "From_benign-To_benign-HTTPS")
_P_DNS = ("Benign", "From_benign-To_benign-DNS")
_P_REJ = ("Unknown", EMPTY)
_P_C2 = ("Malicious", "From_malicious-To_malicious-Command_and_control")

# Generic rules after the host rules. The generator builds each flow so that
# exactly the rule it planted is the first to match.
_GENERIC_RULES = f"""\
{_P_DOS[0]}, {_P_DOS[1]}:
    - Proto=udp and Bytes>=5000000
    - Proto=tcp and State=S0 and Packets>=10000
{_P_HTTPS[0]}, {_P_HTTPS[1]}:
    - Proto=tcp and dstPort=443 and State=SF
{_P_DNS[0]}, {_P_DNS[1]}:
    - Proto=udp and dstPort=53 & Duration<5
{_P_REJ[0]}, {_P_REJ[1]}:
    - State=REJ AND Date=2023-01-25
{_P_C2[0]}, {_P_C2[1]}:
    - Proto=tcp and dstPort=8443 and Duration>=600
"""

# flow classes of the label workload and their shares of the rows
_LABEL_MIX = (
    ("host_src", 0.025),
    ("host_dst", 0.025),
    ("dos_udp", 0.01),
    ("dos_syn", 0.01),
    ("https", 0.35),
    ("dns", 0.25),
    ("dns_slow", 0.03),
    ("rej_day2", 0.04),
    ("c2", 0.015),
    ("none", 0.245),
)


def gen_label(directory: Path, seed: int, rows: int = 6_000) -> Workload:
    """A TSV conn.log and a config with 20 per-host Malicious rules.

    95% of source addresses are seen once, so zeeklabel's address cache
    misses on nearly every row. From about 72k rows on, there are more
    distinct addresses than its 65,536 entries.
    """
    hosts = 20
    rng = random.Random(f"label:{seed}")
    uid = _Uids(rng, "C")

    host_ips: list[tuple[str, str]] = []  # (text in the log, text in the rule)
    host_ports: list[int] = []
    for k in range(hosts):
        if k % 10 == 9:
            low = 0x60 + k
            # same address, written compressed in the log and in full in the rule
            host_ips.append((f"2001:db8:bad::{low:x}", f"2001:0db8:0bad:0000:0000:0000:0000:{low:04x}"))
        else:
            host_ips.append((_v4(1 + k * 7 + rng.randrange(7), _NET_198_18), ""))
        host_ports.append(rng.choice((4444, 5555, 6667, 31337, 1337, 9001)))
    rule_blocks = []
    for k, (log_ip, rule_ip) in enumerate(host_ips):
        ip = rule_ip or log_ip
        rule_blocks.append(
            f"Malicious, {_HOST_DETAILS[k % len(_HOST_DETAILS)]}:\n"
            f"    - srcIP={ip} and Proto=TCP\n"
            f"    - dstIP={ip} and dstPort={host_ports[k]}\n"
        )
    config = directory / "label.conf"
    config.write_text(
        LABEL_ONTOLOGY + "\n[rules]\n# per-host rules\n" + "".join(rule_blocks)
        + "# generic rules\n" + _GENERIC_RULES,
        encoding="utf-8",
    )

    servers4 = [_v4(rng.randrange(1 << 20), _NET_100_64) for _ in range(3000)]
    servers6 = [f"2001:db8:5::{rng.randrange(1 << 16):x}" for _ in range(100)]
    busy = [_v4(rng.randrange(1 << 20), _NET_172_16) for _ in range(2000)]
    busy_w = _zipf_cum(len(busy))
    sw4 = _zipf_cum(len(servers4))
    fresh = rng.sample(range(1 << 23), rows)  # distinct 10.x client addresses
    classes = [name for name, _ in _LABEL_MIX]
    shares = [share for _, share in _LABEL_MIX]

    flows = []
    for i in range(rows):
        kind = rng.choices(classes, shares)[0]
        v6 = rng.random() < 0.05
        if rng.random() < 0.95:
            src = f"fd00::{fresh[i]:x}" if v6 else _v4(fresh[i], _NET_10_0)
        else:
            src = f"fd00:1::{rng.randrange(2000):x}" if v6 else rng.choices(busy, cum_weights=busy_w)[0]
        dst = rng.choice(servers6) if v6 else rng.choices(servers4, cum_weights=sw4)[0]
        day = DAY1 if rng.random() < 0.5 else DAY2
        ts = day + 1 + rng.random() * 86398
        sport = rng.randrange(1024, 65536)
        proto, service, dport, state = "tcp", "-", 80, "SF"
        dur = f"{rng.random() * 30:.6f}"
        ob, rb = rng.randrange(40, 20000), rng.randrange(40, 200000)
        opk, rpk = rng.randrange(1, 200), rng.randrange(1, 400)
        pair = EMPTY_PAIR
        if kind in ("host_src", "host_dst"):
            k = rng.randrange(hosts)
            log_ip = host_ips[k][0]
            pair = ("Malicious", _HOST_DETAILS[k % len(_HOST_DETAILS)])
            is6 = ":" in log_ip
            if kind == "host_src":
                src = log_ip
                dst = rng.choice(servers6) if is6 else rng.choices(servers4, cum_weights=sw4)[0]
                dport = rng.choice((22, 80, 443, 445, 3389))
                state = rng.choice(("SF", "S0", "REJ", "RSTO"))
            else:
                dst = log_ip
                src = f"fd00::{fresh[i]:x}" if is6 else _v4(fresh[i], _NET_10_0)
                dport = host_ports[k]
                proto = rng.choice(("tcp", "udp"))
        elif kind == "dos_udp":
            proto, dport = "udp", rng.choice((123, 1900, 11211))
            ob, state = rng.randrange(5_000_000, 9_000_000), "S0"
            pair = _P_DOS
        elif kind == "dos_syn":
            state, opk, rpk = "S0", rng.randrange(10_000, 50_000), 0
            pair = _P_DOS
        elif kind == "https":
            dport, service = 443, "ssl"
            pair = _P_HTTPS
        elif kind in ("dns", "dns_slow"):
            proto, dport, service = "udp", 53, "dns"
            ob, rb = rng.randrange(30, 120), rng.randrange(60, 600)
            if kind == "dns":
                dur, pair = f"{rng.random() * 4.9:.6f}", _P_DNS
            else:
                dur = f"{5 + rng.random() * 20:.6f}"
        elif kind == "rej_day2":
            ts = DAY2 + 1 + rng.random() * 86398
            dport, state, rb, rpk = rng.choice((23, 25, 139, 8080)), "REJ", 0, 1
            pair = _P_REJ
        elif kind == "c2":
            dport, service = 8443, "ssl"
            dur = f"{600 + rng.random() * 6600:.6f}"
            pair = _P_C2
        else:  # falls through every rule
            if rng.random() < 0.1:
                proto, dport, state, sport = "icmp", 0, "OTH", 8
                dur, ob, rb = "-", "-", "-"
            else:
                dport = rng.choice((22, 80, 8080, 3389))
                state = rng.choice(("S0", "SF", "RSTO") if day == DAY2 else ("S0", "SF", "RSTO", "REJ"))
        flows.append((ts, _conn_line(ts, uid(), src, sport, dst, dport, proto, service,
                                     dur, str(ob), str(rb), state, opk, rpk), pair))
    flows.sort(key=lambda f: f[0])

    conn = _TsvLog(directory / "conn.log", "conn", CONN_FIELDS, CONN_TYPES)
    for _, line, pair in flows:
        conn.row(line, pair)
    digest = conn.close()
    distinct_src = len({line.split("\t", 3)[2] for _, line, _ in flows})
    return Workload(
        name="label",
        argv=["label", str(conn.path), "--config", str(config)],
        rows={"conn": rows},
        expected_files={_labeled_path(conn.path): digest},
        stats={"rules": hosts + 5, "distinct_src_ips": distinct_src,
               "labeled_rows": sum(1 for f in flows if f[2] != EMPTY_PAIR)},
    )


# --------------------------------------------------------------------------
# propagate: a labeled conn.log and six other logs in both formats

_CONN_PAIRS = (
    (("Malicious", "From_malicious-To_benign-Discovery-Port_discovery-Linux"), 5),
    (("Malicious", "From_malicious-To_benign-Lateral_movement-Windows"), 4),
    (("Malicious", "From_malicious-To_malicious-Command_and_control"), 3),
    (("Benign", "From_benign-To_benign-HTTPS"), 25),
    (("Benign", "From_benign-To_benign"), 20),
    (("Unknown", EMPTY), 8),
    (EMPTY_PAIR, 35),
)


def _merge(pairs: list[tuple[str, str] | None]) -> tuple[str, str]:
    """Most severe pair; the first one seen wins a tie; None is (empty)."""
    best, best_rank = EMPTY_PAIR, 0
    for pair in pairs:
        rank = _RANK.get(pair[0], 0) if pair else 0
        if rank > best_rank:
            best, best_rank = pair, rank
    return best


def gen_propagate(directory: Path, seed: int, scale: float = 0.1) -> Workload:
    """conn.labeled.log plus http, dns (JSON lines), files, ssl, x509, software.

    At scale 1: 300k conn rows, 150k http, 100k dns, 50k files, 50k ssl, 22k
    x509 and 5k software rows. About 2% of the uids other logs reference are
    not in conn.log, a few conn uids repeat and a few are unset.
    """
    rng = random.Random(f"propagate:{seed}")
    uid = _Uids(rng, "C")
    n = {k: max(1, int(v * scale)) for k, v in dict(
        conn=300_000, http=150_000, dns=100_000, files=50_000, ssl=50_000,
        x509=22_000, software=5_000).items()}
    logs = directory / "logs"
    logs.mkdir()

    pairs = [p for p, _ in _CONN_PAIRS]
    weights = [w for _, w in _CONN_PAIRS]
    index: dict[str, tuple[str, str]] = {}
    conn_uids: list[str] = []
    conn = _TsvLog(directory / "conn.labeled.log", "conn",
                   CONN_FIELDS + ["label", "detailed_label"], CONN_TYPES + ["string", "string"],
                   labeled_copy=False)
    duplicates = unset = 0
    for i in range(n["conn"]):
        pair = rng.choices(pairs, weights)[0]
        r = rng.random()
        if r < 0.001:
            u, unset = "-", unset + 1
        elif r < 0.003 and conn_uids:
            u, duplicates = rng.choice(conn_uids), duplicates + 1
        else:
            u = uid()
            conn_uids.append(u)
            index[u] = pair
        ts = DAY1 + i * 0.25
        line = _conn_line(ts, u, _v4(rng.randrange(1 << 16), _NET_10_1), rng.randrange(1024, 65536),
                          _v4(rng.randrange(4096), _NET_100_64), 443, "tcp", "ssl", "1.5",
                          str(rng.randrange(40, 9000)), str(rng.randrange(40, 90000)), "SF", 9, 12)
        conn.row(f"{line}\t{pair[0]}\t{pair[1]}")
    conn.close()

    def ref_uid() -> str:
        return uid() if rng.random() < 0.02 else rng.choice(conn_uids)

    expected: dict[Path, str] = {}

    http = _TsvLog(logs / "http.log", "http",
                   "ts uid id.orig_h id.orig_p id.resp_h id.resp_p trans_depth method host uri status_code".split(),
                   "time string addr port addr port count string string string count".split())
    for i in range(n["http"]):
        u = ref_uid()
        http.row(f"{DAY1 + i * 0.5:.6f}\t{u}\t10.1.0.{i % 250 + 1}\t{40000 + i % 20000}\t100.64.0.{i % 200 + 1}"
                 f"\t80\t{i % 3 + 1}\t{rng.choice(('GET', 'POST'))}\tsite{rng.randrange(500)}.example"
                 f"\t/p/{rng.randrange(100000)}\t{rng.choice((200, 200, 302, 404))}", index.get(u, EMPTY_PAIR))
    expected[_labeled_path(http.path)] = http.close()

    dns_in, dns_out = [], []
    for i in range(n["dns"]):
        u = ref_uid()
        obj = {"ts": round(DAY1 + i * 0.75 + rng.random() * 0.5, 6), "uid": u,
               "id.orig_h": f"10.1.0.{i % 250 + 1}", "id.orig_p": 50000 + i % 10000,
               "id.resp_h": "100.64.0.53", "id.resp_p": 53, "proto": "udp",
               "trans_id": rng.randrange(65536), "query": f"host{rng.randrange(5000)}.example",
               "qtype_name": rng.choice(("A", "AAAA")), "rcode_name": "NOERROR"}
        if rng.random() < 0.5:
            obj["answers"] = [_v4(rng.randrange(4096), _NET_100_64) for _ in range(rng.randint(1, 3))]
        line = json.dumps(obj, separators=(",", ":"))
        pair = index.get(u, EMPTY_PAIR)
        dns_in.append(line)
        dns_out.append(f'{line[:-1]},"label":{json.dumps(pair[0])},"detailed_label":{json.dumps(pair[1])}}}')
    (logs / "dns.log").write_text("\n".join(dns_in) + "\n", encoding="utf-8")
    expected[logs / "dns.labeled.log"] = hashlib.sha256(("\n".join(dns_out) + "\n").encode()).hexdigest()

    fuid = _Uids(rng, "F")
    files = _TsvLog(logs / "files.log", "files",
                    "ts fuid tx_hosts rx_hosts conn_uids source depth mime_type seen_bytes".split(),
                    "time string set[addr] set[addr] set[string] string count string count".split())
    for i in range(n["files"]):
        if rng.random() < 0.01:
            parents: list[str] = []
        else:
            parents = [ref_uid() for _ in range(rng.randint(1, 3))]
        files.row(f"{DAY1 + i * 1.5:.6f}\t{fuid()}\t100.64.0.{i % 200 + 1}\t10.1.0.{i % 250 + 1}"
                  f"\t{','.join(parents) or '-'}\tHTTP\t0\tapplication/octet-stream\t{rng.randrange(100, 99999)}",
                  _merge([index.get(u) for u in parents]))
    expected[_labeled_path(files.path)] = files.close()

    # certificates: 90% appear in some ssl chain, the rest are orphans
    certs = [fuid() for _ in range(n["x509"])]
    chained = certs[: max(1, n["x509"] * 9 // 10)]
    cert_pair: dict[str, tuple[str, str]] = {}
    ssl = _TsvLog(logs / "ssl.log", "ssl",
                  "ts uid id.orig_h id.orig_p id.resp_h id.resp_p version cipher server_name "
                  "resumed established cert_chain_fuids subject issuer".split(),
                  "time string addr port addr port string string string bool bool vector[string] "
                  "string string".split())
    for i in range(n["ssl"]):
        u = ref_uid()
        chain = rng.sample(chained, min(len(chained), rng.randint(1, 3)))
        pair = index.get(u, EMPTY_PAIR)
        for cert in chain:
            held = cert_pair.get(cert)
            if held is None or _RANK.get(pair[0], 0) > _RANK.get(held[0], 0):
                cert_pair[cert] = pair
        ssl.row(f"{DAY1 + i * 1.5:.6f}\t{u}\t10.1.0.{i % 250 + 1}\t{40000 + i % 20000}\t100.64.1.{i % 200 + 1}"
                f"\t443\tTLSv12\tTLS_AES_128_GCM_SHA256\tsite{i % 700}.example\tF\tT\t{','.join(chain)}"
                f"\tCN=site{i % 700}.example\tCN=BenchCA", pair)
    expected[_labeled_path(ssl.path)] = ssl.close()

    order = certs[:]
    rng.shuffle(order)
    x509 = _TsvLog(logs / "x509.log", "x509",
                   "ts id certificate.version certificate.serial certificate.subject".split(),
                   "time string count string string".split())
    for i, cert in enumerate(order):
        x509.row(f"{DAY1 + i * 3.0:.6f}\t{cert}\t3\t{rng.getrandbits(64):016X}\tCN=cert{i}.example",
                 cert_pair.get(cert, EMPTY_PAIR))
    expected[_labeled_path(x509.path)] = x509.close()

    software = _TsvLog(logs / "software.log", "software",
                       "ts host host_p software_type name version.major version.minor unparsed_version".split(),
                       "time addr port enum string count count string".split())
    for i in range(n["software"]):
        major, minor = rng.randrange(1, 30), rng.randrange(0, 10)
        software.row(f"{DAY1 + i * 10.0:.6f}\t10.1.0.{i % 250 + 1}\t-\tHTTP::BROWSER\tFirefox"
                     f"\t{major}\t{minor}\tMozilla/5.0 Firefox/{major}.{minor}")
    expected[_labeled_path(software.path)] = software.close()

    return Workload(
        name="propagate",
        argv=["propagate", str(conn.path), str(logs)],
        rows=dict(n),
        expected_files=expected,
        stats={"index_uids": len(index), "duplicate_uids": duplicates, "unset_uids": unset},
    )


# --------------------------------------------------------------------------
# eval: labeled flows plus detections, scored at flow and IP level


def _window_counts(flows, detections, window: float) -> dict[str, int]:
    """IP-level confusion counts, walking each address's events in order.

    Between two event windows nothing changes, so a quiet gap of k windows
    adds k negatives that are predicted positive only while the alert is
    still latched on a malicious last activity.
    """
    def win(t: float) -> int:
        return math.floor(t / window)

    acts: dict[object, set[int]] = {}
    mals: dict[object, set[int]] = {}
    dets: dict[object, set[int]] = {}
    for _, start, ip, label in flows:
        acts.setdefault(ip, set()).add(win(start))
        if label == "Malicious":
            mals.setdefault(ip, set()).add(win(start))
    for ip, time, _ in detections:
        dets.setdefault(ip, set()).add(win(time))
    all_w = [w for d in (acts, dets) for ws in d.values() for w in ws]
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    if not all_w:
        return counts
    lo, hi = min(all_w), max(all_w)
    for ip in set(acts) | set(dets):
        a, m, d = acts.get(ip, set()), mals.get(ip, set()), dets.get(ip, set())
        last = None
        alerted = False
        prev = lo - 1
        for w in sorted(a | d) + [hi + 1]:
            gap = w - prev - 1
            if gap > 0:
                counts["fp" if alerted and last in m else "tn"] += gap
            if w > hi:
                break
            if w in a:
                last = w
            if w in d:
                alerted = predicted = True
            else:
                predicted = alerted and last in m
            truth = w in m
            counts[("tp" if predicted else "fn") if truth else ("fp" if predicted else "tn")] += 1
            prev = w
    return counts


def _flow_counts(flows, evidence: set[str]) -> dict[str, int]:
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for uid, _, _, label in flows:
        if label == "Unknown":
            continue
        hit = uid in evidence
        if label == "Malicious":
            counts["tp" if hit else "fn"] += 1
        else:
            counts["fp" if hit else "tn"] += 1
    return counts


def _gen_eval(
    directory: Path, rng: random.Random, name: str, flows_n: int, ips_n: int,
    span: float, detections_n: int, window: float, as_json: bool,
) -> Workload:
    uid = _Uids(rng, "C")
    ips = []
    for i in range(ips_n):
        if i % 20 == 19:
            ips.append(f"fd00:2::{rng.randrange(1 << 16):x}:{i:x}")
        else:
            ips.append(_v4(rng.randrange(1 << 20) * 8 + i % 8, _NET_10_0))
    rng.shuffle(ips)
    weights = _zipf_cum(ips_n)
    bad = set(rng.sample(range(ips_n), max(1, ips_n * 3 // 100)))
    start0 = DAY1

    flows = []  # (uid, start, ip, label)
    lines = []
    for i in range(flows_n):
        # every address opens a flow, so the timeline's size does not depend on the seed
        k = i if i < ips_n else rng.choices(range(ips_n), cum_weights=weights)[0]
        ts = start0 + rng.random() * span
        if k in bad and rng.random() < 0.6:
            pair = ("Malicious", "From_malicious-To_benign-Command_and_control")
        else:
            pair = rng.choices(
                [("Benign", "From_benign-To_benign"), EMPTY_PAIR, ("Unknown", EMPTY)], [60, 35, 5])[0]
        flows.append((uid(), ts, k, pair))
    flows.sort(key=lambda f: f[1])
    conn = _TsvLog(directory / "conn.labeled.log", "conn",
                   CONN_FIELDS + ["label", "detailed_label"], CONN_TYPES + ["string", "string"],
                   labeled_copy=False)
    by_ip: dict[int, list[int]] = {}
    for j, (u, ts, k, pair) in enumerate(flows):
        by_ip.setdefault(k, []).append(j)
        line = _conn_line(ts, u, ips[k], rng.randrange(1024, 65536), _v4(rng.randrange(4096), _NET_100_64),
                          443, "tcp", "ssl", "0.8", str(rng.randrange(40, 9000)),
                          str(rng.randrange(40, 90000)), "SF", 8, 11)
        conn.row(f"{line}\t{pair[0]}\t{pair[1]}")
    conn.close()

    active = sorted(by_ip)
    bad_active = [k for k in active if k in bad] or active
    det_lines = []
    detections = []
    for i in range(detections_n):
        k = rng.choice(bad_active if rng.random() < 0.75 else active)
        own = by_ip[k]
        picks = rng.sample(own, min(len(own), rng.randint(1, 20)))
        evidence = [flows[j][0] for j in picks]
        time = max(flows[j][1] for j in picks) + rng.random() * 600
        ip = ips[k]
        if i % 50 == 49:  # an address that never opened a flow
            ip = _v4(i, _NET_192_0_2)
        det_lines.append(json.dumps({"ip": ip, "time": round(time, 6), "evidence": evidence}))
        detections.append((ipaddress.ip_address(ip), round(time, 6), evidence))
    det_path = directory / "detections.jsonl"
    det_path.write_text("\n".join(det_lines) + "\n", encoding="utf-8")

    addrs = [ipaddress.ip_address(ip) for ip in ips]
    ref_flows = [(u, float(f"{ts:.6f}"), addrs[k], pair[0]) for u, ts, k, pair in flows]
    evidence_all = {u for _, _, ev in detections for u in ev}
    argv = ["eval", str(conn.path), str(det_path), "--window", f"{window:g}"]
    if as_json:
        argv.append("--json")
    return Workload(
        name=name,
        argv=argv,
        rows={"conn": flows_n, "detections": detections_n},
        expected_counts={"flow": _flow_counts(ref_flows, evidence_all),
                         "ip": _window_counts(ref_flows, detections, window)},
        json_output=as_json,
        stats={"source_ips": len(active)},
    )


def gen_eval_flows(directory: Path, seed: int, flows: int = 15_000, ips: int = 300) -> Workload:
    """Many flows over one day from heavy-tailed sources; hourly windows, --json."""
    rng = random.Random(f"eval_flows:{seed}")
    return _gen_eval(directory, rng, "eval_flows", flows, ips, 86400.0, 300, 3600.0, True)


def gen_eval_timeline(directory: Path, seed: int, ips: int = 15, days: float = 7.0) -> Workload:
    """Few flows from ``ips`` sources over ``days`` days; one-minute windows, text."""
    rng = random.Random(f"eval_timeline:{seed}")
    return _gen_eval(directory, rng, "eval_timeline", 5000, ips, days * 86400.0, 200, 60.0, False)


GENERATORS = {
    "label": gen_label,
    "propagate": gen_propagate,
    "eval_flows": gen_eval_flows,
    "eval_timeline": gen_eval_timeline,
}
