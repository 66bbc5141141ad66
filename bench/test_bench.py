"""Self-tests of the benchmark harness (stdlib unittest).

    python3 -m unittest discover -s bench -p 'test_*.py'

Run from the root of the checkout. They use small inputs and take a few
seconds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "label": dict(rows=3000),
    "propagate": dict(scale=0.01),
    "eval_flows": dict(flows=3000, ips=100),
    "eval_timeline": dict(ips=5, days=1.0),
}


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TempDirTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp(prefix="zeeklabel-bench-"))
        self.addCleanup(shutil.rmtree, self.tmp, True)


class GeneratorTest(TempDirTest):
    def test_same_seed_same_bytes(self) -> None:
        for name, gen in workloads.GENERATORS.items():
            with self.subTest(workload=name):
                a, b, c = (self.tmp / name / d for d in ("a", "b", "c"))
                for d in (a, b, c):
                    d.mkdir(parents=True)
                wa = gen(a, 7, **SMALL[name])
                wb = gen(b, 7, **SMALL[name])
                gen(c, 8, **SMALL[name])
                self.assertEqual(_digests(a), _digests(b))
                self.assertNotEqual(_digests(a), _digests(c))
                self.assertEqual(sorted(wa.expected_files.values()), sorted(wb.expected_files.values()))
                self.assertEqual(wa.expected_counts, wb.expected_counts)


def _flip_tsv_label(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    i = next(i for i in range(len(lines) - 1, -1, -1) if lines[i] and not lines[i].startswith("#"))
    cells = lines[i].split("\t")
    cells[-2] = "Benign" if cells[-2] != "Benign" else "Malicious"
    lines[i] = "\t".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def _flip_json_label(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["label"] = "Benign" if obj["label"] != "Benign" else "Malicious"
    lines[0] = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _flip_json_count(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["flow"]["counts"]["tp"] += 1
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _flip_text_count(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    i = max(i for i, line in enumerate(lines) if line.strip().startswith("TP "))
    lines[i] = lines[i].replace("TN ", "TN 1", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class OutputCheckTest(TempDirTest):
    """A run whose output differs from the expectation in one cell fails."""

    def _bench(self, name: str) -> run.Bench:
        (self.tmp / "in").mkdir()
        wl = workloads.GENERATORS[name](self.tmp / "in", 3, **SMALL[name])
        return run.Bench(ROOT, wl, self.tmp, limit=time.monotonic() + 120)

    def _flip_fails(self, name: str, flip) -> None:
        bench = self._bench(name)
        ok = bench.invoke("plain")
        self.assertEqual(ok.problems, [])
        self.assertGreater(ok.wall_s, 0)
        flip(bench)
        self.assertNotEqual(bench.judge("plain", {**ok.result, "error": None, "rc": 0}), [])

    def test_label_cell(self) -> None:
        self._flip_fails("label", lambda b: _flip_tsv_label(next(iter(b.workload.expected_files))))

    def test_propagate_json_label(self) -> None:
        def flip(b):
            _flip_json_label(next(p for p in b.workload.expected_files if p.name == "dns.labeled.log"))
        self._flip_fails("propagate", flip)

    def test_propagate_x509_label(self) -> None:
        def flip(b):
            _flip_tsv_label(next(p for p in b.workload.expected_files if p.name == "x509.labeled.log"))
        self._flip_fails("propagate", flip)

    def test_eval_json_count(self) -> None:
        self._flip_fails("eval_flows", lambda b: _flip_json_count(b.work / "stdout.txt"))

    def test_eval_text_count(self) -> None:
        self._flip_fails("eval_timeline", lambda b: _flip_text_count(b.work / "stdout.txt"))

    def test_failed_run_is_counted(self) -> None:
        bench = self._bench("label")
        path = next(iter(bench.workload.expected_files))
        bench.workload.expected_files[path] = "0" * 64
        failed = bench.invoke("plain")
        self.assertTrue(failed.problems)
        self.assertIn(failed, bench.runs)
        self.assertNotIn("wall_s", run.end_to_end(bench.runs))


class OutsideCheckoutTest(TempDirTest):
    def test_exits_nonzero_without_result(self) -> None:
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, self.tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "label", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
