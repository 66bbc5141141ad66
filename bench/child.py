"""Run one zeeklabel command in a fresh process and record what it cost.

    python3 bench/child.py MODE RESULT_JSON [COMMAND ARG ...]

MODE is ``probe`` (import zeeklabel.cli and stop), ``plain`` (run the command
untraced), ``trace`` (run it with counters and spans) or ``heap`` (run it with
spans under tracemalloc). The command's standard output and error stay on this
process's, which the parent points at files. The measurements go to
RESULT_JSON as one JSON object; ``ready_ns`` is CLOCK_MONOTONIC when
``zeeklabel.cli.main`` became callable, which the parent subtracts from the
moment it spawned this process.
"""

import sys
import time

CALIBRATION_ROWS = 40_000


def _run() -> None:
    from zeeklabel.cli import main

    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    import json
    import resource
    import tracemalloc

    import zeeklabel

    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"ready_ns": ready_ns, "zeeklabel_file": zeeklabel.__file__, "rc": 0, "error": None}
    result["calibration_ns"] = [calibrate()]
    if mode != "probe":
        tracer = None
        command = main
        if mode in ("trace", "heap"):
            from tracer import Tracer

            tracer = Tracer(heap=mode == "heap")
            tracer.install()
            command = tracer.span("cli.main", main)
            if tracer.heap:
                tracemalloc.start()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter_ns()
        try:
            result["rc"] = command(argv)
        except SystemExit as exc:
            result["rc"] = exc.code
            result["error"] = f"SystemExit({exc.code!r})"
        except Exception as exc:  # the run is reported as failed, not retried
            result["rc"] = None
            result["error"] = f"{type(exc).__name__}: {exc}"
        wall_ns = time.perf_counter_ns() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        sys.stdout.flush()
        if tracer is not None and tracer.heap:
            tracemalloc.stop()
        result["wall_ns"] = wall_ns
        result["calibration_ns"].append(calibrate())
        result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result["maxrss_kb"] = _peak_rss_kb(after.ru_maxrss)
        if tracer is not None:
            result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def calibrate() -> int:
    """Nanoseconds this process takes for a fixed piece of pure-Python work.

    The work splits a Zeek-like row, converts two cells and counts a key in a
    dict, like the per-row work of zeeklabel. The parent divides it into
    CALIBRATION_REF_NS to scale the run's times to a reference CPU speed.
    """
    line = "1674518401.123456\tCk3Vd3x1GxOtB7rtk9\t10.1.2.3\t51234\t100.64.0.9\t443\ttcp\tSF"
    counts: dict[str, int] = {}
    start = time.perf_counter_ns()
    for i in range(CALIBRATION_ROWS):
        cells = line.split("\t")
        key = cells[6] + str(i & 1023)
        counts[key] = counts.get(key, 0) + int(cells[5]) + int(float(cells[0]))
    return time.perf_counter_ns() - start


def _peak_rss_kb(ru_maxrss: int) -> int:
    """This process image's peak RSS in KiB.

    On Linux ``ru_maxrss`` of a process started by fork or vfork and exec
    keeps the parent's high-water mark when that is larger, so it would
    report the benchmark's own memory. VmHWM belongs to the new image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return ru_maxrss


if __name__ == "__main__":
    _run()
