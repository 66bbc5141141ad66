"""No command loads OpenSSL: the config's sha256 comes from the interpreter's own SHA-256 module, so ``_hashlib``
(and the libcrypto it maps) stays out of every run.

The check runs each command through ``zeeklabel.cli.main`` in a fresh interpreter, as the test runner has loaded
``hashlib`` already. The module needs no test dependency, so it also runs as a script on any interpreter:
``python tests/test_no_openssl.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC, DATA = TESTS.parent / "src", TESTS / "data"

# every command on the fixtures, each to exit 0, then the modules of OpenSSL that the run loaded
RUN = """import sys
from zeeklabel.cli import main
data, work = sys.argv[1:]
props, fig2 = f"{data}/proplogs", f"{data}/fig2"
runs = [
    ["label", f"{props}/conn.log", "--config", f"{props}/labeling.conf", "--output", f"{work}/conn.labeled.log"],
    ["propagate", f"{work}/conn.labeled.log", props, "--output", f"{work}/out"],
    ["eval", f"{fig2}/conn.labeled.log", f"{fig2}/detections.jsonl"],
    ["eval", f"{fig2}/conn.labeled.log", f"{fig2}/detections.jsonl", "--json"],
    ["validate-config", "--config", f"{props}/labeling.conf"],
    ["show-ontology", "--config", f"{props}/labeling.conf"],
]
for argv in runs:
    if main(argv) != 0:
        sys.exit(f"zeeklabel {' '.join(argv)}: not exit 0")
print("loaded:", *sorted({"_hashlib", "hashlib"} & set(sys.modules)))
"""


def loaded_by_the_commands(work: Path) -> list[str]:
    """The modules of OpenSSL that a fresh interpreter loaded while it ran every command, writing into ``work``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", RUN, str(DATA), str(work)], env=env, capture_output=True, text=True)
    if run.returncode != 0:  # raised, not asserted, so that the script checks it under -O too
        raise AssertionError(run.stderr)
    return run.stdout.splitlines()[-1].split()[1:]


def test_no_command_loads_openssl(tmp_path):
    assert "_hashlib" not in loaded_by_the_commands(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        loaded = loaded_by_the_commands(Path(work))
    print(f"{sys.version.split()[0]}: every command ran; OpenSSL modules loaded: {loaded or 'none'}")
    sys.exit(1 if "_hashlib" in loaded else 0)
