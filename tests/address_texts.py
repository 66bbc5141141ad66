"""Address texts, spelled every way the parsers might read differently, and the comparison of two parsers.

    PYTHONPATH=src python tests/address_texts.py [COUNT] [SEED]

compares ``metrics._address`` with ``ipaddress.ip_address`` on the edge texts and
on COUNT (default 200,000) seeded random texts, with no test framework, so that
it runs on every Python the package supports; it prints the first texts on
which they differ and exits 1, or prints the count and exits 0.
``tests/test_metrics.py`` runs the same comparison under hypothesis.
"""

from __future__ import annotations

import ipaddress
import random
import sys

EDGE_TEXTS = [
    "1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1", "01.2.3.4", "1.2.3.04", "1.2.3.0", "1.2.3", "1.2.3.4.5",
    "1.2.3.4.", ".1.2.3.4", "1..2.3", "::", "::1", "1::", "::ffff:1.2.3.4", "::ffff:01.2.3.4", "::1.2.3.04",
    "1:2:3:4:5:6:1.2.3.4", "1:2:3:4:5:6:7::", "1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8",
    "fd00::3d5b6c", "::FFFF:C612:6", "fe80::1%eth0", "fe80::1%", "1.2.3.4%1", "1.2.3.4\0", "::1\0", "1.2.3.\udcff",
    "١.٢.٣.٤", "::١", " 1.2.3.4", "::1 ", "", "0001:0002::0003", "00001::", "1:::2",
]


def outcome(parse, text: str) -> tuple:
    """``parse(text)`` as its type, value and scope id, or the type and message of the ValueError it raised."""
    try:
        ip = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(ip), int(ip), getattr(ip, "scope_id", None)


def _ipv4(rng: random.Random) -> str:
    octets = [str(rng.choice([0, rng.randrange(10), rng.randrange(256), rng.randrange(250, 300)]))
              for _ in range(rng.choice([4, 4, 4, 3, 5]))]
    if rng.random() < 0.15:  # a leading zero
        at = rng.randrange(len(octets))
        octets[at] = "0" + octets[at]
    return ".".join(octets)


def _ipv6(rng: random.Random) -> str:
    groups = [f"{rng.choice([0, 0, 1, rng.randrange(0x10000)]):x}" for _ in range(8)]
    if rng.random() < 0.2:  # leading zeros, up to a group of five digits
        at = rng.randrange(8)
        groups[at] = groups[at].zfill(rng.choice([2, 4, 5]))
    if rng.random() < 0.25:  # a dotted tail
        groups[6:] = [_ipv4(rng)]
    if rng.random() < 0.05:  # a group too many
        groups.insert(rng.randrange(len(groups) + 1), "1")
    elif rng.random() < 0.05:  # a group too few
        groups.pop()
    text = ":".join(groups)
    if rng.random() < 0.7:  # "::" for the groups from start to end, none of them at either end or in the middle
        start = rng.randrange(len(groups) + 1)
        end = rng.randrange(start, len(groups) + 1)
        text = ":".join(groups[:start]) + "::" + ":".join(groups[end:])
    if rng.random() < 0.05:
        text = "::ffff:" + _ipv4(rng)
    return text.upper() if rng.random() < 0.2 else text


def random_text(rng: random.Random) -> str:
    """An IPv4 or IPv6 text, often respelled, sometimes broken: a scope id, whitespace, a NUL, a lone surrogate or
    a non-ASCII digit."""
    text = _ipv6(rng) if rng.random() < 0.6 else _ipv4(rng)
    roll = rng.random()
    if roll < 0.08:
        text += "%" + rng.choice(["eth0", "1", "", "%", "x y"])
    elif roll < 0.11:
        text = rng.choice([" ", "\t", "\n"]) + text if rng.random() < 0.5 else text + " "
    elif roll < 0.16 and text:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(["\0", "\udcff", "\ud800", "١", "३", "１", "²"]) + text[at:]
    return text


def main(argv: list[str]) -> int:
    from zeeklabel.metrics import _address

    count = int(argv[0]) if argv else 200_000
    rng = random.Random(int(argv[1]) if len(argv) > 1 else 0)
    texts = [*EDGE_TEXTS, *(random_text(rng) for _ in range(count))]
    differ = [text for text in texts if outcome(_address, text) != outcome(ipaddress.ip_address, text)]
    for text in differ[:10]:
        print(f"{text!r}: {outcome(_address, text)} != {outcome(ipaddress.ip_address, text)}")
    accepted = sum(type(outcome(ipaddress.ip_address, text)[1]) is int for text in texts)
    print(f"Python {sys.version.split()[0]}: {len(texts)} texts ({accepted} addresses), {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
