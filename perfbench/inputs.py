"""Seeded workload inputs built from the bundled fixture corpus.

Nothing is downloaded: every input is a line shuffle of
``tests/fixtures/corpus_bn.txt``, so the same seed gives the same bytes,
and every input is recorded with its sha256, byte count and unit count.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

from oracles import FIXTURE_SHA256, sha256, typable

FIXTURE = Path("tests") / "fixtures" / "corpus_bn.txt"
TRACE_LINES_MAX = 8


def record(name: str, data: bytes, units: int) -> dict:
    return {"name": name, "sha256": sha256(data), "bytes": len(data), "units": units}


def fixture_lines(root: Path) -> list[str]:
    raw = (root / FIXTURE).read_bytes()
    if sha256(raw) != FIXTURE_SHA256:
        raise RuntimeError(f"{FIXTURE} differs from the fixture the oracles were pinned on")
    return raw.decode("utf-8").split("\n")[:-1]


def write_corpus(root: Path, out: Path, copies: int, seed: int) -> dict:
    """``copies`` replicas of the fixture with their lines shuffled together."""
    lines = fixture_lines(root) * copies
    random.Random(f"corpus-x{copies}:{seed}").shuffle(lines)
    text = "\n".join(lines) + "\n"
    data = text.encode("utf-8")
    out.write_bytes(data)
    return record(out.name, data, len(typable(text)))


def trace_texts(root: Path, seed: int) -> list[str]:
    """Short texts of 1-8 fixture lines that together hold every line once.

    Text sizes cycle through 1..8 in a seeded order, so each seed gives the
    same mix of sizes and the same total work. Every third text carries a
    Latin/digit token, which the program must skip as untypable scalars.
    """
    rng = random.Random(f"trace-small:{seed}")
    lines = [line for line in fixture_lines(root) if line.strip()]
    rng.shuffle(lines)
    sizes = list(range(1, TRACE_LINES_MAX + 1)) * (len(lines) // 36 + 1)
    rng.shuffle(sizes)
    texts, start = [], 0
    for size in sizes:
        if start >= len(lines):
            break
        chunk = lines[start:start + size]
        start += size
        if len(texts) % 3 == 2:
            noise = "".join(rng.choice(string.ascii_letters + string.digits)
                            for _ in range(rng.randint(2, 8)))
            i = rng.randrange(len(chunk))
            cut = rng.randint(0, len(chunk[i]))
            chunk[i] = chunk[i][:cut] + noise + chunk[i][cut:]
        texts.append("\n".join(chunk) + "\n")
    return texts
