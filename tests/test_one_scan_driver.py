"""One scan driver, no task threads.

The scan is step generators resumed on the calling thread by the loop
that also pumps the sockets (:mod:`repro.sched`, :mod:`repro.wire`).
``threading`` is the codec's thread-local scratch buffers and nothing
else, which is what lets the per-process memos (decoded rdata, seeded
keys, signatures) go without a lock.  Text checks only.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one module allowed to name ``threading`` (thread-local buffers).
THREADING_ALLOWED = {"dns/wire.py"}

CONCURRENCY = re.compile(r"Thread\(|asyncio|concurrent\.futures|call_soon_threadsafe")


def _sources():
    """(path relative to src/repro, text) of every file under src/repro."""
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8", errors="replace")


def test_only_the_codec_names_threading():
    naming = {name for name, text in _sources() if "threading" in text}
    assert naming <= THREADING_ALLOWED, sorted(naming - THREADING_ALLOWED)


def test_no_thread_asyncio_or_executor():
    found = [
        f"{name}:{number}: {line.strip()}"
        for name, text in _sources()
        for number, line in enumerate(text.splitlines(), 1)
        if CONCURRENCY.search(line)
    ]
    assert not found, found
