"""Worker process for the reach workload: one correlator_set per request.

Reads one JSON request per line on stdin, {"l": ..., "r": ..., "trace": 0|1},
and answers each with one JSON line on stdout.  It caps its own address
space first, so a point whose grid needs many GiB raises MemoryError
here instead of pressing on the machine's memory.  The parent enforces
the per-point deadline by killing this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time

ADDRESS_SPACE_LIMIT = 2 * 1024**3

resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

import boxspin.correlators as correlators  # noqa: E402

from reference import PAIRS  # noqa: E402
from tracing import Tracer  # noqa: E402


def _answer(request: dict, tracer: Tracer | None) -> dict:
    clear = getattr(correlators, "clear_cache", None)
    if clear is not None:
        clear()
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.op = 1
        cs = correlators.correlator_set(request["l"], request["r"])
        reply = {
            "ok": True,
            "values": {p: getattr(cs, "c" + p) for p in PAIRS},
            "errors": {p: getattr(cs, "c" + p + "_err") for p in PAIRS},
        }
    except MemoryError:
        reply = {"ok": False, "kind": "MemoryError"}
    except Exception as exc:  # reported to the parent as a counted failure
        reply = {"ok": False, "kind": type(exc).__name__, "detail": str(exc)[:200]}
    reply["seconds"] = time.perf_counter() - start
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        reply["trace"] = tracer.to_json()
        tracer.spans.clear()
        tracer.counts.clear()
    return reply


def main() -> int:
    tracer = None
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("trace") and tracer is None:
            tracer = Tracer()
            tracer.install()
        print(json.dumps(_answer(request, tracer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
