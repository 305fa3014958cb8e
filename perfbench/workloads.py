"""The four benchmark workloads and the checks on their outputs.

Each workload has ``setup_once()`` (timed by the runner, returns the
seconds it took), ``op()``, ``rewind()`` and ``close()``.  ``op()``
returns (seconds, units completed, checks attempted, checks failed);
the output checks run after the timed part and never raise: a failed
check is counted, and a unit whose output fails a check is not
completed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import selectors
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import points
import reference as ref

HERE = Path(__file__).resolve().parent

# A computed value fails its check when it is further than this from
# the reference (plus the reference's own error).  Near the sweep grid
# the parent commit is off by up to 2.1e-5 (cxx at r = 1, l = 2.22),
# an error it reports as 1e-8.
VALUE_TOL = 1e-4
# Bell outputs are checked against closed forms evaluated here.
BELL_TOL = 1e-6
ROUND_TOL = 1e-12


class ReferenceTable:
    def __init__(self) -> None:
        data = json.loads((HERE / "reference.json").read_text())
        self._rows: dict[float, list[tuple[float, dict, dict]]] = {}
        for row in data["points"]:
            self._rows.setdefault(row["r"], []).append((row["l"], row["values"], row["errors"]))

    def get(self, r: float, l: float) -> tuple[dict, dict] | None:
        for l_ref, values, errors in self._rows.get(float(r), ()):
            if abs(l_ref - l) <= 1e-12 * l_ref:
                return values, errors
        return None


class Accuracy:
    """Largest deviation from the reference and the share of error misses."""

    def __init__(self) -> None:
        self.max_dev = 0.0
        self.checked = 0
        self.err_checked = 0
        self.err_miss = 0

    def value_ok(self, value, ref_value, ref_err, reported_err=None, tol=VALUE_TOL) -> bool:
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return False
        dev = abs(value - ref_value)
        self.max_dev = max(self.max_dev, dev)
        self.checked += 1
        if reported_err is not None:
            self.err_checked += 1
            if dev > reported_err + ref_err:
                self.err_miss += 1
        return dev <= tol + ref_err

    def metrics(self) -> dict:
        return {
            "accuracy.max_abs_dev": self.max_dev,
            "accuracy.err_miss_share": self.err_miss / self.err_checked if self.err_checked else 0.0,
            "accuracy.checked": self.checked,
        }


def import_probe(env: dict) -> float:
    """Seconds from starting a fresh interpreter to boxspin.cli imported."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import boxspin, boxspin.cli"], env=env, check=True)
    return time.perf_counter() - start


class Workload:
    min_ops = 1
    unit = "op"

    def __init__(self, seed: int, env: dict) -> None:
        self.seed = seed
        self.env = env
        self.accuracy = Accuracy()
        self.tracer = None

    def setup_once(self) -> float:
        return import_probe(self.env)

    def rewind(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self) -> dict:
        return {}

    def traced_extras(self) -> None:
        pass

    def close(self) -> None:
        pass


class Sweep(Workload):
    """fig1 then fig2 through boxspin.cli.main, each from an empty cache."""

    min_ops = 2
    unit = "row"

    def __init__(self, seed, env):
        super().__init__(seed, env)
        import boxspin.cli as cli
        import boxspin.correlators as correlators

        self.cli = cli
        self.correlators = correlators
        self.table = ReferenceTable()
        self.r_list = points.sweep_r_order(seed)
        self.expected = [(r, l) for r in self.r_list for l in points.sweep_l_values()]
        self.first_texts = None

    def argv(self, command):
        return [command, "--format", "json", "--r-list", *(repr(r) for r in self.r_list),
                "--points", str(points.SWEEP_POINTS), "--jobs", str(points.SWEEP_JOBS),
                "--l-min", repr(points.SWEEP_L[0]), "--l-max", repr(points.SWEEP_L[1])]

    def op(self):
        texts = {}
        seconds = 0.0
        for command in ("fig1", "fig2"):
            clear = getattr(self.correlators, "clear_cache", None)
            if clear is not None:
                clear()
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(self.argv(command))
            except Exception as exc:  # counted as failed rows below
                code = f"{type(exc).__name__}: {exc}"
            seconds += time.perf_counter() - start
            texts[command] = (code, buf.getvalue())
        if self.first_texts is None:
            self.first_texts = texts
        attempted = 2 * len(self.expected)
        failed = 0
        for command, (code, text) in texts.items():
            if texts[command] != self.first_texts[command]:
                failed += len(self.expected)
                continue
            failed += self._check(command, code, text)
        return seconds, attempted - failed, attempted, failed

    def _check(self, command, code, text) -> int:
        try:
            rows = json.loads(text)["rows"] if code == 0 else None
        except (ValueError, KeyError):
            rows = None
        if rows is None or len(rows) != len(self.expected):
            return len(self.expected)
        failed = 0
        for row, (r, l) in zip(rows, self.expected):
            try:
                failed += not self._row_ok(command, row, r, l)
            except (TypeError, IndexError):  # a malformed row
                failed += 1
        return failed

    def _row_ok(self, command, row, r, l) -> bool:
        if row[0] != r or abs(row[1] - l) > 1e-12 * l:
            return False
        found = self.table.get(r, l)
        if found is None:
            return False
        values, errors = found
        if command == "fig1":
            ok = True
            for i, pair in enumerate(("zz", "xx", "yy")):
                ok &= self.accuracy.value_ok(row[3 + i], values[pair], errors[pair], reported_err=row[6 + i])
            return ok
        chsh = ref.standard_chsh(values)
        chsh_err = 2.0 * (errors["zz"] + errors["xx"] + errors["zx"] + errors["xz"])
        ok = self.accuracy.value_ok(row[2], chsh, chsh_err)
        return ok and row[3] == (row[2] > 2.0)


class Settings(Workload):
    """Warm Bell queries against correlator sets computed in setup.

    One op is a round of queries, one per design point, so every run
    times the same mix of points.
    """

    unit = "query"

    def __init__(self, seed, env):
        super().__init__(seed, env)
        import boxspin.bell as bell
        import boxspin.correlators as correlators

        self.bell = bell
        self.correlators = correlators
        self.points = points.settings_points()
        self.rounds = 0
        self.warm = None
        self.unit_latencies = []

    def setup_once(self):
        probe = import_probe(self.env)
        clear = getattr(self.correlators, "clear_cache", None)
        if clear is not None:
            clear()
        start = time.perf_counter()
        self.warm = [self.correlators.correlator_set(l, r) for r, l in self.points]
        return probe + time.perf_counter() - start

    def rewind(self):
        self.rounds = 0
        self.unit_latencies = []

    def op(self):
        self.rounds += 1
        order = points.settings_round(self.seed, self.rounds)
        seconds = 0.0
        done = 0
        for index in order:
            dt, ok = self._query(index)
            seconds += dt
            self.unit_latencies.append(dt)
            done += ok
        return seconds, done, len(order), len(order) - done

    def _query(self, index):
        r, l = self.points[index]
        bell = self.bell
        start = time.perf_counter()
        try:
            cs = self.correlators.correlator_set(l, r)
            chsh = bell.chsh_from_correlators(cs)
            bit = bell.bit_bell_from_correlators(cs)
            settings, best = bell.optimize_settings(cs)
            directions, best_y = bell.optimize_settings(cs, include_y=True)
        except Exception:  # a raising query is a failed query
            return time.perf_counter() - start, False
        seconds = time.perf_counter() - start
        return seconds, self._check(index, cs, chsh.value, bit.value, settings, best, directions, best_y)

    def _check(self, index, cs, chsh, bit, settings, best, directions, best_y) -> bool:
        values = {p: getattr(cs, "c" + p) for p in ref.PAIRS}
        ok = cs == self.warm[index]
        ok &= abs(chsh - ref.standard_chsh(values)) <= ROUND_TOL
        ok &= abs(bit - chsh / 2.0) <= ROUND_TOL
        ok &= best >= chsh - ROUND_TOL and best_y >= best - BELL_TOL
        ok &= abs(ref.chsh_planar(values, settings.as_tuple()) - best) <= ROUND_TOL
        ok &= abs(ref.chsh_directions(values, directions) - best_y) <= ROUND_TOL
        ok &= self.accuracy.value_ok(best, ref.chsh_max(values, planar=True), 0.0, tol=BELL_TOL)
        ok &= self.accuracy.value_ok(best_y, ref.chsh_max(values, planar=False), 0.0, tol=BELL_TOL)
        return bool(ok)


class _Worker:
    """A reach_worker.py process with line-based JSON requests."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reach_worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self.buf = b""
        self.peak_rss_mb = 0.0
        if self.read(60.0) is None:
            self.close()
            raise RuntimeError("reach worker did not start")

    def read(self, timeout: float):
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self.buf:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not sel.select(remaining):
                    return None
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return None
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, r: float, l: float, trace: bool, timeout: float) -> dict:
        try:
            self.proc.stdin.write((json.dumps({"l": l, "r": r, "trace": int(trace)}) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"ok": False, "kind": "died"}
        reply = self.read(timeout)
        if reply is None:
            alive = self.proc.poll() is None
            return {"ok": False, "kind": "deadline" if alive else "died"}
        self.peak_rss_mb = max(self.peak_rss_mb, reply["peak_rss_mb"])
        return reply

    def close(self, kill: bool = False) -> None:
        """End the process: ask it to exit, or kill it (one stuck on a point)."""
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            with contextlib.suppress(BrokenPipeError):
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(BrokenPipeError):
                stream.close()


class Reach(Workload):
    """correlator_set at the ROADMAP corners, one worker process, a deadline each."""

    unit = "point"

    def __init__(self, seed, env):
        super().__init__(seed, env)
        self.table = ReferenceTable()
        self.worker = None
        self.peak = 0.0
        # corner -> "ok" or how it failed; a failure in any pass sticks.
        self.outcome: dict[tuple[float, float], str] = {}
        self.probed: list[dict] = []
        self._merges = 0

    def _replace_worker(self, kill: bool = False) -> float:
        start = time.perf_counter()
        if self.worker is not None:
            self.peak = max(self.peak, self.worker.peak_rss_mb)
            self.worker.close(kill)
            self.worker = None
        self.worker = _Worker(self.env)
        return time.perf_counter() - start

    def setup_once(self):
        return self._replace_worker()

    def _point(self, r, l):
        start = time.perf_counter()
        reply = self.worker.call(r, l, self.tracer is not None, points.REACH_DEADLINE_S)
        seconds = time.perf_counter() - start
        if not reply["ok"] and reply["kind"] in ("deadline", "died"):
            self._replace_worker(kill=True)
        if self.tracer is not None and "trace" in reply:
            self._merges += 1
            self.tracer.merge(reply["trace"], offset=self._merges * 10**7)
        return seconds, reply

    def op(self):
        seconds = 0.0
        failed = 0
        for r, l in points.REACH_MEASURED:
            dt, reply = self._point(r, l)
            seconds += dt
            if reply["ok"]:
                values, errors = self.table.get(r, l)
                ok = True
                for pair in ref.PAIRS:
                    ok &= self.accuracy.value_ok(reply["values"][pair], values[pair], errors[pair],
                                                 reported_err=reply["errors"][pair])
                kind = "ok" if ok else "wrong"
            else:
                kind = reply["kind"]
            if self.outcome.get((r, l), "ok") == "ok":
                self.outcome[(r, l)] = kind
            failed += kind != "ok"
        n = len(points.REACH_MEASURED)
        return seconds, n - failed, n, failed

    def traced_extras(self):
        """Probe the corners outside the measured set and record how each fails."""
        for r, l in points.REACH_PROBED:
            self.tracer.op = None
            dt, reply = self._point(r, l)
            kind = "ok" if reply["ok"] else reply["kind"]
            self.outcome[(r, l)] = kind
            self.probed.append({"r": r, "l": l, "outcome": kind, "seconds": dt})

    def peak_rss_mb(self):
        return max(self.peak, self.worker.peak_rss_mb if self.worker else 0.0)

    def layer_metrics(self):
        """How each of the nine corners ended: measured ones and probes."""
        if not self.probed:
            return {}
        kinds = list(self.outcome.values())
        n_fail = sum(k != "ok" for k in kinds)
        return {
            "reach.corners_failed": n_fail,
            "reach.failed_share": n_fail / len(points.CORNERS),
            "reach.deadline": kinds.count("deadline"),
            "reach.memory_error": kinds.count("MemoryError"),
            "reach.other_error": n_fail - kinds.count("deadline") - kinds.count("MemoryError"),
        }

    def close(self):
        if self.worker is not None:
            self.worker.close()
            self.worker = None


class Selftest(Workload):
    """Acceptance criteria in battery order, each pass from an empty cache."""

    unit = "criterion"

    def __init__(self, seed, env):
        super().__init__(seed, env)
        import boxspin.acceptance as acceptance
        import boxspin.correlators as correlators

        self.acceptance = acceptance
        self.correlators = correlators
        self.table = ReferenceTable()
        self.criterion_s: dict[int, list[float]] = {cid: [] for cid in points.SELFTEST_CRITERIA}

    def op(self):
        clear = getattr(self.correlators, "clear_cache", None)
        if clear is not None:
            clear()
        results = []
        start = time.perf_counter()
        for cid in points.SELFTEST_CRITERIA:
            results.append(self.acceptance.run_criterion(cid))
        seconds = time.perf_counter() - start
        failed = 0
        for cid, res in zip(points.SELFTEST_CRITERIA, results):
            self.criterion_s[cid].append(res.seconds)
            failed += not res.passed
        passed = len(results) - failed
        failed += self._readback()
        return seconds, passed, len(results) + len(points.SELFTEST_READBACK), failed

    def _readback(self) -> int:
        """Compare the correlators the battery computed with the reference."""
        failed = 0
        for pair, l, r in points.SELFTEST_READBACK:
            values, errors = self.table.get(r, l)
            try:
                value, err = self.correlators.correlator(pair, l, r)
            except Exception:  # a raising read-back is a failed check
                failed += 1
                continue
            failed += not self.accuracy.value_ok(value, values[pair], errors[pair], reported_err=err)
        return failed

    def layer_metrics(self):
        return {f"acceptance.c{cid:02d}_s": float(np.median(s)) if s else 0.0
                for cid, s in self.criterion_s.items()}


WORKLOADS = {"sweep": Sweep, "settings": Settings, "reach": Reach, "selftest": Selftest}
