"""Shared plumbing of the benchmark: statistics, spans, the fork server.

Imported by ``run.py`` and the workload modules; it never imports the
program itself, so the parent process stays small and its own startup
never competes with a timed child.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


# -- statistics ---------------------------------------------------------------

def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def mb(kb_values) -> float | None:
    """Median of KB readings, in MB."""
    value = median(kb_values)
    return None if value is None else value / 1024


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile, or None unless >= 10 samples lie beyond."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


class Metrics(dict):
    """name -> (value, samples); None values are left out."""

    def put(self, name: str, value, samples: int = 1) -> None:
        if value is not None:
            self[name] = (float(value), samples)


# -- spans --------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def flatten(trees: list[dict], op: str) -> list[dict]:
    """Span trees -> flat records with parent links and self time.

    Self time is the span's duration minus the part of it its child
    spans cover (children of a parallel campaign may overlap, so the
    union is taken, not the sum).
    """
    records: list[dict] = []

    def visit(node: dict, parent: str | None) -> None:
        ident = f"{op}/{len(records)}"
        start = node["t_start_s"]
        end = start + node["duration_s"]
        children = [(c["t_start_s"], c["t_start_s"] + c["duration_s"])
                    for c in node["children"]]
        records.append({"op": op, "id": ident, "parent": parent,
                        "name": node["name"], "start": start, "end": end,
                        "self_s": max(0.0, node["duration_s"]
                                      - covered(children, start, end))})
        for child in node["children"]:
            visit(child, ident)

    for tree in trees:
        visit(tree, None)
    return records


def descendants(tree: dict, name: str):
    """Every span called ``name`` at or below ``tree``."""
    if tree["name"] == name:
        yield tree
    for child in tree["children"]:
        yield from descendants(child, name)


# -- the fork server ----------------------------------------------------------

def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    # Keep every file the program writes inside the checkout.
    for var, sub in (("TMPDIR", "tmp"), ("REPRO_CACHE_DIR", "cache")):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
        env[var] = str(WORK / sub)
    return env


class Zygote:
    """``zygote.py`` as a subprocess: one fresh forked child per op.

    One JSON line each way per op; a dead zygote reads as a failed op.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "zygote.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if not self._read().get("ok"):
            self.close()
            raise RuntimeError("benchmark zygote failed to start")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            return {"ok": False, "error": "benchmark zygote exited"}
        return json.loads(line)

    def call(self, op: str, trace: bool, **kwargs) -> dict:
        try:
            self.proc.stdin.write(json.dumps(
                {"op": op, "kwargs": kwargs, "trace": trace}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"ok": False, "error": "benchmark zygote exited"}
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Recorder:
    """Operations attempted and failed, plus the traced run's spans."""

    def __init__(self, zygote: Zygote | None, trace: bool):
        self.zygote = zygote
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.spans: list[dict] = []
        self.trees: dict[str, list[dict]] = {}
        self.counts: dict[str, int] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def call(self, op: str, **kwargs) -> dict | None:
        """Run one op in a fresh child; None (and counted) if it failed."""
        self.counts[op] = self.counts.get(op, 0) + 1
        ident = f"{op}#{self.counts[op]}"
        self.attempted += 1
        reply = self.zygote.call(op, self.trace, **kwargs)
        if not reply.get("ok"):
            self.fail(f"{ident}: {reply.get('error', 'no reply')}")
            return None
        result = reply["result"]
        result["maxrss_kb"] = reply["maxrss_kb"]
        if self.trace:
            self.trees[ident] = reply.get("spans", [])
            self.spans.extend(flatten(self.trees[ident], ident))
        return result

    def check(self, what: str, summary: str | None, reference: str | None,
              ) -> bool:
        """The correctness gate for one op's canonical summary."""
        if summary is None or summary != reference:
            self.fail(f"{what}: summary differs from the text path")
            return False
        return True


def summary_runs(summary: str) -> int:
    return int(json.loads(summary)["runs"])


def check_reference(rec: Recorder, reference: str | None,
                    setups: list[dict]) -> None:
    """Bundle determinism and the ground-truth run count."""
    digests = {s["digest"] for s in setups}
    if len(digests) > 1:
        rec.fail("the same seed wrote different bundles")
    if reference is None:
        rec.fail("no text-path summary to check against")
        return
    truth = setups[-1]["truth_runs"] if setups else None
    if summary_runs(reference) != truth:
        rec.fail(f"diagnosed {summary_runs(reference)} runs, "
                 f"the simulator ran {truth}")
