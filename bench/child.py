"""One timed repetition in a fresh interpreter.

``search._spaces`` memoises candidate buckets for the whole process and
``ru_maxrss`` is per process, so every repetition a user would pay for from
scratch runs here, one at a time.  Usage (from bench/run.py):

    python3 bench/child.py '<job json>'

The job names a mode, a seed, a work directory and an output file; the
result is written to that file as JSON.  Timestamps that cross the process
boundary use time.monotonic(), which is system-wide.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from autodidact import archive, audit, engine, metrics

import calibrate
import tracer as tracing
import workloads


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resume_config(cfg, path):
    return dataclasses.replace(cfg, archive_path=str(path), resume=True, external_tasks_path="")


# ---------------------------------------------------------------------------
# Replay operations on frozen archives
# ---------------------------------------------------------------------------

OPS = ("load", "audit", "resume", "report", "append")


class Replayer:
    """Times load, audit, resume, report and re-append on a set of archives."""

    def __init__(self, archives: list, workdir: Path):
        self.archives = archives  # dicts: name, path, entries, config
        self.workdir = workdir
        self.rounds: list = []  # per round: {archive name: {op: reference seconds}}
        self.raw_rounds: list = []  # the same in wall seconds
        self.kernels: list = []  # speed probes before the first round and after each
        self.attempted = 0
        self.failures: list = []
        for a in archives:
            # Resume may rewrite a damaged file, so it gets its own copy.
            src = Path(a["path"])
            dst = workdir / f"resume-{a['name']}.jsonl"
            shutil.copyfile(src, dst)
            side = src.parent / (src.name + ".traces")
            if side.exists():
                shutil.copytree(side, dst.parent / (dst.name + ".traces"), dirs_exist_ok=True)
            a["resume_config"] = _resume_config(a["config"], dst)
            a["bytes"] = src.read_bytes()

    def _op(self, a, op: str):
        path, n = a["path"], a["entries"]
        if op == "load":
            entries = archive.load_archive(path)
            return len(entries) == n, "entry count"
        if op == "audit":
            rep = audit.audit_archive(path)
            return rep.ok and rep.phases == n, f"audit failures {rep.failures[:1]}"
        if op == "resume":
            eng = engine.Engine(a["resume_config"])
            return len(eng.entries) == n, "resumed entry count"
        if op == "report":
            info = metrics.write_report(path, self.workdir / f"report-{a['name']}")
            return info["tasks"] == n, "report task count"
        dst = self.workdir / f"append-{a['name']}.jsonl"
        dst.unlink(missing_ok=True)
        existing: list = []
        for entry in a["fresh"]:
            archive.append_entry(dst, entry, existing)
        same = dst.read_bytes() == a["bytes"]
        dst.unlink()
        return same, "re-appended bytes differ"

    def round(self) -> None:
        clock = time.perf_counter
        if not self.kernels:
            self.kernels.append(calibrate.probe())
        timings = {}
        for a in self.archives:
            # Entries are consumed by append_entry, so each round loads its own.
            a["fresh"] = archive.load_archive(a["path"])
            row = {}
            for op in OPS:
                self.attempted += 1
                t0 = clock()
                try:
                    ok, why = self._op(a, op)
                except Exception as exc:  # a raising operation is a counted failure
                    ok, why = False, f"{type(exc).__name__}: {exc}"
                row[op] = clock() - t0
                if not ok:
                    self.failures.append(f"{a['name']} {op}: {why}")
            timings[a["name"]] = row
        self.kernels.append(calibrate.probe())
        around = self.kernels[-2:]
        self.raw_rounds.append(timings)
        self.rounds.append(
            {n: {op: calibrate.scaled(t, *around) for op, t in row.items()} for n, row in timings.items()}
        )

    def run_for(self, seconds: float, min_rounds: int, max_rounds: int) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.rounds) < max_rounds and (
            len(self.rounds) < min_rounds or time.perf_counter() < deadline
        ):
            self.round()

    def summary(self) -> dict:
        """Reference-speed times, 10th percentile over rounds, ops summed over archives.

        Every round does the same deterministic work, so the spread between
        rounds is contention from other processes, which only ever adds time.
        The speed probes around each round remove the slow drift; the 10th
        percentile removes the bursts shorter than a round.
        """
        names = [a["name"] for a in self.archives]
        per_op = {op: _low([sum(r[n][op] for n in names) for r in self.rounds]) for op in OPS}
        per_round = [sum(sum(r[n].values()) for n in names) for r in self.rounds]
        groups: dict = {}  # variant -> its archives
        for a in self.archives:
            groups.setdefault(a["name"].split("-")[0], []).append(a)
        slowest_entry = [
            max(
                sum(sum(r[a["name"]].values()) for a in group) / sum(a["entries"] for a in group)
                for group in groups.values()
            )
            for r in self.rounds
        ]
        raw_round = [sum(sum(r[n].values()) for n in names) for r in self.raw_rounds]
        return {
            "ops": per_op,
            "round_s": _low(per_round),
            "raw_round_s": _low(raw_round),
            "total_s": sum(raw_round),
            "slowest_entry_s": _low(slowest_entry),
            "rounds": len(self.rounds),
            "attempted": self.attempted,
            "failures": self.failures,
        }


def _low(values: list) -> float:
    """10th percentile (the minimum when there are fewer than ten values)."""
    if len(values) < 10:
        return min(values)
    return statistics.quantiles(values, n=10)[0]


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def _install(job):
    if not job.get("trace"):
        return None
    tr = tracing.Tracer()
    tracing.install(tr)
    return tr


# A growth run probes the machine's speed at every phase boundary and at
# doublings at least this far apart, so drift within a phase is tracked too
# (scaling whole runs by one speed left twice the spread).
PROBE_EVERY_S = 0.25


class SpeedTrack:
    """Splits a run at speed probes and sums its segments at the reference speed.

    Each segment between two probes is scaled by the mean of the kernel
    times at its ends; the probes' own time is kept out of every interval.
    """

    def __init__(self, clock):
        self.clock = clock
        self.kernels: list = []
        self.probing = 0.0
        self.scaled_total = 0.0
        self._start = 0.0
        self._phase = (0.0, 0.0, 0.0)  # start, probing and scaled total at phase start

    def cut(self, at_least: float = 0.0) -> None:
        now = self.clock()
        if self.kernels and now - self._start < at_least:
            return
        kernel = calibrate.probe()
        if self.kernels:
            self.scaled_total += calibrate.scaled(now - self._start, self.kernels[-1], kernel)
        self.kernels.append(kernel)
        self._start = self.clock()
        self.probing += self._start - now

    def phase_start(self) -> None:
        self._phase = (self.clock(), self.probing, self.scaled_total)

    def phase_end(self) -> tuple:
        """(wall seconds, reference seconds) since phase_start; call after cut()."""
        start, probing, scaled = self._phase
        wall = self.clock() - start - (self.probing - probing)
        return wall, self.scaled_total - scaled


def mode_setup(job) -> dict:
    workloads.growth_config(job["workload"], Path(job["workdir"]))
    return {"setup_end": time.monotonic()}


def mode_grow(job) -> dict:
    workdir = Path(job["workdir"])
    cfg = workloads.growth_config(job["workload"], workdir)
    tr = _install(job)
    setup_end = time.monotonic()

    clock = time.perf_counter
    phases: list = []  # wall seconds per phase, probes excluded
    scaled: list = []  # the same at the reference speed
    per_phase: list = []
    speed = SpeedTrack(clock)

    def log(event):
        kind = event["event"]
        if kind == "phase_start":
            speed.cut()
            speed.phase_start()
            if tr:
                per_phase.append(tr.snapshot())
        elif kind == "doubling" and not tr:
            # Doublings are logged inside the scheduler's span, where a probe
            # would be charged to search.schedule.
            speed.cut(at_least=PROBE_EVERY_S)
        elif kind == "accepted":
            speed.cut()
            raw, ref = speed.phase_end()
            phases.append(raw)
            scaled.append(ref)
            if tr:
                per_phase[-1] = tracing.diff(tr.snapshot(), per_phase[-1])

    speed.cut()
    t0, probing = clock(), speed.probing
    result = engine.Engine(cfg, log=log).run()
    run_s = clock() - t0 - (speed.probing - probing)
    run_probing_s = speed.probing - probing
    speed.cut()
    peak = _peak_rss_mb()

    out = {
        "setup_end": setup_end,
        "run_s": speed.scaled_total,
        "phase_s": scaled,
        "raw_run_s": run_s,
        "raw_phase_s": phases,
        "run_probing_s": run_probing_s,
        "kernel_s": statistics.median(speed.kernels),
        "peak_rss_mb": peak,
        "accepted": result.accepted,
        "ceiling": result.ceiling_reached,
        "expected": cfg.max_tasks,
        "sha256": _sha256(cfg.archive_path),
        "fingerprint": [
            [e.meta["candidates"], e.meta["search_steps"], e.meta["t_lim"]]
            for e in result.entries
        ],
    }
    archives = [
        {"name": job["workload"], "path": cfg.archive_path, "entries": len(result.entries),
         "config": cfg}
    ]
    replayer = Replayer(archives, workdir)
    if tr:
        replayer.round()
    else:
        replayer.run_for(job["post_seconds"], min_rounds=10, max_rounds=1000)
    out["replay"] = replayer.summary()
    if tr:
        out["trace"] = tr.snapshot()
        out["per_phase"] = per_phase
    return out


def mode_replay_setup(job) -> dict:
    workdir = Path(job["workdir"])
    archives = []
    for name in workloads.replay_names():
        cfg = workloads.grow_replay_input(name, job["seed"], workdir)
        archives.append(
            {"name": name, "path": cfg.archive_path, "entries": cfg.max_tasks,
             "sha256": _sha256(cfg.archive_path)}
        )
    return {"setup_end": time.monotonic(), "archives": archives}


def mode_replay(job) -> dict:
    workdir = Path(job["workdir"])
    archives = []
    for a in job["archives"]:
        cfg = workloads.replay_config(a["name"], job["seed"], Path(a["path"]).parent)
        archives.append({**a, "config": cfg})
    if not job.get("trace"):
        replayer = Replayer(archives, workdir)
        replayer.run_for(job["seconds"], min_rounds=10, max_rounds=100_000)
        return {"replay": replayer.summary(), "peak_rss_mb": _peak_rss_mb()}
    # Traced rounds alternate with untraced ones, so the tracing overhead is
    # measured under the same drift of the machine's speed.
    plain = Replayer([dict(a) for a in archives], workdir)
    replayer = Replayer(archives, workdir)
    tr = tracing.Tracer()
    for _ in range(job["trace_rounds"]):
        plain.round()
        tracing.install(tr)
        try:
            replayer.round()
        finally:
            tr.restore()
    return {
        "replay": replayer.summary(),
        "untraced_round_s": plain.summary()["round_s"],
        "peak_rss_mb": _peak_rss_mb(),
        "trace": tr.snapshot(),
    }


MODES = {
    "setup": mode_setup,
    "grow": mode_grow,
    "replay-setup": mode_replay_setup,
    "replay": mode_replay,
}


def main(argv) -> int:
    job = json.loads(argv[1])
    result = MODES[job["mode"]](job)
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
