"""Mine-and-evaluate benchmark for perfmine on generated git histories.

    python3 minebench/run.py --workload mine-verify --seed 1 --seconds 45 --trace 0

Generates the workload's repository, stub replies and candidate patches
(set-up), then repeats rounds of ``perfmine mine``, ``perfmine evaluate``
and ``perfmine inspect``, driven in-process through ``perfmine.cli.main``
with the fake runtime and the stub backend, until ``--seconds`` have
passed. Every output is checked against what the generator planted. The
last line of standard output is one JSON object with the result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics; the untraced
rounds are the reference for the tracing overhead. The docker and local
runtimes are not measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
NOT_MEASURED = ("not measured: the docker and local runtimes (this benchmark needs no "
                "container daemon and no cmake); their metrics are left out, not filled in")
# scan_fake_timings drops files below any directory with one of these names,
# taken from the absolute path, so the fake runtime would see no tests.
_FORBIDDEN_PARTS = {"build", ".git", "__pycache__"}


@dataclass
class Round:
    mine_s: float
    eval_s: list[float]
    disk_bytes: int
    digest: str
    funnel: dict
    stored: int
    session_bytes: int = 0
    image_bytes: int = 0
    manifest_bytes: int = 0

    @property
    def measured_s(self) -> float:
        return self.mine_s + sum(self.eval_s)


def _cli(argv: list[str]) -> tuple[int, str]:
    from perfmine import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_round(w, work: Path, index: int, tally, tracer=None, between=lambda: None) -> Round:
    """One mine, the evaluations and the queries; ``between`` runs between timed calls."""
    store = work / f"store-{index}"
    scope = tracing.traced(tracer) if tracer is not None else contextlib.nullcontext()
    with scope:
        between()
        started = time.perf_counter()
        rc, text = _cli(w.mine_args(store))
        mine_s = time.perf_counter() - started
        between()
        out = checks.check_mine(w, store, rc, text, tally, work / "check.index")

        eval_s = []
        by_mark = {c.mark: c for c in w.commits}
        for cand in w.candidates:
            pid = workloads.patch_id(w.name, by_mark[cand.commit_mark].sha)
            started = time.perf_counter()
            rc, text = _cli(["evaluate", "--store", str(store), "--patch-id", pid,
                             "--patch-file", str(cand.patch_file), "--fake-runtime"])
            eval_s.append(time.perf_counter() - started)
            between()
            checks.check_evaluation(cand, rc, text, tally)

        false_positives = {workloads.patch_id(w.name, c.sha) for c in w.scanned
                           if c.kind == "false_positive"}
        for args, expected in w.queries():
            rc, text = _cli(["inspect", "--store", str(store), "--json", *args])
            checks.check_query(args, expected, false_positives, rc, text, tally)

    runtime_dir = store / "fake-runtime"
    return Round(
        mine_s=mine_s, eval_s=eval_s,
        disk_bytes=checks.allocated_bytes(store),
        digest=checks.entry_digest(store),
        funnel=out.funnel, stored=len(out.stored),
        session_bytes=checks.allocated_bytes(runtime_dir / "sessions"),
        image_bytes=checks.allocated_bytes(runtime_dir / "images"),
        manifest_bytes=sum(p.stat().st_size for p in (store / "entries").glob("*.json")),
    )


class Setups:
    """Timed generations of one workload; the rounds use the first."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name, self.seed, self.work = name, seed, work
        self.times: list[float] = []
        self.heads: set[str] = set()

    def one(self) -> workloads.Workload:
        started = time.perf_counter()
        w = workloads.generate(self.name, self.seed, self.work / f"setup-{len(self.times)}")
        self.times.append(time.perf_counter() - started)
        self.heads.add(w.commits[-1].sha)
        return w

    def due(self, share: float) -> bool:
        """Catch up to ``share`` of the repeats, so they spread over the run."""
        before = len(self.times)
        while len(self.times) < min(SETUP_REPEATS, 1 + int((SETUP_REPEATS - 1) * share)):
            self.one()
        return len(self.times) > before


def end_to_end(rounds: list[Round], setup_times: list[float], expected_entries: int) -> dict:
    evals = [t for r in rounds for t in r.eval_s]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "mine_s": (statistics.median(r.mine_s for r in rounds), "s"),
        "eval_s_p50": (statistics.median(evals), "s"),
        "disk_bytes_per_entry": (statistics.median(r.disk_bytes for r in rounds)
                                 / expected_entries, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(t: tracing.Tracer, traced: list[Round], untraced: list[Round]) -> dict:
    scanned = sum(r.funnel.get("scanned", 0) for r in traced) or 1
    classified = t.calls("classifier") or 1
    stored = sum(r.stored for r in traced) or 1
    last = traced[-1]
    query_ms = t.median_ms("store.query") / (last.stored or 1)
    metrics = {
        "gate.ms": (t.median_ms("gate"), "ms"),
        "harvest.walk_ms_per_commit": (t.self_ns["harvest.walk"] / 1e6 / scanned, "ms"),
        "harvest.run_git_per_commit": (t.counts["harvest.run_git"] / scanned, "count"),
        "harvest.diff_ms": (t.median_ms("harvest.diff"), "ms"),
        "harvest.filter_us_per_commit": (t.total_ms("harvest.filter") * 1e3 / scanned, "us"),
        "classifier.ms_per_commit": (t.self_ns["classifier"] / 1e6 / classified, "ms"),
        "classifier.model_calls_per_commit": (t.counts["classifier.model_calls"] / classified,
                                              "count"),
        "orchestrator.prepare_ms": (t.median_ms("orchestrator.prepare"), "ms"),
        "orchestrator.build_ms": (t.median_ms("orchestrator.build"), "ms"),
        "orchestrator.measure_ms": (t.median_ms("orchestrator.measure"), "ms"),
        "orchestrator.snapshot_ms": (t.median_ms("orchestrator.snapshot"), "ms"),
        "runtime.run_suite_ms": (t.median_ms("runtime.run_suite"), "ms"),
        "runtime.open_image_ms": (t.median_ms("runtime.open_image"), "ms"),
        "runtime.copy_tree_ms": (t.median_ms("runtime.copy_tree"), "ms"),
        "runtime.session_bytes": (statistics.median(r.session_bytes for r in traced), "B"),
        "runtime.image_bytes_per_entry": (sum(r.image_bytes for r in traced) / stored, "B"),
        "stats.judge_ms": (t.median_ms("stats.judge"), "ms"),
        "store.write_ms": (t.median_ms("store.write"), "ms"),
        "store.manifest_bytes_per_entry": (sum(r.manifest_bytes for r in traced) / stored, "B"),
        "store.read_entry_ms": (t.median_ms("store.read_entry"), "ms"),
        "store.query_ms_per_entry": (query_ms, "ms"),
        "pipeline.persist_logs_ms": (t.median_ms("pipeline.persist_logs"), "ms"),
    }
    for verdict in ("improves", "functional_only", "broken"):
        metrics[f"evaluate.ms.{verdict}"] = (t.median_ms(f"evaluate.{verdict}"), "ms")
    for stage in ("scanned", "structurally_accepted", "classified_positive", "built", "stored"):
        metrics[f"pipeline.{stage}"] = (last.funnel.get(stage, 0), "count")
    untraced_s = statistics.median(r.measured_s for r in untraced)
    metrics["trace.overhead_s"] = (statistics.median(r.measured_s for r in traced) - untraced_s,
                                   "s")
    metrics["trace.self_share"] = (t.layer_self_s() / len(traced) / untraced_s, "fraction")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="leave the work directory (repository, stores) in place")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import perfmine.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import perfmine from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if _FORBIDDEN_PARTS & set(work.parts):
        print(f"error: work directory {work} has a component named one of "
              f"{sorted(_FORBIDDEN_PARTS)}; the fake runtime would see no tests",
              file=sys.stderr)
        return 2
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
        # The file system discards freed blocks; let that finish here rather
        # than inside the next run's measurement.
        os.sync()


def _run(args, work: Path) -> int:
    setups = Setups(args.workload, args.seed, work)
    w = setups.one()
    os.sync()
    tally = checks.Tally()
    expected_entries = len(w.patch_ids)

    rounds: list[Round] = []  # traced rounds when --trace 1
    untraced: list[Round] = []  # the reference rounds when --trace 1
    tracer = tracing.Tracer() if args.trace else None
    started = time.monotonic()

    def between() -> None:
        # Write back what the last timed call left dirty, so that it lands in
        # no later timing; then the set-up repeats due by now, spread over the run.
        os.sync()
        if setups.due((time.monotonic() - started) / args.seconds if args.seconds > 0 else 1.0):
            os.sync()

    while not rounds or time.monotonic() - started < args.seconds:
        index = len(rounds) + len(untraced) + 1
        if args.trace and len(untraced) <= len(rounds):
            untraced.append(run_round(w, work, index, tally, between=between))
        else:
            rounds.append(run_round(w, work, index, tally, tracer, between))
    os.sync()
    setups.due(1.0)

    tally.require(len(setups.heads) == 1, "the same seed generated different histories")
    digests = {r.digest for r in rounds + untraced}
    tally.require(len(digests) == 1, "entry digest differs between rounds")
    metrics = per_layer(tracer, rounds, untraced) if args.trace else \
        end_to_end(rounds, setups.times, expected_entries)

    print(f"workload {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"trace={args.trace} attempted={tally.attempted} failed={tally.failed} "
          f"known_fault={tally.known_fault}")
    print("setup_s each: " + " ".join(f"{t:.3f}" for t in setups.times))
    for label, group in (("round", rounds), ("untraced round", untraced)):
        if group:
            print(f"{label} mine_s + evaluate_s: "
                  + " ".join(f"{r.mine_s:.3f}+{sum(r.eval_s):.3f}" for r in group))
    print(f"entry_digest {args.workload} seed={args.seed} {sorted(digests)[0]}")
    print(NOT_MEASURED)
    for problem in tally.unexpected[:20]:
        print(f"mismatch: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
