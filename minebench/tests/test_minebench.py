"""Fast checks of the benchmark's generator and output checks, at tiny sizes.

    python3 -m pytest minebench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _tiny(h) -> None:
    h.enter_window()
    h.speedup(workloads._replies("Yes", "Yes"), multi=True)
    h.false_positive()
    h.warmup_failure()
    h.plain(workloads._replies("Yes", "No", phase2="No"), workloads.NEGATIVE.format(2), "p2")
    h.filtered("touches_tests")
    h.speedup(workloads._replies("Maybe", "Maybe", phase2="Yes"), multi=False)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        (_tiny, ["alpha", "beta"], 4, 1, tuple(workloads.CANDIDATE_VERDICTS)))
    return workloads.generate("tiny", 3, tmp_path / "gen")


def _git(repo, *args, **kw):
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True, **kw)


def test_same_seed_same_history_other_seed_other_history(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, tmp_path / f"{name}-a")
        b = workloads.generate(name, 5, tmp_path / f"{name}-b")
        c = workloads.generate(name, 6, tmp_path / f"{name}-c")
        assert [x.sha for x in a.commits] == [x.sha for x in b.commits]
        assert a.commits[-1].sha != c.commits[-1].sha
        # the seed never changes how many operations a round attempts
        assert a.funnel() == c.funnel()
        assert len(a.candidates) == len(c.candidates)
        assert len(a.queries()) == len(c.queries())


def test_mine_screen_plants_every_kind_of_commit(tmp_path):
    w = workloads.generate("mine-screen", 1, tmp_path / "g")
    reasons = {c.expect_reason for c in w.scanned}
    for reason in ("out_of_window", "too_many_files", "touches_tests", "non_cpp_file"):
        assert workloads.FILTERED.format(reason) in reasons
    merges = [c for c in w.commits if c.merge is not None]
    assert len(merges) == 8
    assert len(_git(w.repo, "rev-list", "--merges", "HEAD").stdout.split()) == 8
    kinds = _git(w.repo, "log", "--first-parent", "--name-status", "--format=").stdout
    assert any(line.startswith("R100") for line in kinds.splitlines())
    assert any(line.startswith("D\t") for line in kinds.splitlines())
    assert list((w.repo / ".git" / "objects" / "pack").glob("*.pack"))


def test_every_seed_can_plan_its_history():
    # a plan for each seed, without writing it; seed 95 once ran out of files
    # for a too-many-files commit
    for name, (build, tests, helpers, _, _) in workloads.WORKLOADS.items():
        for seed in [*range(200), 95, 282]:
            history = workloads._History(name, random.Random(f"{name}:{seed}"), tests, helpers)
            build(history)


def test_histories_are_packed(tmp_path):
    w = workloads.generate("mine-verify", 1, tmp_path / "g")
    objects = w.repo / ".git" / "objects"
    assert list((objects / "pack").glob("*.pack"))
    assert not list(objects.glob("??/*"))
    assert sum(c.kind == "false_positive" for c in w.scanned) == 3


def test_candidates_apply_as_planted(tiny, tmp_path):
    commit = next(c for c in tiny.commits if c.mark == tiny.candidates[0].commit_mark)
    for cand in tiny.candidates:
        tree = tmp_path / cand.kind
        assert _git(tiny.repo, "worktree", "add", "-q", "--detach", str(tree),
                    commit.parent_sha).returncode == 0
        text = cand.patch_file.read_text()
        if text:
            applied = _git(tree, "apply", "-", input=text)
            assert (applied.returncode == 0) == (cand.kind != "does_not_apply"), cand.kind
    truth = next(c for c in tiny.candidates if c.kind == "ground_truth")
    assert checks.patch_gives_tree(tiny.repo, commit, truth.patch_file, tmp_path / "idx")


def test_tiny_round_passes_its_checks_and_counts_the_known_fault(tiny, tmp_path):
    tally = checks.Tally()
    result = run.run_round(tiny, tmp_path, 1, tally)
    # one false positive: its commit, and the five queries that list it
    assert tally.unexpected == []
    assert (tally.failed, tally.known_fault) == (6, 6)
    assert tally.attempted == len(tiny.scanned) + len(tiny.candidates) + len(tiny.queries())
    assert result.funnel == dict(tiny.funnel(), stored=tiny.funnel()["stored"] + 1)


def test_traced_round_reports_layers(tiny, tmp_path):
    import tracing
    from perfmine import runtime

    tracer = tracing.Tracer()
    reference = run.run_round(tiny, tmp_path, 0, checks.Tally())
    traced = run.run_round(tiny, tmp_path, 1, checks.Tally(), tracer)
    assert "copy_tree" not in vars(runtime.FakeSession)  # wrappers were removed
    layers = run.per_layer(tracer, [traced], [reference])
    assert layers["harvest.run_git_per_commit"][0] >= 3
    assert layers["classifier.model_calls_per_commit"][0] > 2
    assert layers["evaluate.ms.broken"][0] > 0
    assert layers["pipeline.scanned"][0] == len(tiny.scanned)


def test_unexpected_mismatch_is_not_the_known_fault():
    tally = checks.Tally()
    checks.check_query(["--multi-file"], {"a"}, {"fp"}, 0, '[{"patch_id": "a"}, '
                       '{"patch_id": "fp"}]', tally)
    checks.check_query(["--multi-file"], {"a", "b"}, {"fp"}, 0, '[{"patch_id": "a"}]', tally)
    assert (tally.attempted, tally.failed, tally.known_fault) == (2, 2, 1)
    assert len(tally.unexpected) == 1


def test_run_prints_a_result_and_a_digest_the_shell_line_recomputes(
        tiny, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "HERE", tmp_path / "bench")
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--keep"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 6
    assert set(result["metrics"]) == {"setup_s", "mine_s", "eval_s_p50",
                                      "disk_bytes_per_entry", "peak_rss_mb"}
    setups = next(line for line in lines if line.startswith("setup_s each:"))
    assert len(setups.split()) - 2 == run.SETUP_REPEATS
    digest = next(line.split()[-1] for line in lines if line.startswith("entry_digest"))
    store = next((tmp_path / "bench" / ".work").glob("tiny-s3-p*")) / "store-1"
    shell = subprocess.run(
        "find entries patches -type f | LC_ALL=C sort | xargs sha256sum | sha256sum",
        shell=True, cwd=store, capture_output=True, text=True, check=True)
    assert shell.stdout.split()[0] == digest


def test_setup_repeats_spread_over_the_run(monkeypatch, tmp_path):
    class Fake:
        commits = [workloads.Commit(mark=1, kind="root", message="", when=0, parent=None,
                                    sha="abc")]

    monkeypatch.setattr(workloads, "generate", lambda name, seed, directory: Fake())
    setups = run.Setups("tiny", 1, tmp_path)
    setups.one()
    counts = []
    for share in (0.0, 0.25, 0.5, 0.99, 1.0, 2.0):
        setups.due(share)
        counts.append(len(setups.times))
    assert counts == [1, 3, 6, 10, run.SETUP_REPEATS, run.SETUP_REPEATS]
    assert setups.heads == {"abc"}


def test_allocated_bytes_counts_a_hard_link_once(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "f").write_bytes(b"x" * 10000)
    once = checks.allocated_bytes(tmp_path)
    os.link(tmp_path / "d" / "f", tmp_path / "d" / "g")
    assert checks.allocated_bytes(tmp_path) == once


def test_refuses_a_work_directory_below_build(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "HERE", tmp_path / "build" / "minebench")
    assert run.main(["--workload", "evaluate-mix", "--seed", "1", "--seconds", "1"]) == 2
    assert "would see no tests" in capsys.readouterr().err
