"""Checks of perfmine's outputs against what the generator planted.

Each scanned commit, each evaluation and each ``inspect`` query is one
operation. A mismatch is a failed operation. Failed operations that the
known store fault explains are counted but leave the run correct; any
other mismatch makes the run incorrect.

The known fault: ``pipeline._build_measure_store`` stores every commit
that builds and passes, while the README keeps a commit only when some
test got at least 5% faster with p < 0.05. So each planted false
positive is stored with no significant test, and every query whose
answer should not include it does.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from workloads import VERDICT_EXIT, Candidate, Commit, Workload, patch_id

_SKIPPED = re.compile(r"^skipped ([0-9a-f]{10}): (.*)$")
_STORED = re.compile(r"^stored (\S+)$")
_FUNNEL = re.compile(r"(\w+)=(\d+)")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_fault: int = 0
    unexpected: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str, *, known_fault: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_fault:
            self.known_fault += 1
        else:
            self.unexpected.append(what)

    def require(self, ok: bool, what: str) -> None:
        """A whole-round property that is not an operation of its own."""
        if not ok:
            self.unexpected.append(what)


@dataclass
class MineOutput:
    skipped: dict[str, str]
    stored: list[str]
    funnel: dict[str, int]


def parse_mine_output(text: str) -> MineOutput:
    skipped: dict[str, str] = {}
    stored: list[str] = []
    funnel: dict[str, int] = {}
    for line in text.splitlines():
        if m := _SKIPPED.match(line):
            skipped[m.group(1)] = m.group(2)
        elif m := _STORED.match(line):
            stored.append(m.group(1))
        elif line.startswith("funnel:"):
            funnel = {k: int(v) for k, v in _FUNNEL.findall(line)}
    return MineOutput(skipped, stored, funnel)


def _manifest(store: Path, pid: str) -> dict | None:
    try:
        return json.loads((store / "entries" / f"{pid}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def patch_gives_tree(repo: Path, commit: Commit, patch: Path, index: Path) -> bool:
    """Apply the stored patch to the parent's tree in a scratch index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(index))
    index.unlink(missing_ok=True)
    steps = (("read-tree", commit.parent_sha), ("apply", "--cached", str(patch.resolve())),
             ("write-tree",))
    for args in steps:
        proc = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                              env=env)
        if proc.returncode != 0:
            return False
    return proc.stdout.strip() == commit.tree_sha


def _entry_matches(store: Path, pid: str, commit: Commit) -> bool:
    doc = _manifest(store, pid)
    if doc is None:
        return False
    significant = {t["test_name"] for t in doc["timing"] if t["result"]["significant"]}
    paths = sorted(c["path"] for c in doc["commit"]["changes"])
    return (doc["has_significant_test"] is True
            and significant == set(commit.significant_tests)
            and doc["commit"]["sha"] == commit.sha
            and doc["commit"]["parent_sha"] == commit.parent_sha
            and paths == commit.changed_paths)


def check_mine(w: Workload, store: Path, rc: int, text: str, tally: Tally,
               scratch_index: Path) -> MineOutput:
    out = parse_mine_output(text)
    tally.require(rc == 0, f"mine exited {rc}")
    expected = w.funnel()
    for key in ("scanned", "structurally_accepted", "classified_positive", "built"):
        tally.require(out.funnel.get(key) == expected[key],
                      f"funnel {key}={out.funnel.get(key)}, planted {expected[key]}")
    tally.require(out.funnel.get("stored") == len(out.stored), "funnel stored != stored lines")
    scanned = {c.sha[:10]: c for c in w.scanned}
    stored = set(out.stored)
    tally.require(set(out.skipped) <= set(scanned), "skipped a commit the walk must not yield")
    tally.require(stored <= {patch_id(w.name, c.sha) for c in scanned.values()},
                  "stored a commit the walk must not yield")
    for short, commit in scanned.items():
        pid = patch_id(w.name, commit.sha)
        what = f"commit {short} ({commit.kind})"
        if commit.expect_stored:
            tally.op(pid in stored and short not in out.skipped
                     and _entry_matches(store, pid, commit)
                     and patch_gives_tree(w.repo, commit, store / "patches" / f"{pid}.patch",
                                          scratch_index), what)
        elif pid in stored:
            doc = _manifest(store, pid)
            fault = commit.kind == "false_positive" and doc is not None and \
                doc["has_significant_test"] is False
            tally.op(False, f"{what} stored", known_fault=fault)
        elif commit.kind == "false_positive":
            # once the store keeps only speed-ups, any post-measure skip is right
            reason = out.skipped.get(short, "")
            tally.op(bool(reason) and not reason.startswith(("filtered", "classified")), what)
        else:
            got = out.skipped.get(short)
            tally.op(got == commit.expect_reason, f"{what}: {got!r} != {commit.expect_reason!r}")
    return out


def check_evaluation(cand: Candidate, rc: int, text: str, tally: Tally) -> None:
    verdicts = re.findall(r"^verdict: (\S+)$", text, re.MULTILINE)
    tally.op(verdicts == [cand.verdict] and rc == VERDICT_EXIT[cand.verdict],
             f"evaluate {cand.kind} on commit {cand.commit_mark}: {verdicts} rc={rc}")


def check_query(args: list[str], expected: set[str], false_positives: set[str], rc: int,
                text: str, tally: Tally) -> None:
    try:
        got = {e["patch_id"] for e in json.loads(text)} if rc == 0 else None
    except (ValueError, KeyError, TypeError):
        got = None
    what = f"inspect {' '.join(args) or '(no filter)'}"
    if got is None or got == expected:
        tally.op(got is not None, what)
        return
    fault = expected <= got and got - expected <= false_positives
    tally.op(False, f"{what}: extra {sorted(got - expected)} missing {sorted(expected - got)}",
             known_fault=fault)


def entry_digest(store: Path) -> str:
    """sha256 over ``entries/`` and ``patches/``, as the README's shell line computes it."""
    lines = []
    files = sorted((str(p.relative_to(store)) for sub in ("entries", "patches")
                    for p in (store / sub).rglob("*") if p.is_file()), key=str.encode)
    for rel in files:
        lines.append(f"{hashlib.sha256((store / rel).read_bytes()).hexdigest()}  {rel}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def allocated_bytes(root: Path) -> int:
    """st_blocks x 512 over every file and directory, each inode once."""
    if not root.exists():
        return 0
    seen: set[tuple[int, int]] = set()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        for name in (".", *dirnames, *filenames):
            st = os.lstat(os.path.join(dirpath, name))
            key = (st.st_dev, st.st_ino)
            if key not in seen:
                seen.add(key)
                total += st.st_blocks * 512
    return total
