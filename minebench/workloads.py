"""Synthetic C++/CMake histories for the mine-and-evaluate benchmark.

Each workload is a git history written with ``git fast-import``, a stub
reply script for the classifier, candidate patches for ``evaluate``, and
the outcome every commit, candidate and query must have. The outcomes
come from what the generator planted, never from the program under test.

The seed varies contents, order, timings and messages; the number of
commits of each kind is fixed per workload, so every seed attempts the
same operations. Author and committer names and dates are fixed, so a
seed reproduces the same shas.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

OWNER = "bench"
AUTHOR = "Bench Author <author@bench.invalid>"
SINCE = "2020-01-01T00:00:00Z"
UNTIL = "2025-12-31T23:59:59Z"
MAX_FILES = 20  # perfmine's default --max-files
_BEFORE_WINDOW = 1546300800  # 2019-01-01
_IN_WINDOW = 1577836800  # 2020-01-01
_DAY = 86400
STEP_MS = 0.01

# Skip reasons as the README and the CLI word them.
FILTERED = "filtered: {}"
NEGATIVE = "classified negative in phase {}"
WARMUP_FAILED = "patched version not consistently successful"

VERDICT_EXIT = {"improves": 0, "functional_only": 10, "broken": 20}

# Candidate kinds and the verdict each must get.
CANDIDATE_VERDICTS = {
    "ground_truth": "improves",
    "other_speedup": "improves",
    "empty": "functional_only",
    "slowdown": "functional_only",
    "fails_recorded_run": "broken",
    "does_not_apply": "broken",
}


@dataclass
class Commit:
    """One commit of the generated history and the outcome planted for it."""

    mark: int
    kind: str
    message: str
    when: int
    parent: int | None
    files: dict[str, str | None] = field(default_factory=dict)  # None deletes
    renames: list[tuple[str, str]] = field(default_factory=list)
    merge: int | None = None
    branch: str = "main"
    replies: dict | None = None
    # README rule: stored iff some test got measurably faster.
    expect_stored: bool = False
    expect_reason: str | None = None  # skip reason when not stored
    significant_tests: frozenset[str] = frozenset()
    base_tree: dict[str, str] = field(default_factory=dict)  # tree of the parent
    sha: str = ""
    parent_sha: str = ""
    tree_sha: str = ""

    @property
    def scanned(self) -> bool:
        """A first-parent, non-root, non-merge commit: one the walk yields."""
        return self.branch == "main" and self.parent is not None and self.merge is None

    @property
    def changed_paths(self) -> list[str]:
        return sorted(set(self.files) | {new for _, new in self.renames})


@dataclass
class Candidate:
    kind: str
    commit_mark: int
    patch_file: Path
    verdict: str


@dataclass
class Workload:
    """A generated workload: repository, replies, candidates, expectations."""

    name: str
    repo: Path
    replies: Path
    commits: list[Commit]
    candidates: list[Candidate]

    @property
    def patch_ids(self) -> dict[str, Commit]:
        """Entries the README's rule says the store must hold."""
        return {patch_id(self.name, c.sha): c for c in self.commits if c.expect_stored}

    @property
    def scanned(self) -> list[Commit]:
        return [c for c in self.commits if c.scanned]

    def funnel(self) -> dict[str, int]:
        scanned = self.scanned
        accepted = [c for c in scanned if not (c.expect_reason or "").startswith("filtered")]
        positive = [c for c in accepted if not (c.expect_reason or "").startswith("classified")]
        return {
            "scanned": len(scanned),
            "structurally_accepted": len(accepted),
            "classified_positive": len(positive),
            "built": len(positive),  # fake builds always succeed
            "stored": sum(c.expect_stored for c in scanned),
        }

    def queries(self) -> list[tuple[list[str], set[str]]]:
        """inspect arguments and the patch ids each must list."""
        stored = self.patch_ids
        multi = {p for p, c in stored.items() if len(c.changed_paths) > 1}
        everything = set(stored)
        first = min(everything)
        return [
            ([], everything),
            (["--repo", f"{OWNER}/{self.name}"], everything),
            (["--multi-file"], multi),
            (["--single-file"], everything - multi),
            (["--has-significant-test"], everything),
            (["--no-significant-test"], set()),
            (["--verified", "unreviewed"], everything),
            (["--patch-id", first], {first}),
        ]

    def mine_args(self, store: Path) -> list[str]:
        return [
            "mine", "--local-repo", str(self.repo), "--out", str(store),
            "--owner", OWNER, "--name", self.name,
            "--since", SINCE, "--until", UNTIL, "--max-files", str(MAX_FILES),
            "--fake-runtime", "--stub-backends", str(self.replies),
        ]


def patch_id(name: str, sha: str) -> str:
    return f"{OWNER}__{name}__{sha}"


# ---------------------------------------------------------------------------
# file contents


def kernel_source(test: str, base_ms: float, variant: int, fail_run: int | None = None) -> str:
    fail = f" fail_run={fail_run}" if fail_run is not None else ""
    return (
        f"// fake-timing: {test} base_ms={base_ms:.1f} step_ms={STEP_MS}{fail}\n"
        "#include <cstddef>\n"
        "#include <vector>\n"
        "\n"
        f"long {test}_kernel(const std::vector<long>& xs) {{\n"
        "    long acc = 0;\n"
        f"    // strategy {variant}\n"
        f"    for (std::size_t i = 0; i < xs.size(); ++i) acc += xs[i] * {variant % 7 + 1};\n"
        "    return acc;\n"
        "}\n"
    )


def helper_source(name: str, revision: int) -> str:
    return (
        f"// {name}: shared helper\n"
        "#include <string>\n"
        "\n"
        f"std::string {name}_label() {{\n"
        f"    return \"{name}-r{revision}\";\n"
        "}\n"
    )


def cmake_source(project: str, tests: list[str], revision: int = 0) -> str:
    lines = [
        "cmake_minimum_required(VERSION 3.16)",
        f"project({project.replace('-', '_')} CXX)",
        "set(CMAKE_CXX_STANDARD 17)",
        "enable_testing()",
        f"# revision {revision}",
    ]
    for test in tests:
        lines.append(f"add_executable({test} src/kernel_{test}.cpp)")
        lines.append(f"add_test(NAME {test} COMMAND {test})")
    return "\n".join(lines) + "\n"


def unified_diff(path: str, old: str, new: str) -> str:
    body = difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        fromfile=f"a/{path}", tofile=f"b/{path}",
    )
    return f"diff --git a/{path} b/{path}\n" + "".join(body)


def _decl(text: str) -> tuple[str, float, int]:
    """(test, base_ms, strategy) from a kernel file written by kernel_source."""
    first = text.splitlines()[0].split()
    base = float(first[3].split("=")[1])
    variant = int(text.split("// strategy ")[1].split("\n")[0])
    return first[2], base, variant


# ---------------------------------------------------------------------------
# history builder


_SPEEDUP_MESSAGES = (
    "Cache the loop bound in {t}",
    "Avoid a copy of the input in {t}",
    "Hoist the allocation out of the hot loop in {t}",
    "Use a flat buffer instead of nested vectors in {t}",
    "Precompute the stride table for {t}",
)
_PLAIN_MESSAGES = (
    "Tidy up {f}", "Rename a local in {f}", "Fix a comment typo in {f}",
    "Clarify ownership in {f}", "Split a long function in {f}",
)


class _History:
    """Builds commits on ``main`` while tracking the tree in memory."""

    def __init__(self, name: str, rng: random.Random, tests: list[str], helpers: int) -> None:
        self.name = name
        self.rng = rng
        self.tests = tests
        self.commits: list[Commit] = []
        self.tree: dict[str, str] = {}
        self.when = _BEFORE_WINDOW
        self.helper_seq = 0
        self.revision = 0
        self.tip: int | None = None
        files = {"CMakeLists.txt": cmake_source(name, tests),
                 "README.md": f"# {name}\n\nSynthetic project.\n"}
        for test in tests:
            files[self.kernel(test)] = kernel_source(
                test, round(rng.uniform(300.0, 600.0), 1), rng.randrange(100))
        for _ in range(helpers):
            path = self._new_helper_path()
            files[path] = helper_source(Path(path).stem, 0)
        self._commit("root", "Initial import", files, parent=None)

    # -- plumbing -----------------------------------------------------------

    def _new_helper_path(self) -> str:
        self.helper_seq += 1
        return f"src/util/helper_{self.helper_seq:03d}.cpp"

    def _tick(self) -> int:
        self.when += _DAY + self.rng.randrange(3600)
        return self.when

    def enter_window(self) -> None:
        self.when = max(self.when, _IN_WINDOW)

    def _commit(self, kind, message, files, *, parent="tip", renames=(), merge=None,
                branch="main", replies=None, expect_stored=False, expect_reason=None,
                significant=frozenset()) -> Commit:
        if parent == "tip":
            parent = self.tip
        commit = Commit(
            mark=len(self.commits) + 1, kind=kind, message=message, when=self._tick(),
            parent=parent, files=dict(files), renames=list(renames), merge=merge,
            branch=branch, replies=replies, expect_stored=expect_stored,
            expect_reason=expect_reason, significant_tests=frozenset(significant),
            base_tree=dict(self.tree) if branch == "main" else {},
        )
        self.commits.append(commit)
        if branch == "main":
            for old, new in commit.renames:
                self.tree[new] = self.tree.pop(old)
            for path, text in commit.files.items():
                if text is None:
                    self.tree.pop(path)
                else:
                    self.tree[path] = text
            self.tip = commit.mark
        return commit

    def helpers(self) -> list[str]:
        return sorted(p for p in self.tree if p.startswith("src/util/"))

    def kernel(self, test: str) -> str:
        return f"src/kernel_{test}.cpp"

    def touched_helper(self, path: str) -> str:
        self.revision += 1
        return helper_source(Path(path).stem, self.revision)

    # -- commit kinds ---------------------------------------------------------

    def speedup(self, replies: dict, *, multi: bool, kind: str = "speedup") -> Commit:
        test = self.rng.choice(self.tests)
        path = self.kernel(test)
        _, base, variant = _decl(self.tree[path])
        faster = round(base * self.rng.uniform(0.55, 0.78), 1)
        files = {path: kernel_source(test, faster, variant + 1)}
        if multi:
            for helper in self.rng.sample(self.helpers(), self.rng.choice((1, 2))):
                files[helper] = self.touched_helper(helper)
        message = self.rng.choice(_SPEEDUP_MESSAGES).format(t=test)
        return self._commit(kind, message, files, replies=replies, expect_stored=True,
                            significant={test})

    def false_positive(self) -> Commit:
        """Claims a speed-up, gets Yes/Yes, and changes no timing at all."""
        test = self.rng.choice(self.tests)
        path = self.kernel(test)
        _, base, variant = _decl(self.tree[path])
        message = f"Reserve capacity up front in {test}"
        # README rule: no test got faster, so the store must not keep it.
        return self._commit("false_positive", message,
                            {path: kernel_source(test, base, variant + 1)},
                            replies=_replies("Yes", "Yes"))

    def warmup_failure(self) -> tuple[Commit, Commit]:
        """A patched version whose warm-up run fails, then its No/No revert."""
        test = self.rng.choice(self.tests)
        path = self.kernel(test)
        before = self.tree[path]
        _, base, variant = _decl(before)
        broken = kernel_source(test, round(base * 0.7, 1), variant + 1, fail_run=1)
        first = self._commit("warmup_failure", f"Vectorize the reduction in {test}",
                             {path: broken}, replies=_replies("Yes", "Yes"),
                             expect_reason=WARMUP_FAILED)
        revert = self._commit("revert", f"Revert \"Vectorize the reduction in {test}\"",
                              {path: before}, replies=_replies("No", "No"),
                              expect_reason=NEGATIVE.format(1))
        return first, revert

    def plain(self, replies: dict, reason: str, kind: str) -> Commit:
        """A non-speed-up C++ change: modify, add, rename or delete a helper."""
        helpers = self.helpers()
        action = self.rng.choice(("modify", "modify", "add", "rename", "delete"))
        # A too-many-files commit needs MAX_FILES + 1 C++ files outside tests/.
        if action == "delete" and len(self.tests) + len(helpers) <= MAX_FILES + 1:
            action = "add"
        files: dict[str, str | None] = {}
        renames: list[tuple[str, str]] = []
        if action == "modify":
            path = self.rng.choice(helpers)
            files[path] = self.touched_helper(path)
        elif action == "add":
            path = self._new_helper_path()
            files[path] = helper_source(Path(path).stem, 0)
        elif action == "rename":
            path = self.rng.choice(helpers)
            renames.append((path, self._new_helper_path()))
        else:
            path = self.rng.choice(helpers)
            files[path] = None
        message = self.rng.choice(_PLAIN_MESSAGES).format(f=Path(path).name)
        return self._commit(kind, message, files, renames=renames, replies=replies,
                            expect_reason=reason)

    def filtered(self, reason: str) -> Commit:
        files: dict[str, str | None] = {}
        if reason == "out_of_window":
            path = self.rng.choice(self.helpers())
            files[path] = self.touched_helper(path)
        elif reason == "too_many_files":
            cpp = [p for p in self.tree if p.endswith(".cpp") and not p.startswith("tests/")]
            for path in self.rng.sample(sorted(cpp), MAX_FILES + 1):
                text = self.tree[path]
                files[path] = text.replace("\n", "\n// reformatted\n", 1)
        elif reason == "touches_tests":
            path = f"tests/test_{self.rng.choice(self.tests)}.cpp"
            self.revision += 1
            files[path] = (f"// regression check, revision {self.revision}\n"
                           "int main() { return 0; }\n")
        elif reason == "non_cpp_file":
            path = self.rng.choice(("README.md", "docs/design.md", "scripts/format.py",
                                    "CMakeLists.txt"))
            self.revision += 1
            if path == "CMakeLists.txt":
                files[path] = cmake_source(self.name, self.tests, self.revision)
            else:
                files[path] = f"revision {self.revision}\n"
        else:
            raise ValueError(reason)
        return self._commit("filtered", f"Update {Path(next(iter(files))).name}", files,
                            expect_reason=FILTERED.format(reason))

    def merge_side_branch(self) -> None:
        """A short side branch merged with --no-ff; none of it is scanned."""
        branch = f"topic-{len(self.commits)}"
        side_tip = self.tip
        merged: dict[str, str] = {}
        for _ in range(self.rng.choice((1, 2))):
            path = self._new_helper_path()
            merged[path] = helper_source(Path(path).stem, 0)
            side_tip = self._commit("side", f"Add {Path(path).name}",
                                    {path: merged[path]}, parent=side_tip, branch=branch).mark
        self._commit("merge", f"Merge branch '{branch}'", merged, merge=side_tip)


def _replies(first, second, phase2=None) -> dict:
    script = {"phase1:0": first, "phase1:1": second}
    if phase2 is not None:
        script["phase2"] = phase2
    return script


_UNPARSEABLE = "I would need to read the code before answering."


# ---------------------------------------------------------------------------
# the three workloads


def _mine_verify(h: _History) -> None:
    """Nearly every commit reaches verification."""
    h.enter_window()
    plan = (["single"] * 7 + ["multi"] * 5 + ["false_positive"] * 3 + ["warmup"] * 2)
    h.rng.shuffle(plan)
    if plan[-1] == "warmup":  # the revert follows anyway; keep a speed-up last
        plan[-1], plan[0] = plan[0], plan[-1]
    for step in plan:
        if step == "warmup":
            h.warmup_failure()
        elif step == "false_positive":
            h.false_positive()
        else:
            h.speedup(_replies("Yes", "Yes"), multi=step == "multi")


def _mine_screen(h: _History) -> None:
    """A long history that harvest and the classifier screen almost entirely."""
    for _ in range(40):
        h.filtered("out_of_window")
    h.enter_window()
    disagreements = [("Yes", "No"), ("No", "Yes"), ("Yes", "Maybe"), ("Maybe", "No"),
                     ("No", "Maybe")]
    plan = (["too_many_files"] * 10 + ["touches_tests"] * 30 + ["non_cpp_file"] * 40
            + ["no_no"] * 100 + ["disagree_no"] * 25 + ["maybe_yes"] * 5
            + ["reprompt_no"] * 4 + ["reprompt_yes"] * 2 + ["merge"] * 8)
    h.rng.shuffle(plan)
    for step in plan:
        if step in ("too_many_files", "touches_tests", "non_cpp_file"):
            h.filtered(step)
        elif step == "no_no":
            h.plain(_replies("No", "No"), NEGATIVE.format(1), "no_no")
        elif step == "reprompt_no":
            h.plain(_replies([_UNPARSEABLE, "No"], "No"), NEGATIVE.format(1), "reprompt_no")
        elif step == "disagree_no":
            pair = h.rng.choice(disagreements)
            h.plain(_replies(*pair, phase2="No"), NEGATIVE.format(2), "disagree_no")
        elif step == "maybe_yes":
            h.speedup(_replies("Maybe", "Maybe", phase2="Yes"), multi=h.rng.random() < 0.4)
        elif step == "reprompt_yes":
            h.speedup(_replies("Maybe", "Yes", phase2=["Maybe", "Yes"]), multi=False,
                      kind="reprompt_yes")
        else:
            h.merge_side_branch()


def _evaluate_mix(h: _History) -> None:
    """A small store of genuine speed-ups, scored against many candidates."""
    h.enter_window()
    plan = ["single"] * 3 + ["multi"] * 3
    h.rng.shuffle(plan)
    for step in plan:
        h.speedup(_replies("Yes", "Yes"), multi=step == "multi")


# name -> (build, tests, helpers, entries evaluated, candidate kinds)
WORKLOADS = {
    "mine-verify": (_mine_verify, ["gather", "reduce", "scan", "sort"], 6, 3,
                    ("ground_truth", "empty")),
    "mine-screen": (_mine_screen, ["gather", "reduce", "scan", "sort", "hash"], 26, 2,
                    tuple(CANDIDATE_VERDICTS)),
    "evaluate-mix": (_evaluate_mix, ["gather", "reduce", "scan"], 4, 4,
                     tuple(CANDIDATE_VERDICTS)),
}


def _candidate_diff(kind: str, commit: Commit, rng: random.Random) -> str:
    test = next(iter(commit.significant_tests))
    path = f"src/kernel_{test}.cpp"
    before = commit.base_tree[path]
    _, base, variant = _decl(before)
    if kind == "ground_truth":
        return "".join(unified_diff(p, commit.base_tree[p], commit.files[p])
                       for p in sorted(commit.files))
    if kind == "empty":
        return ""
    if kind == "other_speedup":
        after = kernel_source(test, round(base * rng.uniform(0.4, 0.7), 1), variant + 50)
    elif kind == "slowdown":
        after = kernel_source(test, round(base * rng.uniform(1.25, 1.6), 1), variant)
    elif kind == "fails_recorded_run":
        after = kernel_source(test, base, variant, fail_run=rng.randrange(2, 32))
    elif kind == "does_not_apply":
        # written against a version of the file that never existed
        stale = kernel_source(test, base + 1000.0, variant)
        return unified_diff(path, stale, kernel_source(test, base, variant))
    else:
        raise ValueError(kind)
    return unified_diff(path, before, after)


# ---------------------------------------------------------------------------
# writing it out


def _git(repo: Path, *args: str, stdin: bytes | None = None) -> str:
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    proc = subprocess.run(["git", "-C", str(repo), *args], input=stdin, env=env,
                          capture_output=True, check=True)
    return proc.stdout.decode()


def _data(payload: str) -> bytes:
    raw = payload.encode("utf-8")
    return b"data %d\n" % len(raw) + raw + b"\n"


def fast_import_stream(commits: list[Commit]) -> bytes:
    out = bytearray()
    for c in commits:
        out += f"commit refs/heads/{c.branch}\nmark :{c.mark}\n".encode()
        out += f"author {AUTHOR} {c.when} +0000\ncommitter {AUTHOR} {c.when} +0000\n".encode()
        out += _data(c.message)
        if c.parent is not None:
            out += f"from :{c.parent}\n".encode()
        if c.merge is not None:
            out += f"merge :{c.merge}\n".encode()
        for old, new in c.renames:
            out += f"R {old} {new}\n".encode()
        for path, text in sorted(c.files.items()):
            if text is None:
                out += f"D {path}\n".encode()
            else:
                out += f"M 100644 inline {path}\n".encode() + _data(text)
        out += b"\n"
    return bytes(out)


def generate(name: str, seed: int, directory: Path) -> Workload:
    """Write workload ``name`` for ``seed`` under ``directory``."""
    build, tests, helpers, evaluated, kinds = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    history = _History(name, rng, tests, helpers)
    build(history)
    commits = history.commits

    directory.mkdir(parents=True)
    repo = directory / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")
    marks = directory / "marks"
    # One pack, as a clone from a hosting service arrives. Loose objects put
    # a few hundred files into every tree the runtime copies, and the time to
    # create a file drifted between runs more than any other cost.
    _git(repo, "-c", "fastimport.unpackLimit=0", "fast-import", "--quiet",
         f"--export-marks={marks}", stdin=fast_import_stream(commits))
    _git(repo, "reset", "-q", "--hard")
    shas = dict(line.split() for line in marks.read_text().splitlines())
    for c in commits:
        c.sha = shas[f":{c.mark}"]
        if c.parent is not None:
            c.parent_sha = shas[f":{c.parent}"]
    trees = _git(repo, "cat-file", "--batch-check",
                 stdin="".join(f"{c.sha}^{{tree}}\n" for c in commits).encode())
    for c, line in zip(commits, trees.splitlines()):
        c.tree_sha = line.split()[0]

    replies = directory / "replies.json"
    replies.write_text(json.dumps({c.sha: c.replies for c in commits if c.replies},
                                  indent=1, sort_keys=True))

    candidates = []
    stored = [c for c in commits if c.expect_stored]
    patches = directory / "candidates"
    patches.mkdir()
    for commit in rng.sample(stored, evaluated):
        for kind in kinds:
            target = patches / f"{commit.mark:04d}-{kind}.diff"
            target.write_text(_candidate_diff(kind, commit, rng))
            candidates.append(Candidate(kind, commit.mark, target, CANDIDATE_VERDICTS[kind]))
    return Workload(name, repo, replies, commits, candidates)
