"""The file operations and processes a whole mine costs per built commit.

Counted with ``sys.addaudithook`` over ``perfmine mine`` on the fake
runtime, gate included, for 3 and for 30 built commits. Half the commits
speed the one test up and are stored; the others edit a helper and are
built, measured and dropped, so both ways a session ends are counted.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import pytest

from conftest import commit_all, git, store_keeps_what_images_name

from perfmine import cli

# The ceilings per built commit. A mine of 3 pays the gate and the first
# full trees over fewer commits, so it gets more room. A rename (about 20 us
# here) is what hands a tree from one session to the next in place of a
# mkdir or rmdir per directory (20-350 us), so renames may exceed the other
# counts. A file of a new directory is linked before the store is asked
# whether it has the blob, so a blob the store lacks costs a failed link.
# An image is one file of tree objects, so a stored commit leaves
# both its trees as spares and the next check-out syncs both in place: a
# removed and a linked file per file that differs, where a whole tree took
# a mkdir per directory and a link per file.
CEILINGS = {
    3: {"mkdir": 6.5, "rmdir": 4, "remove": 17, "link": 19, "rename": 12, "create": 8.4,
        "process": 1.5},
    30: {"mkdir": 0.7, "rmdir": 1, "remove": 5, "link": 4.7, "rename": 7.5, "create": 4.55,
         "process": 0.15},
}

_counters: list[Counter] = []  # the counter of the mine being counted, if any


def _count(event: str, args: tuple) -> None:
    if not _counters:
        return
    counter = _counters[-1]
    if event == "os.mkdir":
        if not os.path.lexists(args[0]):  # makedirs tries existing directories too
            counter["mkdir"] += 1
    elif event in ("os.rmdir", "os.remove", "os.link", "os.rename"):
        counter[event[3:]] += 1  # os.unlink is os.remove, os.replace os.rename
    elif event == "open":
        path, _, flags = args
        if flags & os.O_CREAT and isinstance(path, (str, bytes)) and not os.path.lexists(path):
            counter["create"] += 1
    elif event == "subprocess.Popen":
        counter["process"] += 1


@pytest.fixture(scope="module")
def audit():
    # an audit hook cannot be removed, so one hook counts while _counters holds a counter
    sys.addaudithook(_count)
    return _counters


def _history(path, commits: int):
    path.mkdir()
    git(path, "init", "-q", "-b", "main", ".")
    (path / "CMakeLists.txt").write_text("cmake_minimum_required(VERSION 3.16)\n"
                                         "project(budget CXX)\n")
    for d in ("src", "include", "tests"):
        (path / d).mkdir()
    for h in range(6):
        (path / "include" / f"h{h}.hpp").write_text(f"int h{h}();\n")
        (path / "tests" / f"t{h}.cpp").write_text(f"int t{h};\n")
    base_ms = 1000.0
    for i in range(commits + 1):
        if i % 2:
            (path / "src" / "helper.cpp").write_text(f"int helper() {{ return {i}; }}\n")
        else:
            base_ms *= 0.9
        (path / "src" / "kernel.cpp").write_text(
            f"// fake-timing: kernel base_ms={base_ms:.3f} step_ms=0.01\nint kernel();\n")
        commit_all(path, f"commit {i}", f"2022-01-{i % 28 + 1:02d}T00:00:00 +0000")
    return path


def _mine(tmp_path, commits: int, audit) -> tuple[Counter, int, str]:
    repo = _history(tmp_path / f"repo{commits}", commits)
    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps({"default": "Yes"}))
    out = tmp_path / f"out{commits}"
    counter = Counter()
    audit.append(counter)
    try:
        rc = cli.main(["mine", "--local-repo", str(repo), "--out", str(out), "--fake-runtime",
                       "--stub-backends", str(replies), "--runs", "5"])
    finally:
        audit.pop()
    assert rc == 0
    return counter, commits, str(out / "fake-runtime")


@pytest.mark.parametrize("commits", [3, 30])
def test_a_mine_keeps_to_its_file_operation_budget(tmp_path, capsys, audit, commits):
    counter, built, state = _mine(tmp_path, commits, audit)
    funnel = capsys.readouterr().out.strip().splitlines()[-1]
    assert f"built={built} stored={built // 2}" in funnel
    per_commit = {name: counter[name] / built for name in CEILINGS[commits]}
    over = {name: (round(per_commit[name], 2), ceiling)
            for name, ceiling in CEILINGS[commits].items() if per_commit[name] > ceiling}
    assert not over, f"per built commit (count, ceiling): {over}"

    # the mine ends with no session and no spare tree (spares are kept in the
    # directory of the session that checked them out), and a store holding
    # only what the images name
    assert os.listdir(os.path.join(state, "sessions")) == []
    named = store_keeps_what_images_name(state)
    images = os.path.join(state, "images")
    assert len(os.listdir(images)) == built // 2
    assert all(os.path.isfile(os.path.join(images, name)) for name in os.listdir(images))
    assert set(os.listdir(os.path.join(state, "blobs"))) == named


def test_a_second_evaluation_makes_and_deletes_no_directory(tmp_path, capsys, audit):
    # the first evaluation leaves its trees in the slot, and the second syncs
    # them in place: it renames and links, and creates only its report
    _, _, state = _mine(tmp_path, 3, audit)
    out = os.path.dirname(state)
    patch_id = sorted(os.listdir(os.path.join(out, "entries")))[0].removesuffix(".json")
    argv = ["evaluate", "--store", out, "--patch-id", patch_id, "--fake-runtime",
            "--patch-file", os.path.join(out, "patches", f"{patch_id}.patch"), "--runs", "5"]
    assert cli.main(argv) == 0
    counter = Counter()
    audit.append(counter)
    try:
        assert cli.main(argv) == 0
    finally:
        audit.pop()
    assert (counter["mkdir"], counter["rmdir"]) == (0, 0)
    assert counter["create"] == 1  # the report, written under a temporary name
    assert os.listdir(os.path.join(state, "sessions")) == ["spare"]
