"""The command line surface: flags, output, and exit codes."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import COMPUTE_FAST, FixtureRepo, commit_all, git

from perfmine import cli
from perfmine.cli import (
    EXIT_AUTH,
    EXIT_BROKEN,
    EXIT_DATA,
    EXIT_FUNCTIONAL_ONLY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNAVAILABLE,
    EXIT_USAGE,
    main,
)
from perfmine.evaluate import report_path
from perfmine.runtime import SLOT, FakeRuntime
from perfmine.store import entry_to_dict, read_entry


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@dataclass
class CliStore:
    out_dir: Path
    stdout: str
    exit_code: int
    fixture: FixtureRepo

    @property
    def patch_id(self) -> str:
        return f"local__fixturerepo__{self.fixture.perf_sha}"

    @property
    def patch_file(self) -> Path:
        return self.out_dir / "patches" / f"{self.patch_id}.patch"


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory, fixture_repo) -> CliStore:
    base = tmp_path_factory.mktemp("cli")
    script = base / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    out_dir = base / "store"
    code, stdout = run_cli(
        "mine",
        "--local-repo", str(fixture_repo.path),
        "--out", str(out_dir),
        "--fake-runtime",
        "--stub-backends", str(script),
    )
    return CliStore(out_dir=out_dir, stdout=stdout, exit_code=code, fixture=fixture_repo)


# ---------------------------------------------------------------------------
# mine


def test_mine_succeeds_and_prints_the_funnel(cli_store):
    assert cli_store.exit_code == EXIT_OK
    assert (
        "funnel: scanned=5 structurally_accepted=1 "
        "classified_positive=1 built=1 stored=1"
    ) in cli_store.stdout
    assert f"stored {cli_store.patch_id}" in cli_store.stdout


def test_mine_echoes_the_effective_config(cli_store):
    stdout = cli_store.stdout
    assert "effective config:" in stdout
    assert "min_stars = 300" in stdout
    assert "window = 2020-01-01T00:00:00+00:00 .. 2025-12-31T23:59:59+00:00" in stdout
    assert "max_files = 20" in stdout
    assert "runs = 31" in stdout
    assert "delta = 0.05" in stdout
    assert "alpha = 0.05" in stdout
    assert "phase1_backends = qwen2.5:7b, qwen3:8b" in stdout
    assert "phase2_backend = qwen3:8b" in stdout
    assert "temperature = 0.0" in stdout
    assert "max_diff_bytes = 65536" in stdout
    assert "max_repair_rounds = 3" in stdout


def test_mined_manifest_passes_strict_load(cli_store):
    entry = read_entry(cli_store.out_dir, cli_store.patch_id)
    assert entry.has_significant_test
    assert entry.image == f"perfmine/{cli_store.patch_id}"
    assert cli_store.patch_file.is_file()


def test_mine_into_a_store_below_a_build_directory(fixture_repo, tmp_path):
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    code, stdout = run_cli(
        "mine",
        "--local-repo", str(fixture_repo.path),
        "--out", str(tmp_path / "build" / "store"),
        "--fake-runtime",
        "--stub-backends", str(script),
    )
    assert code == EXIT_OK
    assert "funnel: scanned=5 " in stdout
    assert f"stored local__fixturerepo__{fixture_repo.perf_sha}" in stdout


def _funnel(stdout: str) -> dict[str, int]:
    (line,) = [line for line in stdout.splitlines() if line.startswith("funnel: ")]
    return {k: int(v) for k, v in (item.split("=") for item in line.split()[1:])}


def _lines(stdout: str, prefix: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(prefix)]


def test_mine_a_shallow_clone_that_covers_the_window(fixture_repo, tmp_path, capsys):
    full = tmp_path / "full"
    git(tmp_path, "clone", "-q", f"file://{fixture_repo.path}", str(full))
    (full / "src" / "compute.cpp").write_text(COMPUTE_FAST.replace("base_ms=100", "base_ms=60"))
    newest = commit_all(full, "Speed up compute again", "2024-02-01T00:00:00 +0000")
    # holds the newest commit, the 2024-01-05 docs commit and, as its
    # boundary, the commit dated 2019-12-31
    shallow = tmp_path / "shallow"
    git(tmp_path, "clone", "-q", "--depth", "3", f"file://{full}", str(shallow))
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({newest: "Yes"}), encoding="utf-8")

    def mine(repo, since):
        return run_cli(
            "mine", "--local-repo", str(repo), "--name", "fixturerepo",
            "--out", str(tmp_path / f"store-{repo.name}-{since[:4]}"),
            "--since", since, "--fake-runtime", "--stub-backends", str(script),
        )

    code, full_out = mine(full, "2024-01-01T00:00:00Z")
    assert code == EXIT_OK
    code, shallow_out = mine(shallow, "2024-01-01T00:00:00Z")
    assert code == EXIT_OK
    full_funnel, shallow_funnel = _funnel(full_out), _funnel(shallow_out)
    assert (full_funnel.pop("scanned"), shallow_funnel.pop("scanned")) == (6, 2)
    assert shallow_funnel == full_funnel == {
        "structurally_accepted": 1, "classified_positive": 1, "built": 1, "stored": 1,
    }
    assert _lines(shallow_out, "stored ") == _lines(full_out, "stored ") == [
        f"stored local__fixturerepo__{newest}"
    ]
    assert _lines(shallow_out, "skipped ") == [
        f"skipped {fixture_repo.non_cpp_sha[:10]}: filtered: non_cpp_file"
    ]
    assert _lines(shallow_out, "skipped ")[0] in _lines(full_out, "skipped ")
    capsys.readouterr()

    code, _ = mine(shallow, "2019-06-01T00:00:00Z")
    assert code == EXIT_INTERNAL
    assert "error: shallow clone starts at" in capsys.readouterr().err


def _mine_new_commits(fixture_repo, tmp_path, sources: list[bytes]):
    """Clone the fixture, commit each ``src/compute.cpp`` in turn, mine the last.

    The window starts after the fixture's own in-window commits, so only
    the new commits and the 2024-01-05 docs commit are scanned.
    """
    clone = tmp_path / "clone"
    git(tmp_path, "clone", "-q", f"file://{fixture_repo.path}", str(clone))
    shas = []
    for day, source in enumerate(sources, start=1):
        (clone / "src" / "compute.cpp").write_bytes(source)
        shas.append(commit_all(clone, f"Rework compute {day}", f"2024-02-0{day}T00:00:00 +0000"))
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({shas[-1]: "Yes"}), encoding="utf-8")
    store = tmp_path / "store"
    code, stdout = run_cli(
        "mine", "--local-repo", str(clone), "--name", "fixturerepo", "--out", str(store),
        "--since", "2024-01-01T00:00:00Z", "--fake-runtime", "--stub-backends", str(script),
    )
    assert code == EXIT_OK
    return clone, store, shas, stdout


def test_mine_skips_a_commit_with_no_faster_test(fixture_repo, tmp_path):
    # a positive classification, a clean build and passing tests, but every
    # timing is unchanged: nothing is stored, logged or snapshotted
    unchanged = COMPUTE_FAST.replace("long compute", "// same speed\nlong compute", 1)
    _, store, [sha], stdout = _mine_new_commits(fixture_repo, tmp_path, [unchanged.encode()])
    assert _funnel(stdout)["built"] == 1 and _funnel(stdout)["stored"] == 0
    assert f"skipped {sha[:10]}: no test measurably faster" in _lines(stdout, "skipped ")
    assert _lines(stdout, "stored ") == []
    patch_id = f"local__fixturerepo__{sha}"
    for path in (f"entries/{patch_id}.json", f"patches/{patch_id}.patch", f"logs/{patch_id}"):
        assert not (store / path).exists()
    images = store / "fake-runtime" / "images"
    assert not images.exists() or list(images.iterdir()) == []


def test_a_crlf_commit_stores_a_patch_that_applies(fixture_repo, tmp_path):
    crlf = COMPUTE_FAST.replace("\n", "\r\n")
    clone, store, [parent, sha], _ = _mine_new_commits(
        fixture_repo, tmp_path, [crlf.encode(), crlf.replace("base_ms=100", "base_ms=60").encode()]
    )
    patch_id = f"local__fixturerepo__{sha}"
    patch = store / "patches" / f"{patch_id}.patch"
    assert b"base_ms=60 step_ms=0.01\r\n" in patch.read_bytes()
    git(clone, "checkout", "-q", parent)
    git(clone, "apply", "--check", str(patch))
    code, stdout = run_cli(
        "evaluate", "--store", str(store), "--patch-id", patch_id,
        "--patch-file", str(patch), "--fake-runtime",
    )
    assert code == EXIT_OK
    assert "verdict: improves" in stdout


@pytest.mark.parametrize(
    "content", [None, "{not json", "[1, 2]"], ids=["missing", "malformed", "not-an-object"]
)
def test_mine_with_unloadable_stub_backends_exits_64(tmp_path, capsys, content):
    script = tmp_path / "stub.json"
    if content is not None:
        script.write_text(content, encoding="utf-8")
    code, _ = run_cli(
        "mine", "--out", str(tmp_path / "out"), "--fake-runtime",
        "--stub-backends", str(script),
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load --stub-backends ")
    assert err.count("\n") == 1


def test_mine_with_unreachable_runtime_exits_69(fixture_repo, tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "FakeRuntime", lambda state_dir: FakeRuntime(state_dir, reachable=False)
    )
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    code, stdout = run_cli(
        "mine",
        "--local-repo", str(fixture_repo.path),
        "--out", str(tmp_path / "store"),
        "--fake-runtime",
        "--stub-backends", str(script),
    )
    assert code == EXIT_UNAVAILABLE
    assert "funnel:" not in stdout


def _path_with_git_alone(tmp_path: Path, monkeypatch) -> None:
    """Make ``PATH`` one directory that holds ``git`` and no cmake or ctest."""
    bin_dir = tmp_path / "git-only"
    bin_dir.mkdir()
    os.symlink(shutil.which("git"), bin_dir / "git")
    monkeypatch.setenv("PATH", str(bin_dir))


def test_mine_on_the_local_runtime_without_cmake_exits_69(
        fixture_repo, tmp_path, monkeypatch, capsys):
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    _path_with_git_alone(tmp_path, monkeypatch)
    code, stdout = run_cli(
        "mine",
        "--local-repo", str(fixture_repo.path),
        "--out", str(tmp_path / "store"),
        "--runtime", "local",
        "--stub-backends", str(script),
    )
    err = capsys.readouterr().err
    assert code == EXIT_UNAVAILABLE
    assert err.startswith("error: cannot start cmake ")
    assert err.count("\n") == 1
    assert "funnel:" not in stdout


def test_mine_without_token_fails_auth_after_config_echo(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    monkeypatch.chdir(tmp_path)
    code, stdout = run_cli("mine")
    assert code == EXIT_AUTH
    assert "effective config:" in stdout
    assert "min_stars = 300" in stdout
    assert "runs = 31" in stdout


def test_mine_semantic_config_error_exits_64(tmp_path):
    code, _ = run_cli(
        "mine", "--max-files", "0", "--out", str(tmp_path / "out"), "--fake-runtime"
    )
    assert code == EXIT_USAGE


def test_mine_rejects_window_reversal(tmp_path):
    code, _ = run_cli(
        "mine", "--since", "2025-01-01", "--until", "2020-01-01",
        "--out", str(tmp_path / "out"), "--fake-runtime",
    )
    assert code == EXIT_USAGE


def test_mine_rejects_non_git_local_repo(tmp_path):
    (tmp_path / "notgit").mkdir()
    code, _ = run_cli(
        "mine", "--local-repo", str(tmp_path / "notgit"),
        "--out", str(tmp_path / "out"), "--fake-runtime",
    )
    assert code == EXIT_USAGE


def test_mine_refuses_a_directory_inside_a_checkout_with_one_line(fixture_repo, tmp_path,
                                                                  capsys):
    # git would find the enclosing checkout from here and mine it
    capsys.readouterr()
    code, _ = run_cli("mine", "--local-repo", str(fixture_repo.path / "src"),
                      "--out", str(tmp_path / "out"), "--fake-runtime")
    assert code == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: --local-repo is neither a git checkout nor a bare clone: "
                    f"{fixture_repo.path / 'src'}")


def test_mine_refuses_a_local_repo_with_no_head_commit_with_one_line(tmp_path, capsys):
    empty = tmp_path / "empty"
    git(tmp_path, "init", "-q", str(empty))
    capsys.readouterr()
    code, _ = run_cli("mine", "--local-repo", str(empty), "--out", str(tmp_path / "out"),
                      "--fake-runtime")
    assert code == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --local-repo has no commit at HEAD: ")


def test_a_bare_clone_mines_to_the_entries_of_its_checkout(fixture_repo, tmp_path):
    # every read of a mine goes through git objects, so a bare clone serves
    bare = tmp_path / "fixturerepo.git"
    git(tmp_path, "clone", "-q", "--bare", str(fixture_repo.path), str(bare))
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    stored = {}
    for label, repo in (("checkout", fixture_repo.path), ("bare", bare)):
        out = tmp_path / label
        code, stdout = run_cli("mine", "--local-repo", str(repo), "--name", "fixturerepo",
                               "--out", str(out), "--fake-runtime", "--stub-backends", str(script))
        assert code == EXIT_OK
        assert f"stored local__fixturerepo__{fixture_repo.perf_sha}" in stdout
        stored[label] = {str(p.relative_to(out)): p.read_bytes()
                         for part in ("entries", "patches") for p in (out / part).iterdir()}
    assert len(stored["bare"]) == 2
    assert stored["bare"] == stored["checkout"]


def test_argparse_rejects_bad_flag_values():
    with pytest.raises(SystemExit) as excinfo:
        main(["mine", "--runs", "notanumber"])
    assert excinfo.value.code == EXIT_USAGE


def test_unknown_subcommand_exits_64():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_ground_truth_exits_0(cli_store):
    code, stdout = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(cli_store.patch_file),
        "--fake-runtime",
    )
    assert code == EXIT_OK
    assert "verdict: improves" in stdout
    assert "significant" in stdout
    assert (cli_store.out_dir / f"{cli_store.patch_id}.eval.json").is_file()


def test_evaluate_writes_its_report_into_a_store_named_as_the_current_directory(
        cli_store, monkeypatch):
    # the report's path is then a bare file name, whose directory is ""
    report = cli_store.out_dir / f"{cli_store.patch_id}.eval.json"
    report.unlink(missing_ok=True)
    monkeypatch.chdir(cli_store.out_dir)
    code, stdout = run_cli(
        "evaluate", "--store", ".",
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(cli_store.patch_file),
        "--fake-runtime",
    )
    assert code == EXIT_OK
    assert "verdict: improves" in stdout
    assert json.loads(report.read_text(encoding="utf-8"))["verdict"] == "improves"


def test_evaluate_empty_patch_exits_10(cli_store, tmp_path):
    empty = tmp_path / "empty.patch"
    empty.write_text("", encoding="utf-8")
    code, stdout = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(empty),
        "--fake-runtime",
    )
    assert code == EXIT_FUNCTIONAL_ONLY
    assert "verdict: functional_only" in stdout


def test_evaluate_conflicting_patch_exits_20(cli_store, tmp_path):
    conflicting = tmp_path / "conflicting.patch"
    conflicting.write_text(
        "--- a/src/no_such_file.cpp\n"
        "+++ b/src/no_such_file.cpp\n"
        "@@ -1 +1 @@\n"
        "-int x = 1;\n"
        "+int x = 2;\n",
        encoding="utf-8",
    )
    code, stdout = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(conflicting),
        "--fake-runtime",
    )
    assert code == EXIT_BROKEN
    assert "verdict: broken" in stdout


def test_evaluate_unknown_entry_exits_65(cli_store, tmp_path):
    empty = tmp_path / "empty.patch"
    empty.write_text("", encoding="utf-8")
    code, _ = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", "local__fixturerepo__" + "0" * 40,
        "--patch-file", str(empty),
        "--fake-runtime",
    )
    assert code == EXIT_DATA


def test_evaluate_without_image_exits_69(cli_store, tmp_path):
    orphan = tmp_path / "orphan-store"
    shutil.copytree(cli_store.out_dir / "entries", orphan / "entries")
    shutil.copytree(cli_store.out_dir / "patches", orphan / "patches")
    empty = tmp_path / "empty.patch"
    empty.write_text("", encoding="utf-8")
    code, _ = run_cli(
        "evaluate", "--store", str(orphan),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(empty),
        "--fake-runtime",
    )
    assert code == EXIT_UNAVAILABLE


def test_evaluate_on_the_local_runtime_without_cmake_exits_69(
        cli_store, tmp_path, monkeypatch, capsys):
    store, _ = _copy_with_image(cli_store, tmp_path)
    os.rename(store / "fake-runtime", store / "local-runtime")
    _path_with_git_alone(tmp_path, monkeypatch)
    code, stdout = run_cli(
        "evaluate", "--store", str(store),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(cli_store.patch_file),
        "--runtime", "local",
    )
    err = capsys.readouterr().err
    assert code == EXIT_UNAVAILABLE
    assert err.startswith("error: cannot start cmake ")
    assert err.count("\n") == 1
    assert "verdict:" not in stdout
    assert not report_path(store, cli_store.patch_id).exists()


def _copy_with_image(cli_store: CliStore, tmp_path: Path) -> tuple[Path, Path]:
    """A copy of the store, its image and blob store included, and the image's path."""
    store = _copy_of(cli_store, tmp_path)
    for part in ("images", "blobs"):
        shutil.copytree(cli_store.out_dir / "fake-runtime" / part, store / "fake-runtime" / part)
    image = FakeRuntime(store / "fake-runtime")._image_path(f"perfmine/{cli_store.patch_id}")
    return store, Path(image)


def _an_old_layout_image(cli_store: CliStore, tmp_path: Path, tree: str) -> Path:
    """A copy of the store whose image is a directory of an earlier layout,
    with the parent's tree at ``<image>/<tree>``."""
    store, image = _copy_with_image(cli_store, tmp_path)
    image.unlink()
    (image / tree).mkdir(parents=True)
    (image / tree / ".perfmine-sha").write_text(cli_store.fixture.perf_parent_sha + "\n")
    (image / "meta.json").write_text("{}", encoding="utf-8")
    assert not FakeRuntime(store / "fake-runtime").has_image(f"perfmine/{cli_store.patch_id}")
    return store


def _evaluate_gives_one_line(cli_store: CliStore, store: Path, capsys) -> tuple[int, str]:
    """The exit code and the one stderr line of evaluating the ground truth in ``store``."""
    capsys.readouterr()
    code, stdout = run_cli(
        "evaluate", "--store", str(store),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(cli_store.patch_file),
        "--fake-runtime",
    )
    assert stdout == ""
    [line] = capsys.readouterr().err.splitlines()
    return code, line


def test_an_image_of_the_original_layout_is_refused_with_one_line(cli_store, tmp_path, capsys):
    # an image used to be the directory images/<tag>/original; such a store
    # must be mined again
    store = _an_old_layout_image(cli_store, tmp_path, "original")
    assert _evaluate_gives_one_line(cli_store, store, capsys) == (
        EXIT_UNAVAILABLE, f"error: image perfmine/{cli_store.patch_id} for "
                          f"{cli_store.patch_id} is not loadable from this runtime")


def test_an_image_of_the_work_layout_is_refused_with_one_line(cli_store, tmp_path, capsys):
    # an earlier layout kept the tree at images/<tag>/work/original
    store = _an_old_layout_image(cli_store, tmp_path, "work/original")
    assert _evaluate_gives_one_line(cli_store, store, capsys) == (
        EXIT_UNAVAILABLE, f"error: image perfmine/{cli_store.patch_id} for "
                          f"{cli_store.patch_id} is not loadable from this runtime")


def test_an_image_record_that_does_not_hash_to_its_id_is_refused_with_one_line(
        cli_store, tmp_path, capsys):
    store, image = _copy_with_image(cli_store, tmp_path)
    data = image.read_bytes()
    image.chmod(0o644)
    image.write_bytes(data.replace(b"compute.cpp", b"compute.cxx", 1))
    code, line = _evaluate_gives_one_line(cli_store, store, capsys)
    assert code == EXIT_DATA
    assert line.startswith(f"error: image perfmine/{cli_store.patch_id} is unusable: object ")
    assert line.endswith(" does not hash to its id")


def test_mine_and_evaluate_leave_only_the_slot(cli_store, tmp_path):
    # the mine leaves no session; an evaluation, here or in an earlier test,
    # leaves its two trees in the slot and nothing else
    sessions = cli_store.out_dir / "fake-runtime" / "sessions"
    assert set(os.listdir(sessions)) <= {SLOT}
    empty = tmp_path / "empty.patch"
    empty.write_text("", encoding="utf-8")
    code, _ = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(empty),
        "--fake-runtime",
    )
    assert code == EXIT_FUNCTIONAL_ONLY
    assert os.listdir(sessions) == [SLOT]
    assert sorted(os.listdir(sessions / SLOT)) == ["candidate", "original"]


# installed as sitecustomize in a child process: logs each directory it makes or removes
_DIRECTORY_LOG = """\
import os
import sys

def _log(event, args):
    if event in ("os.mkdir", "os.rmdir"):
        path = os.fsdecode(os.fspath(args[0]))
        if event == "os.rmdir" or not os.path.lexists(path):
            with open(os.environ["PERFMINE_DIRECTORY_LOG"], "a", encoding="utf-8") as handle:
                handle.write(f"{event} {path}\\n")

sys.addaudithook(_log)
"""


def test_a_second_evaluation_process_takes_the_slot_and_reports_as_a_fresh_store(
        cli_store, tmp_path):
    hook, log = tmp_path / "hook", tmp_path / "directories.log"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(_DIRECTORY_LOG, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), src]),
           "PERFMINE_DIRECTORY_LOG": str(log)}
    empty = tmp_path / "empty.patch"
    empty.write_text("", encoding="utf-8")

    def evaluate_in_a_process(store: Path, patch: Path) -> int:
        return subprocess.run(
            [sys.executable, "-m", "perfmine.cli", "evaluate", "--store", str(store),
             "--patch-id", cli_store.patch_id, "--patch-file", str(patch), "--fake-runtime"],
            env=env, capture_output=True, check=False).returncode

    fresh, _ = _copy_with_image(cli_store, tmp_path / "fresh")
    assert evaluate_in_a_process(fresh, empty) == EXIT_FUNCTIONAL_ONLY
    store, _ = _copy_with_image(cli_store, tmp_path / "reused")
    # the first leaves a patched candidate in the slot
    assert evaluate_in_a_process(store, cli_store.patch_file) == EXIT_OK
    sessions = store / "fake-runtime" / "sessions"
    assert os.listdir(sessions) == [SLOT]
    log.write_text("", encoding="utf-8")
    assert evaluate_in_a_process(store, empty) == EXIT_FUNCTIONAL_ONLY
    # no directory made or removed; rmtree would log relative names below its top
    assert [line for line in log.read_text(encoding="utf-8").splitlines()
            if "__pycache__" not in line] == []
    assert os.listdir(sessions) == [SLOT]
    assert sorted(os.listdir(sessions / SLOT)) == ["candidate", "original"]
    reports = [json.loads(report_path(s, cli_store.patch_id).read_text(encoding="utf-8"))
               for s in (fresh, store)]
    for report in reports:
        del report["session_id"]
    assert reports[0] == reports[1]


def test_an_image_naming_the_wrong_commit_is_refused_before_any_build(
        cli_store, tmp_path, capsys):
    # its records hash to their ids, but its first line names the commit
    # itself, not its parent
    store, image = _copy_with_image(cli_store, tmp_path)
    fixture = cli_store.fixture
    data = image.read_bytes()
    assert data.startswith(fixture.perf_parent_sha.encode())
    image.chmod(0o644)
    image.write_bytes(fixture.perf_sha.encode() + data[len(fixture.perf_parent_sha):])
    code, line = _evaluate_gives_one_line(cli_store, store, capsys)
    assert (code, line) == (
        EXIT_DATA, f"error: image perfmine/{cli_store.patch_id} holds {fixture.perf_sha}, "
                   f"not the parent {fixture.perf_parent_sha} of {cli_store.patch_id}")
    assert not report_path(store, cli_store.patch_id).exists()
    assert not (store / "fake-runtime" / "sessions" / SLOT / "candidate").exists()


def test_evaluate_missing_patch_file_exits_64(cli_store, tmp_path):
    code, _ = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(tmp_path / "does-not-exist.patch"),
        "--fake-runtime",
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("runs, patch_bytes", [
    ("0", b""), ("-3", b""), ("1", b""),  # too few runs to record one
    (None, b"--- a/src/compute.cpp\n+++ b/src/compute.cpp\n@@ -1 +1 @@\n-\xff\n+x\n"),
], ids=["runs-0", "runs-negative", "runs-1", "patch-not-utf8"])
def test_evaluate_refuses_bad_input_with_one_line_before_any_session(
        cli_store, tmp_path, capsys, runs, patch_bytes):
    patch = tmp_path / "candidate.patch"
    patch.write_bytes(patch_bytes)
    sessions = cli_store.out_dir / "fake-runtime" / "sessions"
    before = sorted(os.listdir(sessions))
    capsys.readouterr()
    code, stdout = run_cli(
        "evaluate", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id,
        "--patch-file", str(patch),
        "--fake-runtime", *(["--runs", runs] if runs else []),
    )
    assert (code, stdout) == (EXIT_USAGE, "")
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert sorted(os.listdir(sessions)) == before


# ---------------------------------------------------------------------------
# inspect


def test_inspect_lists_the_entry(cli_store):
    code, stdout = run_cli("inspect", "--store", str(cli_store.out_dir))
    assert code == EXIT_OK
    assert cli_store.patch_id in stdout
    assert "local/fixturerepo" in stdout
    assert "significant" in stdout
    assert "unreviewed" in stdout


def test_inspect_json_round_trips(cli_store):
    code, stdout = run_cli("inspect", "--store", str(cli_store.out_dir), "--json")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["patch_id"] == cli_store.patch_id
    assert payload[0]["has_significant_test"] is True


@pytest.mark.parametrize("count", [0, 1, 3])
def test_inspect_json_streams_the_same_bytes(cli_store, capsys, count):
    manifest = entry_to_dict(read_entry(cli_store.out_dir, cli_store.patch_id))
    manifests = [{**manifest, "patch_id": f"{manifest['patch_id']}-{i}"} for i in range(count)]
    cli._print_json_array(iter(manifests))
    assert capsys.readouterr().out == json.dumps(manifests, indent=2, sort_keys=True) + "\n"


def test_inspect_filters(cli_store):
    code, stdout = run_cli(
        "inspect", "--store", str(cli_store.out_dir), "--repo", "local/fixturerepo"
    )
    assert code == EXIT_OK and cli_store.patch_id in stdout

    code, stdout = run_cli(
        "inspect", "--store", str(cli_store.out_dir), "--repo", "other/project"
    )
    assert code == EXIT_OK and "no entries" in stdout

    code, stdout = run_cli(
        "inspect", "--store", str(cli_store.out_dir), "--no-significant-test"
    )
    assert code == EXIT_OK and "no entries" in stdout

    code, stdout = run_cli(
        "inspect", "--store", str(cli_store.out_dir), "--single-file"
    )
    assert code == EXIT_OK and "no entries" in stdout  # the perf commit touches two files


def test_inspect_single_entry_by_patch_id(cli_store):
    code, stdout = run_cli(
        "inspect", "--store", str(cli_store.out_dir),
        "--patch-id", cli_store.patch_id, "--json",
    )
    assert code == EXIT_OK
    assert json.loads(stdout)[0]["patch_id"] == cli_store.patch_id


def test_inspect_missing_store_exits_65(tmp_path):
    code, _ = run_cli("inspect", "--store", str(tmp_path / "nowhere"))
    assert code == EXIT_DATA


def test_inspect_reports_malformed_entries_without_crashing(cli_store, capsys):
    junk = cli_store.out_dir / "entries" / ("a__b__" + "1" * 40 + ".json")
    junk.write_text("{not json", encoding="utf-8")
    try:
        code, stdout = run_cli("inspect", "--store", str(cli_store.out_dir))
        assert code == EXIT_OK
        assert cli_store.patch_id in stdout
        assert "warning" in capsys.readouterr().err
    finally:
        junk.unlink()


def _copy_of(cli_store: CliStore, tmp_path: Path) -> Path:
    copy = tmp_path / "store-copy"
    for part in ("entries", "patches"):
        shutil.copytree(cli_store.out_dir / part, copy / part)
    return copy


@pytest.mark.parametrize("level, key, value", [
    ("classification", "final", "negative"),  # the votes were Yes and Yes
    ("repo", "stars", "400"),
    (None, "timing", None),
    ("commit", "patch_file", "patches/other.patch"),
])
def test_a_malformed_entry_exits_65_with_one_line(cli_store, tmp_path, capsys, level, key, value):
    store = _copy_of(cli_store, tmp_path)
    path = store / "entries" / f"{cli_store.patch_id}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    (payload[level] if level else payload)[key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    for command in (["inspect", "--patch-id", cli_store.patch_id],
                    ["verify", "--patch-id", cli_store.patch_id, "--decision", "accepted"]):
        code, stdout = run_cli(*command, "--store", str(store))
        assert (code, stdout) == (EXIT_DATA, "")
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")


def test_inspect_warns_about_an_entry_that_is_no_json_object(cli_store, tmp_path, capsys):
    store = _copy_of(cli_store, tmp_path)
    (store / "entries" / "junk.json").write_text("[]", encoding="utf-8")
    capsys.readouterr()
    code, stdout = run_cli("inspect", "--store", str(store))
    assert code == EXIT_OK
    assert stdout.split()[0] == cli_store.patch_id
    [line] = capsys.readouterr().err.splitlines()
    junk = store / "entries" / "junk.json"
    assert line == f"warning: {junk}: a manifest must be a JSON object, not list"


# ---------------------------------------------------------------------------
# verify


def test_verify_keeps_the_recorded_prompt_fingerprints(cli_store, tmp_path):
    store = _copy_of(cli_store, tmp_path)
    path = store / "entries" / f"{cli_store.patch_id}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["classification"]["prompt_fingerprints"] = {"phase1": "0" * 64, "phase2": "1" * 64}
    before = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    path.write_text(before, encoding="utf-8")
    code, _ = run_cli("verify", "--store", str(store), "--patch-id", cli_store.patch_id,
                      "--decision", "accepted")
    assert code == EXIT_OK
    after = path.read_text(encoding="utf-8")
    assert after == before.replace('"verified": "unreviewed"', '"verified": "accepted"')


def test_verify_accepts_once_then_refuses(cli_store, tmp_path):
    review_store = tmp_path / "review-store"
    shutil.copytree(cli_store.out_dir / "entries", review_store / "entries")
    shutil.copytree(cli_store.out_dir / "patches", review_store / "patches")

    code, stdout = run_cli(
        "verify", "--store", str(review_store),
        "--patch-id", cli_store.patch_id,
        "--decision", "accepted", "--note", "timings look solid",
    )
    assert code == EXIT_OK
    assert "accepted" in stdout

    entry = read_entry(review_store, cli_store.patch_id)
    assert entry.verified == "accepted"
    assert entry.reviewer_note == "timings look solid"

    code, _ = run_cli(
        "verify", "--store", str(review_store),
        "--patch-id", cli_store.patch_id,
        "--decision", "rejected",
    )
    assert code == EXIT_DATA  # one-way review: no second decision

    code, stdout = run_cli(
        "inspect", "--store", str(review_store), "--verified", "accepted"
    )
    assert code == EXIT_OK and cli_store.patch_id in stdout
