from __future__ import annotations

import json
from dataclasses import replace

import pytest
from factories import DIFF_TEXT, make_entry

from perfmine.errors import ReviewError, SchemaError, StoreError
from perfmine.store import (
    EntryFilter,
    entry_from_dict,
    entry_to_dict,
    make_patch_id,
    mark_verified,
    query,
    read_entry,
    read_ground_truth_diff,
    write_entry,
)


@pytest.fixture()
def store(tmp_path):
    return tmp_path / "store"


# ---------------------------------------------------------------------------
# write / read round-trip


def test_write_names_file_by_patch_id(store):
    entry = make_entry()
    path = write_entry(entry, store, diff_text=DIFF_TEXT)
    assert path.name == f"{entry.patch_id}.json"
    assert path.parent.name == "entries"
    assert (store / "patches" / f"{entry.patch_id}.patch").read_text() == DIFF_TEXT


def test_round_trip_structural_equality(store):
    entry = make_entry(significant=True, multi_file=True)
    write_entry(entry, store, diff_text=DIFF_TEXT)
    loaded = read_entry(store, entry.patch_id)
    assert loaded == entry
    assert read_ground_truth_diff(store, entry.patch_id) == DIFF_TEXT


def test_rewrite_is_atomic_and_replaces(store):
    entry = make_entry()
    write_entry(entry, store, diff_text=DIFF_TEXT)
    updated = replace(entry, verified="accepted", reviewer_note="clear hoist pattern")
    write_entry(updated, store)  # patch file already on disk
    assert read_entry(store, entry.patch_id).verified == "accepted"
    leftovers = list((store / "entries").glob("*.tmp"))
    assert leftovers == []


def test_write_without_diff_or_existing_patch_fails(store):
    with pytest.raises(StoreError):
        write_entry(make_entry(), store)


def test_manifest_is_sorted_utf8_json(store):
    entry = make_entry()
    path = write_entry(entry, store, diff_text=DIFF_TEXT)
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert payload["schema_version"] == 1
    assert payload["build"]["suite_invocation"] == "whole_suite"
    assert payload["commit"]["patch_file"] == f"patches/{entry.patch_id}.patch"


# ---------------------------------------------------------------------------
# schema strictness


def test_mismatched_patch_id_rejected():
    with pytest.raises(SchemaError):
        make_entry(owner="acme", name="lib").__class__(
            **{**make_entry().__dict__, "patch_id": "other__repo__" + "a" * 40}
        )


def test_unknown_schema_version_rejected(store):
    entry = make_entry()
    write_entry(entry, store, diff_text=DIFF_TEXT)
    path = store / "entries" / f"{entry.patch_id}.json"
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_entry(store, entry.patch_id)


def test_tampered_significance_flag_rejected(store):
    entry = make_entry(significant=True)
    write_entry(entry, store, diff_text=DIFF_TEXT)
    path = store / "entries" / f"{entry.patch_id}.json"
    payload = json.loads(path.read_text())
    payload["has_significant_test"] = False
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_entry(store, entry.patch_id)


def test_tampered_timing_digest_rejected(store):
    entry = make_entry()
    write_entry(entry, store, diff_text=DIFF_TEXT)
    path = store / "entries" / f"{entry.patch_id}.json"
    payload = json.loads(path.read_text())
    payload["timing"][0]["pre_ms"][0] += 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_entry(store, entry.patch_id)


@pytest.mark.parametrize("edit", [
    "+comment",
    "stats_decisions +tails",
    "-stats_decisions",
    "build -runs",
    "-timing",
    "-verified",
    "-reviewer_note",
    "repo -head_sha",
    "commit.changes.0 +mode",
    "classification.phase1.0 +latency_ms",
    "build.plan -repair_rounds_used",
    "build.runs.0 -suite_wall_times_ms",
    "timing.0 -digest",
    "timing.0.result +effect_size",
    # values the writer derives or fixes, and values no entry can hold
    'commit patch_file="patches/acme__lib__bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb.patch"',
    'stats_decisions alternative="two_sided"',
    "stats_decisions warmup_discarded=false",
    'build suite_invocation="per_test"',
    'classification final="negative"',
    'repo stars="400"',
    "timing=null",
])
def test_unknown_or_missing_keys_rejected(store, edit):
    # "<level> +key" adds a key at that level of the manifest, "-key" drops
    # one, and "key=<json>" sets one
    entry = make_entry(multi_file=True)
    path = write_entry(entry, store, diff_text=DIFF_TEXT)
    payload = _edited(json.loads(path.read_text()), edit)
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_entry(store, entry.patch_id)
    [(bad_path, _)] = query(store).errors
    assert bad_path == str(path)


def _edited(payload: dict, edit: str) -> dict:
    *level, change = edit.split()
    target = payload
    for step in level[0].split(".") if level else ():
        target = target[int(step) if step.isdigit() else step]
    if change[0] == "+":
        target[change[1:]] = 1
    elif change[0] == "-":
        del target[change[1:]]
    else:
        key, value = change.split("=", 1)
        target[key] = json.loads(value)
    return payload


@pytest.mark.parametrize("edit, message", [
    ('commit patch_file="patches/other.patch"',
     "entry.commit.patch_file: stored 'patches/other.patch', "
     "derived 'patches/acme__lib__aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa.patch'"),
    ("build.plan +cache", "entry.build.plan: missing keys [], unknown keys ['cache']"),
    ("timing.0 -digest", "entry.timing[0]: missing keys ['digest'], unknown keys []"),
    ("has_significant_test=false", "entry.has_significant_test: stored False, derived True"),
    # `==` takes 1 for true and 1 for 1.0, so only the types tell these apart
    ("has_significant_test=1", "entry.has_significant_test: stored 1, derived True"),
    ("stats_decisions warmup_discarded=1",
     "entry.stats_decisions.warmup_discarded: stored 1, derived True"),
    ("stats_decisions delta=1", "entry.stats_decisions.delta: stored 1, derived 1.0"),
    # a key the reader copies is missing: the object that lacks it is named
    ("-patch_id", "entry: missing key 'patch_id'"),
    ("repo -stars", "entry.repo: missing key 'stars'"),
    ("build.plan -repair_rounds_used", "entry.build.plan: missing key 'repair_rounds_used'"),
    ("timing.0.result -p_value", "entry.timing[0].result: missing key 'p_value'"),
])
def test_a_rejected_manifest_names_the_first_difference(edit, message):
    payload = _edited(entry_to_dict(make_entry()), edit)
    with pytest.raises(SchemaError) as excinfo:
        entry_from_dict(payload)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("payload", [[], "entry", None, 1])
def test_a_manifest_that_is_no_json_object_is_a_schema_error(store, payload):
    populate(store)
    path = store / "entries" / "junk.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="must be a JSON object"):
        read_entry(store, "junk")
    result = query(store)
    assert len(result.entries) == 3
    assert [p for p, _ in result.errors] == [str(path)]


def test_entry_dict_round_trip():
    entry = make_entry(multi_file=True, significant=False)
    assert entry_from_dict(entry_to_dict(entry)) == entry


def test_missing_entry(store):
    with pytest.raises(StoreError):
        read_entry(store, "nope__nope__" + "0" * 40)


# ---------------------------------------------------------------------------
# query


def populate(store):
    entries = [
        make_entry(owner="acme", name="lib", sha="a" * 40, significant=True),
        make_entry(owner="acme", name="lib", sha="b" * 40, significant=False,
                   multi_file=True),
        make_entry(owner="zeta", name="tool", sha="c" * 40, significant=False),
    ]
    for entry in entries:
        write_entry(entry, store, diff_text=DIFF_TEXT)
    return entries


def test_query_all_sorted(store):
    populate(store)
    result = query(store)
    assert [e.patch_id for e in result.entries] == sorted(e.patch_id for e in result.entries)
    assert len(result.entries) == 3
    assert result.errors == ()


def test_query_filters(store):
    populate(store)
    assert len(query(store, EntryFilter(multi_file=True)).entries) == 1
    assert len(query(store, EntryFilter(has_significant_test=True)).entries) == 1
    assert len(query(store, EntryFilter(repo="acme/lib")).entries) == 2
    assert len(query(store, EntryFilter(verified="accepted")).entries) == 0


def test_query_empty_store(store):
    assert query(store) == query(store)
    assert query(store).entries == ()


def test_query_reports_malformed_files_individually(store):
    populate(store)
    bad = store / "entries" / ("broken__file__" + "d" * 40 + ".json")
    bad.write_text("{not json")
    result = query(store)
    assert len(result.entries) == 3
    assert len(result.errors) == 1
    assert "broken__file__" in result.errors[0][0]


# ---------------------------------------------------------------------------
# review flow


def test_mark_verified_accept(store):
    entry = make_entry()
    write_entry(entry, store, diff_text=DIFF_TEXT)
    updated = mark_verified(store, entry.patch_id, "accepted",
                            note="message explicitly mentions speed")
    assert updated.verified == "accepted"
    assert read_entry(store, entry.patch_id).reviewer_note == (
        "message explicitly mentions speed"
    )


def test_double_review_rejected(store):
    entry = make_entry()
    write_entry(entry, store, diff_text=DIFF_TEXT)
    mark_verified(store, entry.patch_id, "rejected", note="build tweak only")
    with pytest.raises(ReviewError):
        mark_verified(store, entry.patch_id, "accepted")


def test_review_unknown_patch_id(store):
    with pytest.raises(StoreError):
        mark_verified(store, "ghost__repo__" + "0" * 40, "accepted")


def test_review_bad_decision(store):
    entry = make_entry()
    write_entry(entry, store, diff_text=DIFF_TEXT)
    with pytest.raises(ReviewError):
        mark_verified(store, entry.patch_id, "meh")


def test_make_patch_id():
    assert make_patch_id("acme", "lib", "ab12") == "acme__lib__ab12"
