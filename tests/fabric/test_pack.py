"""Evidence packs: every tampering direction detectable offline.

``build_pack`` + ``verify_pack`` must detect all three tamper moves —
modified bytes, deleted files, added files — from the pack alone, and a
pack must never vouch for a store entry the store itself would reject.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.analysis import experiments as exps
from repro.fabric.pack import (
    MANIFEST_NAME,
    PACK_SCHEMA,
    build_pack,
    verify_pack,
)
from repro.fabric.store import ResultStore

N_PATTERNS = 64


@pytest.fixture
def campaign(tmp_path, bench_paths):
    """A finished store-backed campaign: (journal, store_dir, outcomes)."""
    journal = tmp_path / "campaign.journal"
    store = tmp_path / "store"
    outcomes = [
        asdict(o)
        for o in exps.run_circuit_sweep(
            bench_paths,
            journal,
            n_patterns=N_PATTERNS,
            workers=1,
            store=store,
            store_verify_fraction=0.0,
        )
    ]
    return journal, store, outcomes


class TestBuild:
    def test_manifest_covers_journal_and_store(
        self, tmp_path, bench_paths, campaign
    ):
        journal, store, outcomes = campaign
        manifest = build_pack(journal, tmp_path / "pack", store=store)
        assert manifest["schema"] == PACK_SCHEMA
        assert manifest["journal"] == journal.name
        counts = manifest["counts"]
        assert counts["commits"] == len(bench_paths)
        assert counts["store_entries"] == len(bench_paths)
        assert counts["store_skipped"] == 0
        assert counts["files"] == len(bench_paths) + 1  # + the journal
        listed = set(manifest["files"])
        assert f"journal/{journal.name}" in listed
        on_disk = json.loads(
            (tmp_path / "pack" / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert on_disk == manifest

    def test_refuses_nonempty_target(self, tmp_path, campaign):
        journal, store, _ = campaign
        target = tmp_path / "pack"
        target.mkdir()
        (target / "leftover.txt").write_text("old", encoding="utf-8")
        with pytest.raises(FileExistsError):
            build_pack(journal, target, store=store)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_pack(tmp_path / "nope.journal", tmp_path / "pack")

    def test_corrupt_store_entry_is_skipped_not_vouched(
        self, tmp_path, bench_paths, campaign
    ):
        journal, store_dir, _ = campaign
        entry = next(ResultStore(store_dir).entries())
        entry.path.write_bytes(b"garbage")
        manifest = build_pack(journal, tmp_path / "pack", store=store_dir)
        assert manifest["counts"]["store_entries"] == len(bench_paths) - 1
        assert manifest["counts"]["store_skipped"] == 1
        assert verify_pack(tmp_path / "pack").ok

    def test_include_extras(self, tmp_path, campaign):
        journal, store, _ = campaign
        extra = tmp_path / "notes.txt"
        extra.write_text("operator notes", encoding="utf-8")
        extra_dir = tmp_path / "traces"
        extra_dir.mkdir()
        (extra_dir / "run.jsonl").write_text("{}\n", encoding="utf-8")
        manifest = build_pack(
            journal, tmp_path / "pack", store=store,
            include=[extra, extra_dir],
        )
        assert manifest["counts"]["extra_files"] == 2
        assert "extra/notes.txt" in manifest["files"]
        assert "extra/traces/run.jsonl" in manifest["files"]
        assert verify_pack(tmp_path / "pack").ok


class TestVerify:
    def test_clean_pack_verifies(self, tmp_path, campaign):
        journal, store, _ = campaign
        build_pack(journal, tmp_path / "pack", store=store)
        report = verify_pack(tmp_path / "pack")
        assert report.ok
        assert report.checked == len(json.loads(
            (tmp_path / "pack" / MANIFEST_NAME).read_text(encoding="utf-8")
        )["files"])
        assert "OK" in report.describe()

    def test_one_flipped_byte_is_detected(self, tmp_path, campaign):
        journal, store, _ = campaign
        build_pack(journal, tmp_path / "pack", store=store)
        target = sorted((tmp_path / "pack" / "store").glob("*.json"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x40
        target.write_bytes(bytes(data))
        report = verify_pack(tmp_path / "pack")
        assert not report.ok
        assert report.mismatched == [f"store/{target.name}"]
        assert report.missing == [] and report.unlisted == []

    def test_deleted_file_is_detected(self, tmp_path, campaign):
        journal, store, _ = campaign
        build_pack(journal, tmp_path / "pack", store=store)
        victim = tmp_path / "pack" / "journal" / journal.name
        victim.unlink()
        report = verify_pack(tmp_path / "pack")
        assert not report.ok
        assert report.missing == [f"journal/{journal.name}"]

    def test_added_file_is_detected(self, tmp_path, campaign):
        journal, store, _ = campaign
        build_pack(journal, tmp_path / "pack", store=store)
        (tmp_path / "pack" / "store" / "smuggled.json").write_text(
            "{}", encoding="utf-8"
        )
        report = verify_pack(tmp_path / "pack")
        assert not report.ok
        assert report.unlisted == ["store/smuggled.json"]

    def test_missing_manifest_is_a_problem(self, tmp_path):
        (tmp_path / "notapack").mkdir()
        report = verify_pack(tmp_path / "notapack")
        assert not report.ok
        assert report.problems

    def test_wrong_schema_is_a_problem(self, tmp_path):
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / MANIFEST_NAME).write_text(
            json.dumps({"schema": "something/9", "files": {}}),
            encoding="utf-8",
        )
        report = verify_pack(pack)
        assert not report.ok
        assert any("manifest" in p for p in report.problems)

    def test_report_round_trips_to_dict(self, tmp_path, campaign):
        journal, store, _ = campaign
        build_pack(journal, tmp_path / "pack", store=store)
        report = verify_pack(tmp_path / "pack")
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["checked"] == report.checked
