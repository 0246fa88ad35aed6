"""The fabric's CLI surface: sweep/experiments campaigns, fabric-status,
pack, store-gc."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from repro.resilience.chaos import ChaosSpec


class TestSweepFabric:
    def test_fabric_sweep_runs_and_resumes(
        self, tmp_path, bench_paths, capsys
    ):
        journal = tmp_path / "sweep.journal"
        argv = [
            "sweep",
            str(bench_paths[0].parent),
            "--results",
            str(journal),
            "--patterns",
            "64",
            "--fabric",
            "--workers",
            "2",
        ]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert f"swept {len(bench_paths)}/{len(bench_paths)}" in err
        before = journal.read_text()
        # A rerun serves everything from the journal and writes nothing.
        assert main(argv) == EXIT_OK
        assert journal.read_text() == before

    def test_fabric_flag_is_a_hidden_no_op(
        self, tmp_path, bench_paths, capsys
    ):
        outputs = []
        for name, extra in (("a.journal", []), ("b.journal", ["--fabric"])):
            argv = [
                "sweep",
                str(bench_paths[0].parent),
                "--results",
                str(tmp_path / name),
                "--patterns",
                "64",
            ]
            assert main(argv + extra) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert (tmp_path / "a.journal").read_bytes() == (
            tmp_path / "b.journal"
        ).read_bytes()
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "--fabric" not in capsys.readouterr().out


class TestCampaignUsageErrors:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sweep", "--store-verify", "1.5"),
            ("sweep", "--store-verify", "-0.1"),
            ("sweep", "--lease-timeout", "0"),
            ("sweep", "--workers", "-3"),
            ("experiments", "--workers", "0"),
            ("experiments", "--store-verify", "2"),
        ],
    )
    def test_out_of_range_flag_is_exit_2(
        self, tmp_path, bench_paths, capsys, command, flag, value
    ):
        journal = tmp_path / "x.journal"
        argv = (
            ["sweep", str(bench_paths[0].parent)]
            if command == "sweep"
            else ["experiments", "--only", "t2"]
        )
        argv += ["--results", str(journal), "--store", str(tmp_path / "s")]
        with pytest.raises(SystemExit) as ei:
            main(argv + [flag, value])
        assert ei.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
        assert not journal.exists()

    def test_non_journal_results_file_is_refused_untouched(
        self, tmp_path, bench_paths, capsys
    ):
        # A results file from the retired checkpoint format: decodable
        # records, none of them a journal record.
        old = tmp_path / "old.jsonl"
        old.write_text(
            "".join(
                json.dumps({"circuit": p.stem, "path": str(p), "status": "ok"})
                + "\n"
                for p in bench_paths
            )
        )
        before = old.read_bytes()
        for argv in (
            ["sweep", str(bench_paths[0].parent)],
            ["experiments", "--only", "t2"],
        ):
            with pytest.raises(SystemExit) as ei:
                main(argv + ["--results", str(old), "--fabric"])
            assert ei.value.code == EXIT_USAGE
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1
            assert str(old) in err and "not a fabric journal" in err
            assert old.read_bytes() == before


class TestExperimentsFabric:
    def test_fabric_campaign_runs_and_resumes(self, tmp_path, capsys):
        journal = tmp_path / "exp.journal"
        argv = [
            "experiments",
            "--only",
            "t2",
            "--results",
            str(journal),
            "--fabric",
        ]
        assert main(argv) == EXIT_OK
        assert "1 ok, 0 failed" in capsys.readouterr().err
        before = journal.read_text()
        assert main(argv) == EXIT_OK
        assert journal.read_text() == before

    def test_fabric_without_results_is_a_usage_error(self, tmp_path, capsys):
        for extra in (["--fabric"], ["--store", str(tmp_path / "store")]):
            with pytest.raises(SystemExit) as ei:
                main(["experiments", "--only", "t2", *extra])
            assert ei.value.code == EXIT_USAGE
            assert "--results" in capsys.readouterr().err


class TestFabricStatus:
    def test_status_reports_commits_and_poison(
        self, tmp_path, bench_paths, capsys
    ):
        from repro.analysis import experiments as exps

        journal = tmp_path / "sweep.journal"
        exps.run_circuit_sweep(
            bench_paths,
            journal,
            n_patterns=64,
            workers=2,
            chaos=ChaosSpec(
                forced=((1, "spurious"),), first_attempt_only=False
            ),
        )
        assert main(["fabric-status", str(journal)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"committed     {len(bench_paths) - 1}" in out
        assert "quarantined   1" in out
        assert "poison [+]" in out  # artifact written and present

        assert main(["fabric-status", str(journal), "--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["commits"] == len(bench_paths) - 1
        assert status["quarantined"] == 1
        assert status["kinds"] == {"sweep_circuit": len(bench_paths) - 1}
        assert status["quarantine"][0]["last_error"] == "RuntimeError"
        assert status["quarantine"][0]["artifact_present"] is True

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["fabric-status", str(tmp_path / "nope.journal")])
        assert ei.value.code == EXIT_USAGE
        assert "no fabric journal" in capsys.readouterr().err


@pytest.fixture
def store_campaign(tmp_path, bench_paths):
    """One finished --store sweep: (journal, store_dir)."""
    journal = tmp_path / "sweep.journal"
    store = tmp_path / "store"
    assert (
        main(
            [
                "sweep",
                str(bench_paths[0].parent),
                "--results",
                str(journal),
                "--patterns",
                "64",
                "--fabric",
                "--workers",
                "1",
                "--store",
                str(store),
            ]
        )
        == EXIT_OK
    )
    return journal, store


class TestStoreCli:
    def test_fabric_status_reports_store(
        self, bench_paths, store_campaign, capsys
    ):
        journal, store = store_campaign
        capsys.readouterr()
        argv = ["fabric-status", str(journal), "--store", str(store)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "result store" in out
        assert f"entries       {len(bench_paths)}" in out
        assert main(argv + ["--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["store"]["entries"] == len(bench_paths)
        assert status["store"]["publishes"] == len(bench_paths)
        assert status["store"]["corrupt"] == 0

    def test_store_gc_needs_a_cap(self, store_campaign, capsys):
        _journal, store = store_campaign
        with pytest.raises(SystemExit) as ei:
            main(["store-gc", str(store)])
        assert ei.value.code == EXIT_USAGE
        assert "cap" in capsys.readouterr().err

    def test_store_gc_missing_store_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["store-gc", str(tmp_path / "nope"), "--max-bytes", "1"])
        assert ei.value.code == EXIT_USAGE
        assert "no result store" in capsys.readouterr().err

    def test_store_gc_prunes_and_reports(
        self, bench_paths, store_campaign, capsys
    ):
        _journal, store = store_campaign
        capsys.readouterr()
        argv = ["store-gc", str(store), "--max-bytes", "0", "--json"]
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["deleted"] == len(bench_paths)
        assert report["kept"] == 0


class TestStoreAcrossDirectories:
    def test_verified_hits_from_another_directory(
        self, tmp_path, bench_paths, capsys
    ):
        """Identical netlists swept from a second directory hit the store.

        A store entry must not carry the path it was computed from: with
        every hit re-executed (``--store-verify 1.0``) from the second
        directory, the cached result must equal the recomputed one, and
        the sweep report must be the one a store-less sweep prints.
        """
        store = tmp_path / "store"
        copy = tmp_path / "copy"
        copy.mkdir()
        for path in bench_paths:
            (copy / path.name).write_bytes(path.read_bytes())

        def sweep(directory, journal, *store_args):
            capsys.readouterr()
            code = main(
                [
                    "sweep",
                    str(directory),
                    "--results",
                    str(tmp_path / journal),
                    "--patterns",
                    "64",
                    "--fabric",
                    "--workers",
                    "1",
                    *store_args,
                ]
            )
            return code, capsys.readouterr().out

        verified = ("--store", str(store), "--store-verify", "1.0")
        assert sweep(bench_paths[0].parent, "a.journal", *verified)[0] == EXIT_OK
        code, out = sweep(copy, "b.journal", *verified)
        assert code == EXIT_OK
        assert (EXIT_OK, out) == sweep(copy, "c.journal")
        argv = ["fabric-status", str(tmp_path / "b.journal"), "--store", str(store)]
        assert main(argv + ["--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        # The second sweep was served (and re-verified) from the store.
        assert status["store"]["hits"] == len(bench_paths)
        assert status["store"]["publishes"] == len(bench_paths)


class TestPackCli:
    def test_build_verify_and_tamper(
        self, tmp_path, store_campaign, capsys
    ):
        journal, store = store_campaign
        pack = tmp_path / "pack"
        assert (
            main(
                [
                    "pack",
                    str(journal),
                    "--out",
                    str(pack),
                    "--store",
                    str(store),
                ]
            )
            == EXIT_OK
        )
        assert "evidence pack" in capsys.readouterr().out
        assert main(["pack", str(pack), "--verify"]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

        victim = sorted((pack / "store").glob("*.json"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x40
        victim.write_bytes(bytes(data))
        assert main(["pack", str(pack), "--verify"]) == EXIT_INFEASIBLE
        assert "mismatched" in capsys.readouterr().out

        assert main(["pack", str(pack), "--verify", "--json"]) \
            == EXIT_INFEASIBLE
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["mismatched"] == [f"store/{victim.name}"]

    def test_build_without_out_is_a_usage_error(
        self, store_campaign, capsys
    ):
        journal, _store = store_campaign
        with pytest.raises(SystemExit) as ei:
            main(["pack", str(journal)])
        assert ei.value.code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_verify_refuses_build_options(
        self, tmp_path, store_campaign, capsys
    ):
        _journal, store = store_campaign
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "pack",
                    str(tmp_path / "pack"),
                    "--verify",
                    "--store",
                    str(store),
                ]
            )
        assert ei.value.code == EXIT_USAGE

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "pack",
                    str(tmp_path / "nope.journal"),
                    "--out",
                    str(tmp_path / "pack"),
                ]
            )
        assert ei.value.code == EXIT_USAGE
        assert "journal not found" in capsys.readouterr().err
