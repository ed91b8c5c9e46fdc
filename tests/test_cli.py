import shutil

import numpy as np
import pytest

from allocore.cli import main
from allocore.state import load_state
from allocore.synthetic import default_config, generate
from allocore.tensors import SparseCountTensor, load_coo, load_mask, write_coo


@pytest.fixture(scope="module")
def synth_coo(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.coo"
    tensor, _ = generate(default_config(seed=0))
    write_coo(tensor, path)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


class TestIngest:
    def test_event_fixture(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("i\tj\tt\n" + "a\tb\tx\n" * 3 + "c\tb\ty\n")
        out = tmp_path / "ingested"
        rc = run_cli("ingest", "--data", events, "--format", "events",
                     "--mode-cols", "i,j,t", "--out", out)
        assert rc == 0
        captured = capsys.readouterr().out
        assert "nnz: 2" in captured
        tensor = load_coo(out / "tensor.coo")
        assert tensor.total() == 4
        assert (out / "vocab_1.txt").read_text().splitlines() == ["a", "c"]
        assert (out / "manifest.txt").exists()

    def test_density_report(self, tmp_path, capsys):
        coo = tmp_path / "t.coo"
        tensor = SparseCountTensor.from_entries(
            (10, 10, 2), {(0, 0, 0): 5, (3, 4, 1): 1, (9, 9, 0): 2})
        write_coo(tensor, coo)
        rc = run_cli("ingest", "--data", coo, "--format", "coo",
                     "--out", tmp_path / "out")
        assert rc == 0
        assert "density: 0.0150" in capsys.readouterr().out

    def test_missing_column_named(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("i\tj\n" + "a\tb\n")
        rc = run_cli("ingest", "--data", events, "--format", "events",
                     "--mode-cols", "i,j,missing", "--out", tmp_path / "out")
        assert rc == 2
        assert "missing" in capsys.readouterr().err


class TestMask:
    def test_batch_masks_distinct_and_reproducible(self, synth_coo, tmp_path,
                                                   capsys):
        out = tmp_path / "masks"
        rc = run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                     "--mask-frac", "0.01", "--mask-seed", "1",
                     "--num-masks", "8", "--out", out)
        assert rc == 0
        files = sorted(out.glob("mask_*.txt"))
        assert len(files) == 8
        contents = [f.read_bytes() for f in files]
        assert len(set(contents)) == 8
        for f in files:
            assert load_mask(f).n_stems == 16  # floor(0.01 * 40 * 40)

        again = tmp_path / "masks2"
        run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                "--mask-frac", "0.01", "--mask-seed", "1",
                "--num-masks", "1", "--out", again)
        assert (again / "mask_01.txt").read_bytes() == contents[0]

    @pytest.mark.parametrize("command, mode", [
        ("mask", "0"), ("mask", "4"), ("fit", "9"), ("fit", None), ("fit", "-1")])
    def test_free_mode_checked(self, synth_coo, tmp_path, capsys, command, mode):
        flag = [] if mode is None else ["--mask-mode", mode]
        fit = ["--Q", "2,3", "--burnin", "0", "--iters", "1", "--thin", "1"]
        rc = run_cli(command, "--data", synth_coo, "--mask-frac", "0.01", *flag,
                     *(fit if command == "fit" else []), "--out", tmp_path / "out")
        assert rc == 2
        assert f"--mask-mode must name a mode in 1..3, got {mode}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_fraction_bounds(self, synth_coo, tmp_path, capsys):
        rc = run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                     "--mask-frac", "1.5", "--out", tmp_path / "m")
        assert rc == 2
        assert "fraction" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestFit:
    def test_small_chain_writes_run_dir(self, synth_coo, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli("fit", "--data", synth_coo, "--mode", "allocore",
                     "--Q", "4", "--burnin", "2", "--iters", "4", "--thin", "2",
                     "--seed", "3", "--out", out)
        assert rc == 0
        assert sorted(p.name for p in (out / "samples").iterdir()) == [
            "sample_0001", "sample_0002"]
        assert (out / "chain_log.tsv").exists()
        assert (out / "checkpoint").is_dir()
        assert not (out / "INCOMPLETE").exists()
        man = (out / "manifest.txt").read_text()
        assert "mode=allocore" in man and "Q=4" in man

    def test_resume_reproduces_uninterrupted_run(self, synth_coo, tmp_path):
        full = tmp_path / "full"
        part = tmp_path / "part"
        common = ["--data", synth_coo, "--Q", "3", "--seed", "5", "--thin", "1",
                  "--burnin", "2"]
        assert run_cli("fit", *common, "--iters", "4", "--out", full) == 0
        assert run_cli("fit", *common, "--iters", "2", "--out", part) == 0
        assert run_cli("fit", *common, "--iters", "4", "--out", part,
                       "--resume") == 0
        for idx in range(1, 5):
            a = load_state(full / "samples" / f"sample_{idx:04d}")
            b = load_state(part / "samples" / f"sample_{idx:04d}")
            assert np.array_equal(a.core_values, b.core_values)
            for m in range(3):
                assert np.array_equal(a.factors[m], b.factors[m])

    def test_resume_after_checkpoint_swap_stopped(self, synth_coo, tmp_path,
                                                  capsys):
        # a checkpoint save that stopped between its renames leaves the
        # previous checkpoint aside and the new one half written
        full = tmp_path / "full"
        part = tmp_path / "part"
        common = ["--data", synth_coo, "--Q", "3", "--seed", "5", "--thin", "1",
                  "--burnin", "2"]
        assert run_cli("fit", *common, "--iters", "4", "--out", full) == 0
        assert run_cli("fit", *common, "--iters", "2", "--out", part) == 0
        shutil.copytree(part / "checkpoint", part / ".checkpoint.tmp")
        (part / ".checkpoint.tmp" / "manifest.txt").unlink()
        (part / "checkpoint").rename(part / ".checkpoint.old")
        capsys.readouterr()
        assert run_cli("fit", *common, "--iters", "4", "--out", part,
                       "--resume") == 0
        assert "(iterations 5..6)" in capsys.readouterr().out
        for idx in range(1, 5):
            a = load_state(full / "samples" / f"sample_{idx:04d}")
            b = load_state(part / "samples" / f"sample_{idx:04d}")
            assert np.array_equal(a.core_values, b.core_values)
            for m in range(3):
                assert np.array_equal(a.factors[m], b.factors[m])
        assert not [p.name for p in part.iterdir() if p.name.startswith(".")]

    def test_resume_refuses_changed_flags(self, synth_coo, tmp_path, capsys):
        out = tmp_path / "run"
        common = ["--data", synth_coo, "--Q", "3", "--thin", "1", "--burnin", "1",
                  "--out", out]
        assert run_cli("fit", *common, "--mask-frac", "0.01", "--mask-mode", "3",
                       "--seed", "5", "--iters", "2") == 0
        mask_before = (out / "mask.txt").read_bytes()
        manifest_before = (out / "manifest.txt").read_text()
        capsys.readouterr()
        rc = run_cli("fit", *common, "--mask-frac", "0.05", "--mask-mode", "2",
                     "--a0", "7", "--seed", "9", "--iters", "4", "--resume")
        assert rc == 2
        err = capsys.readouterr().err
        for key in ("mask", "a0", "seed"):
            assert key in err
        assert "thin" not in err and "iters" not in err
        assert (out / "mask.txt").read_bytes() == mask_before
        assert (out / "manifest.txt").read_text() == manifest_before

    def test_tucker_resume_accepts_its_own_flags(self, synth_coo, tmp_path):
        # the checkpoint stores Q = prod(K) = 8, not --Q
        common = ["--data", synth_coo, "--mode", "tucker", "--Q", "2",
                  "--burnin", "0", "--thin", "1", "--seed", "2",
                  "--out", tmp_path / "run"]
        assert run_cli("fit", *common, "--iters", "1") == 0
        assert run_cli("fit", *common, "--iters", "2", "--resume") == 0
        assert (tmp_path / "run" / "samples" / "sample_0002").is_dir()

    def test_format_flag_gone(self, synth_coo, tmp_path):
        # fit reads COO only; events go through 'allocore ingest'
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--data", synth_coo, "--format", "coo", "--Q", "2",
                    "--out", tmp_path / "run")
        assert exc.value.code == 2

    def test_tucker_over_limit_refused(self, synth_coo, tmp_path, capsys):
        rc = run_cli("fit", "--data", synth_coo, "--mode", "tucker",
                     "--Q", "1", "--K", "200,200,100",
                     "--core-cell-limit", "1000000",
                     "--burnin", "0", "--iters", "1", "--thin", "1",
                     "--out", tmp_path / "run")
        assert rc == 2
        err = capsys.readouterr().err
        assert "4000000" in err and "1000000" in err

    def test_bad_thread_count_refused(self, synth_coo, tmp_path, capsys,
                                      monkeypatch):
        for bad in ("abc", "0", "-3"):
            monkeypatch.setenv("ALLOCORE_THREADS", bad)
            rc = run_cli("fit", "--data", synth_coo, "--Q", "2,3", "--burnin", "0",
                         "--iters", "1", "--thin", "1", "--out", tmp_path / "sweep")
            assert rc == 2
            assert "ALLOCORE_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_in_worker_processes_matches_serial(self, synth_coo, tmp_path,
                                                      monkeypatch):
        common = ["--data", synth_coo, "--Q", "2,3", "--burnin", "1",
                  "--iters", "2", "--thin", "2", "--seed", "4"]
        monkeypatch.setenv("ALLOCORE_THREADS", "2")
        assert run_cli("fit", *common, "--out", tmp_path / "pool") == 0
        monkeypatch.setenv("ALLOCORE_THREADS", "1")
        assert run_cli("fit", *common, "--out", tmp_path / "serial") == 0
        for run in ("Q0002", "Q0003"):
            a = load_state(tmp_path / "pool" / run / "samples" / "sample_0001")
            b = load_state(tmp_path / "serial" / run / "samples" / "sample_0001")
            assert np.array_equal(a.core_values, b.core_values)
            assert np.array_equal(a.core_locations, b.core_locations)
            for m in range(3):
                assert np.array_equal(a.factors[m], b.factors[m])

    def test_cp_mode_locks_diagonal(self, synth_coo, tmp_path):
        out = tmp_path / "cp"
        rc = run_cli("fit", "--data", synth_coo, "--mode", "cp", "--Q", "3",
                     "--burnin", "0", "--iters", "2", "--thin", "2",
                     "--seed", "1", "--out", out)
        assert rc == 0
        state = load_state(out / "samples" / "sample_0001")
        assert state.core_mode == "cp_locked"
        diag = np.arange(3)[:, None] * np.ones(3, dtype=np.int64)
        assert np.array_equal(state.core_locations, diag)


class TestEval:
    @pytest.fixture()
    def fitted_run(self, synth_coo, tmp_path):
        masks = tmp_path / "masks"
        run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                "--mask-frac", "0.01", "--mask-seed", "13", "--out", masks)
        out = tmp_path / "run"
        rc = run_cli("fit", "--data", synth_coo, "--mask",
                     masks / "mask_01.txt", "--Q", "4", "--burnin", "4",
                     "--iters", "8", "--thin", "4", "--seed", "7", "--out", out)
        assert rc == 0
        return out

    def test_single_run_row(self, fitted_run, tmp_path, capsys):
        table = tmp_path / "results.tsv"
        rc = run_cli("eval", "--runs", fitted_run, "--out", table)
        assert rc == 0
        lines = table.read_text().splitlines()
        header = lines[0].split("\t")
        assert {"ppd_full", "ppd_positive", "ppd_baseline"} <= set(header)
        row = dict(zip(header, lines[1].split("\t")))
        assert float(row["ppd_full"]) > 0
        assert float(row["ppd_positive"]) > 0
        assert float(row["ppd_baseline"]) > 0
        assert row["S"] == "2"

    def test_idempotent_append(self, fitted_run, tmp_path, capsys):
        # an evaluated run is skipped before it is scored, so it needs no samples
        table = tmp_path / "results.tsv"
        run_cli("eval", "--runs", fitted_run, "--out", table)
        first = table.read_text()
        shutil.rmtree(fitted_run / "samples")
        rc = run_cli("eval", "--runs", fitted_run, "--out", table)
        assert rc == 0
        assert table.read_text() == first
        assert "skipping" in capsys.readouterr().out

    def test_empty_table_gets_header(self, fitted_run, tmp_path):
        table = tmp_path / "results.tsv"
        table.write_text("")
        assert run_cli("eval", "--runs", fitted_run, "--out", table) == 0
        assert run_cli("eval", "--runs", fitted_run, "--out", table) == 0
        lines = table.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[:2] == ["run", "dataset"]

    @pytest.mark.parametrize("cut_in", ["row", "header"])
    def test_partial_last_line_is_written_again(self, fitted_run, tmp_path,
                                                cut_in):
        # a write stopped partway leaves a last line with no newline
        table = tmp_path / "results.tsv"
        run_cli("eval", "--runs", fitted_run, "--out", table)
        whole = table.read_text()
        header, row = whole.splitlines()
        kept = header + "\n" + row[:len(row) // 2] if cut_in == "row" else header[:5]
        table.write_text(kept)
        assert run_cli("eval", "--runs", fitted_run, "--out", table) == 0
        assert table.read_text() == whole

    def test_run_named_twice_appends_one_row(self, fitted_run, tmp_path, capsys):
        table = tmp_path / "results.tsv"
        rc = run_cli("eval", "--runs", fitted_run, fitted_run, "--out", table)
        assert rc == 0
        assert len(table.read_text().splitlines()) == 2
        assert "appended 1 row(s)" in capsys.readouterr().out

    def test_sweep_rows_sorted_by_q(self, synth_coo, tmp_path):
        masks = tmp_path / "masks"
        run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                "--mask-frac", "0.01", "--mask-seed", "13", "--out", masks)
        sweep = tmp_path / "sweep"
        rc = run_cli("fit", "--data", synth_coo, "--mask",
                     masks / "mask_01.txt", "--Q", "6,3", "--burnin", "2",
                     "--iters", "2", "--thin", "2", "--seed", "1",
                     "--out", sweep)
        assert rc == 0
        table = tmp_path / "results.tsv"
        rc = run_cli("eval", "--runs", sweep / "Q0006", sweep / "Q0003",
                     "--out", table)
        assert rc == 0
        rows = [line.split("\t") for line in table.read_text().splitlines()[1:]]
        qs = [int(r[3]) for r in rows]
        assert qs == sorted(qs)

    def test_newline_in_argv_keeps_manifest_readable(self, synth_coo, tmp_path):
        out = tmp_path / "a\nb" / "run"
        rc = run_cli("fit", "--data", synth_coo, "--mask-frac", "0.01",
                     "--mask-mode", "3", "--Q", "3", "--burnin", "0",
                     "--iters", "2", "--thin", "2", "--seed", "1", "--out", out)
        assert rc == 0
        argv = [line for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith("argv=")]
        assert len(argv) == 1 and "a\\nb" in argv[0]
        table = tmp_path / "results.tsv"
        assert run_cli("eval", "--runs", out, "--out", table) == 0
        assert len(table.read_text().splitlines()) == 2

    def test_missing_samples_reported(self, tmp_path, capsys):
        empty = tmp_path / "not_a_run"
        empty.mkdir()
        rc = run_cli("eval", "--runs", empty, "--out", tmp_path / "r.tsv")
        assert rc == 2
        assert "not_a_run" in capsys.readouterr().err


class TestSynthCommand:
    def test_default_config_echoed(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = run_cli("synth", "--out", out, "--seed", "3")
        assert rc == 0
        config = (out / "config.txt").read_text()
        for key in ("shape=", "true_dims=", "true_budget=", "column_scale=",
                    "lambda_shape=", "seed=3"):
            assert key in config
        assert (out / "tensor.coo").exists()
        assert (out / "truth" / "manifest.txt").exists()

    def test_custom_shape(self, tmp_path):
        out = tmp_path / "synth"
        rc = run_cli("synth", "--out", out, "--shape", "12,12,4",
                     "--true-dims", "2,2,2", "--true-Q", "3", "--seed", "1")
        assert rc == 0
        tensor = load_coo(out / "tensor.coo")
        assert tensor.shape == (12, 12, 4)


class TestTraceCommand:
    def test_median_and_iqr_table(self, synth_coo, tmp_path, capsys):
        run = tmp_path / "run"
        run_cli("fit", "--data", synth_coo, "--Q", "4", "--burnin", "0",
                "--iters", "4", "--thin", "2", "--seed", "2", "--out", run)
        capsys.readouterr()
        rc = run_cli("trace", "--run", run, "--out", tmp_path / "trace")
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["statistic", "median", "iqr"]
        assert [line.split()[0] for line in lines[2:]] == [
            "q_eff", "k_eff_1", "k_eff_2", "k_eff_3"]
        assert (tmp_path / "trace" / "trace.tsv").exists()


class TestClassesCommand:
    def test_export_from_run(self, synth_coo, tmp_path):
        run = tmp_path / "run"
        run_cli("fit", "--data", synth_coo, "--Q", "5", "--burnin", "0",
                "--iters", "2", "--thin", "2", "--seed", "2", "--out", run)
        out = tmp_path / "classes"
        rc = run_cli("classes", "--run", run, "--n", "3",
                     "--threshold", "0.02", "--out", out)
        assert rc == 0
        index = (out / "index.tsv").read_text().splitlines()
        assert len(index) - 1 <= 3

    def test_threshold_flag_respected(self, synth_coo, tmp_path):
        run = tmp_path / "run"
        run_cli("fit", "--data", synth_coo, "--Q", "2", "--burnin", "0",
                "--iters", "2", "--thin", "2", "--seed", "2", "--out", run)
        strict = tmp_path / "strict"
        loose = tmp_path / "loose"
        run_cli("classes", "--run", run, "--n", "2", "--threshold", "0.02",
                "--out", strict)
        run_cli("classes", "--run", run, "--n", "2", "--threshold", "0.0",
                "--out", loose)
        n_strict = len((strict / "class_001.tsv").read_text().splitlines())
        n_loose = len((loose / "class_001.tsv").read_text().splitlines())
        assert n_strict <= n_loose
