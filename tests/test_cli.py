import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from allocore import cli, evaluation
from allocore import state as state_module
from allocore.cli import main
from allocore.evaluation import load_samples
from allocore.state import load_state
from allocore.synthetic import (SyntheticConfig, default_config, generate, recovery_trace,
                                write_histograms, write_trace)
from allocore.tensors import (SparseCountTensor, load_coo, load_mask, make_fiber_mask,
                              split, write_coo)


@pytest.fixture(scope="module")
def synth_coo(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.coo"
    tensor, _ = generate(default_config(seed=0))
    write_coo(tensor, path)
    return path


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    return main([str(a) for a in args])


def tree_bytes(root):
    """Every file under ``root``, by path relative to it."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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

    @pytest.mark.parametrize("body", ["1 1 9223372036854775807\n1 1 1\n",
                                      "1 1 99999999999999999999\n"])
    def test_count_past_int64_refused(self, tmp_path, capsys, body):
        coo = tmp_path / "t.coo"
        coo.write_text("2 3 3\n" + body)
        rc = run_cli("ingest", "--data", coo, "--format", "coo",
                     "--out", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds 9223372036854775807" in err

    def test_missing_column_named(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("i\tj\n" + "a\tb\n")
        rc = run_cli("ingest", "--data", events, "--format", "events",
                     "--mode-cols", "i,j,missing", "--out", tmp_path / "out")
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--time-start", "2001-13"], "time binning start: cannot parse date '2001-13'"),
        (["--time-end", "2001-00"], "time binning end: cannot parse date '2001-00'"),
        (["--time-start", "2002-01"], "ev.tsv:2: date outside the declared time range"),
        (["--time-start", "2002-01", "--time-end", "2001-12"],
         "time binning end precedes start"),
    ])
    def test_bad_time_bounds_named(self, tmp_path, capsys, monkeypatch, flags,
                                   message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ev.tsv").write_text("i\td\na\t2001-03\nb\t2001-05\n")
        rc = run_cli("ingest", "--data", "ev.tsv", "--format", "events",
                     "--mode-cols", "i,d", "--time-col", "d", "--time-bin",
                     "month", *flags, "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--vocab", "5=v.txt"], "--vocab expects MODE=PATH with MODE in 1..3, got '5=v.txt'"),
        (["--vocab", "0=v.txt"], "--vocab expects MODE=PATH with MODE in 1..3, got '0=v.txt'"),
        (["--vocab", "x=v.txt"], "--vocab expects MODE=PATH with MODE in 1..3, got 'x=v.txt'"),
        (["--vocab", "v.txt"], "--vocab expects MODE=PATH with MODE in 1..3, got 'v.txt'"),
        (["--vocab", "1=v.txt", "--vocab", "1=v.txt"], "--vocab names mode 1 more than once"),
        (["--vocab", "2=dup.txt"], "--vocab '2=dup.txt': label 'b' appears more than once"),
        (["--time-col", "t", "--vocab", "3=months.txt"],
         "--vocab '3=months.txt': mode 3 is binned by --time-col"),
    ], ids=["past-last-mode", "mode-0", "not-a-number", "no-mode", "twice", "repeated-label",
            "time-mode"])
    def test_vocab_misuse_refused(self, tmp_path, capsys, monkeypatch, flags, message):
        # a vocabulary that names no mode, or that ingest cannot apply as
        # given, is refused before anything is read or written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ev.tsv").write_text("i\tj\tt\na\tb\t2001-01\nc\tb\t2001-03\n")
        (tmp_path / "v.txt").write_text("a\nc\n")
        (tmp_path / "dup.txt").write_text("b\nb\nd\n")
        (tmp_path / "months.txt").write_text("2001-01\n2001-02\n")
        rc = run_cli("ingest", "--data", "ev.tsv", "--mode-cols", "i,j,t", *flags,
                     "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_empty_mode_field_refused(self, tmp_path, capsys, monkeypatch):
        # a blank label would be a blank vocab line, which load_vocab drops
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ev.tsv").write_text("i\tj\na\tx\nb\t \n")
        rc = run_cli("ingest", "--data", "ev.tsv", "--mode-cols", "i,j",
                     "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == "error: ev.tsv:3: empty mode-2 field\n"
        assert not (tmp_path / "out").exists()

    def test_events_without_mode_columns_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ev.tsv").write_text("i\tj\na\tx\n")
        rc = run_cli("ingest", "--data", "ev.tsv", "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == "error: --format events needs --mode-cols\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--mode-cols", "i,j"], ["--count-col", "n"], ["--delimiter", ","],
        ["--vocab", "1=v.txt"], ["--time-col", "j"], ["--time-start", "2001-01"],
        ["--time-end", "2001-12"], ["--vocab", "1=v.txt", "--time-col", "j"],
        ["--time-bin", "year"],
    ], ids=lambda flags: " ".join(flags[::2]))
    def test_coo_refuses_event_flags(self, tmp_path, capsys, monkeypatch, flags):
        # a COO file has no columns, labels or dates for these flags to name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.coo").write_text("2 3 3\n1 2 1\n")
        (tmp_path / "v.txt").write_text("a\nb\nc\n")
        rc = run_cli("ingest", "--data", "t.coo", "--format", "coo", *flags,
                     "--out", tmp_path / "out")
        assert rc == 2
        named = ", ".join(flags[::2])
        assert capsys.readouterr().err == f"error: --format coo takes no {named}\n"
        assert not (tmp_path / "out").exists()


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

    def test_heldout_positive_counted(self, synth_coo, tmp_path, capsys):
        out = tmp_path / "masks"
        assert run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                       "--mask-frac", "0.05", "--mask-seed", "2", "--out", out) == 0
        line = capsys.readouterr().out.splitlines()[0]
        fields = dict(field.split("=") for field in line.split()[1:])
        _, heldout = split(load_coo(synth_coo), load_mask(out / "mask_01.txt"))
        assert 0 < int(fields["heldout_positive"]) == int((heldout.counts > 0).sum())
        assert int(fields["heldout_cells"]) == heldout.n_cells

    def test_fraction_bounds(self, synth_coo, tmp_path, capsys):
        rc = run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                     "--mask-frac", "1.5", "--out", tmp_path / "m")
        assert rc == 2
        assert "fraction" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_mask_count_below_one_refused(self, synth_coo, tmp_path, capsys, count):
        rc = run_cli("mask", "--data", synth_coo, "--mask-mode", "3",
                     "--num-masks", count, "--out", tmp_path / "m")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --num-masks must be at least 1, got {count}\n")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["mask", "fit"])
    def test_stems_past_int64_refused(self, tmp_path, capsys, command):
        # 2**40 * 2**40 candidate stems: more than rng.choice can draw from
        coo = tmp_path / "wide.coo"
        coo.write_text("3 1099511627776 1099511627776 2\n1 1 1 1\n")
        rest = (["--Q", "2", "--burnin", "0", "--iters", "1", "--thin", "1"]
                if command == "fit" else [])
        rc = run_cli(command, "--data", coo, *rest, "--mask-mode", "3",
                     "--mask-frac", "0.5", "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {2 ** 80} candidate stems: more than int64 can index\n")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("first, then, named", [
        (["--mode", "tucker", "--Q", "2"], ["--mode", "tucker", "--Q", "2", "--K", "2,2,1"],
         "Q, K"),
        (["--mode", "cp", "--Q", "3"], ["--mode", "allocore", "--Q", "3"], "mode"),
    ], ids=["tucker-K", "cp-to-allocore"])
    def test_resume_refuses_another_core(self, synth_coo, tmp_path, capsys, first,
                                         then, named):
        common = ["--data", synth_coo, "--burnin", "0", "--thin", "1", "--seed", "2",
                  "--out", tmp_path / "run"]
        assert run_cli("fit", *common, *first, "--iters", "1") == 0
        capsys.readouterr()
        assert run_cli("fit", *common, *then, "--iters", "2", "--resume") == 2
        assert capsys.readouterr().err.rstrip().endswith(f"the run's: {named}")
        assert not (tmp_path / "run" / "samples" / "sample_0002").exists()

    def test_fresh_fit_into_a_run_refused(self, synth_coo, tmp_path, capsys):
        # a second chain would leave the first one's later samples beside its own
        out = tmp_path / "run"
        common = ["--data", synth_coo, "--Q", "3", "--burnin", "0", "--thin", "1",
                  "--out", out]
        assert run_cli("fit", *common, "--seed", "1", "--iters", "4") == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert run_cli("fit", *common, "--seed", "2", "--iters", "2") == 2
        assert "--resume" in capsys.readouterr().err
        assert tree_bytes(out) == before

    def test_resume_ending_before_the_checkpoint_refused(self, synth_coo, tmp_path,
                                                         capsys):
        out = tmp_path / "run"
        common = ["--data", synth_coo, "--Q", "3", "--seed", "5", "--thin", "1",
                  "--burnin", "2", "--out", out]
        assert run_cli("fit", *common, "--iters", "4") == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert run_cli("fit", *common, "--iters", "1", "--resume") == 2
        err = capsys.readouterr().err
        assert "iteration 6" in err and "iteration 3" in err
        assert tree_bytes(out) == before

    def test_bad_thin_refused_before_writing(self, synth_coo, tmp_path, capsys):
        rc = run_cli("fit", "--data", synth_coo, "--Q", "3", "--burnin", "0",
                     "--iters", "3", "--thin", "2", "--mask-frac", "0.01",
                     "--mask-mode", "3", "--out", tmp_path / "run")
        assert rc == 2
        assert "thin must divide total" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mask_file_without_stems_refused(self, synth_coo, tmp_path, capsys):
        mask = tmp_path / "hdr.txt"
        mask.write_text("free_mode=1\n")
        rc = run_cli("fit", "--data", synth_coo, "--Q", "3", "--burnin", "0",
                     "--iters", "1", "--thin", "1", "--mask", mask,
                     "--out", tmp_path / "run")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {mask}: no stems after the 'free_mode=' header\n")
        assert not (tmp_path / "run").exists()

    def test_mask_stem_past_int64_refused(self, synth_coo, tmp_path, capsys):
        mask = tmp_path / "big.txt"
        mask.write_text("free_mode=1\n99999999999999999999 1\n")
        rc = run_cli("fit", "--data", synth_coo, "--Q", "3", "--burnin", "0",
                     "--iters", "1", "--thin", "1", "--mask", mask,
                     "--out", tmp_path / "run")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {mask}:2: stem coordinate past int64\n")
        assert not (tmp_path / "run").exists()

    def test_format_flag_gone(self, synth_coo, tmp_path):
        # fit reads COO only; events go through 'allocore ingest'
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--data", synth_coo, "--format", "coo", "--Q", "2",
                    "--out", tmp_path / "run")
        assert exc.value.code == 2

    def test_tucker_over_limit_refused(self, synth_coo, tmp_path, capsys):
        rc = run_cli("fit", "--data", synth_coo, "--mode", "tucker",
                     "--Q", "1", "--K", "200,200,100",
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

    def test_repeated_budget_refused(self, synth_coo, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ALLOCORE_THREADS", "2")
        rc = run_cli("fit", "--data", synth_coo, "--Q", "3,2,3", "--burnin", "0",
                     "--iters", "1", "--thin", "1", "--out", tmp_path / "sweep")
        assert rc == 2
        err = capsys.readouterr().err
        assert "budget 3 more than once" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("budgets, message", [
        ("3,0", "--Q budgets must be at least 1, got '3,0'"),
        ("3,x", "--Q expects a comma list of integers, got '3,x'"),
    ], ids=["zero", "not-a-number"])
    def test_every_budget_checked_before_fitting(self, synth_coo, tmp_path, capsys,
                                                 budgets, message):
        rc = run_cli("fit", "--data", synth_coo, "--Q", budgets, "--burnin", "0",
                     "--iters", "1", "--thin", "1", "--out", tmp_path / "sweep")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    def test_wall_seconds_sum_whole_log_rows(self, fitted_run, tmp_path):
        log = fitted_run / "chain_log.tsv"
        rows = log.read_text().splitlines()[2:]
        assert len(rows) == 12
        wall = sum(float(row.split("\t")[-1]) for row in rows)
        with open(log, "a") as f:  # a row cut partway by a kill
            f.write("13\t-1.0\t4\t4\t4\t2\t9")
        table = tmp_path / "results.tsv"
        assert run_cli("eval", "--runs", fitted_run, "--out", table) == 0
        header, line = table.read_text().splitlines()
        row = dict(zip(header.split("\t"), line.split("\t")))
        assert row["wall_seconds"] == f"{wall:.3f}"

    def test_run_named_twice_appends_one_row(self, fitted_run, tmp_path, capsys):
        table = tmp_path / "results.tsv"
        rc = run_cli("eval", "--runs", fitted_run, fitted_run, "--out", table)
        assert rc == 0
        assert len(table.read_text().splitlines()) == 2
        assert "appended 1 row(s)" in capsys.readouterr().out

    def test_two_runs_with_one_row_key_refused(self, fitted_run, tmp_path, capsys):
        other = tmp_path / "copy" / fitted_run.name
        shutil.copytree(fitted_run, other)
        table = tmp_path / "results.tsv"
        rc = run_cli("eval", "--runs", fitted_run, other, "--out", table)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(fitted_run) in err and str(other) in err and "'run'" in err
        assert not table.exists()
        # the same directory by another path is one run, scored once
        rc = run_cli("eval", "--runs", fitted_run, fitted_run.parent / "." / "run",
                     "--out", table)
        assert rc == 0
        assert len(table.read_text().splitlines()) == 2

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

    def test_no_positive_heldout_cell_scores_the_rest(self, tmp_path):
        # sparse factor columns leave every held-out cell of this mask at 0
        tensor, _ = generate(SyntheticConfig(shape=(12, 10, 4), true_dims=(2, 2, 2),
                                             true_budget=3, column_scale=5.0, seed=0))
        data = tmp_path / "sparse.coo"
        write_coo(tensor, data)
        out = tmp_path / "run"
        rc = run_cli("fit", "--data", data, "--mask-mode", "3", "--mask-frac", "0.1",
                     "--mask-seed", "1", "--Q", "3", "--burnin", "0", "--iters", "2",
                     "--thin", "1", "--seed", "1", "--out", out)
        assert rc == 0
        _, heldout = split(tensor, make_fiber_mask(tensor, 2, 0.1, 1))
        assert heldout.n_cells == 48 and not heldout.counts.any()
        table = tmp_path / "results.tsv"
        assert run_cli("eval", "--runs", out, "--out", table) == 0
        header, line = table.read_text().splitlines()
        row = dict(zip(header.split("\t"), line.split("\t")))
        assert row["ppd_positive"] == "nan"
        assert 0 < float(row["ppd_full"]) <= 1
        assert 0 < float(row["ppd_baseline"]) <= 1

    def test_incomplete_run_refused_until_resumed(self, synth_coo, tmp_path, capsys):
        # the fit's process dies right after its first sample is saved
        out = tmp_path / "run"
        flags = ["fit", "--data", str(synth_coo), "--mask-frac", "0.01",
                 "--mask-mode", "3", "--Q", "3", "--burnin", "0", "--iters", "4",
                 "--thin", "1", "--seed", "1", "--out", str(out)]
        script = "\n".join([
            "import os, sys",
            "from allocore import cli, gibbs",
            "save = gibbs.save_state",
            "def save_then_exit(st, *dirs):",
            "    save(st, *dirs)",
            "    if str(dirs[0]).endswith('sample_0001'):",
            "        os._exit(0)",
            "gibbs.save_state = save_then_exit",
            "cli.main(sys.argv[1:])",
        ])
        subprocess.run([sys.executable, "-c", script, *flags],
                       env={**os.environ, "PYTHONPATH": SRC}, timeout=300, check=True)
        assert (out / "INCOMPLETE").exists()
        table = tmp_path / "results.tsv"
        capsys.readouterr()
        assert run_cli("eval", "--runs", out, "--out", table) == 2
        assert "INCOMPLETE" in capsys.readouterr().err
        assert len(table.read_text().splitlines()) == 1  # the header alone
        assert run_cli(*flags, "--resume") == 0
        assert run_cli("eval", "--runs", out, "--out", table) == 0
        header, line = table.read_text().splitlines()
        assert dict(zip(header.split("\t"), line.split("\t")))["S"] == "4"

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

    def test_generator_flags_honoured(self, tmp_path):
        # any generator flag builds a config of the given flags and the
        # defaults; with none given, synth writes the default design
        out = tmp_path / "flags"
        assert run_cli("synth", "--out", out, "--seed", "0", "--scale", "50",
                       "--lambda-shape", "9") == 0
        config = (out / "config.txt").read_text().splitlines()
        assert "column_scale=50.0" in config and "lambda_shape=9.0" in config
        assert "fixed_modes=" in config
        want, _ = generate(SyntheticConfig(column_scale=50.0, lambda_shape=9.0, seed=0))
        got = load_coo(out / "tensor.coo")
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.counts, want.counts)

        plain = tmp_path / "plain"
        assert run_cli("synth", "--out", plain, "--seed", "0") == 0
        assert "fixed_modes=3" in (plain / "config.txt").read_text().splitlines()
        default, _ = generate(default_config(seed=0))
        assert np.array_equal(load_coo(plain / "tensor.coo").counts, default.counts)
        assert (plain / "tensor.coo").read_bytes() != (out / "tensor.coo").read_bytes()

    def test_custom_shape(self, tmp_path):
        out = tmp_path / "synth"
        rc = run_cli("synth", "--out", out, "--shape", "12,12,4",
                     "--true-dims", "2,2,2", "--true-Q", "3", "--seed", "1")
        assert rc == 0
        tensor = load_coo(out / "tensor.coo")
        assert tensor.shape == (12, 12, 4)


# saves at sweeps 7, 9, 11 and 13: burn-in 5 is not a multiple of thin 2. At
# Q = 20, q_eff differs between the saved sweeps and their neighbours.
TRACE_FIT = ["--Q", "20", "--burnin", "5", "--iters", "8", "--thin", "2", "--seed", "2"]


def trace_run(kind, synth_coo, tmp_path):
    """A fitted run for trace: a masked fit, or a fit killed right after it
    saved sample 2 (sweep 9, no checkpoint) and continued with --resume."""
    run = tmp_path / "run"
    fit = ["fit", "--data", str(synth_coo), *TRACE_FIT, "--out", str(run)]
    if kind == "masked":
        assert run_cli(*fit, "--mask-mode", "3", "--mask-frac", "0.05") == 0
        return run
    script = "\n".join([
        "import os, sys",
        "from allocore import cli, gibbs",
        "save = gibbs.save_state",
        "def save_then_exit(st, *dirs):",
        "    save(st, *dirs)",
        "    if str(dirs[0]).endswith('sample_0002'):",
        "        os._exit(3)",
        "gibbs.save_state = save_then_exit",
        "cli.main(sys.argv[1:])",
    ])
    killed = subprocess.run([sys.executable, "-c", script, *fit],
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert killed.returncode == 3
    assert load_state(run / "checkpoint").next_iteration == 9
    assert run_cli(*fit, "--resume") == 0
    return run


def trace_from_states(run, out, shown):
    """What trace wrote from the saved states themselves: the files in
    ``out``, and the stdout it printed for ``--out shown``."""
    samples = load_samples(run)
    q_eff, k_eff = recovery_trace(samples)
    os.makedirs(out)
    write_trace(samples.iterations, q_eff, k_eff, out / "trace.tsv")
    write_histograms(q_eff, k_eff, out / "histograms.tsv")
    lines = [f"wrote trace and histograms for {samples.S} samples to {shown}",
             f"{'statistic':<10} {'median':>7} {'iqr':>12}"]
    series = [("q_eff", q_eff)] + [(f"k_eff_{m + 1}", k) for m, k in enumerate(k_eff.T)]
    for name, values in series:
        lo, hi = np.percentile(values, [25, 75])
        lines.append(f"{name:<10} {np.median(values):>7.1f} "
                     f"{f'[{lo:.0f}, {hi:.0f}]':>12}")
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("kind", ["masked", "resumed"])
    def test_log_gives_the_states_outputs(self, synth_coo, tmp_path, capsys,
                                          monkeypatch, kind):
        run = trace_run(kind, synth_coo, tmp_path)
        got = tmp_path / "trace"
        stdout = trace_from_states(run, tmp_path / "want", got)

        # trace loads no state and reads no state data file
        def refuse(*args):
            raise AssertionError("trace loaded a state")
        for module in (state_module, evaluation, cli):
            monkeypatch.setattr(module, "load_state", refuse)
        for sample in (run / "samples").iterdir():
            for name in os.listdir(sample):
                if name != "manifest.txt":
                    os.remove(sample / name)
        capsys.readouterr()
        assert run_cli("trace", "--run", run, "--out", got) == 0
        assert capsys.readouterr().out == stdout
        for name in ("trace.tsv", "histograms.tsv"):
            assert (got / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
        rows = [row.split("\t") for row in (got / "trace.tsv").read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["7", "9", "11", "13"]
        assert len({row[-1] for row in rows}) > 1

    @pytest.mark.parametrize("lost", [9, 13])
    def test_saved_iteration_without_a_log_row_named(self, synth_coo, tmp_path,
                                                     capsys, lost):
        run = trace_run("masked", synth_coo, tmp_path)
        log = run / "chain_log.tsv"
        text = log.read_text()
        # row 9 deleted, or the last row (13) cut before its newline
        log.write_text(text[:-1] if lost == 13 else "".join(
            line for line in text.splitlines(True) if not line.startswith("9\t")))
        capsys.readouterr()
        assert run_cli("trace", "--run", run, "--out", tmp_path / "trace") == 2
        assert capsys.readouterr().err == (
            f"error: {log}: no whole row for saved iteration {lost}\n")

    def test_sample_manifest_without_iteration_refused(self, synth_coo, tmp_path,
                                                       capsys):
        run = trace_run("masked", synth_coo, tmp_path)
        manifest = run / "samples" / "sample_0002" / "manifest.txt"
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if not line.startswith("next_iteration=")))
        capsys.readouterr()
        assert run_cli("trace", "--run", run, "--out", tmp_path / "trace") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing key 'next_iteration'" in err


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

    def test_run_loads_only_the_last_sample(self, synth_coo, tmp_path):
        run = tmp_path / "run"
        assert run_cli("fit", "--data", synth_coo, "--Q", "5", "--burnin", "0",
                       "--iters", "4", "--thin", "2", "--seed", "2", "--out", run) == 0
        intact, damaged = tmp_path / "intact", tmp_path / "damaged"
        assert run_cli("classes", "--run", run, "--n", "3", "--out", intact) == 0
        with open(run / "samples" / "sample_0001" / "core.txt", "a") as f:
            f.write("1 1 1 1\n")
        assert run_cli("classes", "--run", run, "--n", "3", "--out", damaged) == 0
        assert (damaged / "index.tsv").read_bytes() == (intact / "index.tsv").read_bytes()

    def test_short_vocabulary_refused(self, synth_coo, tmp_path, capsys):
        run = tmp_path / "run"
        run_cli("fit", "--data", synth_coo, "--Q", "2", "--burnin", "0",
                "--iters", "2", "--thin", "2", "--seed", "2", "--out", run)
        vocab = tmp_path / "vocab"
        vocab.mkdir()
        (vocab / "vocab_1.txt").write_text("a\nb\n")
        capsys.readouterr()
        rc = run_cli("classes", "--run", run, "--vocab", vocab, "--out",
                     tmp_path / "classes")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocab_1.txt: 2 labels for mode 1 of size 40" in err
        assert not (tmp_path / "classes").exists()

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
