"""Command-line interface: exit codes, outputs, determinism, config files."""

import argparse
import dataclasses
import filecmp
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessianlab
from hessianlab import solver
from hessianlab.cli import _SUBCOMMANDS, _UNWRITTEN, _doc, build_parser, main, parse_field_spec
from hessianlab.envelope import EnvelopeReport
from hessianlab.errors import InputError
from hessianlab.experiments import MmsRow, mms_study
from hessianlab.geometry import read_field
from hessianlab.inequalities import DecayReport, StabilityRecord
from hessianlab.solver import NewtonRecord, NormalizedReport, SolveReport
from hessianlab.symfunc import ConeSuiteReport, InequalityResult


class TestFieldSpecGrammar:
    def test_single_cosine(self):
        terms = parse_field_spec("cos:1,0,0,0:0.5")
        assert terms == [((1, 0, 0, 0), 0.5, 0.0)]

    def test_multi_term(self):
        terms = parse_field_spec("cos:1,0,0,0:0.5+sin:0,0,0,1:-0.25")
        assert terms == [((1, 0, 0, 0), 0.5, 0.0), ((0, 0, 0, 1), 0.0, -0.25)]

    def test_semicolon_separator(self):
        terms = parse_field_spec("cos:0,0,0,0:1;sin:1,0,0,0:2")
        assert len(terms) == 2

    def test_bad_kind(self):
        with pytest.raises(InputError):
            parse_field_spec("tan:1,0,0,0:1")

    def test_bad_arity(self, tmp_path, capsys):
        # the grammar takes any length; make_field's one term rule refuses it
        assert main(["solve", "--n", "2", "--m", "1", "--N", "8", "--H", "cos:1,0:1",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "input error: frequency vector (1, 0) must have length 4\n")

    def test_overflowing_sum_exit_2(self, tmp_path, capsys):
        # two finite terms whose sum overflows: only the field check sees it
        assert main(["solve", "--n", "2", "--m", "1", "--N", "8",
                     "--H", "cos:0,0,0,0:1e308+cos:0,0,0,0:1e308",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "input error: field values must be finite\n"

    def test_malformed(self):
        with pytest.raises(InputError):
            parse_field_spec("cos:1,0,0,0")

    @pytest.mark.parametrize("spec", ["cos:1,0,0,0:abc", "sin:1,x,0,0:1", "cos:1.5,0,0,0:1"])
    def test_bad_number(self, spec):
        with pytest.raises(InputError, match="bad field term"):
            parse_field_spec(spec)

    @pytest.mark.parametrize("spec", ["", "  ", "+", " ; + "])
    def test_empty_spec(self, spec):
        with pytest.raises(InputError, match="empty field spec"):
            parse_field_spec(spec)


class TestVerifyConeCommand:
    def test_runs_and_writes_report(self, tmp_path):
        out = tmp_path / "run"
        code = main(["verify-cone", "--n", "3", "--m", "2", "--samples", "2000",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert "monotonicity" in doc["results"]
        assert doc["samples"] == 2000
        assert (out / "resolved_config.json").exists()

    def test_bad_range_exit_2(self, tmp_path):
        assert main(["verify-cone", "--n", "2", "--m", "2", "--samples", "10",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
    def test_bad_tol_exit_2(self, tmp_path, tol):
        # verify-cone takes no tol: the slack a sample must clear is the
        # constant symfunc._TOL, so --tol is unknown whatever its value
        assert main(["verify-cone", "--n", "3", "--m", "2", "--samples", "100",
                     f"--tol={tol}", "--out", str(tmp_path / "x")]) == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # SeedSequence(-1) raises ValueError; the suite refuses the seed first
        assert main(["verify-cone", "--n", "3", "--m", "2", "--samples", "10",
                     "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
        assert "seed=-1" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "config"], ids=["removed-tol-flag",
                                                           "removed-tol-config"])
    def test_removed_tol_exit_2(self, tmp_path, how):
        # an old bundle's tol, the former default included, is refused
        argv = ["verify-cone", "--n", "3", "--m", "2", "--samples", "10",
                "--out", str(tmp_path / "x")]
        if how == "flag":
            argv += ["--tol", "1e-10"]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"tol": 1e-10}))
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 2

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_thread_setting_exit_2(self, tmp_path, how):
        # no setting names a thread count: old bundles holding one are refused
        argv = ["verify-cone", "--n", "3", "--m", "2", "--samples", "10",
                "--out", str(tmp_path / "x")]
        if how == "flag":
            argv += ["--threads", "2"]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"threads": 2}))
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 2


class TestRequiredFlags:
    @pytest.mark.parametrize("argv", [
        ["verify-cone", "--n", "3"],
        ["solve", "--n", "2", "--m", "1", "--N", "8"],
        ["normalized", "--n", "2", "--m", "1", "--N", "8"],
        ["envelope", "--n", "2", "--m", "1", "--N", "8"],
        ["mms", "--n", "2"],
        ["stability-sweep", "--n", "2", "--m", "1", "--N", "8", "--p", "4"],
        ["decay", "--n", "2", "--m", "1", "--N", "8"],
    ], ids=lambda argv: argv[0])
    def test_missing_flags_exit_2(self, tmp_path, argv):
        # each argv lacks the last of its command's required flags
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2


# one quick run of every subcommand at N=8, without --out
QUICK_RUNS = {
    "verify-cone": ["verify-cone", "--n", "3", "--m", "2", "--samples", "200"],
    "solve": ["solve", "--n", "2", "--m", "1", "--N", "8", "--H", "cos:1,0,0,0:0.5",
              "--t-steps", "1"],
    "normalized": ["normalized", "--n", "2", "--m", "1", "--N", "8", "--f", "cos:0,0,0,0:2",
                   "--eps-schedule", "1,0.3", "--t-steps", "1"],
    "envelope": ["envelope", "--n", "2", "--m", "1", "--N", "8", "--h", "cos:1,0,0,0:2",
                 "--eps-schedule", "1,0.3", "--t-steps", "1"],
    "mms": ["mms", "--n", "2", "--m", "1", "--N-list", "8", "--t-steps", "1"],
    "stability-sweep": ["stability-sweep", "--n", "2", "--m", "1", "--N", "8",
                        "--deltas", "0.1", "--p", "4", "--a", "0.3",
                        "--eps-schedule", "1,0.3", "--t-steps", "1"],
    "decay": ["decay", "--n", "2", "--m", "1", "--N", "8", "--phi", "cos:1,0,0,0:1",
              "--t-list", "0.5,1"],
}
GRID_COMMANDS = [name for name in QUICK_RUNS if name != "verify-cone"]


class TestDegreeRule:
    @pytest.mark.parametrize("m", [0, -1, 3])
    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_degree_out_of_range_exit_2(self, tmp_path, capsys, command, m):
        # every grid path reaches hessop.check_degree before it solves anything
        argv = list(QUICK_RUNS[command])
        argv[argv.index("--m") + 1] = str(m)
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"input error: m={m} out of range 1..2\n"


class TestSettings:
    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_seed_only_on_verify_cone(self, tmp_path, command, how):
        # only verify-cone draws random numbers; a seed elsewhere is unknown
        argv = QUICK_RUNS[command] + ["--out", str(tmp_path / "x")]
        if how == "flag":
            argv += ["--seed", "3"]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"seed": 3}))
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 2

    def test_settable_values(self):
        # every setting of every subcommand, pinned: a new one is an edit here
        dests = {command: set(vars(build_parser().parse_args(argv))) - {"command", "func"}
                 for command, argv in QUICK_RUNS.items()}
        grid = {"n", "m", "N", "metric_scale", "memory_cap", "out", "config"}
        solver_flags = {"newton_tol", "t_steps"}
        assert dests == {
            "verify-cone": {"n", "m", "samples", "seed", "out", "config"},
            "solve": grid | solver_flags | {"H"},
            "normalized": grid | solver_flags | {"f", "eps_schedule"},
            "envelope": grid | solver_flags | {"h", "eps_schedule"},
            "mms": solver_flags | {"n", "m", "N_list", "amplitude", "out", "config"},
            "stability-sweep": grid | solver_flags | {"f", "psi", "deltas", "p", "a",
                                                      "eps_schedule"},
            "decay": grid | {"phi", "t_list"},
        }
        assert sum(map(len, dests.values())) == 70

    def test_every_setting_is_read(self, tmp_path, monkeypatch):
        # a setting that no subcommand reads changes nothing: each dest of
        # each subcommand but the parser's own is read during its run
        import hessianlab.cli as cli

        assert set(QUICK_RUNS) == set(_SUBCOMMANDS)
        reads = set()  # outside the namespace, so vars() sees only the settings

        class ReadLog(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parsed = []
        real_parse = cli._parse_args

        def logged_parse(argv):
            parsed.append(ReadLog(**vars(real_parse(argv))))
            return parsed[-1]

        monkeypatch.setattr(cli, "_parse_args", logged_parse)
        unread = {}
        for command, argv in QUICK_RUNS.items():
            reads.clear()
            assert main(argv + ["--out", str(tmp_path / command)]) == 0
            unread[command] = set(vars(parsed[-1])) - {"command", "func", "config"} - reads
        assert unread == {command: set() for command in QUICK_RUNS}


class TestListFlags:
    @pytest.mark.parametrize("argv", [
        ["normalized", "--n", "2", "--m", "1", "--N", "8", "--f", "cos:0,0,0,0:2",
         "--eps-schedule", "1,abc"],
        ["normalized", "--n", "2", "--m", "1", "--N", "8", "--f", "cos:0,0,0,0:2",
         "--eps-schedule", "1,nan"],
        ["stability-sweep", "--n", "2", "--m", "1", "--N", "8", "--p", "4", "--a", "0.3",
         "--eps-schedule", "1,0.3", "--deltas", "0.1,x"],
        ["stability-sweep", "--n", "2", "--m", "1", "--N", "8", "--p", "4", "--a", "0.3",
         "--eps-schedule", "1,0.3", "--deltas", ","],
        ["stability-sweep", "--n", "2", "--m", "1", "--N", "8", "--p", "4", "--a", "0.3",
         "--eps-schedule", ",", "--deltas", "0.1"],
        ["stability-sweep", "--n", "2", "--m", "1", "--N", "8", "--p", "4", "--a", "0.3",
         "--eps-schedule", "0.3,1", "--deltas", "0.1"],
        ["mms", "--n", "2", "--m", "1", "--N-list", "8,x"],
        ["mms", "--n", "2", "--m", "1", "--N-list", ","],
        ["decay", "--n", "2", "--m", "1", "--N", "16", "--phi", "cos:1,0,0,0:1",
         "--t-list", "0.1,y"],
        ["decay", "--n", "2", "--m", "1", "--N", "16", "--phi", "cos:1,0,0,0:1",
         "--t-list", "0.5,nan"],
    ], ids=["eps-word", "eps-nan", "deltas-word", "deltas-empty", "sweep-eps-empty",
            "sweep-eps-increasing", "N-list-word",
            "N-list-empty", "t-list-word", "t-list-nan"])
    def test_bad_or_empty_list_exit_2(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2


class TestSolveCommand:
    def test_solve_example(self, tmp_path):
        out = tmp_path / "solve"
        code = main(["solve", "--n", "2", "--m", "1", "--N", "16",
                     "--H", "cos:1,0,0,0:0.5", "--out", str(out),
                     "--t-steps", "1"])
        assert code == 0
        u, kind = read_field(out / "u.field")
        assert kind == "u"
        assert u.grid.N == 16
        doc = json.loads((out / "report.json").read_text())
        assert doc["converged"]
        assert "wallclock" not in doc  # timings never reach output files
        trace = (out / "newton_trace.jsonl").read_text().strip().splitlines()
        assert all(
            set(json.loads(line)) == {"t", "iter", "residual_sup", "step_scale",
                                      "cone_margin", "krylov_iters", "krylov_relres"}
            for line in trace
        )

    def test_grid_too_small_exit_2(self, tmp_path):
        code = main(["solve", "--n", "2", "--m", "1", "--N", "6",
                     "--H", "cos:1,0,0,0:0.5", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--metric-scale", "-1"], ["--metric-scale", "0"],
                                      ["--metric-scale", "1e-320"], ["--memory-cap", "0"]],
                             ids=["negative-scale", "zero-scale", "subnormal-scale",
                                  "zero-cap"])
    def test_metric_scale_and_memory_cap_faults_exit_2(self, tmp_path, flag):
        # a zero value is a fault, not a request for the default
        code = main(["solve", "--n", "2", "--m", "1", "--N", "8",
                     "--H", "cos:1,0,0,0:0.5", "--t-steps", "1",
                     "--out", str(tmp_path / "x")] + flag)
        assert code == 2

    def test_metric_scale_near_overflow_solves(self, tmp_path, capsys):
        # 1e308 I is finite and positive definite though its trace is not:
        # no check may sum it, nor warn
        code = main(["solve", "--n", "2", "--m", "1", "--N", "8",
                     "--H", "cos:1,0,0,0:0.1", "--metric-scale", "1e308",
                     "--out", str(tmp_path / "x")])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", [["--newton-tol", "nan"], ["--no-cone-guard"],
                                      ["--krylov-tol", "1e-10"], ["--max-newton", "50"]],
                             ids=["nan-tol", "removed-switch", "removed-krylov-tol",
                                  "removed-max-newton"])
    def test_bad_solver_flag_exit_2(self, tmp_path, flag):
        # Newton admits only iterates in Gamma_m, and no switch turns that off;
        # the GMRES tolerance follows newton_tol, and no flag sets it or the
        # Newton cap
        code = main(["solve", "--n", "2", "--m", "2", "--N", "8",
                     "--H", "cos:1,0,0,0:0.4", "--out", str(tmp_path / "x")] + flag)
        assert code == 2

    def test_convergence_failure_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
        code = main(["solve", "--n", "2", "--m", "1", "--N", "8",
                     "--H", "cos:1,0,0,0:50", "--t-steps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unusable_out_exit_2(self, tmp_path, where):
        # an --out that cannot be a directory is an input fault, not a
        # convergence failure
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if where == "file" else blocker / "x"
        code = main(["decay", "--n", "2", "--m", "1", "--N", "8",
                     "--phi", "cos:1,0,0,0:1", "--out", str(out)])
        assert code == 2
        assert blocker.read_text() == ""

    def test_input_fault_leaves_no_out_directory(self, tmp_path, capsys):
        # main made fo and fo/x for --out; the fault removes both again
        code = main(["solve", "--n", "2", "--m", "1", "--N", "8",
                     "--H", "cos:1,0,0,0:0.1", "--metric-scale", "-1",
                     "--out", str(tmp_path / "fo" / "x")])
        assert code == 2
        assert "metric scale -1.0" in capsys.readouterr().err
        assert not (tmp_path / "fo").exists()

    def test_input_fault_keeps_directories_it_did_not_make(self, tmp_path):
        # an --out that existed before, or that holds a file, stays
        (tmp_path / "fo").mkdir()
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "note").write_text("")
        for out in (tmp_path / "fo", tmp_path / "kept"):
            assert main(["solve", "--n", "2", "--m", "1", "--N", "8",
                         "--H", "cos:1,0,0,0:0.1", "--metric-scale", "-1",
                         "--out", str(out)]) == 2
            assert out.is_dir()
        assert (tmp_path / "kept" / "note").read_text() == ""

    def test_unknown_flag_exit_2(self, tmp_path):
        assert main(["solve", "--frobnicate", "1"]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["made-up-command"]) == 2


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "n": 2, "m": 1, "N": 16, "H": "cos:1,0,0,0:0.5", "t-steps": 1,
        }))
        out1 = tmp_path / "a"
        assert main(["solve", "--config", str(cfgfile), "--out", str(out1)]) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert resolved["N"] == 16
        # flag overrides the file
        out2 = tmp_path / "b"
        assert main(["solve", "--config", str(cfgfile), "--N", "8",
                     "--out", str(out2)]) == 0
        resolved2 = json.loads((out2 / "resolved_config.json").read_text())
        assert resolved2["N"] == 8

    def test_malformed_config_json_exit_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"n": 2, "m": ')
        assert main(["solve", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x")]) == 2

    def test_config_value_goes_through_option_type(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "n": 2, "m": 1, "N": "sixteen", "H": "cos:1,0,0,0:0.5",
        }))
        assert main(["solve", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x")]) == 2

    def test_explicit_zero_flag_beats_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 5, "n": 2, "m": 1, "samples": 50}))
        out = tmp_path / "x"
        assert main(["verify-cone", "--config", str(cfgfile), "--seed", "0",
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 0
        assert resolved["samples"] == 50

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"frobnicate": 1}))
        assert main(["solve", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x")]) == 2

    NORMALIZED = ["normalized", "--n", "2", "--m", "1", "--N", "8",
                  "--f", "cos:0,0,0,0:2", "--eps-schedule", "1,0.3", "--t-steps", "1"]

    @pytest.mark.parametrize("doc", [
        {"eps": "1,0.3,0.1"},
        {"eps_schedule": [1, 0.3]},
        {"n": True},
        {"n": False},
        {"t_steps": None},
        {"no_cone_guard": True},
        {"krylov_tol": 1e-10},
        {"max_newton": 50},
        [1, 2],
        None,
    ], ids=["abbreviated-key", "list-value", "true-on-valued", "false-on-valued",
            "null-value", "true-on-removed-switch", "removed-krylov-tol",
            "removed-max-newton", "not-an-object", "missing-file"])
    def test_config_fault_exit_2(self, tmp_path, doc):
        # the argv runs without the file; the file alone makes it a fault
        cfgfile = tmp_path / "cfg.json"
        if doc is not None:
            cfgfile.write_text(json.dumps(doc))
        assert main(self.NORMALIZED + ["--config", str(cfgfile),
                                       "--out", str(tmp_path / "x")]) == 2


def _tree_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


class TestDeterminism:
    def test_bit_identical_reruns(self, tmp_path):
        args = ["solve", "--n", "2", "--m", "2", "--N", "8",
                "--H", "cos:1,0,0,0:0.4+sin:0,1,0,0:0.3", "--t-steps", "1"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        files1 = _tree_files(out1)
        assert files1 == _tree_files(out2)
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_envelope_bit_identical_reruns(self, tmp_path):
        args = ["envelope", "--n", "2", "--m", "1", "--N", "8",
                "--h", "cos:1,0,0,0:2", "--eps-schedule", "1,0.3,0.1",
                "--t-steps", "1"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        files1 = _tree_files(out1)
        assert files1 == _tree_files(out2)
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        doc = json.loads((out1 / "report.json").read_text())
        assert all("wallclock" not in rep for _, rep in doc["eps_path"])
        trace = (out1 / "newton_trace.jsonl").read_text().splitlines()
        labels = [json.loads(line)["t"] for line in trace]
        # one continuity step at eps = 1, then one warm start per later eps
        iters = [rep["t_path"][0][1] for _, rep in doc["eps_path"]]
        assert len(trace) == sum(it + 1 for it in iters)
        assert labels == [1.0] * len(trace)

    def test_verify_cone_bit_identical(self, tmp_path):
        args = ["verify-cone", "--n", "3", "--m", "2", "--samples", "3000",
                "--seed", "11"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for rel in _tree_files(out1):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_verify_cone_bundle_reruns_from_resolved_config(self, monkeypatch, tmp_path):
        # the bundle reruns on a machine with another core count
        import os

        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["verify-cone", "--n", "3", "--m", "2", "--samples", "2000",
                     "--seed", "5", "--out", str(out1)]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(["verify-cone", "--config", str(out1 / "resolved_config.json"),
                     "--out", str(out2)]) == 0
        files1 = _tree_files(out1)
        assert files1 == _tree_files(out2)
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


class TestOtherCommands:
    def test_normalized(self, tmp_path):
        out = tmp_path / "norm"
        code = main(["normalized", "--n", "2", "--m", "1", "--N", "8",
                     "--f", "cos:0,0,0,0:2", "--eps-schedule", "1,0.3,0.1",
                     "--out", str(out), "--t-steps", "1"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["c"] == pytest.approx(0.5, abs=1e-8)

    def test_envelope(self, tmp_path):
        out = tmp_path / "env"
        code = main(["envelope", "--n", "2", "--m", "1", "--N", "8",
                     "--h", "cos:0,0,0,0:0", "--eps-schedule", "1,0.3,0.1",
                     "--out", str(out), "--t-steps", "1"])
        assert code == 0
        assert (out / "w.field").exists()

    def test_mms(self, tmp_path):
        out = tmp_path / "mms"
        code = main(["mms", "--n", "2", "--m", "1", "--N-list", "8,16",
                     "--out", str(out), "--t-steps", "1"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["observed_orders"][0] >= 1.8

    def test_mms_runs_the_library_defaults(self, tmp_path):
        # with no solver flag the command solves as mms_study with no cfg does
        # (SolverConfig()'s 4 t-steps), so both write the same rows
        out = tmp_path / "mms"
        assert main(["mms", "--n", "2", "--m", "2", "--N-list", "8",
                     "--out", str(out)]) == 0
        rows, _ = mms_study(2, 2, [8])
        doc = json.loads((out / "report.json").read_text())
        assert doc["rows"] == _doc(rows)
        assert json.loads((out / "resolved_config.json").read_text()) == {
            "n": 2, "m": 2, "N_list": "8"}

    def test_decay(self, tmp_path):
        out = tmp_path / "decay"
        code = main(["decay", "--n", "2", "--m", "1", "--N", "16",
                     "--phi", "cos:1,0,0,0:1", "--t-list", "0.5,1,1.9",
                     "--out", str(out)])
        assert code == 0
        assert (out / "table.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["bounded"]

    def test_stability_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["stability-sweep", "--n", "2", "--m", "1", "--N", "8",
                     "--deltas", "0.1,0.01", "--p", "4", "--a", "0.333",
                     "--eps-schedule", "1,0.3,0.1",
                     "--out", str(out), "--t-steps", "1"])
        assert code == 0
        assert (out / "records.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["max_ratio"] > 0
        assert all(rec["converged"] for rec in doc["records"])

    def test_sweep_schedule_default_is_the_library_one(self, tmp_path, monkeypatch):
        # with no --eps-schedule the command hands no schedule on, so
        # stability_sweep's own (1, 0.3, 0.1, 0.03) applies; a given one is
        # handed on as parsed
        import hessianlab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "stability_sweep", lambda *args, **kw: calls.append(kw) or [])
        argv = ["stability-sweep", "--n", "2", "--m", "1", "--N", "8", "--p", "4", "--a", "0.3"]
        assert main(argv + ["--out", str(tmp_path / "unset")]) == 0
        assert main(argv + ["--eps-schedule", "1,0.3", "--out", str(tmp_path / "set")]) == 0
        assert calls == [{}, {"eps_schedule": [1.0, 0.3]}]
        resolved = json.loads((tmp_path / "unset" / "resolved_config.json").read_text())
        assert "eps_schedule" not in resolved

    def test_csv_output(self, tmp_path):
        # records.csv: a header of the StabilityRecord fields, then one row
        # per delta with the values summary.json holds
        out = tmp_path / "sweep"
        assert main(["stability-sweep", "--n", "2", "--m", "1", "--N", "8",
                     "--deltas", "0.1,0", "--p", "4", "--a", "0.3",
                     "--eps-schedule", "1,0.3", "--out", str(out), "--t-steps", "1"]) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "delta,p,a,lhs,rhs,ratio,legal,newton_steps,cold_walk,converged"
        records = json.loads((out / "summary.json").read_text())["records"]
        assert lines[1:] == [",".join(str(rec[k]) for k in lines[0].split(","))
                             for rec in records]

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_no_carriage_returns(self, tmp_path, command):
        # every text file under --out, the CSV tables too, ends its lines in
        # \n alone; a .field payload is binary
        out = tmp_path / command
        assert main(QUICK_RUNS[command] + ["--out", str(out)]) == 0
        files = [rel for rel in _tree_files(out) if rel.suffix != ".field"]
        assert files
        assert [rel for rel in files if b"\r" in (out / rel).read_bytes()] == []

    def test_stability_sweep_unconverged_exits_1(self, tmp_path, monkeypatch):
        # one Newton step per solve stalls the continuity path, so the
        # ratio is meaningless: flagged in both outputs, and exit 1
        monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
        out = tmp_path / "sweep"
        code = main(["stability-sweep", "--n", "2", "--m", "2", "--N", "8",
                     "--p", "2", "--a", "0.25", "--deltas", "0.1",
                     "--out", str(out)])
        assert code == 1
        doc = json.loads((out / "summary.json").read_text())
        assert [rec["converged"] for rec in doc["records"]] == [False]
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0].endswith(",converged") and lines[1].endswith(",False")


def _written(cls, *extras):
    """The keys of a written ``cls`` report: its fields but _UNWRITTEN, plus extras."""
    return {f.name for f in dataclasses.fields(cls)} - set(_UNWRITTEN) | set(extras)


def _all_keys(doc):
    if isinstance(doc, dict):
        return set(doc).union(*map(_all_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_all_keys, doc))
    return set()


class TestOutRule:
    """Every report under --out holds its dataclass's fields but _UNWRITTEN."""

    FLAGS = ["--n", "2", "--m", "1", "--N", "8", "--t-steps", "1"]

    def run(self, tmp_path, argv, name):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        assert "wallclock" not in _all_keys(doc)
        return doc

    def assert_eps_path(self, eps_path):
        assert eps_path
        for eps, rep in eps_path:
            assert isinstance(eps, float)
            assert set(rep) == _written(SolveReport)

    def test_solve(self, tmp_path):
        doc = self.run(tmp_path, ["solve", *self.FLAGS, "--H", "cos:1,0,0,0:0.5"],
                       "report.json")
        assert set(doc) == _written(SolveReport)

    def test_normalized(self, tmp_path):
        doc = self.run(tmp_path, ["normalized", *self.FLAGS, "--f", "cos:0,0,0,0:2",
                                  "--eps-schedule", "1,0.3"], "report.json")
        assert set(doc) == _written(NormalizedReport, "c")
        self.assert_eps_path(doc["eps_path"])

    def test_envelope(self, tmp_path):
        doc = self.run(tmp_path, ["envelope", *self.FLAGS, "--h", "cos:1,0,0,0:2",
                                  "--eps-schedule", "1,0.3"], "report.json")
        assert set(doc) == _written(EnvelopeReport)
        self.assert_eps_path(doc["eps_path"])

    def test_mms(self, tmp_path):
        doc = self.run(tmp_path, ["mms", "--n", "2", "--m", "1", "--N-list", "8",
                                  "--t-steps", "1"], "report.json")
        assert set(doc) == {"rows", "observed_orders"}
        assert [set(row) for row in doc["rows"]] == [_written(MmsRow)]

    def test_stability_sweep(self, tmp_path):
        doc = self.run(tmp_path, ["stability-sweep", *self.FLAGS, "--deltas", "0.1,0",
                                  "--p", "4", "--a", "0.3", "--eps-schedule", "1,0.3"],
                       "summary.json")
        assert set(doc) == {"records", "max_ratio", "min_ratio"}
        assert [set(rec) for rec in doc["records"]] == [_written(StabilityRecord)] * 2

    def test_decay(self, tmp_path):
        doc = self.run(tmp_path, ["decay", "--n", "2", "--m", "1", "--N", "8",
                                  "--phi", "cos:1,0,0,0:1", "--t-list", "0.5,1"],
                       "summary.json")
        assert set(doc) == _written(DecayReport)

    def test_verify_cone(self, tmp_path):
        doc = self.run(tmp_path, ["verify-cone", "--n", "3", "--m", "2", "--samples", "500"],
                       "report.json")
        assert set(doc) == _written(ConeSuiteReport)
        assert doc["results"]
        assert all(set(entry) == _written(InequalityResult)
                   for entry in doc["results"].values())

    def test_newton_trace(self, tmp_path):
        out = tmp_path / "solve"
        assert main(["solve", *self.FLAGS, "--H", "cos:1,0,0,0:0.5", "--out", str(out)]) == 0
        lines = (out / "newton_trace.jsonl").read_text().splitlines()
        assert lines
        assert all(set(json.loads(line)) == _written(NewtonRecord) for line in lines)


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no Infinity and no NaN."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestNonFiniteOutput:
    """A failed run writes a non-finite float as null, in every output file."""

    @pytest.mark.parametrize("argv, max_newton, nulls, newton_fails", [
        # every continuity point fails, so no cone margin is recorded: a
        # loose t < 1 point would otherwise be accepted after a halving
        (["solve", "--N", "8", "--m", "2", "--H", "cos:1,0,0,0:3", "--t-steps", "1"],
         1, ["cone_margin_min"], True),
        (["normalized", "--N", "8", "--m", "2", "--f", "cos:0,0,0,0:1+cos:1,0,0,0:0.9",
          "--t-steps", "1"], 1, ["c", "final_mismatch"], False),
        (["envelope", "--N", "16", "--m", "1", "--h", "cos:1,0,0,0:8.5"],
         2, ["complementarity_sup"], False),
    ], ids=["solve", "normalized", "envelope"])
    def test_written_as_null(self, tmp_path, monkeypatch, argv, max_newton, nulls,
                             newton_fails):
        monkeypatch.setattr(solver, "_MAX_NEWTON", max_newton)
        if newton_fails:
            real_newton = solver._newton

            def failing_newton(eq, u0, harr, cfg, t_label, trace):
                state, iters, _ = real_newton(eq, u0, harr, cfg, t_label, trace)
                return state, iters, "forced failure"

            monkeypatch.setattr(solver, "_newton", failing_newton)
        out = tmp_path / argv[0]
        assert main(argv + ["--n", "2", "--out", str(out)]) == 1
        doc = _strict_json((out / "report.json").read_text())
        assert [doc[key] for key in nulls] == [None] * len(nulls)
        _strict_json((out / "resolved_config.json").read_text())
        for line in (out / "newton_trace.jsonl").read_text().splitlines():
            _strict_json(line)


def _readme_commands():
    """The argv of each command in README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hessianlab ")]


class TestDocumentedCommands:
    def test_readme_commands_parse(self):
        # parse only: a flag removed from the CLI but left in the docs fails here
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == set(_SUBCOMMANDS)
        for argv in commands:
            build_parser().parse_args(argv)

    def test_readme_solve_reports_its_companion(self, tmp_path):
        # the documented solve is at N = 16: Newton starts from the N = 8
        # companion's interpolant, and the report says so
        argv = next(argv for argv in _readme_commands() if argv[0] == "solve")
        argv[argv.index("--out") + 1] = str(tmp_path / "solve")
        assert main(argv) == 0
        doc = json.loads((tmp_path / "solve" / "report.json").read_text())
        assert doc["start"] == "nested"
        assert set(doc["coarse"]) == _written(SolveReport)
        assert doc["coarse"]["converged"] and doc["coarse"]["coarse"] is None
        assert 0.0 < doc["resolution_estimate"] < 1e-2


class TestImportCost:
    def test_cli_import_leaves_out_scipy_stats(self):
        # the package runs on numpy alone: any scipy module loads a second
        # OpenBLAS (about 28 MB of peak RSS and 0.15 s), which every CLI run,
        # test process and benchmark worker would pay
        src = str(Path(hessianlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, hessianlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
