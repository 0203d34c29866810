"""CLI tests: python -m repro compile/run/experiments."""

import json

import pytest

from repro import kernels
from repro.__main__ import main
from repro.compiler import OptLevel
from tests.conftest import (
    PARENT_CACHE, PROM_LINE, SRC, python_child, retired_kernel_file,
)

DEFAULT = OptLevel.DEFAULT.name


@pytest.fixture
def p9_file(tmp_path):
    path = tmp_path / "p9.f90"
    path.write_text(kernels.PURDUE_PROBLEM9)
    return str(path)


class TestCompile:
    def test_basic(self, p9_file, capsys):
        assert main(["compile", p9_file, "--bind", "N=32",
                     "--output", "T"]) == 0
        out = capsys.readouterr().out
        assert "4 overlap shifts" in out
        assert "1 loop nests" in out

    def test_trace(self, p9_file, capsys):
        main(["compile", p9_file, "--bind", "N=32", "--output", "T",
              "--trace"])
        out = capsys.readouterr().out
        assert "=== after offset-arrays ===" in out
        assert "U<+1,-1>" in out

    def test_plan(self, p9_file, capsys):
        main(["compile", p9_file, "--bind", "N=32", "--output", "T",
              "--plan"])
        out = capsys.readouterr().out
        assert "fused subgrid loop nest" in out
        assert "rsd=[0:n1+1,*]" in out

    def test_level_o0(self, p9_file, capsys):
        main(["compile", p9_file, "--bind", "N=32", "--output", "T",
              "--level", "O0"])
        out = capsys.readouterr().out
        assert "8 full shifts" in out

    def test_missing_binding_errors(self, p9_file, capsys):
        assert main(["compile", p9_file]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_bind_format(self, p9_file):
        with pytest.raises(SystemExit):
            main(["compile", p9_file, "--bind", "N:32"])


class TestErrorPaths:
    def test_compile_missing_file(self, capsys):
        assert main(["compile", "/no/such/file.f90"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compile_non_integer_binding(self, p9_file):
        with pytest.raises(SystemExit, match="integer"):
            main(["compile", p9_file, "--bind", "N=abc"])

    def test_run_bad_grid_not_numbers(self, p9_file):
        with pytest.raises(SystemExit, match="grid"):
            main(["run", p9_file, "--bind", "N=32", "--output", "T",
                  "--grid", "2xx"])

    def test_run_bad_grid_zero_extent(self, p9_file):
        with pytest.raises(SystemExit, match="positive"):
            main(["run", p9_file, "--bind", "N=32", "--output", "T",
                  "--grid", "0x2"])

    def test_run_missing_binding(self, p9_file, capsys):
        assert main(["run", p9_file, "--output", "T"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_experiments_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "figNaN"])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["decompile", "x.f90"])


class TestBadValues:
    """Bad flag values die in the job's validation: exit code 1 and an
    ``error:`` line naming the flag's field, never a traceback."""

    @pytest.mark.parametrize("command", ["run", "trace", "profile",
                                         "metrics", "plan"])
    def test_bad_level(self, command, capsys):
        assert main([command, "purdue9", "--level", "O9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "level" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "trace", "profile",
                                         "metrics"])
    @pytest.mark.parametrize("flags,field", [
        (["--machine", "cray"], "preset"),
        (["--seed", "-1"], "seed"),
    ])
    def test_bad_run_flag(self, command, flags, field, capsys):
        assert main([command, "purdue9", "--bind", "N=16", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


class TestKernelNameOrFile:
    """Every compiling command resolves its positional the same way."""

    @pytest.mark.parametrize("command", ["compile", "run", "trace",
                                         "profile", "metrics", "plan"])
    def test_name_and_file_both_work(self, command, p9_file, capsys):
        assert main([command, "purdue9", "--bind", "N=16"]) == 0
        assert main([command, p9_file, "--bind", "N=16",
                     "--output", "T"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["compile", "run", "trace",
                                         "profile", "metrics", "plan"])
    def test_neither_is_one_error(self, command, capsys):
        assert main([command, "no_such_kernel"]) == 1
        assert "known kernels" in capsys.readouterr().err

    def test_named_kernel_run_matches_its_file(self, p9_file, capsys):
        assert main(["run", "purdue9", "--bind", "N=16", "--json"]) == 0
        by_name = capsys.readouterr().out
        assert main(["run", p9_file, "--bind", "N=16", "--output", "T",
                     "--json"]) == 0
        assert capsys.readouterr().out == by_name


class TestTrace:
    def test_named_kernel_writes_jsonl(self, tmp_path, capsys):
        import json
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "purdue9", "--level", "O4",
                     "--bind", "N=32", "-o", str(out)]) == 0
        events = [json.loads(line)
                  for line in out.read_text().splitlines()]
        assert events[0]["type"] == "trace"
        names = [e["name"] for e in events if e["type"] == "span"]
        for expected in ("compile", "pass:normalize",
                         "pass:offset-arrays", "pass:context-partition",
                         "pass:comm-union", "codegen", "execute",
                         "overlap_shift", "loop_nest"):
            assert expected in names, expected
        assert names.count("overlap_shift") == 4

    def test_tree_summary_on_stdout(self, capsys):
        assert main(["trace", "purdue9", "--bind", "N=32"]) == 0
        out = capsys.readouterr().out
        assert "compile" in out
        assert "pass:comm-union" in out
        assert "execute" in out
        assert "messages:" in out

    def test_prints_the_runs_own_numbers(self, capsys):
        """The cost lines under the tree are the run's cost report: the
        paper's unioned purdue9 sends 16 messages on 2x2."""
        from repro.kernels import run_kernel
        assert main(["trace", "purdue9", "--level", "O3",
                     "--grid", "2x2", "--bind", "N=32"]) == 0
        out = capsys.readouterr().out
        result = run_kernel("purdue9", grid=(2, 2), level="O3",
                            bindings={"N": 32})
        assert result.report.messages == 16
        line, = [ln for ln in out.splitlines()
                 if ln.startswith("messages:")]
        assert line == (f"messages: {result.report.messages} "
                        f"({result.report.message_bytes} bytes)")

    def test_json_flag_streams_jsonl(self, capsys):
        import json
        assert main(["trace", "purdue9", "--bind", "N=32",
                     "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_default_bindings_for_named_kernel(self, capsys):
        assert main(["trace", "purdue9"]) == 0  # N defaults to 64

    def test_source_file_argument(self, p9_file, capsys):
        assert main(["trace", p9_file, "--bind", "N=32",
                     "--output", "T"]) == 0
        assert "pass:comm-union" in capsys.readouterr().out

    def test_unknown_kernel_errors(self, capsys):
        assert main(["trace", "purdue99"]) == 1
        err = capsys.readouterr().err
        assert "unknown kernel" in err
        assert "purdue9" in err  # lists the valid names

    def test_level_o0_traces_full_shifts(self, capsys):
        assert main(["trace", "purdue9", "--bind", "N=32",
                     "--level", "O0"]) == 0
        out = capsys.readouterr().out
        assert "full_cshift" in out
        assert "pass:offset-arrays" not in out

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit, match="grid"):
            main(["trace", "purdue9", "--grid", "fast"])

    def test_backend_vectorized(self, capsys):
        assert main(["trace", "purdue9", "--bind", "N=32",
                     "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "execute" in out
        assert "backend=vectorized" in out

    def test_backends_charge_identical_totals(self, capsys):
        def totals(backend: str) -> str:
            assert main(["trace", "purdue9", "--bind", "N=32",
                         "--backend", backend]) == 0
            out = capsys.readouterr().out
            return out[out.index("modelled time:"):]

        assert totals("perpe") == totals("vectorized")

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["trace", "purdue9", "--backend", "mpi"])
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestProfile:
    def test_text_report(self, capsys):
        assert main(["profile", "nine_point", "--bind", "N=16"]) == 0
        out = capsys.readouterr().out
        assert "communication profile" in out
        assert "halo messages" in out
        assert "rsd messages" in out
        assert "cost-model validation" in out

    def test_opt_alias_selects_level(self, capsys):
        assert main(["profile", "nine_point", "--bind", "N=16",
                     "--opt", "O0"]) == 0
        out = capsys.readouterr().out
        assert "@O0" in out
        assert "bufshift messages" in out
        assert "halo messages" not in out

    def test_writes_profile_json(self, tmp_path, capsys):
        from repro.obs import read_profile
        out = tmp_path / "profile.json"
        assert main(["profile", "nine_point", "--bind", "N=16",
                     "--grid", "2x2", "-o", str(out)]) == 0
        profile = read_profile(str(out))
        assert profile.kernel == "nine_point"
        assert profile.level == DEFAULT
        assert profile.npes == 4

    def test_writes_chrome_trace_with_pe_tracks(self, tmp_path, capsys):
        import json
        out = tmp_path / "chrome.json"
        assert main(["profile", "nine_point", "--bind", "N=16",
                     "--grid", "4x2", "--chrome", str(out)]) == 0
        doc = json.loads(out.read_text())
        exec_tids = {e["tid"] for e in doc["traceEvents"]
                     if e["pid"] == 1}
        assert exec_tids == set(range(8))
        compile_names = {e["name"] for e in doc["traceEvents"]
                         if e["pid"] == 0 and e["ph"] == "X"}
        assert "compile" in compile_names

    def test_json_flag_streams_document(self, capsys):
        import json
        assert main(["profile", "nine_point", "--bind", "N=16",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "comm_profile"
        assert doc["profile"]["backend"] == "perpe"

    def test_backends_produce_identical_profiles(self, capsys):
        import json

        def doc(backend: str) -> dict:
            assert main(["profile", "nine_point", "--bind", "N=16",
                         "--backend", backend, "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        a, b = doc("perpe"), doc("vectorized")
        assert a["profile"]["matrix"] == b["profile"]["matrix"]
        assert a["profile"]["timeline"] == b["profile"]["timeline"]

    def test_unknown_kernel_errors(self, capsys):
        assert main(["profile", "no_such_kernel"]) == 1
        assert "unknown kernel" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["profile", "nine_point", "--backend", "serial"])
        assert exc_info.value.code == 2

    def test_source_file_argument(self, p9_file, capsys):
        assert main(["profile", p9_file, "--bind", "N=32",
                     "--output", "T"]) == 0
        assert "communication profile" in capsys.readouterr().out


class TestRun:
    def test_run_prints_checksums(self, p9_file, capsys):
        assert main(["run", p9_file, "--bind", "N=32",
                     "--output", "T"]) == 0
        out = capsys.readouterr().out
        assert "T: shape=(32, 32)" in out
        assert "modelled time:" in out
        assert "messages: 16" in out

    def test_run_deterministic_seed(self, p9_file, capsys):
        main(["run", p9_file, "--bind", "N=32", "--output", "T",
              "--seed", "5"])
        first = capsys.readouterr().out
        main(["run", p9_file, "--bind", "N=32", "--output", "T",
              "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_run_grid_option(self, p9_file, capsys):
        main(["run", p9_file, "--bind", "N=32", "--output", "T",
              "--grid", "4x2"])
        out = capsys.readouterr().out
        assert "messages: 32" in out  # 4 shifts x 8 PEs

    def test_run_oom(self, p9_file, capsys):
        assert main(["run", p9_file, "--bind", "N=2048",
                     "--output", "T", "--level", "O0",
                     "--memory-mb", "1"]) == 1
        assert "exceeds capacity" in capsys.readouterr().err

    def test_run_iters(self, p9_file, capsys):
        main(["run", p9_file, "--bind", "N=32", "--output", "T",
              "--iters", "3"])
        assert "messages: 48" in capsys.readouterr().out


class TestExperiments:
    def test_messages_experiment(self, capsys):
        assert main(["experiments", "messages"]) == 0
        out = capsys.readouterr().out
        assert "Communication unioning" in out

    def test_storage_experiment(self, capsys):
        assert main(["experiments", "storage"]) == 0
        assert "Temporary storage" in capsys.readouterr().out


class TestJsonOutput:
    def test_compile_json(self, p9_file, capsys):
        import json
        assert main(["compile", p9_file, "--bind", "N=32",
                     "--output", "T", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overlap_shifts"] == 4
        assert data["level"] == DEFAULT

    def test_run_json(self, p9_file, capsys):
        import json
        assert main(["run", p9_file, "--bind", "N=32",
                     "--output", "T", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["messages"] == 16
        assert "T" in data["checksums"]

    def test_run_json_deterministic(self, p9_file, capsys):
        main(["run", p9_file, "--bind", "N=32", "--output", "T",
              "--json"])
        first = capsys.readouterr().out
        main(["run", p9_file, "--bind", "N=32", "--output", "T",
              "--json"])
        assert capsys.readouterr().out == first


class TestPlanCommand:
    def test_text_default(self, capsys):
        assert main(["plan", "purdue9", "--bind", "N=16"]) == 0
        out = capsys.readouterr().out
        assert "overlap_shift U" in out
        assert "program:" in out

    def test_json_round_trips(self, capsys):
        from repro.plan import plan_from_json, plan_to_json
        assert main(["plan", "purdue9", "--bind", "N=16",
                     "--json"]) == 0
        doc = capsys.readouterr().out
        assert plan_to_json(plan_from_json(doc)) == doc

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        assert main(["plan", "five_point", "--json", "-o",
                     str(target)]) == 0
        import json
        assert "schema" in json.loads(target.read_text())

    def test_source_file_argument(self, p9_file, capsys):
        assert main(["plan", p9_file, "--bind", "N=16",
                     "--output", "T"]) == 0
        assert "loop nest" in capsys.readouterr().out

    def test_unknown_kernel_errors(self, capsys):
        assert main(["plan", "no_such_kernel"]) == 1
        assert "known kernels" in capsys.readouterr().err

    def test_default_level_runs_the_plan_passes(self, capsys):
        """No flag asks for them: the default level is the full
        pipeline, ``--level O4`` is the paper's."""
        argv = ["plan", "jacobi", "--bind", "N=16", "--bind", "NITER=4"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--level", "O4"]) == 0
        paper = capsys.readouterr().out
        assert "swap UNEW <-> U" in default and "swap" not in paper
        # the coefficient array's halo exchange is hoisted above the loop
        assert default.index("overlap_shift A") < default.index("do K")
        assert paper.index("do K") < paper.index("overlap_shift A")

    @pytest.mark.parametrize("flag", ["--plan-passes", "--cse"])
    def test_retired_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "jacobi", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestCacheDir:
    def test_persistent_cache_across_invocations(self, tmp_path,
                                                 capsys):
        cache_dir = str(tmp_path / "plans")
        for _ in range(2):
            assert main(["plan", "purdue9", "--bind", "N=16",
                         "--cache-dir", cache_dir]) == 0
            capsys.readouterr()
        import pathlib
        assert len(list(pathlib.Path(cache_dir).glob("*.json"))) == 1

    def test_run_with_cache_dir(self, p9_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "plans")
        args = ["run", p9_file, "--bind", "N=16", "--output", "T",
                "--cache-dir", cache_dir, "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


    def test_directory_of_an_earlier_commit(self, tmp_path, capsys,
                                            monkeypatch):
        """A ``--cache-dir`` the parent filled (plan entry plus
        ``kernels/<key>.py``, the retired kernel-source tier): the plan
        entry is a hit, and ``kernels/`` is not opened, run, pruned or
        removed — whatever the retired variables say."""
        import shutil
        cache = tmp_path / "cache"
        shutil.copytree(PARENT_CACHE, cache)
        kernel_state = retired_kernel_file(cache)
        before = kernel_state()
        monkeypatch.setenv("REPRO_COMPILED_JIT", "python")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache / "kernels"))
        metrics = tmp_path / "m.json"
        assert main(["run", "five_point", "--bind", "N=12", "--level",
                     "O2", "--backend", "vectorized", "--cache-dir",
                     str(cache), "--metrics", str(metrics),
                     "--json"]) == 0
        capsys.readouterr()
        events, = [m for m in json.loads(metrics.read_text())["metrics"]
                   if m["name"] == "repro_cache_events_total"]
        assert [(s["labels"], s["value"]) for s in events["samples"]] == \
            [({"cache": "plan-disk", "event": "hit"}, 1.0)]
        assert sorted(p.name for p in cache.iterdir()) == \
            sorted(p.name for p in PARENT_CACHE.iterdir())
        assert kernel_state() == before


class TestBackendChoices:
    def test_backend_choices_come_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "x.f90", "--backend", "no_such_backend"])
        assert "vectorized" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3", "two"])
    def test_run_rejects_bad_workers(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "five_point", "--backend", "parallel",
                  "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--backend", "compiled"], ["--jit", "python"], ["--tile", "8"],
        ["--unroll", "2"]], ids=" ".join)
    def test_compiled_and_its_flags_are_argparse_errors(self, argv,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "five_point", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[0] in err
        if argv[0] == "--backend":
            assert "'parallel', 'perpe', 'vectorized'" in err


class TestMetricsCommand:
    def test_describe_default(self, capsys):
        assert main(["metrics", "five_point", "--grid", "2x2",
                     "--bind", "N=8"]) == 0
        out = capsys.readouterr().out
        assert "repro_compiles_total [counter]" in out
        assert 'repro_exec_runs_total [counter]\n' in out
        assert '{backend="perpe"}: 1' in out

    def test_json_round_trips(self, capsys):
        import json
        assert main(["metrics", "five_point", "--bind", "N=8",
                     "--json"]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True) + "\n" == text
        assert doc["type"] == "metrics" and doc["version"] == 2
        for entry in doc["metrics"]:
            assert set(entry) - {"buckets"} == {"name", "kind", "help",
                                               "samples"}

    def test_prom_exposition(self, capsys):
        assert main(["metrics", "five_point", "--bind", "N=8",
                     "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_exec_runs_total counter" in out
        assert 'repro_exec_runs_total{backend="perpe"} 1\n' in out

    def test_prom_exposition_line_grammar(self, capsys):
        """Every line of a live run's exposition is a ``# HELP`` /
        ``# TYPE`` comment or a sample of a family typed above it."""
        assert main(["metrics", "nine_point", "--grid", "4x4",
                     "--iters", "2", "--prom"]) == 0
        lines = capsys.readouterr().out.splitlines()
        bad = [line for line in lines if not PROM_LINE.match(line)]
        assert not bad, f"malformed exposition lines: {bad[:5]}"
        typed: set[str] = set()
        samples = 0
        for line in lines:
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
            elif not line.startswith("#"):
                name = line.split("{")[0].split()[0]
                assert name in typed or name.rsplit("_", 1)[0] in typed, \
                    line
                samples += 1
        assert samples and "repro_exec_runs_total" in typed

    def test_out_suffix_dispatch(self, tmp_path, capsys):
        import json
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        for path in (prom, js):
            assert main(["metrics", "five_point", "--bind", "N=8",
                         "-o", str(path)]) == 0
        assert "wrote metrics to" in capsys.readouterr().err
        assert prom.read_text().startswith("# HELP")
        doc = json.loads(js.read_text())
        assert doc["type"] == "metrics" and doc["version"] == 2

    def test_ledger_append(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger
        path = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert main(["metrics", "five_point", "--bind", "N=8",
                         "--ledger", str(path)]) == 0
        capsys.readouterr()
        ledger = RunLedger(path)
        records = ledger.records()
        assert len(records) == 2 and ledger.corrupt_lines == 0
        rec = records[0]
        assert rec["backend"] == "perpe"
        assert len(rec["plan_key"]) == 64  # sha256 of the plan JSON
        assert rec["plan_key"] == records[1]["plan_key"]
        assert rec["factors"] == {"level": DEFAULT}
        assert rec["metrics"]["type"] == "metrics"
        assert len(ledger.fingerprints()) == 1

    def test_unknown_kernel_errors(self, capsys):
        assert main(["metrics", "no_such_kernel"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_metrics_and_ledger_flags(self, p9_file, tmp_path,
                                          capsys):
        import json
        from repro.obs.ledger import RunLedger
        mpath = tmp_path / "m.json"
        lpath = tmp_path / "l.jsonl"
        assert main(["run", p9_file, "--bind", "N=16", "--output", "T",
                     "--metrics", str(mpath),
                     "--ledger", str(lpath)]) == 0
        capsys.readouterr()
        assert json.loads(mpath.read_text())["type"] == "metrics"
        (rec,) = RunLedger(lpath).records()
        assert rec["metrics"]["type"] == "metrics"

    def test_profile_metrics_flag(self, p9_file, tmp_path, capsys):
        mpath = tmp_path / "m.prom"
        assert main(["profile", p9_file, "--bind", "N=16",
                     "--output", "T", "--metrics", str(mpath)]) == 0
        capsys.readouterr()
        assert 'repro_exec_runs_total{backend="perpe"} 1' in \
            mpath.read_text()


IN_PROCESS_PROBE = """\
import glob, json, os, sys, threading
from repro.kernels import run_kernel
from repro.runtime import parallel

def run(workers):
    return run_kernel("nine_point", bindings={"N": 768},
                      backend="parallel", workers=workers)

run(2)                      # 589,824 points: cut into two stripes
threads = threading.active_count()
run(2), run(2)
children = set()
for tid in os.listdir("/proc/self/task"):
    children |= set(open(f"/proc/self/task/{tid}/children").read().split())
print(json.dumps({
    "multiprocessing": "multiprocessing" in sys.modules,
    "pool_threads": len(parallel._pool().threads),
    "threads_after_first_run": threading.active_count() - threads,
    "children": sorted(children),
    "shm": glob.glob("/dev/shm/repro-*")}))
"""


def test_a_cached_run_never_imports_the_pinned_emitter(tmp_path):
    """``repro.codegen`` is the benchmark harness's, not the product's:
    a ``--cache-dir`` run (which used to enter its option scope) ends
    with the package absent from ``sys.modules``, and nothing under
    ``src/`` outside the package names it."""
    import re
    probe = (
        "import contextlib, io, json, sys\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = main(['run', 'nine_point', '--backend', 'vectorized',\n"
        "               '--cache-dir', sys.argv[1], '--json'])\n"
        "print(json.dumps([rc, json.loads(out.getvalue())['checksums'],\n"
        "                  sorted(m for m in sys.modules\n"
        "                         if m.startswith('repro.codegen'))]))\n")
    rc, checksums, imported = python_child(
        "-c", probe, str(tmp_path / "cache"))
    assert (rc, imported) == (0, []) and checksums
    assert list((tmp_path / "cache").iterdir())

    gate = re.compile(
        r"codegen_options|REPRO_COMPILED_|REPRO_KERNEL_CACHE|"
        r"kernel_cache_dir|CompiledExec|JIT_MODES|register_backend")
    importing = re.compile(r"^\s*(?:import|from)\s+repro\.codegen\b", re.M)
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not gate.search(text), path
        if "codegen" not in path.relative_to(SRC / "repro").parts[:1]:
            assert not importing.search(text), path


def test_parallel_run_is_quiet_and_in_process():
    """``--backend parallel`` is one process: a CLI run prints nothing
    to stderr (it used to end with a ``resource_tracker`` ``KeyError``
    traceback now and then, and always left the tracker an orphan),
    agrees with ``vectorized``, never imports ``multiprocessing``,
    starts no child, creates no ``/dev/shm`` segment, and its second
    run starts no thread."""
    import os
    import re

    child = python_child
    runs = {backend: child("-m", "repro", "run", "nine_point", "--backend",
                           backend, "--workers", "2", "--json")
            for backend in ("parallel", "vectorized")}
    assert runs["parallel"] == runs["vectorized"]
    assert runs["parallel"]["checksums"]

    assert child("-c", IN_PROCESS_PROBE) == {
        "multiprocessing": False,
        "pool_threads": max(1, (os.cpu_count() or 1) - 1),
        "threads_after_first_run": 0, "children": [], "shm": []}

    importing = re.compile(
        r"^\s*(?:import|from)\s+multiprocessing\b|shared_memory", re.M)
    assert [str(path) for path in SRC.rglob("*.py")
            if importing.search(path.read_text())] == []
