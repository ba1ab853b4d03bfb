"""Tests of the benchmark itself, on the smoke configuration (toy sizes).

Each test runs ``perfbench/run.py --smoke`` in a subprocess, the way the
benchmark is run, and reads the result line it prints.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def bench(tmp_path, *args):
    """(exit code, parsed result line or None, stderr) of one smoke invocation."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "1",
         "--out-dir", str(tmp_path / "bench"), *args],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def mutated_src(tmp_path, file, old, new, append=""):
    """A copy of the neuromap package with one edit, as a refactor might make."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "neuromap", src / "neuromap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "neuromap" / file
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new) + append)
    return src


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


def test_every_wrapped_span_is_required_on_some_workload():
    assert {name for _, name in tracer.WRAPS} == set().union(*tracer.REQUIRED.values())
    assert set(tracer.REQUIRED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run_reports_every_metric_with_its_unit(tmp_path, workload):
    rc, result, err = bench(tmp_path, "--workload", workload)
    assert rc == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric_with_its_unit(tmp_path, workload):
    rc, result, err = bench(tmp_path, "--workload", workload, "--trace", "1")
    assert rc == 0, err
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.main.self_s"]["value"] > 0


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 5])
def test_corrupted_pinned_digest_counts_as_failure(tmp_path, seed):
    pins = json.loads((BENCH / "digests.json").read_text())
    assert "gen_cabin/101" in pins["smoke"]
    pins["smoke"]["gen_cabin/101"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(pins))
    rc, result, err = bench(tmp_path, "--workload", "gen_cabin", "--seed", str(seed),
                            "--digests", str(path))
    assert rc == 1 and not result["correct"]
    assert "differs from the pinned" in err
    if seed == workloads.DEFAULT_SEED:  # the timed runs are pinned too
        assert result["failed"] == result["attempted"] >= 2
    else:  # only the reference run at the default seed is
        assert result["failed"] == 1 and result["attempted"] >= 2


def test_missing_wrapper_target_fails_the_traced_run(tmp_path):
    src = mutated_src(tmp_path, "capture.py", "sample_random_pose", "draw_free_pose")
    rc, result, err = bench(tmp_path, "--workload", "gen_cabin", "--trace", "1", "--src", str(src))
    assert rc == 1 and not result["correct"]
    assert "neuromap.capture:sample_random_pose is missing" in err


def test_mapped_span_without_calls_fails_the_traced_run(tmp_path):
    # generate_dataset keeps drawing poses, but no longer through the wrapped name
    src = mutated_src(tmp_path, "capture.py", "[sample_random_pose(env,", "[_draw(env,",
                      append="\n_draw = sample_random_pose\n")
    rc, result, err = bench(tmp_path, "--workload", "gen_cabin", "--trace", "1", "--src", str(src))
    assert rc == 1 and not result["correct"]
    assert "recorded no call: capture.sample_random_pose" in err


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    rc, result, _ = bench(tmp_path, "--workload", "gen_cabin", "--src", str(tmp_path / "empty"))
    assert rc == 2 and result is None


def test_strip_provenance_removes_only_provenance():
    prov = {"tool": "neuromap 0.1.0", "invocation": "neuromap gen --out a", "seed": 1}
    doc = {"coverage": {"fraction": 0.5}, "provenance": prov}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert run.strip_provenance("c.json", text) == json.dumps(
        {"coverage": {"fraction": 0.5}}, indent=2, sort_keys=True) + "\n"
    header = json.dumps({"n": 2, "provenance": prov}, sort_keys=True)
    data = f"#neuromap-dataset v1\n{header}\n0,1.5\n1,2.5\n"
    assert run.strip_provenance("dataset.csv", data) == '#neuromap-dataset v1\n{"n": 2}\n0,1.5\n1,2.5\n'
    trace = "# tool: neuromap 0.1.0\n# invocation: x\n# seed: 1\ntick,time\n0,0.0\n"
    assert run.strip_provenance("trace.csv", trace) == "tick,time\n0,0.0\n"
    svg = '<?xml version="1.0"?>\n<!-- invocation: x -->\n<svg/>\n'
    assert run.strip_provenance("route.svg", svg) == '<?xml version="1.0"?>\n<svg/>\n'
    # a re-indented JSON file is hashed as written, so the change shows
    assert run.strip_provenance("c.json", json.dumps(doc)) == json.dumps(doc)
