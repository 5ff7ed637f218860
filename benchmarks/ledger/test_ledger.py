"""Self-test of the performance ledger.

    pytest benchmarks/ledger -p no:benchmark -q

Runs the whole ledger once with ``--quick --trace`` (one-second passes,
one set-up) and checks the contract: every workload emits every
end-to-end and every per-layer metric ``BENCHMARK.json`` names, names
are well formed, exact counts repeat under the same seed, the seed
changes what ``stage_*`` stage, traces validate, ``compare`` gates and
the driver's one-workload form prints its one JSON line.  Not part of
tier-1 (``testpaths`` is ``tests``): it takes about two minutes.
"""

import copy
import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (FAIL_RATIO, REPO_ROOT, SRC_DIR, UNGATED,  # noqa: E402
                    WORKLOAD_LAYERS, load_contract)

sys.path.insert(0, SRC_DIR)

RUN = os.path.join(HERE, "run.py")
SEED = 4242
#: counts that must not depend on the clock or the process
EXACT = ["backend_c.c_bytes", "core.parse_tokens", "passes.ir_nodes_out",
         "kernel.gemm_flops", "buildd.compiles", "buildd.xproc_hit_ratio"]
#: the gate: widening a bound is a change to the benchmark, made on purpose
BOUNDS = {"setup_s": 0.25, "vs_floor": 0.25, "peak_rss_mb": 0.10,
          "pass_ratio": 0.001}


def layer(doc, workload, metric):
    """A per-layer row: with the workload when it describes that
    workload's traced pass, in the shared table otherwise."""
    table = (doc["workloads"][workload]["per_layer"]
             if metric in WORKLOAD_LAYERS else doc["per_layer"])
    return table[metric]


def run_ledger(out, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--trace", "--seed", str(SEED),
         "--out", str(out), *extra], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(os.path.join(out, "ledger.json")) as fh:
        return json.load(fh), proc.stdout


@pytest.fixture(scope="module")
def contract():
    return load_contract()


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    doc, stdout = run_ledger(out)
    return doc, stdout, out


def test_contract_shape(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in contract["end_to_end"])
    assert {m["name"]: m["bound"] for m in contract["end_to_end"]} == BOUNDS
    assert len(contract["workloads"]) == 6


def test_every_workload_emits_every_metric(contract, ledger):
    doc, stdout, _ = ledger
    for w in contract["workloads"]:
        entry = doc["workloads"][w["name"]]
        for m in contract["end_to_end"] + UNGATED:
            row = entry["end_to_end"][m["name"]]
            assert row["unit"] == m["unit"]
            assert row["median"] > 0, (w["name"], m["name"])
            assert re.search(rf"^{w['name']}\s+{re.escape(m['name'])}\s+\S+ "
                             rf"{re.escape(m['unit'])}\s", stdout, re.M)
        for m in contract["per_layer"]:
            assert layer(doc, w["name"], m["name"])["unit"] == m["unit"]
            assert re.search(rf"^\S+\s+{re.escape(m['name'])}\s+\S+ "
                             rf"{re.escape(m['unit'])}\s", stdout, re.M)
        assert entry[FAIL_RATIO] == 0 and entry["failed"] == 0
        assert entry["end_to_end"]["pass_ratio"]["median"] == 1.0
        assert entry["samples"]["op"] > 0 and entry["samples"]["floor"] > 0


def test_cache_accounting(ledger):
    doc, _, _ = ledger
    cached = doc["workloads"]["stage_cached"]["per_layer"]
    assert cached["buildd.compiles"]["median"] == 0
    assert cached["buildd.hit_ratio"]["median"] == 1.0
    cold = doc["workloads"]["stage_cold"]["per_layer"]
    assert cold["buildd.hit_ratio"]["median"] == 0
    # gcc runs per op: one unit per bundle member
    assert cold["buildd.compiles"]["median"] == 3
    # a javalike unit is never a cross-process hit (bundle.cacheable)
    assert doc["per_layer"]["buildd.xproc_hit_ratio"]["median"] == 2 / 3


def test_machine_and_environment_block(ledger):
    doc, _, _ = ledger
    for key in ("nproc", "cpu", "python", "numpy", "blas", "cc",
                "cc_identity"):
        assert doc["machine"].get(key), key
    assert doc["env"]["pinned"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "start" in doc["load_avg"] and "end" in doc["load_avg"]


def test_traces_validate(contract, ledger):
    from repro.trace import validate_chrome
    _, _, out = ledger
    for w in contract["workloads"]:
        with open(os.path.join(out, f"trace-{w['name']}.json")) as fh:
            trace = json.load(fh)
        assert validate_chrome(trace) == []
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans and all("op" in e["args"] and "parent" in e["args"]
                             for e in spans)


def test_nothing_left_behind(ledger):
    _, _, out = ledger
    left = [n for n in os.listdir(out)
            if n != "ledger.json" and not n.startswith("trace-")]
    assert left == []


def test_exact_counts_repeat(ledger, tmp_path):
    first, _, _ = ledger
    again, _ = run_ledger(tmp_path, "--workloads", "stage_cold,gemm")
    for name in ("stage_cold", "gemm"):
        for metric in EXACT:
            assert (layer(again, name, metric)["median"]
                    == layer(first, name, metric)["median"]), (name, metric)


def test_seed_changes_the_staged_variants():
    import bundle
    inputs = bundle.Inputs(1)
    keys = [[b.key for b in itertools.islice(
        bundle.draw_bundles(seed, inputs), 16)] for seed in (1, 1, 2)]
    assert keys[0] == keys[1]
    assert keys[0] != keys[2]
    # within one draw no constant, hence no C text, repeats
    consts = [k for key in keys[0] for k in key[1:]]
    assert len(consts) == len(set(consts))


def test_compare_gates(contract, ledger, tmp_path):
    doc, _, out = ledger
    same = os.path.join(out, "ledger.json")
    proc = subprocess.run([sys.executable, RUN, "compare", same, same],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "REGRESSION" not in proc.stdout
    slower = copy.deepcopy(doc)
    slower["workloads"]["gemm"]["end_to_end"]["vs_floor"]["median"] *= 1.5
    noisy = slower["workloads"]["serve"]["end_to_end"]["vs_floor"]
    noisy["spread"] = 0.5
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    proc = subprocess.run([sys.executable, RUN, "compare", same, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    rows = {tuple(line.split()[:2]): line.split()[-1]
            for line in proc.stdout.splitlines()[1:-1]}
    assert rows[("gemm", "vs_floor")] == "REGRESSION"
    assert rows[("serve", "vs_floor")] == "unresolved"
    assert rows[("stencil", "vs_floor")] == "unchanged"
    # an ungated row gets a verdict too, in brackets, and cannot fail a run
    slower = copy.deepcopy(doc)
    slower["workloads"]["gemm"]["end_to_end"]["op_p50_ms"]["median"] *= 1.5
    path.write_text(json.dumps(slower))
    proc = subprocess.run([sys.executable, RUN, "compare", same, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "gemm         op_p50_ms" in proc.stdout
    assert "(REGRESSION)" in proc.stdout


def test_driver_form(contract, tmp_path):
    """What the benchmark driver runs: one workload, one JSON line last."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "call_warm", "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in contract[key]]
        for m in contract[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark there is nothing to
    measure: a non-zero exit and no result line."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "gemm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
