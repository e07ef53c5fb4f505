"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bench/run.py"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_emits_every_named_metric_with_its_unit():
    done = _run(*RUN, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"


def test_result_line_and_modelled_statistics_repeat(tmp_path):
    records = []
    for trace in ("0", "1"):
        record = tmp_path / f"trace{trace}.json"
        done = _run(*RUN, "--workload", "paper", "--seed", "7", "--seconds", "0.5",
                    "--trace", trace, "--record", str(record))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        records.append(str(record))
    done = _run("bench/compare.py", *records)
    assert done.returncode == 0, done.stdout


def test_compare_reports_a_changed_statistic(tmp_path):
    base = {"workload": "mds", "seed": 1,
            "modelled": [{"descent_iters": 90, "pauli_terms": 136, "success_prob": 0.5}]}
    changed = json.loads(json.dumps(base))
    changed["modelled"][0]["success_prob"] += 1e-9
    paths = []
    for name, record in (("a", base), ("b", changed)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    done = _run("bench/compare.py", *map(str, paths))
    assert done.returncode == 1
    assert "success_prob" in done.stdout


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(*RUN, "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
