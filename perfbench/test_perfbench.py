"""The benchmark's own tests: smoke runs of every workload, the result
schema, and oracles that reject wrong outputs.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import qcflow.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert list(gen.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert res["metrics"]["cli.main.s"]["value"] > 0
    assert res["correct"]
    if workload != "qcmap-sweep":  # the sweep has typed failures by design
        assert res["failed"] == 0


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "flatten-16k", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def run_jobs(jobs):
    out = []
    for job in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = qcflow.cli.main(job["argv"])
        out.append(checks.check_job(job, rc, stdout.getvalue(),
                                    stderr.getvalue(), False))
    return out


def test_oracle_rejects_corrupted_uv(tmp_path):
    jobs = gen.generate("flatten-16k", 5, tmp_path, smoke=True)["sets"]["run"]
    assert run_jobs(jobs) == [(True, True, [])]
    out = Path(jobs[0]["check"]["out"])
    lines = out.read_text().splitlines()
    vt = [i for i, line in enumerate(lines) if line.startswith("vt ")]
    lines[vt[40]], lines[vt[41]] = lines[vt[41]], lines[vt[40]]
    out.write_text("\n".join(lines) + "\n")
    ok, accepted, problems = checks.check_job(jobs[0], 0, "", "", True)
    assert not ok and not accepted
    assert any("positively oriented" in p for p in problems)


def test_oracle_rejects_wrong_mu(tmp_path):
    jobs = gen.generate("analyze-16k", 5, tmp_path, smoke=True)["sets"]["run"]
    assert run_jobs(jobs) == [(True, True, [])] * 3
    for job in (jobs[1], jobs[0]):  # compose-mu, then the mu_f it read
        path = Path(job["check"]["out"])
        doc = json.loads(path.read_text())
        doc["mu"][7]["re"] += 1e-6
        path.write_text(json.dumps(doc))
        ok, accepted, problems = checks.check_job(job, 0, "", "", True)
        assert not ok and not accepted and "differs" in problems[0]


def test_typed_failure_is_accepted_only_where_allowed():
    job = {"check": {"kind": "qcmap"}}
    err = "error: auxiliary metric is inadmissible\n"
    assert checks.check_job(job, 1, "", err, True)[:2] == (False, True)
    assert checks.check_job(job, 1, "", err, False)[:2] == (False, False)
    assert checks.check_job(job, None, "", "Traceback ...", True)[:2] == (False, False)


def test_tracer_restores_the_program():
    import qcflow.embed
    import qcflow.flow
    import qcflow.mesh
    import qcflow.pipeline
    modules = {"cli": qcflow.cli, "pipeline": qcflow.pipeline,
               "flow": qcflow.flow, "mesh": qcflow.mesh, "embed": qcflow.embed}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = spans.Tracer(modules)
    tracer.install()
    assert qcflow.cli.load_obj is not before["cli"]["load_obj"]
    tracer.remove()
    for name, mod in modules.items():
        assert dict(vars(mod)) == before[name]


def test_rerun_with_other_output_is_flagged():
    import run
    job = {"name": "compare", "vertices": 4, "outputs": [],
           "check": {"kind": "compare", "distance": 0.5}}
    tally = run.Tally(False)
    tally.add([(job, 0, "distance 0.5\n", "", 1.0)] * 2, "timed")
    assert (tally.correct, tally.failed, tally.ok_vertices) == (True, 0, 8)
    # Within the oracle's tolerance, but not the bytes of the first run.
    tally.add([(job, 0, "distance 0.50000001\n", "", 1.0)], "timed")
    assert not tally.correct and tally.failed == 1
