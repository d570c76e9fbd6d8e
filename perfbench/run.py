"""qcflow benchmark: the real CLI path, timed in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flatten-16k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

One run generates the workload's inputs from the seed (``gen.py``, in its own
process), times five fresh interpreters importing ``qcflow.cli`` (set-up),
runs one untimed warm-up pass over the jitter-free reference inputs, then
runs timed passes over the seeded inputs until ``--seconds`` of pass time
have been spent. A pass calls ``qcflow.cli.main(argv)`` for each job of the
workload in turn: a closed loop with one client and no worker threads.
Every job's output is checked by ``checks.py`` after the pass, outside the
timed region; a rerun that writes the same bytes reuses the verdict.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. Pass
times and goodput are scaled to a reference machine speed: before every job
the run times a fixed kernel (``kernel_seconds``), and wall times are
multiplied by ``KERNEL_REF_S`` over the run's median kernel time. On a
shared 2-core machine the speed drifted by up to a quarter from one run to
the next; the scaling cancels most of that drift, while a change in the
program's own speed passes through unchanged. The raw wall times are
printed and kept in the result file.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, measured by wrapping the program's functions from
outside (``spans.py``); the spans are written to ``.perfbench/``.

``--workload all`` runs every workload in a fresh interpreter and prints a
table of its metrics plus ``fail_ratio`` and the failures with their
messages. ``--smoke`` uses tiny meshes and one pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. BLAS threads are
left as the environment sets them; the settings found are recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
KERNEL_REF_S = 0.03  # kernel time at the reference machine speed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import spans  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def require_program():
    missing = [p for p in ("src/qcflow/cli.py", "tests/meshes.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: program files missing from {ROOT}: {missing}")


def setup_seconds(probes):
    """Median wall time of a fresh interpreter importing ``qcflow.cli``."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qcflow.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def kernel_seconds():
    """Wall time of a fixed kernel that gauges the machine's current speed:
    an integer loop, float formatting and parsing as in OBJ I/O, and NumPy
    work. It keeps no objects that the garbage collector tracks, so the
    program's heap does not change its cost."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    text = " ".join([f"{i * 0.37:.9g}" for i in range(20_000)])
    np.sort(np.sin(np.array(text.split(), dtype=float)))
    return time.perf_counter() - start


def run_pass(cli, jobs, kernel):
    """Run every job through ``cli.main``, each after one kernel timing
    appended to ``kernel``; returns (pass seconds, outcomes)."""
    outcomes = []
    for job in jobs:
        kernel.append(kernel_seconds())
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(job["argv"])
            except SystemExit as exc:  # argparse usage error
                rc = exc.code
            except Exception:  # a traceback out of the CLI: an untyped failure
                rc = None
                err.write(traceback.format_exc())
        outcomes.append((job, rc, out.getvalue(), err.getvalue(),
                         time.perf_counter() - t0))
    return sum(o[4] for o in outcomes), outcomes


def digest(paths, stdout):
    h = hashlib.sha256(stdout.encode())
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Tally:
    """Job outcomes of the timed passes, and every problem seen.

    A job's output is checked once per distinct content: a rerun whose files
    and stdout hash the same as an output already checked gets that verdict.
    """

    def __init__(self, failures_allowed):
        self.failures_allowed = failures_allowed
        self.attempted = self.failed = 0
        self.ok_vertices = 0
        self.job_seconds = 0.0
        self.correct = True
        self.problems = {}  # (phase, job name, message) -> count
        self.verdicts = {}  # (job name, output digest) -> check_job result
        self.first = {}  # job name -> output digest of its first timed run

    def add(self, outcomes, phase):
        timed = phase == "timed"
        for job, rc, stdout, stderr, seconds in outcomes:
            if rc != 0:
                ok, accepted, problems = checks.check_job(
                    job, rc, stdout, stderr, self.failures_allowed)
            else:
                d = digest(job["outputs"], stdout)
                key = (job["name"], d)
                if key not in self.verdicts:
                    self.verdicts[key] = checks.check_job(
                        job, rc, stdout, stderr, self.failures_allowed)
                ok, accepted, problems = self.verdicts[key]
                if timed and self.first.setdefault(job["name"], d) != d:
                    ok = accepted = False
                    problems = problems + ["output differs from the first timed run"]
            self.correct &= accepted
            for msg in problems:
                key = (phase, job["name"], msg)
                self.problems[key] = self.problems.get(key, 0) + 1
            if timed:
                self.attempted += 1
                self.failed += not ok
                self.ok_vertices += job["vertices"] if ok else 0
                self.job_seconds += seconds

    def failures(self):
        return [{"phase": p, "job": j, "message": m, "count": n}
                for (p, j, m), n in self.problems.items()]


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import qcflow.cli
    import qcflow.embed
    import qcflow.flow
    import qcflow.mesh
    import qcflow.pipeline
    if not Path(qcflow.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported qcflow from {qcflow.__file__}, "
                 f"not from {ROOT / 'src'}")
    return {"cli": qcflow.cli, "pipeline": qcflow.pipeline,
            "flow": qcflow.flow, "mesh": qcflow.mesh, "embed": qcflow.embed}


def trace_metrics(tracer, traced, untraced):
    m = spans.layer_metrics(tracer.spans, tracer.counts, tracer.first,
                            len(traced))
    for prefix in ("flow.edge_swap", "pipeline.pre_swap"):
        m[prefix + ".attempts"] = m.get(prefix + ".calls", 0.0)
    pre = m["pipeline.pre_swap.attempts"]
    m["pipeline.pre_swap.ok_ratio"] = (m.get("pipeline.pre_swap.ok", 0.0) / pre
                                       if pre else 0.0)
    m["cli.self_s"] = m.get("cli.main.self_s", 0.0)
    main_s = m.get("cli.main.s", 0.0)
    m["trace.top_coverage"] = 1.0 - m["cli.self_s"] / main_s if main_s else 0.0
    m["trace.overhead_ratio"] = (statistics.median(traced)
                                 / statistics.median(untraced))
    return m


def measure(args, spec):
    require_program()
    work = STATE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(BENCH / "gen.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", str(work)] + ["--smoke"] * args.smoke,
                       cwd=ROOT, check=True, timeout=120)
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        setup_s = setup_seconds(1 if args.smoke else SETUP_PROBES)
        modules = import_program()
        cli = modules["cli"]
        tally = Tally(manifest["failures_allowed"])
        tracer = spans.Tracer(modules) if args.trace else None

        # Warm-up: untimed, on the reference inputs, traced in a traced run so
        # that the first (cold) Newton solve of the process is recorded.
        if tracer:
            tracer.install()
        _, outcomes = run_pass(cli, manifest["sets"]["ref"], [])
        if tracer:
            tracer.remove()
            tracer.reset()
        tally.add(outcomes, "warm-up")

        untraced, traced, kernel = [], [], []
        while True:
            trace_this = bool(tracer) and len(traced) < len(untraced)
            if trace_this:
                tracer.install()
            seconds, outcomes = run_pass(cli, manifest["sets"]["run"], kernel)
            if trace_this:
                tracer.remove()
            (traced if trace_this else untraced).append(seconds)
            tally.add(outcomes, "timed")
            done = sum(untraced) + sum(traced) >= args.seconds or args.smoke
            if done and (not tracer or traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = {}
    if tracer:
        values = trace_metrics(tracer, traced, untraced)
        tracer.dump(STATE / f"spans-{args.workload}-seed{args.seed}.json")
        # Exception classes raised out of the calls the CLI made.
        for sid, parent, name, _, _, error in tracer.spans:
            if error and parent >= 0 and tracer.spans[parent][2] == "cli.main":
                errors[f"{name} {error}"] = errors.get(f"{name} {error}", 0) + 1
    else:
        scale = KERNEL_REF_S / statistics.median(kernel)
        values = {
            "pass_s_p50": statistics.median(untraced) * scale,
            "vertices_per_s": tally.ok_vertices / (tally.job_seconds * scale),
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[key]}
    return {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "passes": {"untraced": untraced, "traced": traced, "kernel": kernel},
        "env": environment(), "failures": tally.failures(), "errors": errors,
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }


def result_path(workload, seed, trace):
    return STATE / f"result-{workload}-seed{seed}-trace{trace}.json"


def print_result(res):
    p = res["passes"]
    print(f"perfbench {res['workload']} seed {res['seed']}: "
          f"{len(p['untraced'])} untraced and {len(p['traced'])} traced "
          f"timed passes; {res['attempted']} jobs attempted, "
          f"{res['failed']} failed")
    print(f"raw wall pass p50 {statistics.median(p['untraced']):.6g} s; "
          f"median kernel {statistics.median(p['kernel']):.6g} s "
          f"(reference {KERNEL_REF_S} s, {len(p['kernel'])} timings)")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for f in res["failures"]:
        print(f"failure [{f['phase']}] {f['job']} x{f['count']}: {f['message']}")
    for call, n in res["errors"].items():
        print(f"raised {call} x{n}")
    for name, m in res["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")


def summary(args, spec):
    """Every workload in its own interpreter, then one table."""
    rc = 0
    rows = []
    for w in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        proc = subprocess.run(cmd, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            print(f"{w}: exit {proc.returncode}")
            rc = 1
            continue
        res = json.loads(result_path(w, args.seed, args.trace)
                         .read_text(encoding="utf-8"))
        rows.append(res)
    print()
    for res in rows:
        n = len(res["passes"]["untraced"])
        print(f"== {res['workload']} (seed {res['seed']}, {n} untraced passes, "
              f"correct {res['correct']})")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'fail_ratio':36s} {res['failed'] / res['attempted']:14.6g} 1 "
              f"({res['failed']}/{res['attempted']} jobs)")
        for f in res["failures"]:
            print(f"    [{f['phase']}] {f['job']} x{f['count']}: {f['message']}")
        for call, n in res["errors"].items():
            print(f"    raised {call} x{n}")
    return rc


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="qcflow benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]] + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny meshes and a single timed pass")
    args = p.parse_args(argv)
    if args.workload == "all":
        return summary(args, spec)
    STATE.mkdir(exist_ok=True)
    res = measure(args, spec)
    result_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(res, indent=1), encoding="utf-8")
    print_result(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
