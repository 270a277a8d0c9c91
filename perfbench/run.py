#!/usr/bin/env python3
"""jqsphere benchmark: time to verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source tree that has src/jqsphere; it uses
that source and writes only under the tree's .perfbench_tmp/ and
.perfbench_out/ directories.

Every measurement runs in a fresh single-threaded interpreter
(perfbench/worker.py), one check or reduction at a time, which is how
the CLI drives the engine.

--trace 0 prints the end-to-end metrics.  Passes run one after another,
each in a fresh interpreter, as long as the next one is expected to end
within --seconds of measured time (there is always at least one); the
figures are medians over the passes.  Set-up is timed in every pass's
interpreter, plus interpreters that only set up until there are at least
five samples, and reported as their median.

--trace 1 prints the per-layer metrics: one untraced pass and one traced
pass, each in its own interpreter.  The traced pass's spans are written
to .perfbench_out/spans-WORKLOAD-seedN.tsv.gz.

Before the result the output has two comment lines: "# env" (commit,
source digest, Python, sympy and its ground types, CPUs, seed and the
held-out seed) and "# detail" (per-pass figures, verdict counts, wrong
verdicts and report digests).  The last line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# later speed claims must also hold on this seed, which no tuning used
HELD_OUT_SEED = 7919
# a run must end within 180 s; leave room to report and clean up
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # fixed hashing keeps the traced counts exact
    return env


def spawn(workload, seed, mode, workdir, deadline):
    """Run one worker; returns (set-up seconds, its JSON result)."""
    workdir.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(ROOT), workload,
        str(seed), mode, str(workdir),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=worker_env(), cwd=str(ROOT),
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker for {workload} ran past the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} failed:\n{err.strip()}")
    lines = out.strip().splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if len(ready) != 1:
        raise BenchError(f"{mode} worker for {workload} did not report set-up")
    return ready[0] - started, json.loads(lines[-1])


def verdicts(results):
    """(attempted, wrong labels).  Besides the workers' verdicts, the
    report digests count as one: every pass must give the same digest,
    and it must match the recorded one where there is a record."""
    attempted = sum(r["attempted"] for r in results) + 1
    wrong = [label for r in results for label in r["wrong"]]
    digests = {r["digest"] for r in results}
    if len(digests) != 1 or not all(r["digest_ok"] for r in results):
        wrong.append("report-digest")
    return attempted, wrong


def source_commit():
    """The checked-out commit when the tree is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    src = ROOT / "src" / "jqsphere"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(result, seed):
    return {
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "python": result["python"],
        "sympy": result["sympy"],
        "ground_types": result["ground_types"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def measure(workload, seed, seconds, workdir, deadline):
    setups, results = [], []
    measured = 0.0
    while not results or measured + results[-1]["run_s"] <= seconds:
        setup_s, result = spawn(
            workload, seed, "run", workdir / f"run{len(results)}", deadline
        )
        setups.append(setup_s)
        results.append(result)
        measured += result["run_s"]
    while len(setups) < SETUP_SAMPLES:
        setup_s, _ = spawn(workload, seed, "setup", workdir / f"setup{len(setups)}", deadline)
        setups.append(setup_s)
    metrics = {
        name: statistics.median(r[name] for r in results)
        for name in ("run_s", "run_cpu_s", "max_check_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    detail = {
        "setup_samples": setups,
        "passes": [
            {k: r[k] for k in ("run_s", "run_cpu_s", "max_check_s", "peak_rss_mb", "digest")}
            for r in results
        ],
    }
    return metrics, results, detail


def trace(workload, seed, workdir, deadline):
    _, plain = spawn(workload, seed, "run", workdir / "plain", deadline)
    _, traced = spawn(workload, seed, "trace", workdir / "traced", deadline)
    layers = dict(traced["layers"])
    per_check = layers.pop("checks")
    layers["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    shutil.move(str(workdir / "traced" / "spans.tsv.gz"), str(spans))
    detail = {
        "untraced_run_s": plain["run_s"],
        "traced_run_s": traced["run_s"],
        "digests": [plain["digest"], traced["digest"]],
        "spans": traced["spans"],
        "span_file": str(spans.relative_to(ROOT)),
    }
    return layers, per_check, [plain, traced], detail


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jqsphere" / "__init__.py").is_file():
        print(f"error: no jqsphere source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            layers, per_check, results, detail = trace(
                args.workload, args.seed, workdir, deadline
            )
            wanted = spec["per_layer"]
        else:
            layers, results, detail = measure(
                args.workload, args.seed, args.seconds, workdir, deadline
            )
            per_check = {}
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in layers:
            value = layers[name]
        elif name.startswith("checks."):
            value = per_check.get(name, 0.0)  # a check this workload does not run
        else:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}

    attempted, wrong = verdicts(results)
    detail.update(attempted=attempted, wrong=wrong, wrong_verdict_frac=len(wrong) / attempted)
    print("# env " + json.dumps(environment(results[0], args.seed)))
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
