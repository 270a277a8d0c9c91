"""One benchmark process: set up a workload, then run one pass over it.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE WORKDIR

MODE is one of
  setup  set up and exit (a set-up time sample)
  run    set up, then one pass over the workload's inputs
  trace  the same, with every layer entry point wrapped in spans

Each pass gets an interpreter of its own, so every pass starts equally
cold and passes of a fast and a slow commit compare like with like.

The worker prints "ready <time.monotonic()>" once set-up is done, so the
parent can time set-up from before it started this interpreter, and
then one JSON line with what it measured.  It imports jqsphere from
ROOT/src and from nowhere else.
"""

import json
import resource
import sys
import time
import types
from pathlib import Path


def import_jqsphere(root):
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import jqsphere
    from jqsphere import catalog, checks, exprparse, jordanian, ncalg

    origin = Path(jqsphere.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"jqsphere imported from {origin}, not from {src}")
    return types.SimpleNamespace(
        catalog=catalog, checks=checks, exprparse=exprparse,
        jordanian=jordanian, ncalg=ncalg,
    )


def main(argv):
    root, workload_name, seed, mode, workdir = argv
    seed = int(seed)
    jq = import_jqsphere(root)
    # bench modules sit next to this file, which is sys.path[0]
    import tracing
    import workloads

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.make(workload_name)
    workload.prepare(jq, seed, workdir)
    print(f"ready {time.monotonic()!r}", flush=True)
    if mode == "setup":
        print(json.dumps({}))
        return 0

    if tracer is not None:
        tracer.begin_root()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    verdicts = workload.run_pass()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        traced_wall = tracer.end_root()
    digest = workloads.report_digest(workload.reports)

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    result = {
        "run_s": wall,
        "run_cpu_s": cpu,
        "max_check_s": longest_check(verdicts),
        "attempted": len(verdicts),
        "wrong": [v.label for v in verdicts if v.wrong],
        "digest": digest,
        "digest_ok": workload.expected_digest in (None, digest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, workload, traced_wall)
        out = Path(workdir) / "spans.tsv.gz"
        tracer.write_spans(out)
        result["spans"] = len(tracer.rec_name)
    print(json.dumps(result))
    return 0


def longest_check(verdicts):
    """The slowest check: its time on one catalog, or its mean time over
    the catalogs of a pass that runs it on several."""
    times = {}
    for v in verdicts:
        if v.check is not None:
            times.setdefault(v.check, []).append(v.seconds)
    return max(sum(t) / len(t) for t in times.values())


LOOKUPS = (
    "jordanian.system", "jordanian.morphism", "jordanian.relations", "jordanian.hopf",
    "jordanian.matrix", "jordanian.coaction", "jordanian.pairing", "jordanian.element",
)


def layer_metrics(tracer, workload, wall):
    """Per-layer figures of the traced pass (set-up included, since the
    traced process also wraps set-up's catalog load)."""
    out = {}

    def calls(name):
        return tracer.totals(name)[0]

    def self_s(name):
        return tracer.totals(name)[2]

    def miss_ratio(name):
        n, miss, _ = tracer.totals(name)
        return miss / n if n else 0.0

    ops = tracer.op_calls
    n_ops = sum(ops.values())
    out["scalars.add.calls"] = ops["add"]
    out["scalars.mul.calls"] = ops["mul"]
    out["scalars.div.calls"] = ops["div"]
    out["scalars.arith.self_s"] = tracer.op_s
    out["scalars.arith.us_per_call"] = tracer.op_s / n_ops * 1e6 if n_ops else 0.0
    for name in ("scalars.substitute", "scalars.render"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("ncalg.poly_add", "ncalg.poly_mul", "ncalg.from_word"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["ncalg.scale.self_s"] = self_s("ncalg.scale")
    for name in ("rewrite.complete", "rewrite.nf_word", "rewrite.normal_form"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["rewrite.interreduce.self_s"] = self_s("rewrite.interreduce")
    out["rewrite.nf_word.miss_ratio"] = miss_ratio("rewrite.nf_word")
    out["rewrite.verify_certificate.self_s"] = self_s("rewrite.verify_certificate")
    out["rewrite.rules"] = tracer.rules
    out["rewrite.ambiguities"] = tracer.ambiguities
    out["hopf.apply.calls"] = calls("hopf.apply")
    out["hopf.apply.self_s"] = self_s("hopf.apply")
    out["hopf.word_image.calls"] = calls("hopf.word_image")
    out["hopf.word_image.miss_ratio"] = miss_ratio("hopf.word_image")
    for name in ("hopf.expand", "hopf.contract", "hopf.convolve"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("pairing.pair", "pairing.pair_words", "pairing.action"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["pairing.pair_words.miss_ratio"] = miss_ratio("pairing.pair_words")
    out["catalog.load.self_s"] = self_s("catalog.load")
    out["exprparse.parse_scalar.calls"] = calls("exprparse.parse_scalar")
    out["exprparse.parse_scalar.self_s"] = self_s("exprparse.parse_scalar")
    out["jordanian.system.calls"] = calls("jordanian.system")
    out["jordanian.system.miss_ratio"] = miss_ratio("jordanian.system")
    out["jordanian.morphism.miss_ratio"] = miss_ratio("jordanian.morphism")
    out["jordanian.lookup.self_s"] = sum(self_s(name) for name in LOOKUPS)
    per_check = {}
    for report in workload.reports:
        key = f"checks.{report.check_id}.s"
        per_check[key] = per_check.get(key, 0.0) + report.elapsed_ms / 1000.0
    out["checks"] = per_check
    out["trace.unattributed_frac"] = tracer.unattributed_s(wall) / wall
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
