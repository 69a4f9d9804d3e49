#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the compiler).

    python3 perfbench/selftest.py [--seed N]

Builds like run.py, then checks three properties on every workload:

  corrupt    with one expected value corrupted, a run reports a failure
             (so a wrong output cannot pass unnoticed);
  counts     two traced runs with one seed give identical count metrics
             (a count that does not repeat is unusable for claims), and
             every metric that applies to the workload is present;
  reconcile  in a traced run, the layer self times plus driver.other_ms
             add up to the traced wall time within 5%.

and, over all workloads, that every count metric is non-zero on at least
one of them (a count that reads 0 everywhere has lost its counter).

Prints one line per check and exits non-zero if any fails.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["cli-programs", "engines", "corpus", "daemon"]


def corrupt_one(workload):
    """Patches run.py's reference for one input of \\p workload."""
    if workload == "cli-programs":
        setup = run.cli_setup

        def patched(work):
            ops = setup(work)
            ops[0][0]["expect"] = {"value": "corrupted"}
            return ops
        run.cli_setup = patched
    elif workload == "corpus":
        setup = run.corpus_setup

        def patched(work):
            c = setup(work)
            c["value"] = "corrupted"
            return c
        run.corpus_setup = patched
    elif workload == "engines":
        programs = run.engine_programs

        def patched(work, rng):
            progs = programs(work, rng)
            progs[0]["expected"] = "corrupted"
            return progs
        run.engine_programs = patched
    else:
        manifest = run.daemon_manifest

        def patched(work, seed, seconds):
            m = manifest(work, seed, seconds)
            for r in m["connections"][0]["requests"]:
                if "value" in r["expect"]:
                    r["expect"] = {"value": "corrupted"}
                    break
            return m
        run.daemon_manifest = patched


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.build()
    ok = True

    def report(check, workload, passed, detail):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {check:9s} {workload:12s} "
              f"{detail}", flush=True)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    nonzero = set()
    for w in WORKLOADS:
        a1, f1, t1 = run.run_traced(w, args.seed)
        a2, f2, t2 = run.run_traced(w, args.seed)
        try:
            run.check_layers(w, t1, spec)
            run.check_layers(w, t2, spec)
            missing = ""
        except run.BenchError as e:
            missing = str(e)
        differ = [c for c in counts if t1.get(c) != t2.get(c)]
        nonzero |= {c for c in counts if t1.get(c)}
        report("counts", w, not differ and not missing and f1 == f2 == 0,
               missing or ("all counts repeat" if not differ else
                           "differ: " + ", ".join(
                               f"{c} {t1.get(c)} vs {t2.get(c)}"
                               for c in differ)))
        pct = max(t1["trace.reconcile_pct"], t2["trace.reconcile_pct"])
        report("reconcile", w, pct <= 5.0,
               f"layers + driver.other within {pct:.2f}% of traced wall "
               f"{t1['trace.wall_ms']:.1f} ms; tracing overhead "
               f"{t1['trace.overhead_ms']:.2f} ms")

    zero = [c for c in counts if c not in nonzero]
    report("counts", "all", not zero,
           "every count is non-zero on some workload" if not zero else
           "0 on every workload: " + ", ".join(zero))

    for w in WORKLOADS:
        saved = {k: getattr(run, k) for k in ("cli_setup", "corpus_setup",
                                              "engine_programs",
                                              "daemon_manifest")}
        corrupt_one(w)
        try:
            attempted, failed, _ = run.run_untraced(w, args.seed, 1)
        finally:
            for k, v in saved.items():
                setattr(run, k, v)
        report("corrupt", w, failed > 0,
               f"{failed} of {attempted} operations reported failed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
