#!/usr/bin/env python3
"""End-to-end benchmark of the fgc compiler and the fgcd daemon.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds fgc, fgcd and the
in-process harness (perfbench/harness.cpp) from source into .bench_build/,
generates the workload's inputs from the seed, measures for the given
number of seconds, checks every output against a reference that does not
come from the compiler under test, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The workloads and the metrics are described in
perfbench/NOTES.md.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
FGC = os.path.join(CMAKE_BUILD, "fg", "driver", "fgc")
FGCD = os.path.join(CMAKE_BUILD, "fg", "driver", "fgcd")
HARNESS = os.path.join(CMAKE_BUILD, "perfbench_harness")
FGLIB = os.path.join(ROOT, "examples", "fglib")
PROGRAMS = os.path.join(ROOT, "examples", "programs")
CONFORMANCE = os.path.join(ROOT, "tests", "conformance")

# The corpus is generated with one fixed generator seed: graph shape
# moves a cold build by +-20% between generator seeds, which would drown
# any regression bound.  The run's seed picks the edits instead.
CORPUS_MODULES = 500
CORPUS_SEED = 42
CORPUS_TRACE_EDITS = 5

FGLIB_IMPORTS = [
    "eq", "ord", "semigroup", "monoid", "group", "intinstances",
    "boolinstances", "paireq", "listeq", "listops", "foldlib", "mconcat",
    "iterator", "listiter", "rangeiter", "accumulate", "sortlib", "setlib",
    "minmax", "graphlib",
]


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Building and running children
# --------------------------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "examples/fglib/fglib.fg",
                 "tests/conformance", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"source tree incomplete: {need} is missing")
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", CMAKE_BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_BUILD, "-j",
                    str(os.cpu_count() or 1), "--target", "fgc", "fgcd",
                    "perfbench_harness"], check=True, stdout=sys.stderr)


CHILD = {"pid": None}


def run_child(argv):
    """Runs argv with stdout+stderr captured.

    Returns (exit code, output, wall ms, peak RSS in KiB)."""
    r, w = os.pipe()
    t0 = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, "/dev/null", os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_DUP2, w, 2),
    ])
    CHILD["pid"] = pid
    os.close(w)
    chunks = []
    while True:
        b = os.read(r, 65536)
        if not b:
            break
        chunks.append(b)
    os.close(r)
    _, status, ru = os.wait4(pid, 0)
    wall_ms = (time.perf_counter_ns() - t0) / 1e6
    CHILD["pid"] = None
    return (os.waitstatus_to_exitcode(status),
            b"".join(chunks).decode(errors="replace"), wall_ms, ru.ru_maxrss)


def harness(mode, manifest, work):
    path = os.path.join(work, f"{mode}.manifest.json")
    manifest = dict(manifest, work=work)
    with open(path, "w") as f:
        json.dump(manifest, f)
    code, out, _, _ = run_child([HARNESS, mode, path])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"harness {mode} failed ({code}):\n{out[-2000:]}")
    return json.loads(lines[-1])


def fresh_dir(*parts):
    path = os.path.join(BUILD, "work", *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Tally:
    """What the measured windows of an untraced run add up to."""

    def __init__(self):
        self.kinds, self.windows, self.failed, self.rss_kb = {}, [], 0, 0

    def op(self, kind, ms, kb, ok, what):
        self.kinds.setdefault(kind, []).append(ms)
        self.rss_kb = max(self.rss_kb, kb)
        if not ok:
            self.failed += 1
            log(f"wrong output: {what}")


def interleaved(setup, window, seconds, min_setups):
    """Alternates a timed setup() with window(its result) until the
    windows add up to `seconds` and at least `min_setups` set-ups ran;
    returns the set-up times.  On a shared host the time of one set-up
    varies by tens of percent from one second to the next, so set-ups
    run back to back at the start would all land in one such state;
    spread over the run they see the states the windows see."""
    setup_s, measured = [], 0.0
    while measured < seconds or len(setup_s) < min_setups:
        t0 = time.perf_counter()
        state = setup()
        setup_s.append(time.perf_counter() - t0)
        w0 = time.perf_counter()
        window(state)
        measured += time.perf_counter() - w0
    return setup_s


# --------------------------------------------------------------------------
# F_G source builders and native references
# --------------------------------------------------------------------------

def fg_list(xs, ty="int"):
    out = f"nil[{ty}]"
    for x in reversed(xs):
        out = f"cons[{ty}]({x}, {out})"
    return out


def fg_value(v):
    """Renders a Python value the way fgc prints values."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, list):
        return "[" + ", ".join(fg_value(x) for x in v) + "]"
    if isinstance(v, tuple):
        return "(" + ", ".join(fg_value(x) for x in v) + ")"
    raise TypeError(v)


def fglib_module(name, body):
    head = "".join(f"import {m};\n" for m in FGLIB_IMPORTS)
    return f"module {name};\n{head}\n{body}\n"


def reachable(edges, src, dst, fuel):
    """Depth-bounded reachability, as fglib's reachable_in defines it."""
    frontier, seen = {src}, {src}
    for _ in range(fuel + 1):
        if dst in frontier:
            return True
        frontier = {b for a, b in edges if a in frontier} - seen
        seen |= frontier
    return False


# The paper's Figure 5 (dictionary-passing accumulate) and Figure 3
# (hand-threaded higher-order sum) loops.
FIG5 = """concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
let accumulate = (forall t where Monoid<t>.
  fix (fun(accum : fn(list t) -> t).
    fun(ls : list t).
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
"""
FIG3 = """let sum = (forall t.
  fix (fun(sum : fn(list t, fn(t,t) -> t, t) -> t).
    fun(ls : list t, add : fn(t,t) -> t, zero : t).
      if null[t](ls) then zero
      else add(car[t](ls), sum(cdr[t](ls), add, zero)))) in
"""

# n pseudo-random digits from seed s: the ZX81 generator s' = (75 s + 74)
# mod 65537, digit s mod 10.
LCG_LIST = """let gen = fix (fun(gen : fn(int, int) -> list int).
  fun(n : int, s : int).
    if ile(n, 0) then nil[int]
    else cons[int](imod(s, 10),
                   gen(isub(n, 1), imod(iadd(imult(s, 75), 74), 65537)))) in
"""


def lcg_list(n, s):
    out = []
    for _ in range(n):
        out.append(s % 10)
        s = (s * 75 + 74) % 65537
    return out


def sum4(expr):
    """Four passes of one loop over the same list, so list generation
    stays a small share of the run."""
    return f"iadd(iadd({expr}, {expr}), iadd({expr}, {expr}))\n"


def expectations(path):
    """The EXPECT-* header of a conformance fixture."""
    exp = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"//\s*EXPECT-(TYPE|VALUE|ERROR):\s*(.*?)\s*$", line)
            if m:
                exp[m.group(1).lower()] = m.group(2)
    return exp


def output_ok(code, out, expect):
    if "error" in expect:
        return code == 1 and expect["error"] in out
    lines = out.splitlines()
    if code != 0 or f"value: {expect['value']}" not in lines:
        return False
    return "type" not in expect or f"type: {expect['type']}" in lines


# --------------------------------------------------------------------------
# cli-programs: one fgc child at a time over examples, fglib, fixtures
# --------------------------------------------------------------------------

def cli_setup(work):
    inputs = []
    direct = sorted(os.path.join(PROGRAMS, f) for f in os.listdir(PROGRAMS)
                    if f.endswith(".fg"))
    direct += [os.path.join(PROGRAMS, "modules", "main.fg"),
               os.path.join(FGLIB, "fglib.fg")]
    refs = harness("refs", {"programs": direct}, work)["values"]
    for p in direct:
        inputs.append({"path": p, "expect": {"value": refs[p]}})
    for f in sorted(os.listdir(CONFORMANCE)):
        if not f.endswith(".fg"):
            continue
        exp = expectations(os.path.join(CONFORMANCE, f))
        if "value" in exp or "error" in exp:
            inputs.append({"path": os.path.join(CONFORMANCE, f),
                           "expect": exp})
    return [(i, b) for i in inputs for b in ("tree", "vm")]


def cli_window(tally, ops, rng):
    """One window: a seed-shuffled pass over every (input, backend), one
    fgc child at a time; an operation's kind is its (input, backend)."""
    rng.shuffle(ops)
    w0 = time.perf_counter()
    for inp, backend in ops:
        code, out, ms, kb = run_child([FGC, f"--backend={backend}",
                                       inp["path"]])
        tally.op((inp["path"], backend), ms, kb,
                 output_ok(code, out, inp["expect"]),
                 f"fgc --backend={backend} {inp['path']}")
    tally.windows.append((len(ops), time.perf_counter() - w0))


def cli_trace_manifest(ops, rng):
    rng.shuffle(ops)
    return {"ops": [{"path": i["path"], "backend": b, "expect": i["expect"]}
                    for i, b in ops], "trace_passes": 5, "trace_warmup": True}


# --------------------------------------------------------------------------
# corpus: a 500-module layered corpus, cold build then edit-rebuild rounds
# --------------------------------------------------------------------------

def corpus_graph(src_dir):
    imports = {}
    for f in os.listdir(src_dir):
        if f.endswith(".fg"):
            with open(os.path.join(src_dir, f)) as fh:
                imports[f[:-3]] = re.findall(r"^import (\w+);", fh.read(),
                                             re.M)
    users = {m: [] for m in imports}
    for m, deps in imports.items():
        for d in deps:
            users[d].append(m)
    cones = {}
    for m in imports:
        seen, stack = {m}, [m]
        while stack:
            for u in users[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        cones[m] = len(seen)
    return cones


def corpus_setup(work):
    """Generates the corpus, its reference value, and a cold build."""
    pristine = os.path.join(work, "pristine")
    live = os.path.join(work, "live")
    fgi = os.path.join(work, "fgi")
    for d in (pristine, live, fgi):
        shutil.rmtree(d, ignore_errors=True)
    code, out, _, _ = run_child([FGC, "--gen-corpus", str(CORPUS_MODULES),
                                 "--seed", str(CORPUS_SEED), "--out",
                                 pristine])
    if code != 0:
        raise BenchError(f"corpus generation failed:\n{out}")
    cones = corpus_graph(pristine)
    root = max(cones)  # The generator's root is the last module.
    value = harness("refs", {"programs": [os.path.join(pristine,
                                                       root + ".fg")]},
                    work)["values"]
    shutil.copytree(pristine, live)
    code, out, ms, kb = run_child([FGC, "--batch", "-j", "2",
                                   f"--module-cache={fgi}", live])
    if code != 0 or batch_checked(out, len(cones)) > len(cones):
        raise BenchError(f"cold corpus build failed:\n{out[-2000:]}")
    return {"pristine": pristine, "live": live, "fgi": fgi, "root": root,
            "cones": cones, "value": list(value.values())[0],
            "cold_ms": ms, "cold_kb": kb}


def corpus_edits(cones, rng):
    """Endless edit targets.  An edit's cost is set by the size of the
    cone it invalidates, so the modules are ranked by cone size and each
    cycle edits one seed-chosen module from a 6-rank window around the
    10th, 30th, 50th, 70th and 90th percentile, in seed order: every
    seed sees the same spread of edit costs."""
    ordered = sorted(cones, key=lambda m: (cones[m], m))
    n = len(ordered)
    windows = []
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        mid = int(q * n)
        windows.append(ordered[mid - 3:mid + 3])
    while True:
        for i in rng.sample(range(len(windows)), len(windows)):
            yield i, rng.choice(windows[i])


def batch_checked(out, total):
    """The number of modules a successful `fgc --batch` over `total`
    modules rechecked, from its summary line; total + 1 if the summary
    is missing or reports another module count.  A round is judged by
    success and by checked <= the edit's invalidated cone, not by the
    exact count: rechecking fewer modules is a gain, which
    modules.rechecked_per_edit reports."""
    m = re.search(r"^batch: (\d+) modules, (\d+) checked, \d+ cached$", out,
                  re.M)
    if not m or int(m.group(1)) != total:
        return total + 1
    return int(m.group(2))


def corpus_round(c, module, n):
    """One edit-rebuild round; returns (ok, wall ms, peak KiB)."""
    t0 = time.perf_counter_ns()
    with open(os.path.join(c["live"], module + ".fg"), "a") as f:
        f.write(f"// edit {n}\n")
    code, out, _, kb1 = run_child([FGC, "--batch", "-j", "2",
                                   f"--module-cache={c['fgi']}", c["live"]])
    checked = batch_checked(out, len(c["cones"]))
    ok = code == 0 and checked <= c["cones"][module]
    code, out, _, kb2 = run_child([FGC, os.path.join(c["live"],
                                                     c["root"] + ".fg")])
    ok = ok and code == 0 and f"value: {c['value']}" in out.splitlines()
    return ok, (time.perf_counter_ns() - t0) / 1e6, max(kb1, kb2)


def corpus_window(tally, c, edits):
    """One window: a cycle of five edit-rebuild rounds; a round's kind is
    the cone-size percentile its edit was drawn from."""
    tally.rss_kb = max(tally.rss_kb, c["cold_kb"])
    w0 = time.perf_counter()
    for i in range(5):
        stratum, module = next(edits)
        ok, ms, kb = corpus_round(c, module, len(tally.windows) * 5 + i)
        tally.op(stratum, ms, kb, ok, f"after editing {module}")
    tally.windows.append((5, time.perf_counter() - w0))


# --------------------------------------------------------------------------
# engines: fglib algorithms and the paper's loops on every engine
# --------------------------------------------------------------------------

def engine_programs(work, rng):
    """Seeded inputs; each expected value is computed here, natively.

    The seed picks values, never the amount of work: sorting and set
    building get distinct values in descending order (their worst case),
    the list comparison always walks both lists to the end, and the graph
    is one fixed shape whose vertices the seed relabels."""
    progs = []

    def add(name, src, expected, aot=False):
        path = os.path.join(work, name + ".fg")
        with open(path, "w") as f:
            f.write(src)
        progs.append({"name": name, "path": path,
                      "expected": fg_value(expected), "aot": aot})

    xs = sorted(rng.sample(range(10000), 200), reverse=True)
    add("e_sort", fglib_module("e_sort", f"let xs = {fg_list(xs)} in\n"
                               "let s = isort[int](xs) in\n"
                               "(s, is_sorted[int](s))"),
        (sorted(xs), True))
    ys = [rng.randrange(1000) for _ in range(300)]
    zs = ys[:-1] + [ys[-1] + rng.randrange(2)]
    add("e_eq", fglib_module("e_eq", f"Eq<list int>.eq({fg_list(ys)}, "
                             f"{fg_list(zs)})"), ys == zs)
    ws = [rng.randrange(100) for _ in range(400)]
    add("e_accumulate", fglib_module("e_accumulate",
                                     f"accumulate[list int]({fg_list(ws)})"),
        sum(ws))
    vs = [v for v in sorted(rng.sample(range(10000), 100), reverse=True)
          for _ in range(2)]
    add("e_set", fglib_module("e_set", "Set<list int>.set_size("
                              f"set_of_list[int]({fg_list(vs)}))"),
        len(set(vs)))
    shape = random.Random(2005)
    label = rng.sample(range(10), 10)
    edges = [(label[shape.randrange(10)], label[shape.randrange(10)])
             for _ in range(20)]
    queries = [(label[shape.randrange(10)], label[shape.randrange(10)])
               for _ in range(4)]
    g = fg_list([f"({a}, {b})" for a, b in edges], "(int * int)")
    body = ", ".join(f"reachable_in(g, {a}, {b}, 5)" for a, b in queries)
    add("e_reach", fglib_module("e_reach", f"let g = {g} in\n({body})"),
        tuple(reachable(edges, a, b, 5) for a, b in queries))
    # The loops' 512-element inputs are generated at run time, so the
    # AOT host compile does not have to digest a 512-deep literal.
    s = rng.randrange(1, 65537)
    add("fig5_dict_loop", FIG5 + LCG_LIST + f"let xs = gen(512, {s}) in\n"
        + sum4("accumulate[int](xs)"), 4 * sum(lcg_list(512, s)), aot=True)
    s = rng.randrange(1, 65537)
    add("fig3_hof_loop", FIG3 + LCG_LIST + f"let xs = gen(512, {s}) in\n"
        + sum4("sum[int](xs, iadd, 0)"), 4 * sum(lcg_list(512, s)), aot=True)
    return progs


def engines_manifest(work, seed, seconds):
    progs = engine_programs(work, random.Random(seed))
    return {"programs": progs, "search": [FGLIB], "seed": seed,
            "seconds": seconds, "setup_reps": 4,
            "aot_cache": os.path.join(work, "aot-cache"), "aot_repeat": 20,
            "trace_rounds": 5, "trace_warmup": False}


# --------------------------------------------------------------------------
# daemon: fgcd over a Unix socket, two closed-loop connections
# --------------------------------------------------------------------------

def fixture_programs():
    """(source, type) of every conformance fixture that typechecks."""
    out = []
    for f in sorted(os.listdir(CONFORMANCE)):
        path = os.path.join(CONFORMANCE, f)
        if f.endswith(".fg"):
            exp = expectations(path)
            if "type" in exp and "error" not in exp:
                with open(path) as fh:
                    out.append((fh.read(), exp["type"]))
    return out


def deck(items, rng):
    """Endless draws that use every item once per seed-shuffled round,
    so every seed sends the same mix."""
    while True:
        for i in rng.sample(items, len(items)):
            yield i


def daemon_manifest(work, seed, seconds):
    rng = random.Random(seed)
    progs_dir = os.path.join(work, "progs")
    os.makedirs(progs_dir, exist_ok=True)
    runs = []
    for i in range(6):
        xs = [rng.randrange(100) for _ in range(20)]
        name = f"d_run{i}"
        if i % 2:
            src, val = (f"accumulate[list int]({fg_list(xs)})", sum(xs))
        else:
            src, val = f"isort[int]({fg_list(xs)})", sorted(xs)
        path = os.path.join(progs_dir, name + ".fg")
        with open(path, "w") as f:
            f.write(fglib_module(name, src))
        runs.append((path, fg_value(val)))
    fixtures = deck(fixture_programs(), rng)
    run_progs = deck(runs, rng)
    backends = deck(["tree", "vm"], rng)

    def req(method, params, expect, kind=None):
        return {"line": json.dumps({"id": 1, "method": method,
                                    "params": params}), "expect": expect,
                "kind": kind or method}

    def block():
        """One reset-delimited stretch of a connection's traffic."""
        others = []
        for _ in range(4):  # Fresh variants: artifact-cache misses.
            src, ty = next(fixtures)
            others.append(req("check", {"source": "let perfbench_u = @N@ in\n"
                                        + src}, {"type": ty}, "check-fresh"))
        for _ in range(6):  # Byte-identical re-checks: hits.
            src, ty = next(fixtures)
            others.append(req("check", {"source": src}, {"type": ty}))
        for _ in range(4):  # Path runs of fglib programs.
            path, val = next(run_progs)
            backend = next(backends)
            others.append(req("run", {"path": path, "backend": backend,
                                      "optimize": 0}, {"value": val},
                              "run-" + backend))
        rng.shuffle(others)
        repl, vals = [], []
        for i in range(5):  # Declarations grow the scope; reads query it.
            v = rng.randrange(1000)
            vals.append(v)
            repl.append(req("eval", {"input": f"let x{i} = {v}"},
                            {"type": "int"}, "eval-decl"))
            j = rng.randrange(len(vals))
            repl.append(req("type", {"expr": f"x{j}"}, {"type": "int"}))
        a, b = rng.randrange(5), rng.randrange(5)
        repl.append(req("eval", {"input": f"iadd(x{a}, x{b})"},
                        {"value": str(vals[a] + vals[b])}))
        merged = []
        while others or repl:
            pick = others if (others and (not repl or rng.random() < 0.5)) \
                else repl
            merged.append(pick.pop(0))
        return [req("reset", {}, {})] + merged

    conns = []
    for c in range(2):
        reqs = [r for _ in range(16) for r in block()]
        conns.append({"counter_base": (seed % 1000) * 10**9 + c * 10**8,
                      "requests": reqs})
    return {"connections": conns, "search": [FGLIB], "fgcd": FGCD,
            "seed": seed, "seconds": seconds, "setup_reps": 10,
            "trace_requests": 400, "trace_warmup": True}


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

# The per-layer metrics each workload's traced pass produces.  The
# others do not apply to it and print as 0.
COMMON_LAYERS = [
    "driver.startup_ms", "driver.other_ms", "syntax.header_scan_ms",
    "syntax.lex_ms", "syntax.parse_ms", "syntax.tokens", "core.check_ms",
    "core.model_resolutions", "core.model_cache_hit_pct",
    "core.congruence_queries", "systemf.eval_ms", "systemf.eval_steps",
    "systemf.first_run_ms", "trace.wall_ms", "trace.untraced_wall_ms",
    "trace.overhead_ms", "trace.bookkeeping_ms", "trace.reconcile_pct",
    "trace.ops",
]
VM_LAYERS = ["vm.emit_ms", "vm.instructions_emitted", "vm.run_ms",
             "vm.instructions_executed", "vm.ic_hit_pct"]
LAYERS = {
    "cli-programs": COMMON_LAYERS + VM_LAYERS + [
        "modules.load_ms", "modules.link_ms", "systemf.verify_ms"],
    "engines": COMMON_LAYERS + VM_LAYERS + [
        "modules.load_ms", "modules.link_ms", "systemf.optimize_ms",
        "systemf.nodes_after_O2", "vm.speedup_vs_tree_pct", "aot.emit_ms",
        "aot.cpp_bytes", "aot.host_compile_s", "aot.run_ms",
        "aot.speedup_vs_vm_pct", "run_ms.tree", "run_ms.vm", "run_ms.vm.O2",
        "run_ms.aot"],
    "corpus": COMMON_LAYERS + [
        "modules.load_ms", "modules.link_ms", "modules.instantiate_ms",
        "modules.instantiate_calls", "modules.serialize_ms",
        "modules.batch_ms", "modules.rechecked_per_edit",
        "modules.cache_hit_pct", "modules.wavefront_max_width",
        "cold_build_s", "link_run_ms"],
    "daemon": COMMON_LAYERS + VM_LAYERS + [
        "systemf.verify_ms", "server.session_ms", "server.transport_ms",
        "server.json_us", "server.cache_hit_pct"],
}


def check_layers(workload, values, spec):
    """Fails unless the traced pass produced every per-layer metric that
    applies to the workload.  A count that applies and reads 0 means its
    support/Stats counter was renamed or removed, which would otherwise
    print as a plausible 0 and repeat exactly across runs."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in LAYERS[workload]:
        if name not in values:
            raise BenchError(f"traced {workload} run lacks {name}")
        if units[name] in ("count", "bytes") and values[name] <= 0:
            raise BenchError(f"traced {workload} run reads {name} = 0: "
                             "its counter is gone")


def end_to_end(percentiles, windows, setup_s, rss_mb):
    """ops_per_s is the median over the run's windows of each window's
    throughput, so a burst of host contention moves a few windows rather
    than the reported value.  percentiles gives wall_ms_p50/p90."""
    p50, p90 = percentiles
    return {"setup_s": statistics.median(setup_s),
            "wall_ms_p50": p50, "wall_ms_p90": p90,
            "ops_per_s": statistics.median(n / e for n, e in windows),
            "peak_rss_mb": rss_mb}


def kind_percentiles(kinds):
    """p50 and p90 over operation kinds of each kind's median latency:
    where a workload repeats a fixed set of operations, a host stall hits
    a few samples of a kind and leaves its median alone."""
    meds = [statistics.median(v) for v in kinds.values() if v]
    # Inclusive, so p90 interpolates between kind medians and never
    # extrapolates past the slowest one.
    return (statistics.median(meds),
            statistics.quantiles(meds, n=10, method="inclusive")[8])


def time_slices(ends, elapsed):
    """The daemon's (requests, seconds) windows: one per whole second of
    the run, by completion time."""
    counts = [0] * int(elapsed)
    for end in ends:
        if int(end) < len(counts):
            counts[int(end)] += 1
    return [(c, 1.0) for c in counts if c]


def run_untraced(workload, seed, seconds):
    rng = random.Random(seed)
    work = fresh_dir(workload)
    if workload in ("cli-programs", "corpus"):
        t = Tally()
        if workload == "cli-programs":
            setup_s = interleaved(lambda: cli_setup(work),
                                  lambda ops: cli_window(t, ops, rng),
                                  seconds, 15)
        else:
            # The edit targets continue across set-ups; every set-up
            # restores the same unedited, freshly built corpus.
            edits = []

            def window(c):
                if not edits:
                    edits.append(corpus_edits(c["cones"], rng))
                corpus_window(t, c, edits[0])
            setup_s = interleaved(lambda: corpus_setup(work), window,
                                  seconds, 4)
        pcts = kind_percentiles(t.kinds)
        windows, failed, rss = t.windows, t.failed, t.rss_kb / 1024
    else:
        # Here set-up is the program's own: compiling the programs and
        # the AOT host compiles, or starting fgcd until it answers.
        # Generating the manifest is the benchmark's, and is not timed.
        if workload == "engines":
            manifest = engines_manifest(work, seed, seconds)
        else:
            manifest = daemon_manifest(work, seed, seconds)
        r = harness(workload, manifest, work)
        setup_s = r["setup_s"]
        pcts = kind_percentiles(r["kinds"])
        if workload == "engines":
            windows = list(zip(r["window_ops"], r["window_s"]))
        else:
            windows = time_slices(r["end_s"], r["elapsed_s"])
        rss, failed = r["peak_rss_mb"], int(r["failed"])
    attempted = sum(n for n, _ in windows)
    if workload in ("engines", "daemon"):
        attempted = int(r["attempted"])
    return attempted, failed, end_to_end(pcts, windows, setup_s, rss)


def run_traced(workload, seed):
    rng = random.Random(seed)
    work = fresh_dir(workload)
    manifest = {"workload": workload, "seed": seed, "fgc": FGC,
                "trace_out": os.path.join(work, "trace.json"), "search": []}
    extra = {}
    if workload == "cli-programs":
        manifest.update(cli_trace_manifest(cli_setup(work), rng))
    elif workload == "engines":
        manifest.update(engines_manifest(work, seed, 0))
    elif workload == "daemon":
        manifest.update(daemon_manifest(work, seed, 0))
    else:
        setups = [corpus_setup(work) for _ in range(3)]
        cold = [s["cold_ms"] / 1e3 for s in setups]
        c = setups[-1]
        edits = corpus_edits(c["cones"], rng)
        traced = os.path.join(work, "traced")
        chosen = [next(edits)[1] for _ in range(CORPUS_TRACE_EDITS)]
        manifest.update({
            "corpus_dir": traced, "pristine_dir": c["pristine"],
            "fgi_dir": os.path.join(work, "traced-fgi"),
            "root_path": os.path.join(traced, c["root"] + ".fg"),
            "trace_warmup": False,
            "expected": c["value"],
            "edits": [{"path": os.path.join(traced, m + ".fg"),
                       "cone": c["cones"][m]} for m in chosen]})
        link_run = [run_child([FGC, os.path.join(c["pristine"],
                                                 c["root"] + ".fg")])[2]
                    for _ in range(5)]
        extra = {"cold_build_s": statistics.median(cold),
                 "link_run_ms": statistics.median(link_run)}
    r = harness("trace", manifest, work)
    log(f"trace written to {manifest['trace_out']}")
    r.update(extra)
    return int(r["attempted"]), int(r["failed"]), r


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    signal.alarm(170)
    if args.trace:
        attempted, failed, values = run_traced(args.workload, args.seed)
        check_layers(args.workload, values, spec)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values = run_untraced(args.workload, args.seed,
                                                 args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def on_alarm(signum, frame):
    raise BenchError("time limit reached")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, on_alarm)
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        if CHILD["pid"]:
            try:
                os.kill(CHILD["pid"], signal.SIGKILL)
                os.waitpid(CHILD["pid"], 0)
            except OSError:
                pass
        log(f"error: {e}")
        sys.exit(2)
