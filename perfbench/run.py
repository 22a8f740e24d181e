#!/usr/bin/env python3
"""The repository benchmark: MLUPS, weak-scaling efficiency and set-up
time of every LBM-IB solver on two workloads, plus a per-layer trace.

    python3 perfbench/run.py --workload bulk-160 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke            # self-test, tiny sizes
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Run it from the root of a checkout. It builds the library and the
lbmbench binary from source with CMAKE_BUILD_TYPE=Release into
$CARGO_TARGET_DIR (default .bench_build), refuses to measure from an
unoptimised tree, runs one workload and prints, as the last line of
standard output, one JSON object: correct / attempted / failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
line before it records the build (type, vector flags, revision) and the
host; human-readable tables go to standard error.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170

# OpenMP workers pinned one per core; lbmbench leaves its std::thread
# solver teams unpinned (pinning them needs a library change).
OMP_ENV = {"OMP_PROC_BIND": "close", "OMP_PLACES": "cores"}

WORKLOADS = [
    ("bulk-160",
     "160x160x40 channel, one 20x20 sheet: fused sweep + update_velocity "
     "dominate; each 370 MB solver state is above the 300 MiB LLC, so the "
     "lbm/cube sweep layers are bandwidth-bound"),
    ("fiber-dense-64",
     "64^3 channel, four 64x64 sheets (16384 points): ib scatter (spread) "
     "and gather (move_fibers) dominate and the grid stays in the LLC"),
]

SOLVERS = ["sequential", "openmp", "cube", "dataflow", "distributed",
           "distributed2d"]
WEAK_SOLVERS = ["openmp", "cube", "distributed2d"]


def _e2e(name, unit, better, bound):
    return {"name": name, "unit": unit, "better": better, "bound": bound}


def _layer(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


END_TO_END = (
    [_e2e("mlups." + s, "MLUPS", "higher", 0.25) for s in SOLVERS]
    + [_e2e("weak_eff." + s, "ratio", "higher", 0.25) for s in WEAK_SOLVERS]
    + [_e2e("setup_s", "s", "lower", 0.25),
       _e2e("peak_rss_mib", "MiB", "lower", 0.1)])

PER_LAYER = (
    [_layer("lbm.collide_stream.ns_per_node", "ns", "lower"),
     _layer("lbm.collide_stream.model_gbps", "GB/s", "higher"),
     _layer("lbm.collide_stream.roof_frac", "ratio", "higher"),
     _layer("lbm.update_velocity.ns_per_node", "ns", "lower"),
     _layer("lbm.update_velocity.model_gbps", "GB/s", "higher"),
     _layer("lbm.update_velocity.roof_frac", "ratio", "higher"),
     _layer("lbm.reset_forces.ns_per_node", "ns", "lower"),
     _layer("lbm.step_frac", "ratio", "lower"),
     _layer("ib.fiber_forces.ns_per_point", "ns", "lower"),
     _layer("ib.spread.ns_per_point", "ns", "lower"),
     _layer("ib.spread_atomic.ns_per_point", "ns", "lower"),
     _layer("ib.spread.model_gbps", "GB/s", "higher"),
     _layer("ib.move_fibers.ns_per_point", "ns", "lower"),
     _layer("ib.step_frac", "ratio", "lower"),
     _layer("cube.collide_stream.ns_per_node", "ns", "lower"),
     _layer("cube.update_velocity.ns_per_node", "ns", "lower"),
     _layer("cube.spread.ns_per_point", "ns", "lower"),
     _layer("cube.from_planar_s", "s", "lower"),
     _layer("parallel.barrier.us_per_wait", "us", "lower"),
     _layer("parallel.team.fork_join_us", "us", "lower"),
     _layer("parallel.channel.us_per_msg", "us", "lower")]
    + [m for s in SOLVERS
       for m in (_layer("core.%s.unattributed_frac" % s, "ratio", "lower"),
                 _layer("core.%s.imbalance" % s, "ratio", "lower"))]
    + [_layer("perfmodel.triad_gbps.out_of_llc", "GB/s", "higher"),
       _layer("perfmodel.triad_gbps.in_llc", "GB/s", "higher"),
       _layer("perfmodel.fma_gflops", "GFLOP/s", "higher"),
       _layer("trace_overhead_frac", "ratio", "lower")])


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 45,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------- build --

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cmake_cache(bdir):
    """Entries of the tree's CMakeCache.txt, or None when there is none."""
    entries = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.partition("=")
                if sep and not line.startswith(("#", "//")):
                    entries[key.split(":", 1)[0]] = value.strip()
    except OSError:
        return None
    return entries


def build(bdir):
    """Configure (Release) and build lbmbench; returns the binary path.
    A tree configured with another build type, or from another source
    directory, is refused, never reused: an unoptimised or sanitized
    library runs several times slower, and `cmake --build` compiles the
    sources the tree was configured from, not this checkout's."""
    cache = cmake_cache(bdir)
    if cache is not None:
        btype = cache.get("CMAKE_BUILD_TYPE", "")
        if btype != "Release":
            raise BenchError("refusing to measure build type %r in %s "
                             "(Release required)" % (btype, bdir))
        home = cache.get("CMAKE_HOME_DIRECTORY", "")
        if os.path.realpath(home) != os.path.realpath(BENCH_DIR):
            raise BenchError("refusing to reuse %s: it was configured from "
                             "%r, not %s" % (bdir, home, BENCH_DIR))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configured = any(os.path.exists(os.path.join(bdir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", bdir, "--target", "lbmbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        raise BenchError("build failed")
    return os.path.join(bdir, "lbmbench")


def revision():
    """git revision of the checkout (suffixed -dirty when the working tree
    has changes), or a digest of the sources outside git."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


# --------------------------------------------------------------- run --

def run_binary(binary, workload, seed, seconds, trace, extra=()):
    env = dict(os.environ, **OMP_ENV)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--revision", revision()] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("lbmbench timed out")
    if proc.returncode != 0:
        raise BenchError("lbmbench exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("lbmbench printed no result")
    return json.loads(lines[-1])


def result_line(raw, trace):
    """Reduce lbmbench's record to the metric set of the manifest."""
    wanted = PER_LAYER if trace else END_TO_END
    names = {m["name"] for m in wanted}
    known = {m["name"] for m in END_TO_END + PER_LAYER}
    got = raw["metrics"]
    if not names <= set(got) or not set(got) <= known:
        raise BenchError("metric names differ from the manifest: missing %s, "
                         "unknown %s" % (sorted(names - set(got)),
                                         sorted(set(got) - known)))
    correct = bool(raw["correct"]) and raw["failed"] == 0
    metrics = {}
    for m in wanted:
        rec = got[m["name"]]
        if rec["unit"] != m["unit"]:
            raise BenchError("%s: unit %r, manifest says %r"
                             % (m["name"], rec["unit"], m["unit"]))
        value = rec["value"]
        if value is None or not math.isfinite(value):
            correct = False
            value = 0.0
        if not trace and value == 0.0:
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


# ------------------------------------------------------------- smoke --

def smoke(binary):
    """Tiny sizes, every workload and both modes: names, units, sample
    counts, bit-identical replica, and an oracle check that fires."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        if json.load(f) != manifest():
            problems.append("BENCHMARK.json differs from the manifest in "
                            "run.py (run --write-manifest)")
    for name, _ in WORKLOADS:
        for trace in (False, True):
            tag = "%s trace=%d" % (name, trace)
            raw = run_binary(binary, name, 7, 1, trace, ["--smoke"])
            try:
                line = result_line(raw, trace)
            except BenchError as e:
                problems.append("%s: %s" % (tag, e))
                continue
            if not line["correct"] or line["failed"] or not line["attempted"]:
                problems.append("%s: correct=%s attempted=%d failed=%d"
                                % (tag, line["correct"], line["attempted"],
                                   line["failed"]))
            for mname, rec in raw["metrics"].items():
                if not rec.get("unit") or rec.get("samples", 0) < 1:
                    problems.append("%s: %s lacks a unit or sample count"
                                    % (tag, mname))
    # An oracle with another relaxation time must make every check fail.
    raw = run_binary(binary, "fiber-dense-64", 7, 1, False,
                     ["--smoke", "--oracle-tau", "0.9"])
    if raw["failed"] == 0 or raw["correct"]:
        problems.append("oracle with tau=0.9 was not caught (failed=%d)"
                        % raw["failed"])
    for p in problems:
        log("SMOKE FAIL:", p)
    log("smoke: %s" % ("FAILED" if problems else "OK"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test every workload at tiny sizes")
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from the metric registry")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build(build_dir())
        if args.smoke:
            return 0 if smoke(binary) else 1
        raw = run_binary(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        line = result_line(raw, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    # The build and host record precede the result, which must be the
    # last line and carry only correct / attempted / failed / metrics.
    print(json.dumps({k: raw[k] for k in ("workload", "build", "host")}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
