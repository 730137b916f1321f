#!/usr/bin/env python3
"""gs1280bench: host-time benchmark of the gs1280 simulator.

    python3 gs1280bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call builds the
simulator libraries and the driver (driver.cpp) from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; later calls rebuild incrementally.

The driver repeats one fixed workload, built from --seed, for S
seconds. This script checks every repetition, aggregates them, prints
a human-readable report and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians of untraced
repetitions); --trace 1 reports the per-layer metrics, taken from
untraced and traced repetitions alternated in the same run. The spans
of the traced repetitions are written to <build>/traces/ and the full
record of every run, with its provenance, to <build>/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("stream16", "gups32", "fault_synth", "gups512_3d_t2")

# Every metric this script emits: name -> unit. END_TO_END with
# --trace 0, PER_LAYER with --trace 1 (BENCHMARK.json lists the same).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "sim_ns_per_s": "ns/s",
    "peak_rss_mb": "MB",
}
# Deterministic counts read from the registry by the driver.
COUNTS = {
    "sim.events": "count",
    "sim.peak_pending": "count",
    "par.epochs": "count",
    "par.mailbox.arrivals": "count",
    "par.lookahead_widened": "count",
    "net.injected_packets": "count",
    "net.delivered_flits": "count",
    "net.hops_per_packet": "hops",
    "net.vc_stalls": "count",
    "net.inj_stalls": "count",
    "net.packet_pool.allocated": "count",
    "net.latency_ns": "ns",
    "net.link_busy_max": "ratio",
    "fault.drops.total": "count",
    "fault.link_failures": "count",
    "coher.misses": "count",
    "coher.msgs": "count",
    "coher.forwards": "count",
    "coher.maf_merges": "count",
    "coher.l2_hit_ratio": "ratio",
    "coher.miss_latency_ns": "ns",
    "mem.reads": "count",
    "mem.writes": "count",
    "mem.row_hit_ratio": "ratio",
    "mem.busy_frac": "ratio",
    "workload.ops": "count",
}
# Wall-clock shaped registry gauges: medians over untraced reps.
GAUGES = {
    "par.steal_count": "count",
    "par.barrier_wait_frac": "ratio",
    "mem.bytes_per_node": "B",
}
PROBES = {
    "sim.eq_probe_ns": "ns",
    "topology.route_probe_ns": "ns",
    "coher.miss_probe_ns": "ns",
    "workload.gen_probe_ns": "ns",
}
# Span-name prefixes, one per layer the driver calls into.
SPAN_LAYERS = ("bench", "system", "workload", "fault", "net", "telem",
               "sim", "topology", "coher")
PER_LAYER = dict(COUNTS)
PER_LAYER.update(GAUGES)
PER_LAYER.update(PROBES)
PER_LAYER.update({
    "sim.host_ns_per_event": "ns",
    "net.host_ns_per_flit_hop": "ns",
    "system.build_s": "s",
    "system.run_s": "s",
    "trace.overhead_pct": "%",
})
PER_LAYER.update({f"trace.self.{layer}_s": "s" for layer in SPAN_LAYERS})


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "gs1280bench")


def run_child(cmd, timeout, **kwargs):
    """Run @cmd in its own process group; on timeout kill the whole group."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit(f"gs1280bench: timed out after {timeout} s: "
                     f"{' '.join(cmd)}")
        return proc.returncode, out


def build(bdir):
    """Configure once, then build incrementally; cmake output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep compiler temporaries inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        code, _ = run_child(cmd, 840, stdout=sys.stderr, stderr=sys.stderr,
                            env=env)
        if code != 0:
            sys.exit(f"gs1280bench: build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "gs1280bench")


def median(values):
    return statistics.median(values) if values else 0.0


def source_hash():
    """sha256 of the simulator sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(bdir, args, config):
    def git_rev():
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return None  # an exported checkout: source_sha256 identifies it
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            return out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = m.group(1) if m else cpu
    except OSError:
        pass
    compiler = "unknown"
    files = os.path.join(bdir, "CMakeFiles")
    for sub in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            with open(path) as f:
                text = f.read()
            ident = re.search(r'CMAKE_CXX_COMPILER_ID "(.*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "(.*)"', text)
            if ident and ver:
                compiler = f"{ident.group(1)} {ver.group(1)}"
    return {
        "git_rev": git_rev(),
        "source_sha256": source_hash(),
        "host_cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": BUILD_TYPE,
        "compiler": compiler,
        "seed": args.seed,
        "workload": args.workload,
        "config": config,
        "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
        "seconds": args.seconds,
        "trace": args.trace,
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def self_times(spans):
    """Per-layer self time of one traced repetition's spans."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = (child.get(s["parent"], 0.0)
                                  + s["end"] - s["start"])
    out = {layer: 0.0 for layer in SPAN_LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] += s["end"] - s["start"] - child.get(s["id"], 0.0)
    return out


def span_seconds(spans, names):
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def write_trace(path, run_id, reps):
    """Chrome trace_event JSON of every traced repetition's spans."""
    events = []
    for i, r in enumerate(reps):
        for s in r["spans"]:
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": i,
                "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"run_id": run_id, "span_id": s["id"],
                         "parent": s["parent"]},
            })
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "run_id": run_id}, f)


def check(reps):
    """Failures per repetition, with the determinism guard added."""
    first = reps[0]["counts"]
    verdicts = []
    for r in reps:
        why = list(r["failures"])
        if r["counts"] != first:
            diff = sorted(k for k in first if r["counts"].get(k) != first[k])
            why.append("counts differ from the first repetition: "
                       + ", ".join(diff))
        verdicts.append(why)
    return verdicts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_child(cmd, 170, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if code != 0:
        sys.exit(f"gs1280bench: driver exited with {code}")
    run = json.loads(out)
    reps = run["reps"]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    verdicts = check(reps)
    failed = sum(1 for v in verdicts if v)
    counts = reps[0]["counts"]

    wall = median([r["wall_s"] for r in untraced])
    e2e = {
        "wall_s": wall,
        "setup_s": median([r["setup_s"] for r in untraced]),
        "cpu_s": median([r["cpu_s"] for r in untraced]),
        "sim_ns_per_s": median([r["sim_ns"] / r["wall_s"] for r in untraced]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    layer = {k: counts[k] for k in COUNTS}
    layer.update({k: median([r["gauges"][k] for r in untraced])
                  for k in GAUGES})
    flit_hops = counts["net.delivered_flits"] * counts["net.hops_per_packet"]
    layer["sim.host_ns_per_event"] = (wall * 1e9 / counts["sim.events"]
                                      if counts["sim.events"] else 0.0)
    layer["net.host_ns_per_flit_hop"] = (wall * 1e9 / flit_hops
                                         if flit_hops else 0.0)
    if traced:
        layer.update({k: median([r["probes"][k] for r in traced])
                      for k in PROBES})
        selfs = [self_times(r["spans"]) for r in traced]
        for name in SPAN_LAYERS:
            layer[f"trace.self.{name}_s"] = median([s[name] for s in selfs])
        layer["system.build_s"] = median(
            [span_seconds(r["spans"], {"system.build"}) for r in traced])
        layer["system.run_s"] = median(
            [span_seconds(r["spans"], {"system.run", "net.run_synthetic"})
             for r in traced])
        layer["trace.overhead_pct"] = (
            (median([r["wall_s"] for r in traced]) - wall) / wall * 100.0)

    prov = provenance(bdir, args, run["config"])
    ref, tol = run["paper_ref"], run["paper_tol"]
    headline = median([r["headline"] for r in untraced])
    if ref > 0:
        paper = {"paper_err_pct": (headline - ref) / ref * 100.0,
                 "paper_ref": ref, "tolerance_pct": tol * 100.0}
    else:
        paper = {"paper_err_pct": None, "note": "unvalidated: no paper "
                 "reference for this workload"}

    # Human-readable report; the result line comes last.
    print(f"gs1280bench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(untraced)} untraced + {len(traced)} "
          f"traced repetitions")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"  headline {headline:.6g} {run['headline_unit']}  "
          + json.dumps(paper))
    for name, value in e2e.items():
        print(f"  e2e   {name:28s} {value:>18.6g} {END_TO_END[name]}")
    for name, value in layer.items():
        flag = "  (lacking at this size)" if name in run["lacking"] else ""
        print(f"  layer {name:28s} {value:>18.6g} {PER_LAYER[name]}{flag}")
    for i, why in enumerate(verdicts):
        for w in why:
            print(f"  FAILED repetition {i}: {w}")

    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        run_id = f"{prov['config_sha256'][:12]}-{args.seed}-{int(time.time())}"
        write_trace(os.path.join(bdir, "traces", stem + ".json"), run_id,
                    traced)
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit}
               for k, unit in chosen.items()}
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(bdir, "results", stem + ".json"), "w") as f:
        json.dump({"provenance": prov, "paper": paper, "headline": headline,
                   "lacking": run["lacking"], "end_to_end": e2e,
                   "per_layer": layer, "verdicts": verdicts,
                   "result": result, "driver": run}, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
