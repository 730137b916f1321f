#!/usr/bin/env python3
"""Steadiness report for gs1280bench.

    python3 gs1280bench/steadiness.py [--first-seed 1]

Runs two sets of the same code on the same ten seeds. Set A runs
every workload of BENCHMARK.json once per seed with --trace 0, then
the first three seeds with --trace 1; set B repeats the untraced runs
of set A. For each set it reports, per end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound and a third of it. It
then compares set B's medians with set A's against the bounds,
checks that every seed's deterministic counts are the same in both
sets and in the traced run, and prints the tracing overhead, the
per-layer metrics of the traced runs and the headlines. Exits 1 if a
spread or a set-to-set change exceeds its bound, an operation failed
or a count differs. Run from the root of the checkout; the report
(Markdown) goes to stdout, progress to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run as bench  # noqa: E402

SEEDS = 10   # untraced runs per workload and set
TRACED = 3   # traced runs per workload, on the first seeds of set A


def run_once(workload, seed, seconds, trace):
    """One run.py call; the parts of its result record the report uses."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    print(" ".join(cmd[1:]), file=sys.stderr, flush=True)
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    stem = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(bench.build_dir(), "results",
                           stem + ".json")) as f:
        rec = json.load(f)
    return {"result": rec["result"], "end_to_end": rec["end_to_end"],
            "per_layer": rec["per_layer"], "headline": rec["headline"],
            "paper": rec["paper"], "lacking": rec["lacking"],
            "provenance": rec["provenance"],
            "unit": rec["driver"]["headline_unit"],
            "counts": rec["driver"]["reps"][0]["counts"]}


def worse_by(metric, first, second):
    """Change of @second against @first in @metric's bad direction."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    secs = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))

    sets = {"A": {}, "B": {}}
    traced = {}
    for label in sets:
        for name in names:
            sets[label][name] = {s: run_once(name, s, secs, 0)
                                 for s in seeds}
        if label == "A":
            for name in names:
                traced[name] = {s: run_once(name, s, secs, 1)
                                for s in seeds[:TRACED]}

    ok = True
    lines = [f"run_seconds={secs}; sets A and B both on seeds "
             f"{seeds[0]}-{seeds[-1]}; traced runs on seeds "
             f"{seeds[0]}-{seeds[TRACED - 1]}.", ""]
    medians = {}
    for label, runs_by_name in sets.items():
        lines += [f"## Set {label}", ""]
        for name in names:
            runs = runs_by_name[name]
            prov = runs[seeds[0]]["provenance"]
            lines += [f"### {name} (set {label})", "",
                      f"host {prov['host_cpu']}, nproc {prov['nproc']}, "
                      f"{prov['build_type']}, {prov['compiler']}, "
                      f"config {prov['config_sha256'][:12]}", "",
                      "| metric | median | q1 | q3 | spread | bound/3 | "
                      "bound |", "|---|---|---|---|---|---|---|"]
            for m in spec["end_to_end"]:
                vals = [r["end_to_end"][m["name"]] for r in runs.values()]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                ok &= spread <= m["bound"]
                medians[label, name, m["name"]] = statistics.median(vals)
                lines.append(f"| {m['name']} ({m['unit']}) | {med:.6g} | "
                             f"{q1:.6g} | {q3:.6g} | {spread:.4f} | "
                             f"{m['bound'] / 3:.4f} | {m['bound']} |")
            attempted = sum(r["result"]["attempted"] for r in runs.values())
            failed = sum(r["result"]["failed"] for r in runs.values())
            ok &= failed == 0
            reps = [r["result"]["attempted"] for r in runs.values()]
            lines += ["", f"operations: {attempted} attempted, {failed} "
                      f"failed; {min(reps)}-{max(reps)} repetitions a run",
                      ""]

    lines += ["## Set B against set A", "",
              "\"worse\" is the change of set B's median against set A's "
              "in the metric's bad direction; the limit is the bound.", "",
              "| workload | metric | set A | set B | B vs A | bound |",
              "|---|---|---|---|---|---|"]
    for name in names:
        for m in spec["end_to_end"]:
            a = medians["A", name, m["name"]]
            b = medians["B", name, m["name"]]
            worse = worse_by(m, a, b)
            ok &= worse <= m["bound"]
            lines.append(f"| {name} | {m['name']} | {a:.6g} | {b:.6g} | "
                         f"{worse:+.3f} | {m['bound']} |")

    lines += ["", "## Determinism and tracing overhead", "",
              "| workload | counts A == B (seeds) | counts traced == "
              "untraced (seeds) | tracing overhead (median) | traced "
              "operations failed |", "|---|---|---|---|---|"]
    for name in names:
        same_ab = sum(sets["A"][name][s]["counts"] ==
                      sets["B"][name][s]["counts"] for s in seeds)
        same_tr = sum(traced[name][s]["counts"] ==
                      sets["A"][name][s]["counts"] for s in traced[name])
        failed = sum(r["result"]["failed"] for r in traced[name].values())
        ok &= same_ab == len(seeds) and same_tr == TRACED and failed == 0
        overhead = statistics.median(r["per_layer"]["trace.overhead_pct"]
                                     for r in traced[name].values())
        lines.append(f"| {name} | {same_ab}/{len(seeds)} | "
                     f"{same_tr}/{TRACED} | {overhead:+.2f}% | {failed} |")

    lines += ["", "## Per-layer metrics (traced runs, median of "
              f"{TRACED} seeds)", "",
              "| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    for key, unit in bench.PER_LAYER.items():
        vals = [statistics.median(r["per_layer"][key]
                                  for r in traced[name].values())
                for name in names]
        lines.append(f"| {key} | {unit} | "
                     + " | ".join(f"{v:.4g}" for v in vals) + " |")
    for name in names:
        lacking = traced[name][seeds[0]]["lacking"]
        if lacking:
            lines += ["", f"{name} lacks (reads 0): " + ", ".join(lacking)]

    lines += ["", f"## Headlines (set A, median of the {SEEDS} seeds)", "",
              "| workload | headline | unit | paper |", "|---|---|---|---|"]
    for name in names:
        runs = sets["A"][name]
        first = runs[seeds[0]]
        paper = first["paper"]
        head = statistics.median(r["headline"] for r in runs.values())
        ref = (f"{paper['paper_ref']:.6g} ±{paper['tolerance_pct']:g}%, "
               f"error {(head - paper['paper_ref']) / paper['paper_ref']:+.1%}"
               if paper["paper_err_pct"] is not None else "unvalidated")
        lines.append(f"| {name} | {head:.6g} | {first['unit']} | {ref} |")

    lines += ["", f"All checks passed: {ok}"]
    print("\n".join(lines))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
