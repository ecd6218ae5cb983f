#!/usr/bin/env python3
"""Same-runner A/B of the simulator benchmark: a base revision against the
working tree.

    python3 tools/bench_ab.py <base-rev>

Checks <base-rev> out in a git worktree under .bench_ab/, then, for every
workload in BENCHMARK.json, runs
`perfbench/run.py --workload W --trace 0 --seconds <run_seconds>` from the
base tree and from this tree: 3 pairs, alternating which side runs first.
Each run's full report is copied aside before the next run starts.

Per workload and side it writes .bench_ab/<side>-<workload>.json, holding
each metric's median over the side's 3 runs, and gates the pair with
`perfbench/run.py --compare BASE NEW`: both sides ran on this host, so the
fingerprints match and the BENCHMARK.json bounds apply (the script fails if
they do not). It also fails when any run of the change reports
`correct: false`, or when the change fails a larger share of its operations
than the base.

Exit status: 0 when every workload passes, 1 otherwise. perfbench/ and
BENCHMARK.json are only read.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_ab")
PAIRS = 3


def git(*args):
    subprocess.run(["git"] + list(args), cwd=ROOT, check=True)


def run_once(tree, workload, seconds, dest):
    """One perfbench run from `tree`; returns its full report, copied to
    `dest`."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--trace", "0", "--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        sys.exit("bench_ab: %s failed in %s (exit %d)" % (" ".join(cmd[1:]), tree, r.returncode))
    path = next(line[len("report: "):] for line in r.stdout.splitlines()
                if line.startswith("report: "))
    shutil.copyfile(path, dest)
    with open(dest) as f:
        return json.load(f)


def median_report(runs):
    """The side's report for `--compare`: every metric's median over runs."""
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {"host": runs[0]["host"], "workload": runs[0]["workload"],
            "runs": len(runs), "metrics": metrics}


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: tools/bench_ab.py <base-rev>")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_tree = os.path.join(WORK, "base")
    # A run that was killed leaves its worktree behind: drop it and its
    # registration.
    shutil.rmtree(WORK, ignore_errors=True)
    git("worktree", "prune")
    os.makedirs(os.path.join(WORK, "runs"))
    git("worktree", "add", "--detach", base_tree, sys.argv[1])
    trees = {"base": base_tree, "new": ROOT}
    problems = []
    try:
        for w in (x["name"] for x in spec["workloads"]):
            runs = {"base": [], "new": []}
            for i in range(PAIRS):
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                for side in order:
                    dest = os.path.join(WORK, "runs", "%s-%s-%d.json" % (side, w, i))
                    rep = run_once(trees[side], w, spec["run_seconds"], dest)
                    runs[side].append(rep)
                    print("%-7s pair %d %-4s correct=%s failed=%d/%d op_ref=%.4f" % (
                        w, i, side, rep["correct"], rep["failed"], rep["attempted"],
                        rep["metrics"]["op_ref"]["value"]), flush=True)
            reports = {}
            for side in trees:
                reports[side] = os.path.join(WORK, "%s-%s.json" % (side, w))
                with open(reports[side], "w") as f:
                    json.dump(median_report(runs[side]), f, indent=2)
                    f.write("\n")
            if runs["base"][0]["host"] != runs["new"][0]["host"]:
                problems.append("%s: host fingerprints differ, cannot gate" % w)
            print("== %s: medians of %d runs per side" % (w, PAIRS), flush=True)
            rc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                                 "--compare", reports["base"], reports["new"]]).returncode
            if rc != 0:
                problems.append("%s: --compare found a regression beyond its bound" % w)
            if not all(run["correct"] for run in runs["new"]):
                problems.append("%s: a run of the change reported correct: false" % w)
            base_share, new_share = failed_share(runs["base"]), failed_share(runs["new"])
            if new_share > base_share:
                problems.append("%s: failed share %.4f against %.4f at the base"
                                % (w, new_share, base_share))
    finally:
        git("worktree", "remove", "--force", base_tree)
    for p in problems:
        print("FAIL " + p)
    print("bench_ab: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
