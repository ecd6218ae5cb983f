#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload frame --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seconds N]   # every workload, untraced + traced
    python3 perfbench/run.py --self-test           # the benchmark's own tests
    python3 perfbench/run.py --write-pins          # re-pin the simulated outputs
    python3 perfbench/run.py --compare BASE.json NEW.json

It builds the `mcm` binary and the benchmark from source (release profile)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark
binary, whose last stdout line is the one-line JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["frame", "sweep", "tenants", "serve"]


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def release_profile_env():
    """The repository's `[profile.release]` as `CARGO_PROFILE_RELEASE_*`
    variables: the benchmark package is its own workspace, and this keeps
    one source for the profile both builds use."""
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.exists(manifest):
        sys.exit("run.py: %s not found; run from a checkout of the repository" % manifest)
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, dict):
            sys.exit("run.py: cannot pass [profile.release.%s] to the benchmark build" % key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def cargo(args, tdir):
    env = dict(os.environ, CARGO_TARGET_DIR=tdir, **release_profile_env())
    # Cargo reports on stderr; keep stdout for the benchmark's result.
    r = subprocess.run(["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(r.returncode)


def build(tdir):
    cargo(["build", "--release", "--offline", "-p", "mcm-cli"], tdir)
    cargo(["build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")], tdir)


def bench_cmd(tdir, workload, seed, seconds, trace, extra=()):
    release = os.path.join(tdir, "release")
    return [os.path.join(release, "perfbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--mcm", os.path.join(release, "mcm"),
            "--pins", os.path.join(HERE, "pins.json"),
            "--out-dir", os.path.join(tdir, "perfbench")] + list(extra)


def run_bench(cmd):
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def compare(base_path, new_path):
    """Each metric's change against its bound. The result is a gate only
    when both reports carry the same host fingerprint."""
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    same_host = base["host"] == new["host"]
    print("host fingerprints %s: %s" % (
        "match" if same_host else "differ",
        "gating" if same_host else "information only (cross-host)"))
    worse = []
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        d = declared.get(name)
        if n is None or d is None or b["value"] == 0:
            continue
        delta = (n["value"] - b["value"]) / b["value"]
        if d["better"] == "higher":
            delta = -delta
        bound = d.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "WORSE" if delta > bound else "ok"
            if delta > bound:
                worse.append(name)
        print("  %-28s %14.4f -> %14.4f %-6s %+7.1f%% worse %s" % (
            name, b["value"], n["value"], b["unit"], delta * 100, verdict))
    if worse and same_host:
        print("regressed beyond bound: " + ", ".join(worse))
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    a = p.parse_args()

    if a.compare:
        return compare(*a.compare)
    tdir = target_dir()
    build(tdir)
    if a.self_test:
        env = dict(os.environ, CARGO_TARGET_DIR=tdir, **release_profile_env(),
                   PERFBENCH_MCM=os.path.join(tdir, "release", "mcm"))
        return subprocess.run(
            ["cargo", "test", "--release", "--offline", "--manifest-path",
             os.path.join(HERE, "Cargo.toml"), "--", "--test-threads", "1"],
            cwd=ROOT, env=env).returncode
    if a.write_pins:
        pins = os.path.join(HERE, "pins.json")
        if os.path.exists(pins):
            os.remove(pins)
        for w, trace in [("frame", 0), ("sweep", 0), ("tenants", 0), ("tenants", 1)]:
            rc = run_bench(bench_cmd(tdir, w, a.seed, 1, trace, ["--write-pins"]))
            if rc != 0:
                return rc
        return 0
    if a.all:
        status = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                status |= run_bench(bench_cmd(tdir, w, a.seed, a.seconds, trace))
        return status
    if not a.workload:
        p.error("--workload is required (or --all, --self-test, --write-pins, --compare)")
    return run_bench(bench_cmd(tdir, a.workload, a.seed, a.seconds, a.trace))


if __name__ == "__main__":
    sys.exit(main())
