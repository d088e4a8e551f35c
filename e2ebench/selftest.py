#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark. Run from the repository root:

    python3 e2ebench/selftest.py

Builds the driver (through run.py) and checks, with the shortest runs the
driver allows (--seconds 0: the minimum number of repetitions), that:
  * every metric name and unit printed matches BENCHMARK.json, for both
    --trace 0 (end_to_end) and --trace 1 (per_layer);
  * a deliberately wrong expected digest makes failed > 0, correct false and
    the command exit nonzero;
  * untimed work injected on the blocking path, the restart path and the
    driver's wall clock fails each of the three reconciliation checks;
  * reduce.*, flush.* and qos.* read 0 on the workloads that bypass those
    layers, and each workload shows the layer split it was chosen for;
  * the traced run writes a well-formed Chrome trace-event array;
  * the same seed repeats the model fingerprint bit for bit, and reports
    which simulated metrics a different seed moves;
  * in a directory holding only BENCHMARK.json and this directory, the
    command fails fast without printing a result.
Exits nonzero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def run(workload, seed=1, trace=0, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--trace-dir", TRACES, *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout


def fingerprint(stdout):
    m = re.search(r"model fingerprint (\w+)", stdout)
    sims = dict(re.findall(r"^  sim (\S+) = (\S+)$", stdout, re.M))
    return (m.group(1) if m else None), sims


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--help"],
                           capture_output=True, text=True)
    if not os.path.exists(BINARY):
        fail("build failed:\n" + build.stderr[-2000:])
    workloads = [w["name"] for w in spec["workloads"]]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    layers = {}
    seed1 = {}
    for w in workloads:
        for trace, expect in ((0, e2e_units), (1, layer_units)):
            code, res, out = run(w, trace=trace)
            if code != 0 or res is None or not res["correct"] or res["failed"] != 0:
                fail(f"{w} --trace {trace}: exit {code}\n{out[-3000:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect:
                fail(f"{w} --trace {trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(expect) - set(got))}, "
                     f"extra {sorted(set(got) - set(expect))}, "
                     f"units {[k for k in got if k in expect and got[k] != expect[k]]}")
            if trace == 0:
                seed1[w] = fingerprint(out)
            else:
                layers[w] = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"ok   {w}: metric names and units match BENCHMARK.json")

        path = os.path.join(TRACES, f"{w}-seed1.trace.json")
        with open(path) as f:
            events = json.load(f)
        if not isinstance(events, list) or not events:
            fail(f"{path}: not a non-empty JSON array")
        for e in events:
            if not {"name", "ph", "pid"} <= e.keys():
                fail(f"{path}: event without name/ph/pid: {e}")
            if e["ph"] == "X" and not {"ts", "dur", "tid"} <= e.keys():
                fail(f"{path}: complete event without ts/dur/tid: {e}")
        print(f"ok   {w}: trace {os.path.relpath(path, ROOT)} has {len(events)} events")

    def positive(w, k):
        return layers[w][k] > 0

    for w in workloads:
        for k, v in layers[w].items():
            bypass = ((k.startswith("reduce.") or k.startswith("flush.")) and w != "incremental-commit") or \
                     (k.startswith("qos.") and w != "tenant-mix")
            if bypass and v != 0:
                fail(f"{w}: {k} = {v}, expected 0 on a workload that bypasses the layer")
    for k in ("reduce.chunks", "flush.drains"):
        if not positive("incremental-commit", k):
            fail(f"incremental-commit: {k} is 0")
    for k in ("qos.writer.provider_wait_s", "qos.reader.prefetch_wait_s"):
        if not positive("tenant-mix", k):
            fail(f"tenant-mix: {k} is 0")
    hints = {w: layers[w]["core.hints"] for w in workloads}
    if max(hints, key=hints.get) != "paper-restart":
        fail(f"core.hints is not largest on paper-restart: {hints}")
    print("ok   layer split: reduce/flush only on incremental-commit, qos only on tenant-mix, "
          f"core.hints largest on paper-restart {hints}")

    code, res, out = run("incremental-commit", extra=["--corrupt-expected"])
    if code == 0 or res is None or res["failed"] == 0 or res["correct"]:
        fail(f"wrong expected digest was not caught: exit {code}, result {res}")
    print(f"ok   wrong expected digest: exit {code}, failed {res['failed']} of {res['attempted']}")

    code, res, out = run("incremental-commit", trace=1, extra=["--inject-gap"])
    caught = [c for c in ("blocked", "restart", "wall")
              if re.search(rf"^problem: reconciliation: {c}: ", out, re.M)]
    if code == 0 or res is None or res["correct"] or len(caught) != 3:
        fail(f"injected gaps were not all caught: exit {code}, checks failed {caught}\n"
             + out[-3000:])
    print(f"ok   injected gaps: exit {code}, reconciliation failed on {' '.join(caught)}")

    for w in workloads:
        a = seed1[w]
        b = fingerprint(run(w, seed=1)[2])
        c = fingerprint(run(w, seed=2)[2])
        if a[0] is None or a != b:
            fail(f"{w}: seed 1 fingerprint differs between runs: {a[0]} vs {b[0]}")
        moved = sorted(k for k in a[1] if a[1][k] != c[1].get(k))
        print(f"ok   {w}: seed 1 repeats fingerprint {a[0]}; seed 2 gives {c[0]} and moves "
              f"{len(moved)} of {len(a[1])} simulated metrics: {' '.join(moved)}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([*spec["command"], "--workload", workloads[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip().startswith("{"):
        fail(f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
    print(f"ok   bare directory: exit {p.returncode} without a result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
