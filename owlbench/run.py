#!/usr/bin/env python3
"""Build and run the OWL benchmark (see owlbench/README.md).

Run from the root of a checkout:

  python3 owlbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 owlbench/run.py --short

The first form builds owlbench/ (and the library from src/) into
.bench_build/owlbench, runs one workload and prints two lines on
stdout: the run's metadata and report rows, then the result
{"correct", "attempted", "failed", "metrics"} with every end-to-end
metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). It exits 0 only when every output was correct.

A run makes at least three passes over the workload's designs
(--min-passes changes that), then more while they fit in --seconds.
--short runs each workload once (one pass), untraced, and prints one
result line per workload; its numbers are a smoke test, not a
measurement.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"[owl-bench] {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "owlbench"


def build():
    """Configure once, then (re)build owl_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no owl sources under {ROOT / 'src'}", 2)
    bdir = build_dir()
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(bdir / "tmp"))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                fail("cmake configure failed", 2)
        cmd = ["cmake", "--build", str(bdir), "--target", "owl_bench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            fail("build failed", 2)
    return bdir / "owl_bench"


def source_identity():
    """Commit when the checkout is a git tree, and a hash of src/."""
    commit = os.environ.get("OWL_BENCH_COMMIT", "")
    if not commit and (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else ""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return commit or "unknown", h.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(exe, workload, seed, seconds, trace, reference, min_passes):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--reference", str(reference), "--min-passes", str(min_passes)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: owl_bench exceeded {RUN_TIMEOUT_S} s", 4)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail(f"{workload}: owl_bench exited {p.returncode}", p.returncode or 4)
    doc = json.loads(lines[-1])
    # The metric set must be exactly the one BENCHMARK.json names.
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    if got != want:
        doc["errors"].append(f"metrics {sorted(got.items())} differ from "
                             f"BENCHMARK.json {sorted(want.items())}")
        doc["failed"] += 1
        doc["attempted"] += 1
        doc["correct"] = False
    return doc


def result_line(doc):
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"],
                       "metrics": doc["metrics"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="reference hole digests (tests corrupt a copy)")
    ap.add_argument("--min-passes", type=int, default=0,
                    help="passes every run makes (0: the workload's)")
    ap.add_argument("--short", action="store_true",
                    help="run every workload once (one pass)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.min_passes < 0:
        fail("--seconds must be positive, --min-passes not negative", 2)

    exe = build()
    commit, src_hash = source_identity()
    if args.short:
        workloads = [w["name"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["workloads"]]
        ok = True
        for w in workloads:
            doc = run_bench(exe, w, args.seed, 1, False, args.reference, 1)
            print(json.dumps({"workload": w, **json.loads(result_line(doc)),
                              "errors": doc["errors"]}), flush=True)
            ok = ok and doc["correct"]
        sys.exit(0 if ok else 1)

    if not args.workload:
        fail("--workload is required", 2)
    doc = run_bench(exe, args.workload, args.seed, args.seconds,
                    bool(args.trace), args.reference, args.min_passes)
    meta = dict(doc["meta"], commit=commit, source_sha256=src_hash)
    print(json.dumps({"meta": meta, "rows": doc["rows"],
                      "errors": doc["errors"][:20]}))
    print(result_line(doc), flush=True)
    sys.exit(0 if doc["correct"] else 1)


if __name__ == "__main__":
    main()
