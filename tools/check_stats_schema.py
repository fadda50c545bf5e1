#!/usr/bin/env python3
"""Validate owl JSON artifacts against their schemas.

Understands two schemas, dispatched on the document's "schema" key:
  owl.obs.v2    stats exports (counters, span forest with per-span
                lanes, histograms, open_spans, meta)
  owl.bench.v1  bench trajectory entries (tools/bench_runner.py)

Usage:
  check_stats_schema.py FILE [options]
      Validate an already-emitted stats/bench file.
  check_stats_schema.py --owl PATH/TO/owl [options]
      Run `owl synth accumulator --stats-json <tmp>` and validate the
      result, additionally applying the pipeline acceptance checks
      (cegis / smt.checkSat / sat.solve spans present, nonzero SAT
      conflict and propagation counters). This is the form wired into
      CTest so tier-1 runs catch exporter regressions.

Options:
  --require-span NAME             fail unless a span named NAME exists
                                  (repeatable)
  --require-nonzero-counter NAME  fail unless counter NAME > 0
                                  (repeatable)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

OBS_SCHEMA = "owl.obs.v2"
BENCH_SCHEMA = "owl.bench.v1"


class SchemaError(Exception):
    pass


def fail(path, msg):
    raise SchemaError("%s: %s" % (path, msg))


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_span(span, path):
    if not isinstance(span, dict):
        fail(path, "span is not an object")
    for key, typ in (("name", str), ("start_ns", int), ("dur_ns", int)):
        if key not in span:
            fail(path, "span missing required key %r" % key)
        if not isinstance(span[key], typ) or isinstance(span[key], bool):
            fail(path, "span key %r must be %s" % (key, typ.__name__))
    if span["start_ns"] < 0 or span["dur_ns"] < 0:
        fail(path, "span times must be non-negative")
    if "lane" not in span:
        fail(path, "span missing required key 'lane'")
    if not is_uint(span["lane"]):
        fail(path, "span lane must be a non-negative integer")
    attrs = span.get("attrs", {})
    if not isinstance(attrs, dict):
        fail(path, "attrs must be an object")
    for k, v in attrs.items():
        if not isinstance(k, str):
            fail(path, "attr key %r must be a string" % (k,))
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            fail(path, "attr %r must be a number or string" % k)
    children = span.get("children", [])
    if not isinstance(children, list):
        fail(path, "children must be an array")
    for i, child in enumerate(children):
        check_span(child, "%s/children[%d]" % (path, i))


def span_names(spans):
    names = set()
    todo = list(spans)
    while todo:
        s = todo.pop()
        names.add(s["name"])
        todo.extend(s.get("children", []))
    return names


def check_histogram(name, h, path):
    if not isinstance(h, dict):
        fail(path, "histogram %r is not an object" % name)
    for key in ("count", "sum", "min", "max"):
        if key not in h:
            fail(path, "histogram %r missing key %r" % (name, key))
        if not is_uint(h[key]):
            fail(path, "histogram %r key %r must be a non-negative "
                       "integer" % (name, key))
    buckets = h.get("buckets")
    if not isinstance(buckets, dict):
        fail(path, "histogram %r buckets missing or not an object" % name)
    total = 0
    for idx, n in buckets.items():
        if not isinstance(idx, str) or not idx.isdigit():
            fail(path, "histogram %r bucket key %r must be a decimal "
                       "string" % (name, idx))
        if not is_uint(n):
            fail(path, "histogram %r bucket %s must be a non-negative "
                       "integer" % (name, idx))
        if int(idx) >= 64:
            fail(path, "histogram %r bucket index %s out of range"
                 % (name, idx))
        total += n
    if total != h["count"]:
        fail(path, "histogram %r bucket total %d != count %d"
             % (name, total, h["count"]))
    if h["count"] > 0 and h["min"] > h["max"]:
        fail(path, "histogram %r has min > max" % name)


def validate_obs(doc):
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail("$/counters", "missing or not an object")
    for name, value in counters.items():
        if not isinstance(name, str):
            fail("$/counters", "counter key %r must be a string" % (name,))
        if not is_uint(value):
            fail("$/counters/%s" % name,
                 "counter must be a non-negative integer, got %r" % (value,))
    spans = doc.get("spans")
    if not isinstance(spans, list):
        fail("$/spans", "missing or not an array")
    for i, span in enumerate(spans):
        check_span(span, "$/spans[%d]" % i)
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        fail("$/meta", "must be an object")
    for k, v in meta.items():
        if not isinstance(k, str) or not isinstance(v, str):
            fail("$/meta", "meta entries must be string -> string")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        fail("$/histograms", "missing histograms object")
    for name, h in histograms.items():
        check_histogram(name, h, "$/histograms/%s" % name)
    if not is_uint(doc.get("open_spans", -1)):
        fail("$/open_spans", "missing non-negative open_spans")


def validate_bench(doc):
    for key, typ in (("commit", str), ("suite", str), ("timestamp", str)):
        if not isinstance(doc.get(key), typ):
            fail("$/%s" % key, "missing or not a %s" % typ.__name__)
    runs = doc.get("runs")
    if not isinstance(runs, dict) or not runs:
        fail("$/runs", "missing, empty, or not an object")
    for name, run in runs.items():
        path = "$/runs/%s" % name
        if not isinstance(run, dict):
            fail(path, "run is not an object")
        wall = run.get("wall_s")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)) \
                or wall < 0:
            fail(path + "/wall_s", "missing or not a non-negative number")
        counters = run.get("counters")
        if not isinstance(counters, dict):
            fail(path + "/counters", "missing or not an object")
        for k, v in counters.items():
            if not is_uint(v):
                fail(path + "/counters/%s" % k,
                     "must be a non-negative integer")
        hists = run.get("histograms", {})
        if not isinstance(hists, dict):
            fail(path + "/histograms", "must be an object")
        for k, h in hists.items():
            if not isinstance(h, dict):
                fail(path + "/histograms/%s" % k, "must be an object")
            for key in ("count", "sum"):
                if not is_uint(h.get(key)):
                    fail(path + "/histograms/%s/%s" % (k, key),
                         "must be a non-negative integer")


def validate(doc):
    if not isinstance(doc, dict):
        fail("$", "document is not an object")
    schema = doc.get("schema")
    if schema == OBS_SCHEMA:
        validate_obs(doc)
    elif schema == BENCH_SCHEMA:
        validate_bench(doc)
    else:
        fail("$/schema", "expected one of %r, got %r"
             % ((OBS_SCHEMA, BENCH_SCHEMA), schema))


def check_requirements(doc, require_spans, require_nonzero):
    names = span_names(doc["spans"])
    for name in require_spans:
        if name not in names:
            fail("$/spans", "required span %r not found (have: %s)"
                 % (name, ", ".join(sorted(names)) or "<none>"))
    for name in require_nonzero:
        value = doc["counters"].get(name, 0)
        if value <= 0:
            fail("$/counters/%s" % name,
                 "required nonzero counter is %r" % (value,))


def run_owl(owl_bin, owl_args):
    """Run one owl command with --stats-json and return the stats path."""
    fd, path = tempfile.mkstemp(prefix="owl_stats_", suffix=".json")
    os.close(fd)
    cmd = [owl_bin] + owl_args + ["--stats-json", path]
    env = dict(os.environ, OWL_OBS="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=240)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SchemaError("%s exited with %d" % (" ".join(cmd),
                                                 proc.returncode))
    return path


def check_proof_coverage(doc):
    """Under --check-proofs every Unsat is accounted for: replayed
    through the DRAT checker, refuted at the term level, or — in an
    incremental session — Unsat only under the activation-literal
    assumptions (no formula refutation, so no proof obligation)."""
    counters = doc["counters"]
    checked = counters.get("drat.proofs_checked", 0)
    trivial = counters.get("drat.unsat_trivial", 0)
    conditional = counters.get("drat.unsat_conditional", 0)
    if checked + trivial + conditional <= 0:
        fail("$/counters",
             "--check-proofs run recorded no proof activity "
             "(drat.proofs_checked=%d, drat.unsat_trivial=%d, "
             "drat.unsat_conditional=%d)"
             % (checked, trivial, conditional))
    if checked > 0 and counters.get("drat.proof_steps", 0) <= 0:
        fail("$/counters/drat.proof_steps",
             "proofs were checked but no steps were counted")


def check_serve_stats(doc):
    """A serve batch run books the full serve counter family. The
    cache must balance: every per-instruction query is exactly one
    hit or one miss, and every miss that synthesized OK inserted."""
    counters = doc["counters"]
    for name in ("serve.requests", "serve.instr_queries",
                 "serve.cache.hits", "serve.cache.misses",
                 "serve.cache.bytes", "serve.cache.insertions",
                 "serve.cache.evictions", "serve.sessions.created",
                 "serve.sessions.reused", "serve.spans_abandoned",
                 "serve.queue.rejected"):
        if name not in counters:
            fail("$/counters", "serve run missing counter %r" % name)
    hits = counters["serve.cache.hits"]
    misses = counters["serve.cache.misses"]
    queries = counters["serve.instr_queries"]
    if hits + misses != queries:
        fail("$/counters",
             "cache accounting broken: hits %d + misses %d != "
             "serve.instr_queries %d" % (hits, misses, queries))
    if counters["serve.cache.insertions"] > misses:
        fail("$/counters/serve.cache.insertions",
             "more insertions (%d) than misses (%d)"
             % (counters["serve.cache.insertions"], misses))


PREPROCESS_COUNTERS = (
    "sat.preprocess.rounds",
    "sat.preprocess.vars_eliminated",
    "sat.preprocess.pure_literals",
    "sat.preprocess.clauses_subsumed",
    "sat.preprocess.clauses_strengthened",
    "sat.preprocess.failed_literals",
    "sat.preprocess.resolvents_added",
    "sat.preprocess.clauses_deleted",
    "sat.preprocess.vars_total",
)


def check_preprocess_stats(doc):
    """A default (preprocessing-on) synthesis run exports the full
    sat.preprocess.* family, and the counters are internally
    consistent: the simplifier cannot eliminate more variables than
    the solvers ever allocated."""
    counters = doc["counters"]
    for name in PREPROCESS_COUNTERS:
        if name not in counters:
            fail("$/counters", "preprocess run missing counter %r" % name)
    eliminated = counters["sat.preprocess.vars_eliminated"]
    total = counters["sat.preprocess.vars_total"]
    if eliminated > total:
        fail("$/counters/sat.preprocess.vars_eliminated",
             "eliminated %d variables but only %d were ever created"
             % (eliminated, total))
    if counters["sat.preprocess.rounds"] <= 0:
        fail("$/counters/sat.preprocess.rounds",
             "preprocessing enabled but no simplification round ran")


def check_no_preprocess_stats(doc):
    """--no-preprocess must really disable the pass: no round runs and
    no rewrite is booked."""
    for name, value in doc["counters"].items():
        if name.startswith("sat.preprocess.") and value != 0:
            fail("$/counters/%s" % name,
                 "--no-preprocess run booked preprocessing work (%d)"
                 % value)


def check_ackermann_stats(doc):
    """The lazy Ackermann accounting is internally consistent on any
    run: lemmas are instantiated pairs, so they can never exceed the
    registered pair bound; every lemma batch came from a model scan
    of some refinement round, so lemmas > 0 implies rounds > 0 and
    rounds can never exceed scans (a scan either instantiates a batch
    or ends the loop)."""
    counters = doc["counters"]
    # Counters only materialise once touched: an eager run books the
    # pair bound but never the lazy refinement counters.
    lemmas = counters.get("smt.ackermann.lemmas", 0)
    seeded = counters.get("smt.ackermann.seeded", 0)
    pair_bound = counters.get("smt.ackermann.pair_bound", 0)
    rounds = counters.get("smt.ackermann.rounds", 0)
    scans = counters.get("smt.ackermann.scans", 0)
    if lemmas + seeded > pair_bound:
        fail("$/counters/smt.ackermann.lemmas",
             "instantiated %d lemmas + %d seeds but only %d "
             "same-memory pairs were ever registered"
             % (lemmas, seeded, pair_bound))
    if lemmas > 0 and rounds <= 0:
        fail("$/counters/smt.ackermann.rounds",
             "%d lemmas were instantiated without any refinement "
             "round" % lemmas)
    if rounds > scans:
        fail("$/counters/smt.ackermann.rounds",
             "more refinement rounds (%d) than model scans (%d)"
             % (rounds, scans))


def check_eager_ackermann_stats(doc):
    """--eager-ackermann restores the full up-front pair expansion:
    congruences are asserted but the lazy machinery stays silent."""
    counters = doc["counters"]
    if counters.get("smt.ackermann_constraints", 0) <= 0:
        fail("$/counters/smt.ackermann_constraints",
             "--eager-ackermann on a memory-bearing design asserted "
             "no congruence")
    for name in ("smt.ackermann.lemmas", "smt.ackermann.seeded",
                 "smt.ackermann.rounds", "smt.ackermann.scans"):
        if counters.get(name, 0) != 0:
            fail("$/counters/%s" % name,
                 "--eager-ackermann run booked lazy refinement work "
                 "(%d)" % counters[name])


def check_fuzz_stats(doc):
    """A fuzzing session books the fuzz.* counter family, and the
    accounting is internally consistent: every run arms every oracle
    exactly once on this all-clean corpus (divergent runs short-
    circuit, but the CI seed range is required to be clean), and a
    clean session books no divergences."""
    counters = doc["counters"]
    for name in ("fuzz.runs", "fuzz.oracle.roundtrip",
                 "fuzz.oracle.preprocess", "fuzz.oracle.incremental",
                 "fuzz.oracle.ackermann", "fuzz.oracle.cosim"):
        if name not in counters:
            fail("$/counters", "fuzz run missing counter %r" % name)
    runs = counters["fuzz.runs"]
    if runs <= 0:
        fail("$/counters/fuzz.runs", "fuzz session recorded no runs")
    for name in ("fuzz.oracle.roundtrip", "fuzz.oracle.preprocess",
                 "fuzz.oracle.incremental", "fuzz.oracle.ackermann",
                 "fuzz.oracle.cosim"):
        if counters[name] != runs:
            fail("$/counters/%s" % name,
                 "oracle armed %d times over %d runs (expected every "
                 "run on a clean corpus)" % (counters[name], runs))
    if counters.get("fuzz.divergences", 0) != 0:
        fail("$/counters/fuzz.divergences",
             "CI fuzz session found %d divergence(s)"
             % counters["fuzz.divergences"])


def check_query_histograms(doc):
    """A v2 synthesis run records the per-query histograms: one
    smt.query_ns / smt.query_conflicts sample per SMT check, one
    cegis.instr_ackermann sample per instruction, and one
    smt.query_ack_rounds sample per SMT check (0 on eager or
    congruence-clean queries)."""
    hists = doc.get("histograms", {})
    checks = doc["counters"].get("smt.checks", 0)
    instrs = doc["counters"].get("cegis.instructions", 0)
    for name, expect in (("smt.query_ns", checks),
                         ("smt.query_conflicts", checks),
                         ("smt.query_ack_rounds", checks),
                         ("cegis.instr_ackermann", instrs)):
        h = hists.get(name)
        if h is None:
            fail("$/histograms", "missing %r" % name)
        if h["count"] != expect:
            fail("$/histograms/%s" % name,
                 "count %d != expected %d samples" % (h["count"], expect))


def cegis_accounting(mono):
    """Both strategies run the same CEGIS loop, and every round but a
    loop's last (the one whose verify step proves the candidate) ends
    with a counterexample. So on a successful synthesis run
    cegis.iterations == cegis.counterexamples + loops, where loops is
    one per instruction (cegis.instructions) for the per-instruction
    strategy and 1 for the joint --mono query."""
    def check(doc):
        counters = doc["counters"]
        iters = counters.get("cegis.iterations", 0)
        cexes = counters.get("cegis.counterexamples", 0)
        loops = 1 if mono else counters.get("cegis.instructions", 0)
        if loops <= 0 or iters != cexes + loops:
            fail("$/counters/cegis.iterations",
                 "%d CEGIS iterations != %d counterexamples + %d "
                 "loop(s)" % (iters, cexes, loops))
    return check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", help="stats JSON file to validate")
    ap.add_argument("--owl", help="owl binary: run the accumulator "
                                  "example and validate its stats")
    ap.add_argument("--require-span", action="append", default=[])
    ap.add_argument("--require-nonzero-counter", action="append",
                    default=[])
    args = ap.parse_args()

    require_spans = list(args.require_span)
    require_nonzero = list(args.require_nonzero_counter)

    # In --owl mode, a series of end-to-end accumulator runs exercise
    # the exporter: synthesis on the default incremental path (with
    # CNF preprocessing), synthesis with --no-incremental (fresh
    # solver per iteration), synthesis with --no-preprocess (the raw
    # seed behavior), synthesis under --check-proofs, alu-machine runs
    # (lazy and eager Ackermann, and --mono), the lint pipeline, a
    # fuzzing session, and a serve batch. Each run has its own required
    # spans/counters on top of the schema check; extra checks run
    # arbitrary doc predicates (proof-coverage accounting, preprocess
    # counter consistency, per-query histogram coverage).
    runs = []
    if args.owl:
        # Default synthesis runs every instruction's synth side as an
        # incremental session; the session counters must show up.
        # (clauses_reused can legitimately be 0 on a design this small
        # — sessions with <= 1 solve carry nothing over — so only
        # solve_calls is required to be nonzero. sat.conflicts and
        # sat.decisions are NOT required: with preprocessing on, a
        # design this small is routinely decided by simplification
        # plus unit propagation alone.)
        runs.append((["synth", "accumulator"],
                     ["cegis", "cegis.iter", "smt.checkSat",
                      "sat.solve", "sat.simplify", "smt.inc.addGroup"],
                     ["sat.propagations", "cegis.iterations",
                      "cegis.incremental.solve_calls",
                      "sat.preprocess.rounds",
                      "sat.preprocess.vars_eliminated"],
                     [check_query_histograms,
                      check_preprocess_stats, cegis_accounting(False)]))
        runs.append((["synth", "accumulator", "--no-incremental"],
                     ["cegis", "cegis.iter", "smt.checkSat",
                      "sat.solve"],
                     ["sat.propagations", "cegis.iterations"],
                     [check_query_histograms,
                      check_preprocess_stats, cegis_accounting(False)]))
        # The raw path must still behave like the seed: search does
        # real work (nonzero conflicts/decisions) and the preprocess
        # counter family stays silent.
        runs.append((["synth", "accumulator", "--no-preprocess"],
                     ["cegis", "cegis.iter", "smt.checkSat",
                      "sat.solve"],
                     ["sat.conflicts", "sat.propagations",
                      "sat.decisions", "cegis.iterations"],
                     [check_query_histograms,
                      check_no_preprocess_stats, cegis_accounting(False)]))
        runs.append((["synth", "accumulator", "--check-proofs"],
                     ["cegis", "smt.checkSat"],
                     [],
                     [check_proof_coverage, cegis_accounting(False)]))
        runs.append((["synth", "accumulator", "--profile-sat"],
                     ["cegis", "smt.checkSat", "sat.solve"],
                     ["sat.phase.propagate.calls",
                      "sat.phase.decide.calls"],
                     [cegis_accounting(False)]))
        # Lazy Ackermann (the default) on a memory-bearing design:
        # the refinement loop must actually run (nonzero lemmas,
        # rounds, scans) and its accounting must be consistent.
        runs.append((["synth", "alu-machine"],
                     ["cegis", "smt.checkSat", "smt.ackermann",
                      "sat.solve"],
                     ["smt.ackermann.lemmas", "smt.ackermann.rounds",
                      "smt.ackermann.scans",
                      "smt.ackermann.pair_bound",
                      "smt.ackermann_constraints"],
                     [check_ackermann_stats, cegis_accounting(False)]))
        # Equation (1): the monolithic strategy runs the same CEGIS
        # loop as one joint query, so it books the same spans and the
        # same iteration accounting with a single loop.
        runs.append((["synth", "alu-machine", "--mono"],
                     ["cegis", "cegis.iter", "smt.checkSat"],
                     ["cegis.iterations", "cegis.counterexamples"],
                     [check_ackermann_stats, cegis_accounting(True)]))
        # The eager escape hatch: full pair set up front, lazy
        # machinery silent.
        runs.append((["synth", "alu-machine", "--eager-ackermann"],
                     ["cegis", "smt.checkSat", "smt.ackermann",
                      "sat.solve"],
                     ["smt.ackermann_constraints",
                      "smt.ackermann.pair_bound"],
                     [check_ackermann_stats,
                      check_eager_ackermann_stats,
                      cegis_accounting(False)]))
        runs.append((["lint", "accumulator"],
                     ["lint.run", "lint.design", "lint.smt",
                      "lint.cnf", "lint.netlist"],
                     ["lint.runs"],
                     []))
        # A differential fuzzing session: a deterministic seed range
        # through generation, synthesis, and all four oracles. Clean
        # by requirement (exit 0), with the fuzz.* counter family
        # accounting one arming of every oracle per run.
        runs.append((["fuzz", "--seed", "1", "--runs", "10"],
                     ["cegis", "smt.checkSat", "sat.solve"],
                     ["fuzz.runs", "synth.runs", "symeval.runs"],
                     [check_fuzz_stats]))
        # A serve batch with a deliberate duplicate: the repeat job
        # must be answered from the content-addressed cache (nonzero
        # hits AND misses), every request gets its own serve.request
        # span, and the counter accounting balances.
        runs.append((["serve", "--batch", "@JOBS"],
                     ["serve.request", "cegis"],
                     ["serve.requests", "serve.instr_queries",
                      "serve.cache.hits", "serve.cache.misses",
                      "serve.cache.insertions",
                      "serve.sessions.created"],
                     [check_serve_stats]))
    elif args.file:
        runs.append((None, [], [], []))
    else:
        ap.error("need a FILE or --owl")

    jobs_file = None
    for owl_args, run_spans, run_nonzero, extra_checks in runs:
        cleanup = None
        if owl_args is not None:
            if "@JOBS" in owl_args:
                if jobs_file is None:
                    fd, jobs_file = tempfile.mkstemp(
                        prefix="owl_serve_jobs_", suffix=".json")
                    with os.fdopen(fd, "w") as f:
                        json.dump({"jobs": [
                            {"id": "first", "design": "accumulator"},
                            {"id": "repeat", "design": "accumulator"},
                            {"id": "other", "design": "alu-machine"},
                        ]}, f)
                owl_args = [jobs_file if a == "@JOBS" else a
                            for a in owl_args]
            path = run_owl(args.owl, owl_args)
            cleanup = path
            what = "%s %s" % (args.owl, " ".join(owl_args))
        else:
            path = args.file
            what = path
        try:
            with open(path) as f:
                doc = json.load(f)
            validate(doc)
            if doc.get("schema") == OBS_SCHEMA:
                check_requirements(doc, require_spans + run_spans,
                                   require_nonzero + run_nonzero)
            for check in extra_checks:
                check(doc)
        except json.JSONDecodeError as e:
            print("FAIL: %s is not valid JSON: %s" % (path, e))
            return 1
        except SchemaError as e:
            print("FAIL: [%s] %s" % (what, e))
            return 1
        finally:
            if cleanup and os.path.exists(cleanup):
                os.unlink(cleanup)
        if doc.get("schema") == OBS_SCHEMA:
            print("OK: %s conforms to %s (%d counters, %d root spans)"
                  % (what, doc["schema"], len(doc["counters"]),
                     len(doc["spans"])))
        else:
            print("OK: %s conforms to %s (%d runs)"
                  % (what, doc["schema"], len(doc["runs"])))
    if jobs_file and os.path.exists(jobs_file):
        os.unlink(jobs_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
