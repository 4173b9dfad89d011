#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a benchmark's --json output against its checked-in baseline
(bench_results/baselines/) and fails CI on counter regressions:

  * the zero-copy invariant is absolute — any one-shot column reporting
    words_copied above its baseline fails the gate;
  * workload-shape counters (yields, performs, bytes, chunks, n,
    dispatch_mode, superinstructions, inline_caches) must match the
    baseline exactly — a drifted workload makes every other comparison
    meaningless;
  * a baseline may name extra exact-equality fields in a top-level
    "hard_eq" list; these apply to its one-shot columns only (bench_regex
    uses this to pin words_copied to exactly zero — a *decrease* from a
    nonzero baseline would mean the column stopped measuring parks);
  * wall time (elapsed_ms, mips) is warn-only by design: shared CI
    runners are not a benchmarking environment.  The exception is
    declared policy: a baseline with speedup_enforced makes the bench's
    own speedup_* ratios hard floors whenever the run reports them as
    measurable — fast-mode smoke runs record the ratio but cannot test
    it.

Columns are matched by their "name" field.  A column present in the
baseline but missing from the current run fails the gate — a silently
dropped configuration would read as "nothing regressed".

Usage: bench_gate.py --baseline <file.json> --current <file.json>
Exit status: 0 clean (warnings allowed), 1 on any failure.
"""

import argparse
import json
import sys

# Workload shape: must match the baseline exactly.
HARD_EQ = (
    "yields",
    "performs",
    "bytes",
    "chunks",
    "n",
    "dispatch_mode",
    "superinstructions",
    "inline_caches",
)

# Wall time: never gate, always report.
WALL = ("elapsed_ms", "mips")


def column_key(col):
    return col.get("name", "<unnamed>")


def gate_column(key, base, cur, failures, warnings, extra_hard_eq=()):
    # The paper's invariant: a one-shot column copies no more stack words
    # than its baseline.  Columns that are explicitly multi-shot
    # (one_shot: false) are informational and exempt.
    one_shot = cur.get("one_shot", True)
    if one_shot and "words_copied" in cur:
        b = base.get("words_copied", 0)
        if cur["words_copied"] > b:
            failures.append(
                "%s: words_copied regressed: %d (baseline %d)"
                % (key, cur["words_copied"], b)
            )

    for field in HARD_EQ:
        if field in base and base[field] != cur.get(field):
            failures.append(
                "%s: %s = %r differs from baseline %r"
                % (key, field, cur.get(field), base[field])
            )

    # Baseline-declared exact-equality fields: one-shot columns only (a
    # copying shim's counts legitimately vary with scheduling), and
    # stricter than the words_copied <= baseline check above — equality
    # catches a column that silently stopped measuring.
    if one_shot:
        for field in extra_hard_eq:
            if field in base and base[field] != cur.get(field):
                failures.append(
                    "%s: %s = %r must equal baseline %r (hard_eq)"
                    % (key, field, cur.get(field), base[field])
                )

    for field in WALL:
        if field in base and field in cur:
            warnings.append(
                "%s: %s = %.3g (baseline %.3g, informational)"
                % (key, field, cur[field], base[field])
            )


def gate(base, cur):
    failures, warnings = [], []
    if base.get("name") != cur.get("name"):
        failures.append(
            "benchmark name mismatch: baseline %r vs current %r"
            % (base.get("name"), cur.get("name"))
        )
        return failures, warnings

    # Speedup floors are policy, not timing (bench_dispatch): the baseline
    # declares speedup_enforced, the bench reports one or more speedup_*
    # ratios plus whether wall clock was measurable on this run (fast-mode
    # smoke runs are not).  Measurable runs must meet the floor, and
    # falling short is a hard failure; others record the ratio and the
    # policy stands untested.
    if base.get("speedup_enforced"):
        floor = cur.get("speedup_min", base.get("speedup_min", 1.25))
        skip = ("speedup_min", "speedup_enforced", "speedup_measurable")
        for field in sorted(cur):
            if not field.startswith("speedup_") or field in skip:
                continue
            ratio = cur[field]
            if cur.get("speedup_measurable"):
                if ratio < floor:
                    failures.append(
                        "%s = %.2fx is below the enforced floor %.2fx"
                        % (field, ratio, floor)
                    )
            else:
                warnings.append(
                    "%s = %.2fx recorded but not measurable on this "
                    "host (floor %.2fx stands)" % (field, ratio, floor)
                )

    extra_hard_eq = tuple(base.get("hard_eq", ()))
    base_cols = {column_key(c): c for c in base.get("columns", [])}
    cur_cols = {column_key(c): c for c in cur.get("columns", [])}
    for key, bcol in base_cols.items():
        if key not in cur_cols:
            failures.append("column %s missing from current run" % key)
            continue
        gate_column(key, bcol, cur_cols[key], failures, warnings, extra_hard_eq)
    for key in cur_cols:
        if key not in base_cols:
            warnings.append("column %s has no baseline (new configuration?)" % key)
    return failures, warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    failures, warnings = gate(base, cur)
    for w in warnings:
        print("warning: %s" % w)
    for f in failures:
        print("FAIL: %s" % f)
    if failures:
        print(
            "bench gate: %d failure(s) against %s" % (len(failures), args.baseline)
        )
        return 1
    print("bench gate: %s clean (%d warnings)" % (cur.get("name"), len(warnings)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
