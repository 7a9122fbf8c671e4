"""Self-test of the dp1 benchmark: real operations pass, corrupted output fails.

Run from the repository root:

    python3 bench/selftest.py

It runs one short operation of each workload (and one traced operation) and
requires the checker to accept them.  It then feeds the checker corrupted
copies of that output: a record's ``passed`` flipped, the summary's ``passed``
flipped, a wrong block count, a wrong signed sum, a non-zero exit code, and a
second stdout for the same argv that differs by one byte.  Each must be
rejected, which shows that a fail_frac of 0 is earned.  Exits 0 when every
expectation holds.
"""

from __future__ import annotations

import json
import random
import sys

import checks
import run


def _flip_record(payload: dict) -> None:
    payload["records"][len(payload["records"]) // 2]["passed"] = False


def _flip_summary(payload: dict) -> None:
    payload["summary"]["passed"] -= 1


def _wrong_count(payload: dict) -> None:
    block = next(b for b in payload["enumeration"] if b["stratum"] == 4 and b["count"])
    block["count"] += 1


def _wrong_sum(payload: dict) -> None:
    block = next(b for b in payload["enumeration"] if b["stratum"] == 2 and b["count"])
    block["signed_sum"] = -block["signed_sum"]


def main() -> int:
    if not run.in_checkout():
        return 2
    runner = run.Runner()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    ops = {}
    for name, cycle in run.WORKLOADS.items():
        argv = cycle(random.Random(0))[0]
        op = runner.cli(argv)
        problems = checks.check_output(argv, op.exit_code, op.stdout)
        expect(not problems, f"{name}: `dp1 {' '.join(argv)}` passes the checks {problems}")
        ops[name] = op

    if failures:
        print("selftest: the operations themselves fail; corruption checks skipped")
        return 1

    sweep = ops["class_sweep"]
    traced, doc = runner.traced(sweep.argv)
    expect(doc is not None and traced.stdout == sweep.stdout,
           f"traced `dp1 {' '.join(sweep.argv)}` prints the same bytes")
    layers = run.span_layers(doc) if doc else {}
    expect(layers.get("report.build_records", {}).get("calls") == 1,
           "the traced run records one report.build_records span")

    corruptions = [("verify_full", _flip_record, "a record's passed flipped"),
                   ("verify_full", _flip_summary, "summary.passed flipped"),
                   ("class_sweep", _flip_record, "a scoped record's passed flipped"),
                   ("enumerate_all", _wrong_count, "a wrong B^4 count"),
                   ("enumerate_all", _wrong_sum, "a wrong B^2 signed sum")]
    for name, corrupt, what in corruptions:
        op = ops[name]
        payload = json.loads(op.stdout)
        corrupt(payload)
        bad = json.dumps(payload, indent=2).encode()
        problems = checks.check_output(op.argv, 0, bad)
        expect(bool(problems), f"{name}: rejects {what} {problems[:1]}")

    op = ops["verify_full"]
    expect(bool(checks.check_output(op.argv, 1, op.stdout)), "rejects a non-zero exit code")

    ledger = checks.OutputLedger()
    first = ledger.check(op.argv, 0, op.stdout)
    changed = op.stdout.replace(b'"passed": true', b'"passed": true ', 1)
    second = ledger.check(op.argv, 0, changed)
    again = ledger.check(op.argv, 0, op.stdout)
    expect(not first and bool(second) and not again,
           f"rejects a second stdout for the same argv that differs by one byte {second[-1:]}")

    print("selftest:", "passed" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
