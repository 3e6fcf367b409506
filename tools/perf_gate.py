#!/usr/bin/env python3
"""Check one perfbench result line against the bounds in bench/ci_floors.json.

    python3 perfbench/run.py --workload pipeline-3n --seed 1 --seconds 5 \\
        --trace 1 > out.txt
    python3 tools/perf_gate.py --workload pipeline-3n --trace 1 out.txt

Reads the last non-empty line of the file (run.py's result JSON) and the
bounds under "perfbench" -> <workload> -> "trace<0|1>" in bench/ci_floors.json.
Each bound names a metric of the result line, or the quotient "a / b" of
two, and one of
  {"min": x}    value >= x
  {"max": x}    value <= x
  {"above": x}  value >  x   ({"above": 0}: a stage histogram carries data)
A bounded metric missing from the line fails, and so does a line that is
not "correct" or counts failed operations.  A workload/trace pair with no
bounds entry is a usage error, so a renamed workload cannot pass unchecked.

Exit status: 0 every bound holds, 1 a bound or the result failed, 2 usage or
IO error.  Standard library only.
"""
import argparse
import json
import os
import sys

FLOORS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "ci_floors.json")
CHECKS = {
    "min": lambda value, bound: value >= bound,
    "max": lambda value, bound: value <= bound,
    "above": lambda value, bound: value > bound,
}


def value_of(metrics, name):
    """The metric's value, or for "a / b" the quotient (inf over a zero b)."""
    num, _, den = name.partition(" / ")
    value = metrics[num]["value"]
    if not den:
        return value
    divisor = metrics[den]["value"]
    return value / divisor if divisor else float("inf")


def last_line(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="run.py's standard output (or its last line)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        result = last_line(args.result)
        metrics = result["metrics"]
        with open(FLOORS) as f:
            spec = json.load(f)["perfbench"].get(args.workload, {}).get(f"trace{args.trace}")
        if spec is None:
            raise ValueError(f"no bounds for {args.workload} trace{args.trace}")
        bounds = []
        for name, bound in spec.items():
            (kind, limit), = bound.items()
            bounds.append((name, kind, CHECKS[kind], limit))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        print(f"perf_gate: cannot read the result or its bounds: {e!r}", file=sys.stderr)
        return 2

    failures = []
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(f"run not clean: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    for name, kind, check, limit in bounds:
        try:
            value = value_of(metrics, name)
        except KeyError as e:
            failures.append(f"{name}: {e} missing from the result line")
            continue
        ok = check(value, limit)
        print(f"{'ok  ' if ok else 'FAIL'} {name} = {value:g} ({kind} {limit:g})")
        if not ok:
            failures.append(f"{name} = {value:g} breaks {kind} {limit:g}")

    label = f"{args.workload} --trace {args.trace}"
    for failure in failures:
        print(f"perf_gate: {label}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf_gate: {label}: result clean, {len(bounds)} bounds hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
