#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark, metric by metric.

    python3 perfbench/compare.py BEFORE AFTER

A result set is either a directory of captured run.py outputs (one file per
run; the workload and trace mode are read from each file's "stamp:" line and
the figures from its last line) or a baseline file written by this script's
--save option, such as perfbench/baseline_a.json.  For every workload and
metric it prints both sides' median and quartiles.  End-to-end metrics are
judged against their bound in BENCHMARK.json:

  unresolved  either side's run-to-run spread (quartile distance over the
              median) is wider than the bound, and the two sides overlap
              (not every after run is worse, or better, than every before
              run);
  regression  the after median is worse than the before median by more than
              the bound;
  better      the after median is better by more than the before spread;
  same        otherwise.

Per-layer metrics have no bound and are printed for reference.  The result
field `failed` (units with no usable answer) is compared too: an after run
that failed more units than every before run is a regression.  The exit
status is 1 when any end-to-end metric or `failed` regressed, when a
workload of the before set has no usable after runs, or when either set
holds a run that failed its correctness checks or printed no result.

    python3 perfbench/compare.py --save OUT.json RESULTS_DIR

collects a result set into one file (raw values per run, plus the stamp of
the first run) so it can be checked in as a baseline.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_run(path):
    """Returns (stamp, result) of one captured run, or None if unusable."""
    stamp, last = None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("stamp: "):
                stamp = json.loads(line[len("stamp: "):])
            if line:
                last = line
    if stamp is None or last is None or not last.startswith("{"):
        return None
    return stamp, json.loads(last)


def load_set(path):
    """{"stamp": ..., "bad": [names], "runs": {"<workload>/<trace>":
    {metric: [values]}}}; "failed" is kept per run as if it were a metric.
    Runs that failed their correctness checks or printed no result are
    listed in "bad" and left out of the figures."""
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
        loaded.setdefault("bad", [])
        return loaded
    out = {"stamp": None, "bad": [], "runs": {}}
    for name in sorted(os.listdir(path)):
        run = parse_run(os.path.join(path, name))
        if run is None or not run[1].get("correct"):
            print("error: %s printed no result or failed its correctness "
                  "checks; left out" % name, file=sys.stderr)
            out["bad"].append(name)
            continue
        stamp, result = run
        out["stamp"] = out["stamp"] or stamp
        key = "%s/%d" % (stamp["workload"], stamp["trace"])
        bucket = out["runs"].setdefault(key, {})
        bucket.setdefault("failed", []).append(result["failed"])
        for metric, entry in result["metrics"].items():
            bucket.setdefault(metric, []).append(entry["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(before, after, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    b_med, a_med = statistics.median(before), statistics.median(after)
    worse = sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    all_worse = (min(after) > max(before) if lower_is_better
                 else max(after) < min(before))
    all_better = (max(after) < min(before) if lower_is_better
                  else min(after) > max(before))
    noisy = max(spread(before), spread(after)) > bound
    if noisy and not (all_worse or all_better):
        return "unresolved"
    if worse > bound:
        return "regression"
    if -worse > spread(before):
        return "better"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="BEFORE AFTER, or RESULTS_DIR")
    parser.add_argument("--save", help="write RESULTS_DIR as one baseline file")
    args = parser.parse_args()

    if args.save:
        if len(args.sets) != 1:
            parser.error("--save takes exactly one RESULTS_DIR")
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(load_set(args.sets[0]), f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    if len(args.sets) != 2:
        parser.error("expected BEFORE and AFTER")

    with open(BENCHMARK, encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    before, after = load_set(args.sets[0]), load_set(args.sets[1])
    problems = len(before["bad"]) + len(after["bad"])
    for key in sorted(set(before["runs"]) - set(after["runs"])):
        print("error: %s has no usable runs in the after set" % key,
              file=sys.stderr)
        problems += 1
    print("%-9s %-28s %-34s %-34s %s" % (
        "workload", "metric", "before median [q1, q3]",
        "after median [q1, q3]", "verdict"))
    for key in sorted(set(before["runs"]) & set(after["runs"])):
        workload, trace = key.split("/")
        for metric in before["runs"][key]:
            if metric not in after["runs"][key]:
                continue
            b, a = before["runs"][key][metric], after["runs"][key][metric]
            text = []
            for values in (b, a):
                q1, q2, q3 = quartiles(values)
                text.append("%.5g [%.5g, %.5g] n=%d" % (q2, q1, q3,
                                                        len(values)))
            if metric == "failed":
                v = "regression" if max(a) > max(b) else "same"
                problems += v == "regression"
            elif trace == "0" and metric in e2e:
                m = e2e[metric]
                v = verdict(b, a, m["bound"], m["better"] == "lower")
                problems += v == "regression"
                v += " (bound %g)" % m["bound"]
            else:
                v = "per-layer"
            print("%-9s %-28s %-34s %-34s %s" % (workload, metric, text[0],
                                                 text[1], v))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
