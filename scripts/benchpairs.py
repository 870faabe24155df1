"""Summary and schema check behind scripts/benchpairs.sh.

  python3 scripts/benchpairs.py write --runs DIR --benchmark BENCHMARK.json --out FILE ...
  python3 scripts/benchpairs.py micro --runs DIR --out FILE ...
  python3 scripts/benchpairs.py check FILE

write reads the per-run JSON files the benchmark wrote (-json), named
SIDE.WORKLOAD.SEED.traceT.json, and writes one BENCH file; it prints,
per workload and end-to-end metric, the medians, the gap, the pairs
the change won and the parent's interquartile range. micro reads the
go test -bench outputs of micro mode, named SIDE.PAIR.ENTRY.txt, and
writes them under the file's "micro" key; it prints, per benchmark row
and time metric, the median per-pair ratio, the pairs the change won
and the parent's interquartile range. Each keeps what the other wrote
in an existing file. check validates a BENCH file's schema (the
end-to-end keys, the micro key, or both) and exits non-zero on the
first fault.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

SIDES = ("parent", "change")
ROW_KEYS = ("side", "workload", "seed", "attempted", "failed", "host_speed", "notes")


def measured(value, speed, better):
    """The value the benchmark measured before it scaled it to host
    speed 1: a rate was divided by the speed, a time multiplied."""
    return value * speed if better == "higher" else value / speed


def load_runs(runs, trace):
    """Yields each run's report, in the order the runs finished."""
    for path in sorted(glob.glob(os.path.join(runs, f"*.trace{trace}.json")), key=os.path.getmtime):
        side, workload, seed = os.path.basename(path).split(".")[:3]
        with open(path) as f:
            blob = json.load(f)
        for rep in blob["workloads"]:
            yield side, workload, int(seed), rep


def untraced_row(side, workload, seed, rep, e2e):
    metrics = {m["name"]: m for m in rep["metrics"]}
    speed = metrics["host_speed"]["value"]
    row = {"side": side, "workload": workload, "seed": seed,
           "attempted": rep["attempted"], "failed": rep["failed"],
           "host_speed": round(speed, 4),
           # The first note describes the workload; the rest are this
           # run's own (keyspread's and churn's registry counts).
           "notes": rep["notes"][1:]}
    for name, better in e2e.items():
        m = metrics[name]
        row[name] = round(m["value"], 3)
        scaled = "at host speed 1" in m.get("note", "")
        row[name + "_measured"] = round(measured(m["value"], speed, better) if scaled else m["value"], 3)
    return row


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def compare(rows, workload, metric, better):
    """The verdict's inputs for one workload and metric over its pairs."""
    by = {(r["side"], r["seed"]): r[metric] for r in rows if r["workload"] == workload}
    seeds = sorted({s for (_, s) in by if ("parent", s) in by and ("change", s) in by})
    if not seeds:
        return None
    p = [by["parent", s] for s in seeds]
    c = [by["change", s] for s in seeds]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pm, cm = statistics.median(p), statistics.median(c)
    spread = iqr(p)
    gap = cm - pm
    pct = 100 * gap / pm if pm else float("nan")
    text = (f"{pm:.6g} -> {cm:.6g} ({pct:+.1f}%, change better in {wins} of {len(seeds)} pairs, "
            f"parent IQR {spread:.4g}, |gap|/IQR {abs(gap) / spread if spread else float('inf'):.2f})")
    return text


def load_doc(path):
    """The BENCH file at path, or an empty one."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def save_doc(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


def write(args):
    with open(args.benchmark) as f:
        bm = json.load(f)
    e2e = {m["name"]: m["better"] for m in bm["end_to_end"]}
    per_layer = [m["name"] for m in bm["per_layer"]]
    order = args.workloads.split(",")

    rows = [untraced_row(side, w, seed, rep, e2e) for side, w, seed, rep in load_runs(args.runs, 0)]
    rows.sort(key=lambda r: order.index(r["workload"]) if r["workload"] in order else len(order))

    summary = {}
    for w in order:
        block = {}
        for name, better in e2e.items():
            for key in (name, name + "_measured"):
                text = compare(rows, w, key, better)
                if text:
                    block[key] = text
                    print(f"{w:12s} {key:22s} {text}")
        if block:
            summary[f"{w}_medians_parent_to_change"] = block
    failed = sum(r["failed"] for r in rows)
    summary["note"] = (f"{len(rows) // 2} untraced pairs; {failed} failed operations over every untraced run. "
                       "Medians and IQR (inclusive quartiles) are over the pairs both sides completed.")

    traced = {}
    for side, w, seed, rep in load_runs(args.runs, 1):
        t = traced.setdefault(w, {"seeds": set(), "parent": {}, "change": {}})
        t["seeds"].add(seed)
        for m in rep["metrics"]:
            if m["name"] in per_layer:
                t[side].setdefault(m["name"], {})[seed] = m["value"]
    traced_out = []
    for w in order:
        if w not in traced:
            continue
        t = traced[w]
        seeds = sorted(t["seeds"])
        entry = {"workload": w, "seeds": seeds}
        for side in SIDES:
            entry[side] = {name: [vals.get(s) for s in seeds] for name, vals in sorted(t[side].items())}
        traced_out.append(entry)

    doc = {
        "pr": args.pr,
        "change": args.change,
        "host": args.host,
        "harness": args.harness,
        "claim": args.claim,
        "summary": summary,
        "untraced_pairs": rows,
        "traced": traced_out,
    }
    old = load_doc(args.out)
    if "micro" in old:
        doc["micro"] = old["micro"]
    save_doc(doc, args.out)


# One go test -bench result line: name, iterations, then value-unit
# pairs (ns/op, B/op, allocs/op and the benchmark's own metrics).
BENCH_LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$")


def parse_bench(path):
    """Yields (name, iterations, {unit: value}) per result line."""
    with open(path) as f:
        for line in f:
            m = BENCH_LINE.match(line.rstrip("\n"))
            if not m:
                continue
            fields = m.group(3).split()
            metrics = {unit: float(v) for v, unit in zip(fields[::2], fields[1::2])}
            yield m.group(1), int(m.group(2)), metrics


def micro(args):
    runs = []
    for path in sorted(glob.glob(os.path.join(args.runs, "*.txt")), key=os.path.getmtime):
        side, pair, entry = os.path.basename(path).split(".")[:3]
        for name, iters, metrics in parse_bench(path):
            runs.append({"side": side, "pair": int(pair), "entry": int(entry), "bench": name,
                         "iterations": iters, **metrics})
    summary = {}
    for name in dict.fromkeys(r["bench"] for r in runs):
        by = {(r["side"], r["pair"]): r for r in runs if r["bench"] == name}
        pairs = sorted({p for (_, p) in by if ("parent", p) in by and ("change", p) in by})
        block = {}
        for unit in by[next(iter(by))]:
            if not unit.startswith("ns/") or not pairs:
                continue
            p = [by["parent", i][unit] for i in pairs]
            c = [by["change", i][unit] for i in pairs]
            ratios = [b / a for a, b in zip(p, c) if a]
            wins = sum(1 for a, b in zip(p, c) if b < a)
            text = (f"{statistics.median(p):.6g} -> {statistics.median(c):.6g} (median change/parent ratio "
                    f"{statistics.median(ratios):.3f}, change faster in {wins} of {len(pairs)} pairs, "
                    f"parent IQR {iqr(p):.4g})")
            block[unit] = text
            print(f"{name:60s} {unit:14s} {text}")
        summary[name] = block
    doc = load_doc(args.out)
    doc.setdefault("pr", args.pr)
    doc.setdefault("change", args.change)
    doc.setdefault("host", args.host)
    doc["micro"] = {
        "harness": args.harness,
        "host": args.host,
        "cpu": 1,
        "pairs": args.pairs,
        "entries": args.entries.split(","),
        "summary": summary,
        "runs": runs,
    }
    save_doc(doc, args.out)


def check_micro(m):
    """Returns the first schema fault of a micro block, or None."""
    for key, kind in (("harness", str), ("host", str), ("pairs", int), ("entries", list),
                      ("summary", dict), ("runs", list)):
        if not isinstance(m.get(key), kind):
            return f"micro.{key}: missing or not a {kind.__name__}"
    if not m["runs"]:
        return "micro.runs is empty"
    sides = {}
    for i, r in enumerate(m["runs"]):
        if r.get("side") not in SIDES:
            return f"micro.runs[{i}]: side {r.get('side')!r}"
        for key in ("pair", "entry", "iterations"):
            if not isinstance(r.get(key), int):
                return f"micro.runs[{i}]: {key} missing or not an int"
        if not isinstance(r.get("bench"), str) or not r["bench"].startswith("Benchmark"):
            return f"micro.runs[{i}]: no bench name"
        if not isinstance(r.get("ns/op"), (int, float)):
            return f"micro.runs[{i}]: no ns/op"
        for k, v in r.items():
            if "/" in k and not isinstance(v, (int, float)):
                return f"micro.runs[{i}].{k} is not a number"
        sides.setdefault((r["bench"], r["pair"]), set()).add(r["side"])
    for (b, p), got in sorted(sides.items()):
        if got != set(SIDES):
            return f"micro: {b} pair {p} has only {sorted(got)}"
    for b in {b for b, _ in sides}:
        if b not in m["summary"]:
            return f"micro.summary: no {b}"
    return None


def check(path):
    """Returns the first schema fault of the file at path, or None."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return f"unreadable: {e}"
    for key, kind in (("pr", int), ("change", str), ("host", str)):
        if not isinstance(doc.get(key), kind):
            return f"{key}: missing or not a {kind.__name__}"
    if "micro" in doc:
        fault = check_micro(doc["micro"])
        if fault or "untraced_pairs" not in doc:
            return fault  # a micro-only file has no end-to-end keys
    for key, kind in (("harness", str), ("claim", str), ("summary", dict), ("untraced_pairs", list),
                      ("traced", list)):
        if not isinstance(doc.get(key), kind):
            return f"{key}: missing or not a {kind.__name__}"
    rows = doc["untraced_pairs"]
    if not rows:
        return "untraced_pairs is empty"
    pairs = {}
    for i, r in enumerate(rows):
        for key in ROW_KEYS:
            if key not in r:
                return f"untraced_pairs[{i}]: no {key}"
        if r["side"] not in SIDES:
            return f"untraced_pairs[{i}]: side {r['side']!r}"
        if not isinstance(r["notes"], list):
            return f"untraced_pairs[{i}]: notes is not a list"
        metrics = [k for k in r if k not in ROW_KEYS]
        if not metrics:
            return f"untraced_pairs[{i}]: no metrics"
        for k in metrics:
            if not isinstance(r[k], (int, float)):
                return f"untraced_pairs[{i}].{k} is not a number"
            if not k.endswith("_measured") and k + "_measured" not in r:
                return f"untraced_pairs[{i}]: {k} has no as-measured twin"
        if not r["host_speed"] > 0:
            return f"untraced_pairs[{i}]: host_speed {r['host_speed']}"
        pairs.setdefault((r["workload"], r["seed"]), set()).add(r["side"])
    for (w, s), sides in sorted(pairs.items()):
        if sides != set(SIDES):
            return f"{w} seed {s} has no pair: only {sorted(sides)}"
    for w in {w for w, _ in pairs}:
        if f"{w}_medians_parent_to_change" not in doc["summary"]:
            return f"summary: no {w}_medians_parent_to_change"
    for i, t in enumerate(doc["traced"]):
        if not isinstance(t.get("workload"), str) or not isinstance(t.get("seeds"), list):
            return f"traced[{i}]: no workload or seeds"
        for side in SIDES:
            for name, vals in t.get(side, {}).items():
                if len(vals) != len(t["seeds"]):
                    return f"traced[{i}].{side}.{name}: {len(vals)} values for {len(t['seeds'])} seeds"
    return None


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write")
    for flag in ("runs", "benchmark", "out", "change", "host", "harness", "claim", "workloads"):
        w.add_argument("--" + flag, required=True)
    w.add_argument("--pr", type=int, required=True)
    m = sub.add_parser("micro")
    for flag in ("runs", "out", "change", "host", "harness", "entries"):
        m.add_argument("--" + flag, required=True)
    m.add_argument("--pr", type=int, required=True)
    m.add_argument("--pairs", type=int, required=True)
    c = sub.add_parser("check")
    c.add_argument("file")
    args = ap.parse_args()
    if args.cmd in ("write", "micro"):
        {"write": write, "micro": micro}[args.cmd](args)
        return
    fault = check(args.file)
    if fault:
        print(f"benchpairs: {args.file}: schema check failed: {fault}", file=sys.stderr)
        sys.exit(1)
    print(f"{args.file}: schema ok")


if __name__ == "__main__":
    main()
