"""Paired benchmark runs of two checkouts: a base and a change.

    python3 tools/bench_pairs.py --base ../parent --change . --label mychange \
        --workloads eval_sweep,train_full --seeds 401-405 --seconds 30

For every workload and seed, `shiftbench/run.py --trace 0` runs once in each
checkout, one after the other; which checkout runs first alternates from seed
to seed, so a drift of the machine's speed does not favour either side. Each
run is a fresh process started in its checkout's root.

Before a workload's pairs, each checkout runs once on the first seed; these
warm-up runs take the session's cold start and are kept in the output as
"warmup", outside every median and count.

Writes BENCH_<label>.json (in --out-dir, the current directory by default):
- per checkout, its directory name, its git commit (None outside a git
  checkout) and `src_sha256`, a digest of the code it ran (`src_digest`);
- every run's end-to-end metrics, digests, error rate and order, the
  warm-up runs apart;
- per workload and metric, the medians of both sides, the base's
  interquartile range, in how many pairs the change was better, and a
  verdict, with "better" and "bound" read from the change's
  BENCHMARK.json;
- per workload, seed and artifact (steplog, weights, report), whether the
  two runs' digests are equal.

At the end it prints these per workload and metric as a table on stderr.
The verdict names each of `gain`, `separated` and `worse_than_bound` that
holds (see `summarize`).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

SIDES = ("base", "change")


def listed_once(items: list, what: str) -> list:
    """`items`, refused when one is listed twice: runs are paired by seed,
    and a workload's runs are kept under its name, so a repeat would
    silently replace the runs before it."""
    twice = sorted({x for x in items if items.count(x) > 1})
    if twice:
        raise argparse.ArgumentTypeError(f"{what} listed twice: {', '.join(map(str, twice))}")
    return items


def parse_seeds(text: str) -> list[int]:
    """"401-405" or "401,403,410": at least one seed, ascending ranges, no
    seed twice."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi or lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not a seed or a seed range") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"seed range {part!r} descends")
        seeds += range(first, last + 1)
    return listed_once(seeds, "seed")


def commit_of(checkout: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_digest(checkout: str) -> str:
    """sha256 over the checkout's src/**/*.py, in sorted order of their
    relative paths: each path, then its byte count and bytes."""
    root = pathlib.Path(checkout)
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.glob("src/**/*.py")):
        data = (root / rel).read_bytes()
        h.update(f"{rel}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; its detail and result records."""
    argv = [sys.executable, "shiftbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall_s = time.perf_counter() - t
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digests": detail["digests"], "error_rate": detail["error_rate"],
            "correct": result["correct"], "wall_s": wall_s,
            "environment": detail["environment"]}


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def paired(runs: list[dict]) -> dict[int, dict[str, dict]]:
    """Runs by seed and side, for the seeds run on both sides."""
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    return {seed: p for seed, p in sorted(by_seed.items()) if set(p) == set(SIDES)}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: medians per side, the base's IQR, the change's wins over
    the pairs (seed by seed, ties counting for neither), and a verdict:
    - gain: the change wins at least nine tenths of the pairs and its median
      beats the base's by more than the base's IQR;
    - separated: every change run is better than every base run, which
      resolves a metric even where the runs spread wider than its bound;
    - worse_than_bound: the change's median is worse than the base's by more
      than the metric's bound, a fraction of the base's median (None for a
      metric without a bound)."""
    pairs = list(paired(runs).values())
    out = {}
    for name in sorted(pairs[0]["base"]["metrics"]) if pairs else []:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        lower = better.get(name, "lower") == "lower"

        def beats(a: float, b: float) -> bool:
            return a < b if lower else a > b

        wins = sum(beats(c, b) for b, c in zip(base, change))
        q1, q3 = quartiles(base)
        base_median, change_median = statistics.median(base), statistics.median(change)
        gap = abs(change_median - base_median)
        bound = (bounds or {}).get(name)
        out[name] = {"better": "lower" if lower else "higher", "pairs": len(pairs),
                     "base_median": base_median, "change_median": change_median,
                     "base_iqr": q3 - q1, "change_wins": wins,
                     "verdict": {
                         "gain": (wins >= 0.9 * len(pairs) and beats(change_median, base_median)
                                  and gap > q3 - q1),
                         "separated": all(beats(c, b) for c in change for b in base),
                         "worse_than_bound": None if bound is None else (
                             beats(base_median, change_median)
                             and gap > bound * abs(base_median))}}
    return out


def digests_equal(runs: list[dict]) -> dict[str, dict[str, bool]]:
    """Per seed run on both sides and per artifact of either side: whether
    the base's and the change's digests are equal."""
    out = {}
    for seed, p in paired(runs).items():
        base, change = p["base"]["digests"], p["change"]["digests"]
        out[str(seed)] = {name: base.get(name) == change.get(name)
                          for name in sorted({**base, **change})}
    return out


def verdict_text(v: dict[str, bool | None]) -> str:
    """The verdict's true flags, comma-separated; "-" when none holds."""
    return ",".join(flag for flag, on in v.items() if on) or "-"


def summary_table(workloads: dict) -> list[str]:
    """One row per workload and metric: both medians, the base's IQR, the
    change's wins over the pairs, the verdict, and over how many seeds each
    artifact's digests were equal."""
    rows = [f"{'workload':<12} {'metric':<14} {'base':>10} {'change':>10} {'base_iqr':>10} "
            f"{'wins':>6}  {'verdict':<32} digests_equal"]
    for workload, w in workloads.items():
        seeds = list(w["digests_equal"].values())
        artifacts = sorted({a for per_seed in seeds for a in per_seed})
        digests = " ".join(f"{a} {sum(s.get(a, False) for s in seeds)}/{len(seeds)}"
                           for a in artifacts)
        for name, m in w["pairs"].items():
            rows.append(f"{workload:<12} {name:<14} {m['base_median']:>10.4g} "
                        f"{m['change_median']:>10.4g} {m['base_iqr']:>10.4g} "
                        f"{m['change_wins']:>3}/{m['pairs']:<2}  "
                        f"{verdict_text(m['verdict']):<32} {digests}")
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout of the base commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--workloads", default="eval_sweep,train_full",
                   type=lambda text: listed_once(text.split(","), "workload"))
    p.add_argument("--seeds", default="401-403", type=parse_seeds, help='"401-405" or "401,403"')
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out-dir", default=".")
    args = p.parse_args(argv)
    checkouts = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    seeds = args.seeds
    doc = {"label": args.label, "seconds": args.seconds, "seeds": seeds,
           "command": "shiftbench/run.py --workload W --seed S --seconds "
                      f"{args.seconds:g} --trace 0",
           "checkouts": {side: {"dir": os.path.basename(d), "commit": commit_of(d),
                                "src_sha256": src_digest(d)}
                         for side, d in checkouts.items()},
           "workloads": {}}
    for workload in args.workloads:
        # one discarded run per side first, so that the session's cold start
        # (file cache, imports) lands on neither side's pairs
        plan = [("warmup", seeds[0], side, position) for position, side in enumerate(SIDES)]
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            plan += [("runs", seed, side, position) for position, side in enumerate(order)]
        done: dict[str, list[dict]] = {"warmup": [], "runs": []}
        for kind, seed, side, position in plan:
            rec = run_once(checkouts[side], workload, seed, args.seconds)
            doc.setdefault("environment", rec.pop("environment"))
            done[kind].append({"seed": seed, "side": side, "position": position, **rec})
            print(f"{workload} {'warm-up ' * (kind == 'warmup')}seed {seed} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in sorted(rec["metrics"].items())),
                  file=sys.stderr)
        runs = done["runs"]
        doc["workloads"][workload] = {"warmup": done["warmup"], "runs": runs,
                                      "pairs": summarize(runs, better, bounds),
                                      "digests_equal": digests_equal(runs)}
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("\n".join(summary_table(doc["workloads"])), file=sys.stderr)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
