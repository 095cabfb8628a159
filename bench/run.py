"""Benchmark of the README sweep commands: end-to-end and per-layer metrics.

    python3 bench/run.py --workload rcurve --seed 0 --seconds 22 --trace 0
    python3 bench/run.py --workload all              # every workload, one table
    python3 bench/run.py --compare OLD.json NEW.json # ratios, never gates
    python3 bench/run.py --record-reference          # rewrite reference/seed0.json

Every measurement runs in fresh Python processes (child.py) with the BLAS
thread count pinned to 1 and `--workers 1`.

--trace 0 reports, per workload:
  setup_s       median over 3 fresh processes of `import kickedtop` plus a
                one-point run of the command, caches cold
  points_per_s  sweep points per second of one pass over the timed chunks,
                caches warm, each chunk timed by its fastest repetition
                while they cycle for --seconds seconds
  peak_rss_mb   peak resident memory of the measuring process
and prints fail_frac, the failed share of attempted points, beside them.
--trace 1 runs the timed chunks once untraced and then traced, requires
byte-identical outputs, and reports calls and self time per layer plus the
derived per-point counts.  Results, with an environment block, go to
bench/out/; spans go to bench/out/spans_<workload>_seed<seed>.jsonl.
The last line of standard output is one JSON object; the exit code is 0
only when every point passed the correctness gate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROCESSES = 3
RUN_BUDGET_S = 170          # a run must end within 180 s

UNITS = {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB", "fail_frac": "1",
         "calls": "count", "self_ms": "ms", "solves_per_point": "1/point",
         "builds_per_point": "1/point", "unitarity_checks_per_point": "1/point",
         "operator_mb": "MB", "overhead_frac": "1"}


# One BLAS thread, and each timed repetition on the next core (child.py):
# other tenants of the host slow each core by up to 1.9 times, in phases of
# ten seconds or more that come and go on the two cores independently.  A
# multi-threaded solve runs at the pace of the slower core and stalls when
# anything else takes a core; a single-threaded one runs at the pace of its
# own core, so a chunk's fastest repetition is more often on a quiet one.
BLAS_THREADS = 1


def cores() -> int:
    return len(os.sched_getaffinity(0))


def spawn(spec: dict, deadline: float) -> dict:
    """Run child.py in a fresh process; its JSON result, or an "error" entry
    when it fails or is still running at `deadline` (time.monotonic())."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}"}
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = None
    init = ROOT / "src" / "kickedtop" / "__init__.py"
    for line in init.read_text(encoding="utf-8").splitlines():
        if line.startswith("__version__"):
            version = line.split("=")[1].strip().strip("\"'")
    return {
        "cores": cores(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kickedtop": version,
        "git_revision": git_revision(),
        "machine": platform.machine(),
    }


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(name: str, seed: int, seconds: int) -> dict:
    base = {"workload": name, "seed": seed, "seconds": seconds}
    deadline = time.monotonic() + RUN_BUDGET_S
    children = [spawn({**base, "mode": "setup"}, deadline)
                for _ in range(SETUP_PROCESSES - 1)]
    children.append(spawn({**base, "mode": "measure", "check": True}, deadline))
    errors = [c["error"] for c in children if "error" in c]
    if errors:
        return _broken(name, errors)
    measure = children[-1]
    failures = list(measure["failures"])
    failed = measure["failed"]
    # every cold start computes the same first point, which the gate checked once
    for c in children[:-1]:
        if c["setup_sha256"] != measure["setup_sha256"]:
            failures.append("cold-start outputs differ between fresh processes")
            failed += 1
        elif not measure["setup_ok"]:
            failed += 1
    attempted = measure["attempted"] + len(children) - 1
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "points_per_s": pass_rate(measure["chunks"]),
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    rates = [c["points"] / c["seconds"] for c in measure["chunks"]]
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "fail_frac": failed / attempted, "chunk_rates": rates}


def pass_rate(chunks: list) -> float:
    """Points per second of one pass over the distinct chunks, each timed by
    its fastest repetition: the one that the slow phases of the host (see
    BLAS_THREADS) touched least."""
    best = {}
    for c in chunks:
        key = tuple(c["grid_points"])
        best[key] = min(best.get(key, c["seconds"]), c["seconds"])
    return sum(len(key) for key in best) / sum(best.values())


def run_traced(name: str, seed: int) -> dict:
    base = {"workload": name, "seed": seed, "mode": "fixed"}
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = spawn(base, deadline)
    traced = spawn({**base, "trace": True, "check": True,
                    "spans": str(OUT / f"spans_{name}_seed{seed}.jsonl")}, deadline)
    errors = [c["error"] for c in (plain, traced) if "error" in c]
    if errors:
        return _broken(name, errors)
    failures = list(traced["failures"])
    failed = traced["failed"]
    for a, b in zip(plain["chunks"], traced["chunks"]):
        if a["sha256"] != b["sha256"]:
            failures.append("traced and untraced outputs differ")
            failed += b["points"]
    layers, points = traced["layers"], traced["points"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_ms"] = layers[layer]["self_ms"]

    def calls(*names):
        return sum(layers[n]["calls"] for n in names)

    metrics["spectral.solves_per_point"] = calls(
        "spectral.sector_eigenphases", "spectral.quasi_spectrum") / points
    metrics["floquet.builds_per_point"] = calls(
        "floquet.floquet_operator", "floquet.refresh") / points
    metrics["floquet.unitarity_checks_per_point"] = calls("floquet.unitarity_defect") / points
    metrics["floquet.operator_mb"] = max(
        layers["floquet.floquet_operator"]["bytes"], layers["floquet.refresh"]["bytes"]) / 1e6
    wall = [sum(c["seconds"] for c in child["chunks"]) for child in (plain, traced)]
    metrics["trace.overhead_frac"] = wall[1] / wall[0] - 1.0
    return {"attempted": traced["attempted"], "failed": failed, "failures": failures,
            "metrics": metrics, "fail_frac": failed / traced["attempted"], "points": points}


def _broken(name: str, errors: list) -> dict:
    """A run whose processes failed: every point of the sweep counts as failed."""
    steps = WORKLOADS[name].steps
    return {"attempted": steps, "failed": steps, "failures": errors, "metrics": {},
            "fail_frac": 1.0}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def compare(old_path: str, new_path: str) -> None:
    """Print new/old for every metric both results files hold. Reports only."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["workloads"]
    for name in sorted(set(old) & set(new)):
        for metric, value in new[name]["metrics"].items():
            base = old[name]["metrics"].get(metric)
            if base is None:
                continue
            ratio = f"{value / base:.3f}" if base else ("1.000" if value == base else "inf")
            print(f"{name:13s} {metric:44s} {base:14.6g} -> {value:14.6g} {unit(metric):8s}"
                  f" x{ratio}")


def record_reference() -> None:
    """Run every chunk of every workload at seed 0 and store the output rows,
    each with the oracle's smallest intra-sector spacing at that point.
    Refuses to store a point the oracle rejects."""
    import checks

    reference = {"environment": environment(), "workloads": {}}
    for name, workload in WORKLOADS.items():
        result = spawn({"workload": name, "seed": 0, "mode": "record"},
                       time.monotonic() + 1800)
        if "error" in result:
            raise SystemExit(f"{name}: {result['error']}")
        points = {}
        for index, rows in sorted(result["rows"].items(), key=lambda kv: int(kv[0])):
            want = checks.oracle_point(workload, int(index), 0)
            reason = checks.compare_oracle(workload, int(index), rows, want)
            if reason is not None:
                raise SystemExit(f"{name}: {reason}")
            points[index] = {"rows": rows, "min_spacing": want.get("min_spacing")}
        reference["workloads"][name] = points
        print(f"{name}: {len(points)} points agree with the oracle", flush=True)
    path = BENCH / "reference" / "seed0.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (ROOT / "src" / "kickedtop" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'kickedtop'}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        if args.trace:
            results[name] = run_traced(name, args.seed)
        else:
            results[name] = run_untraced(name, args.seed, args.seconds)
        res = results[name]
        for metric, value in res["metrics"].items():
            print(f"{name:13s} {metric:44s} {value:14.6g} {unit(metric)}")
        print(f"{name:13s} {'fail_frac':44s} {res['fail_frac']:14.6g} 1"
              f"  ({res['failed']} of {res['attempted']} points)")
        for reason in res["failures"]:
            print(f"{name:13s} FAILED {reason}", file=sys.stderr)

    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    doc = {"environment": environment(),
           "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace},
           "workloads": results}
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(doc, indent=1) + "\n",
                                             encoding="utf-8")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n in names for m, v in results[n]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": unit(m)}
                                  for m, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
