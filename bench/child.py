"""One fresh benchmark process: cold start, then the workload's chunks.

Run by run.py as `python3 bench/child.py '<json spec>'` with the BLAS thread
count already pinned in the environment; prints one JSON line.  The cold
start is timed from before `import kickedtop` to the end of a one-point run
of the workload's command, so the generator cache starts empty.

Spec keys: workload, seed, mode ("setup": cold start only; "measure": then
the timed chunks, cycled for `seconds` seconds; "fixed": then the timed
chunks once; "record": then every chunk once, untimed), trace (wrap the
layers), spans (path for the span file), check (run the correctness gate).
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

LAYERS = (
    "spin.coherent_state",
    "floquet.generator_factors",
    "floquet.kick_unitary",
    "floquet.floquet_operator",
    "floquet.refresh",
    "floquet.unitarity_defect",
    "symmetry.sector_indices",
    "spectral.sector_eigenphases",
    "spectral.quasi_spectrum",
    "spectral.parity_resolved_r",
    "spectral.mean_spacing_ratio",
    "localization.sphere_averaged_s2",
    "dynamics.stroboscopic_series",
    "dynamics.dynamical_scan",
    "cli.main",
)
SIZED = ("floquet.floquet_operator", "floquet.refresh")


def import_cli():
    """kickedtop.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kickedtop.cli

    if Path(kickedtop.__file__).resolve().parent != src / "kickedtop":
        raise ImportError(f"kickedtop imported from {kickedtop.__file__}, not {src}")
    return kickedtop.cli


def run_command(cli, argv: list) -> tuple:
    """Exit code and standard output of one command, run in this process."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crash counts as a failed command, not a failed benchmark
        traceback.print_exc()
        code = 1
    return code, buf.getvalue()


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    cli = import_cli()
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name == "kickedtop" or name.startswith("kickedtop.")}
        tracer = Tracer(LAYERS, sized=SIZED)
        tracer.install(modules)

    runs = []                     # (chunk, exit code, output, seconds)
    setup_chunk = workload.setup_chunk(seed)
    code, text = run_command(cli, setup_chunk.argv)
    setup_s = time.perf_counter() - T0
    runs.append((setup_chunk, code, text, setup_s))

    if spec["mode"] == "measure":
        # cycle through the timed chunks; after one full pass, stop before a
        # chunk that would overrun the window
        timed = workload.timed(seed)
        cores = sorted(os.sched_getaffinity(0))
        start, c = time.perf_counter(), 0
        while True:
            # every pass over the chunks runs on the next core (BLAS_THREADS in run.py)
            os.sched_setaffinity(0, {cores[(c // len(timed)) % len(cores)]})
            runs.append(_timed(cli, timed[c % len(timed)]))
            c += 1
            if c >= len(timed) and time.perf_counter() - start + runs[-1][3] > spec["seconds"]:
                break
        os.sched_setaffinity(0, cores)
    elif spec["mode"] == "fixed":
        runs.extend(_timed(cli, chunk) for chunk in workload.timed(seed))
    elif spec["mode"] == "record":
        runs.extend(_timed(cli, chunk) for chunk in workload.chunks(seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "chunks": [{"points": len(chunk.points), "grid_points": chunk.points,
                    "seconds": sec, "code": code,
                    "sha256": hashlib.sha256(text.encode()).hexdigest()}
                   for chunk, code, text, sec in runs[1:]],
        "setup_sha256": hashlib.sha256("\n".join(_rows(runs[0][2])).encode()).hexdigest(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["points"] = sum(len(chunk.points) for chunk, *_ in runs)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    if spec["mode"] == "record":
        result["rows"] = {}
        for chunk, code, text, _ in runs:
            points = _points(workload, text)
            result["rows"].update({str(i): p for i, p in zip(chunk.points, points)})
    if spec.get("check"):
        result.update(gate(workload, seed, cli, runs))
    print(json.dumps(result))


def _timed(cli, chunk) -> tuple:
    start = time.perf_counter()
    code, text = run_command(cli, chunk.argv)
    return chunk, code, text, time.perf_counter() - start


# checks (and with it scipy) is imported only after the cold start is timed
def _rows(text: str) -> list:
    from checks import data_rows

    return data_rows(text)


def _points(workload, text: str) -> list:
    from checks import group_points

    return group_points(_rows(text), workload.rows_per_point)


def gate(workload, seed: int, cli, runs: list) -> dict:
    """Count failed points: non-zero exits, reference rows for seed 0, the
    oracle at the first and last grid points (recomputed by one check
    command), and a cold-start point equal to the check command's first."""
    import checks

    reference = checks.load_reference() if seed == 0 else None

    def verdicts(chunk, code, text, oracle=False):
        """One failure reason or None per point of the chunk, and its points."""
        points = _points(workload, text)
        if code != 0 or len(points) != len(chunk.points):
            return [f"{chunk.argv}: exit {code}, {len(points)} points"] * len(chunk.points), points
        out = []
        for index, point in zip(chunk.points, points):
            reason = None
            if reference is not None:
                reason = checks.compare_reference(workload, index, point, reference)
            if reason is None and oracle:
                reason = checks.compare_oracle(workload, index, point,
                                               checks.oracle_point(workload, index, seed))
            out.append(reason)
        return out, points

    check_chunk = workload.check_chunk(seed)
    reasons, check_points = verdicts(check_chunk, *run_command(cli, check_chunk.argv),
                                     oracle=True)
    setup_reasons, setup_points = verdicts(*runs[0][:3])
    if setup_reasons[0] is None and setup_points[:1] != check_points[:1]:
        setup_reasons[0] = "cold-start point differs from the check command's first point"
    elif setup_reasons[0] is None and reasons[0] is not None:
        setup_reasons[0] = "cold-start point: " + reasons[0]
    reasons += setup_reasons
    for chunk, code, text, _ in runs[1:]:
        reasons += verdicts(chunk, code, text)[0]
    failures = [r for r in reasons if r is not None]
    return {"attempted": len(reasons), "failed": len(failures), "failures": failures[:20],
            "setup_ok": setup_reasons[0] is None}


if __name__ == "__main__":
    main()
