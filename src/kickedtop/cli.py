"""Command-line front end for parameter sweeps and reports.

Subcommands: spectrum | rgrid | rcurve | entropy | dynamics | symcheck |
stages.  Kick strengths are accepted raw or as multiples of pi with a
"pi:" prefix ("pi:16.4"); ranges are "lo:hi" with either component
optionally prefixed ("pi:13:pi:20").  Non-finite kick strengths, ratios
and --delta are rejected as they are parsed, and so are negative kick
strengths, products and --delta, naming the option and the text given
(entropy also rejects a product of 0).  CSV and JSON outputs embed the
full run configuration and a schema tag; records are ordered by grid
index no matter how many workers run, so identical configurations give
identical files.

Each subcommand registers only the options it reads: --workers on the
five sweeps, --delta on every command that builds an operator, and
--variant on entropy, dynamics and symcheck.  spectrum, rgrid and rcurve
use quasi-energies only, which agree across orderings, so they always
build the plain ordering (recorded as "variant": "plain" in the config).

Each command parses and checks all of its options and returns the job
that builds the operators.  main then opens --out for appending, so a
path that cannot be written fails before any operator is built, and
rewrites the file only once the job has succeeded.  A failed command
leaves a file that was already at --out unchanged and removes one that
it created.

Exit codes: 0 success, 2 configuration error (an --out path that cannot
be written included), 3 numerical failure, with the grid point named.
"""

import argparse
import concurrent.futures
import ctypes
import functools
import json
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from .dynamics import dynamical_scan, scan_params
from .errors import NumericalError
from .floquet import VARIANTS, KickParams, floquet_operator
from .localization import probe_columns, sphere_averaged_s2, sphere_grid
from .spectral import (DEFAULT_BOUND_TOL, bound_window, parity_resolved_r, quasi_spectrum,
                       sector_eigenphases, stage_borders, stage_classify)
from .symmetry import verify_symmetries
from .spin import validate_two_j

SCHEMA_PREFIX = "kickedtop"
SCHEMA_VERSION = "v1"

# glibc's mallopt parameters M_TOP_PAD and M_MMAP_THRESHOLD, and the values
# main sets: the free heap to keep above the top of the heap, and the size
# from which a block is mapped on its own.  By default glibc hands freed
# memory at the top back to the kernel, and a sweep faults the same pages in
# again at every point: at two_j 200 an entropy point took about 1400 page
# faults.  Setting M_TOP_PAD also freezes the mmap threshold, which glibc
# otherwise raises as mapped blocks are freed, wherever the process's
# history left it: an rcurve point at two_j 400 took about 26 page faults
# with the threshold at 128 KiB, and about 4400 in one fresh checkout run
# without a bytecode cache.  So the threshold is set too, to 32 MiB, above
# every block of a sweep point.
M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3
TOP_PAD_BYTES, MMAP_THRESHOLD_BYTES = 64 << 20, 32 << 20


def parse_kappa(text: str, name: str = "kick strength", option: str = "") -> float:
    """A finite kick strength, either a float or 'pi:<float>' for multiples
    of pi; name is the quantity that an error message blames.  Given the
    option that text was passed to, a negative value is refused too,
    naming the option and the text."""
    value = float(text[3:]) * math.pi if text.startswith("pi:") else float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    if option and value < 0:
        raise ValueError(f"{name} must be non-negative, got {option}={text!r}")
    return value


def parse_range(text: str, name: str = "kick strength", option: str = "") -> tuple[float, float]:
    """A 'lo:hi' range of name whose components may carry the pi: prefix;
    given its option, a negative lo is refused as parse_kappa refuses a
    negative value."""
    cut = text.find(":", len("pi:") if text.startswith("pi:") else 0)
    if cut < 0:
        raise ValueError(f"range must have two components lo:hi, got {text!r}")
    lo, hi = parse_kappa(text[:cut], name), parse_kappa(text[cut + 1:], name)
    if hi < lo:
        raise ValueError(f"range is empty: {text!r}")
    if option and lo < 0:
        raise ValueError(f"{name} must be non-negative, got {option}={text!r}")
    return lo, hi


def non_negative_float(text: str) -> float:
    """The argparse type of --delta: a finite, non-negative number."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return np.linspace(lo, hi, steps)


def _split_product(product: float, ratio: float) -> tuple[float, float]:
    """Kick strengths with kappa_y / kappa_x = ratio at fixed product."""
    if not (ratio > 0 and math.isfinite(ratio)):
        raise ValueError(f"--ratio must be positive and finite, got {ratio!r}")
    kappa_x = math.sqrt(product / ratio)
    kappa_y = kappa_x * ratio
    if not (math.isfinite(kappa_x) and math.isfinite(kappa_y)):
        raise ValueError(f"kxky {product!r} with --ratio {ratio!r} gives an infinite "
                         f"kick strength")
    return kappa_x, kappa_y


def _config_dict(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key != "func"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv(command: str, config: dict, header: list[str], rows: list[list]) -> str:
    lines = [f"# schema: {SCHEMA_PREFIX}.{command}.{SCHEMA_VERSION}",
             f"# config: {json.dumps(config, sort_keys=True)}",
             ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(command: str, config: dict, payload: dict) -> str:
    doc = {"schema": f"{SCHEMA_PREFIX}.{command}.{SCHEMA_VERSION}",
           "config": config, **payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _mapper(workers: int) -> Callable:
    """map(fn, items) as a list in item order, on `workers` threads."""
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    if workers == 1:
        return lambda fn, items: [fn(item) for item in items]

    def pool_map(fn, items) -> list:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    return pool_map


def _product_points(args) -> list:
    """The --kxky grid as ([kxky], kx, ky) points with ky / kx = --ratio."""
    lo, hi = parse_range(args.kxky, "kxky", "--kxky")
    return [([product], *_split_product(product, args.ratio))
            for product in _grid(lo, hi, args.steps).tolist()]


def _sweep(args, command: str, header: list[str], points: list,
           row) -> Callable[[], str]:
    """The job that gives, for every ([key columns], kx, ky) of points, the
    key columns followed by row(operator at kx, ky) as one CSV record, in
    grid order for any number of workers.  The kick parameters of every
    point are checked here, before the job runs."""
    two_j = validate_two_j(args.two_j)
    pool_map = _mapper(args.workers)
    jobs = [(keys, KickParams(kappa_x=kx, kappa_y=ky, delta=args.delta, variant=args.variant))
            for keys, kx, ky in points]

    def evaluate(job) -> list:
        keys, params = job
        try:
            return keys + row(floquet_operator(params, two_j))
        except NumericalError as exc:
            where = ", ".join(f"{name} {_fmt(key)}" for name, key in zip(header, keys))
            raise NumericalError(f"at {where}: {exc}") from exc

    return lambda: _csv(command, _config_dict(args), header, pool_map(evaluate, jobs))


def _stage(operator) -> str:
    return stage_classify(operator.params.kappa_x, operator.params.kappa_y, operator.two_j)


def cmd_spectrum(args) -> Callable[[], str]:
    dim = 2 * (validate_two_j(args.two_j) + 1)
    header = ["kxky"] + [f"epsilon_{i}" for i in range(1, dim + 1)]
    return _sweep(args, "spectrum", header, _product_points(args),
                  lambda op: np.sort(sector_eigenphases(op), axis=None).tolist())


def _check_ratio_levels(two_j) -> None:
    """Reject a two_j whose parity sectors hold too few levels for r."""
    if validate_two_j(two_j) < 2:
        raise ValueError(f"spacing ratios need two_j >= 2 (three levels per parity "
                         f"sector), got {two_j}")


def cmd_rgrid(args) -> Callable[[], str]:
    _check_ratio_levels(args.two_j)
    kx_values = _grid(*parse_range(args.kx, "kappa_x", "--kx"), args.steps)
    ky_values = _grid(*parse_range(args.ky, "kappa_y", "--ky"), args.steps)
    points = [([kx, ky], kx, ky) for kx in kx_values for ky in ky_values]

    def row(op) -> list:
        stats = parity_resolved_r(sector_eigenphases(op))
        return [stats["r_mean"], stats["r_plus"], stats["r_minus"], _stage(op)]

    return _sweep(args, "rgrid", ["kx", "ky", "r_mean", "r_plus", "r_minus", "stage"], points, row)


def cmd_rcurve(args) -> Callable[[], str]:
    _check_ratio_levels(args.two_j)
    bound_window((), args.tol_bound)  # reject a bad --tol-bound before any solve

    def row(op) -> list:
        eps = sector_eigenphases(op)
        n_bound = int(bound_window(eps, args.tol_bound)[1].sum())
        return [parity_resolved_r(eps)["r_mean"], _stage(op), n_bound]

    return _sweep(args, "rcurve", ["kxky", "value", "stage", "n_bound"], _product_points(args),
                  row)


def cmd_entropy(args) -> Callable[[], str]:
    two_j = validate_two_j(args.two_j)
    points = _product_points(args)
    if points[0][0] == [0.0]:    # the grid starts at its least product
        raise ValueError(f"kxky must be positive for entropy, got --kxky={args.kxky!r}")
    probes = probe_columns(two_j, sphere_grid(args.grid, args.grid))

    def row(op) -> list:
        result = sphere_averaged_s2(quasi_spectrum(op), probes)
        return [result.s2_mean, _stage(op), result.baseline]

    return _sweep(args, "entropy", ["kxky", "value", "stage", "baseline"], points, row)


def cmd_dynamics(args) -> Callable[[], str]:
    two_j = validate_two_j(args.two_j)
    kappa_y = parse_kappa(args.ky, "kappa_y", "--ky")
    n_x_list = []
    for tok in filter(None, args.nx.split(",")):
        try:
            n_x_list.append(int(tok))
        except ValueError:
            raise ValueError(f"--nx takes comma-separated integers, got {tok!r}") from None
    if not n_x_list:
        raise ValueError("--nx must list at least one integer")
    scan_params(kappa_y, args.z0, n_x_list, args.n_max, args.delta, args.variant)
    pool_map = _mapper(args.workers)

    def column(n_x: int):
        try:
            return dynamical_scan(two_j, kappa_y, args.z0, [n_x], args.n_max,
                                  delta=args.delta, variant=args.variant)[0]
        except NumericalError as exc:
            raise NumericalError(f"at n_x {n_x}: {exc}") from exc

    def job() -> str:
        j = two_j / 2.0
        rows = []
        for col in pool_map(column, n_x_list):
            for n in range(col.series.n.size):
                rows.append([int(col.series.n[n]), col.kappa_x,
                             col.series.jz_mean[n] / j, col.series.jz_std[n] / j])
        return _csv("dynamics", _config_dict(args),
                    ["n", "kx", "jz_mean_over_j", "jz_std_over_j"], rows)

    return job


def cmd_symcheck(args) -> Callable[[], str]:
    two_j = validate_two_j(args.two_j)
    variant = args.variant
    if variant is None:
        variant = "plain" if args.delta > 0 else "sym1"
    params = KickParams(kappa_x=parse_kappa(args.kx, "kappa_x", "--kx"),
                        kappa_y=parse_kappa(args.ky, "kappa_y", "--ky"),
                        delta=args.delta, variant=variant)
    config = _config_dict(args)
    config["variant"] = variant
    return lambda: _json("symcheck", config, {
        "report": verify_symmetries(floquet_operator(params, two_j)).as_dict()})


def cmd_stages(args) -> Callable[[], str]:
    two_j = validate_two_j(args.two_j)
    j = two_j / 2.0
    exact = stage_borders(two_j)
    approx = (math.pi * j / 2.0, math.pi * j, 2.0 * math.pi * j)
    rows = [[i + 1, exact[i], approx[i]] for i in range(3)]
    if args.out is not None:
        text = _csv("stages", _config_dict(args), ["border", "kxky_exact", "kxky_approx"], rows)
    else:
        lines = [f"stage borders for two_j = {two_j} (j = {j:g})",
                 f"{'border':>6}  {'kxky exact':>14}  {'large-j approx':>16}"]
        lines.extend(f"{i:>6}  {e:>14.4f}  {a:>16.4f}" for i, e, a in rows)
        text = "\n".join(lines) + "\n"
    return lambda: text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns
    a fresh namespace on every call, so one main call leaves nothing to the
    next."""
    parser = argparse.ArgumentParser(
        prog="kickedtop",
        description="Quasi-energy spectra, chaos diagnostics, and dynamics "
                    "of the twice-kicked coupled top.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, delta=True, workers=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--two-j", dest="two_j", type=int, required=True,
                       help="twice the top spin (integer >= 1)")
        if delta:
            p.add_argument("--delta", type=non_negative_float, default=0.0,
                           help="chirality-breaking strength in both kicks")
        if workers:
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    def product_sweep(name, func, help):
        p = command(name, func, help)
        p.add_argument("--kxky", required=True, help="product range lo:hi")
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--ratio", type=float, default=1.0, help="kappa_y / kappa_x")
        return p

    # quasi-energies agree across orderings, so spectrum, rgrid and rcurve build plain
    p = product_sweep("spectrum", cmd_spectrum, "quasi-energies along a kick-product range")
    p.set_defaults(variant="plain")

    p = command("rgrid", cmd_rgrid, "spacing-ratio statistics over a (kx, ky) grid")
    p.add_argument("--kx", required=True, help="kappa_x range lo:hi")
    p.add_argument("--ky", required=True, help="kappa_y range lo:hi")
    p.add_argument("--steps", type=int, required=True, help="steps per axis")
    p.set_defaults(variant="plain")

    p = product_sweep("rcurve", cmd_rcurve, "spacing-ratio statistics along a product range")
    p.add_argument("--tol-bound", dest="tol_bound", type=float, default=DEFAULT_BOUND_TOL,
                   help="bound-state detection tolerance in radians")
    p.set_defaults(variant="plain")

    p = product_sweep("entropy", cmd_entropy,
                      "sphere-averaged Renyi entropy along a product range")
    p.add_argument("--variant", choices=VARIANTS, default="sym1")
    p.add_argument("--grid", type=int, default=32, help="sphere quadrature size per axis")

    p = command("dynamics", cmd_dynamics, "stroboscopic Jz series at allowed kick strengths")
    p.add_argument("--variant", choices=VARIANTS, default="plain")
    p.add_argument("--ky", required=True, help="kappa_y (accepts pi: prefix)")
    p.add_argument("--z0", type=float, default=0.5, help="initial <Jz>/j")
    p.add_argument("--nx", required=True, help="comma-separated n_x ladder indices")
    p.add_argument("--n-max", dest="n_max", type=int, default=500)

    p = command("symcheck", cmd_symcheck, "symmetry-relation residuals at one point",
                workers=False)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--kx", required=True, help="kappa_x (accepts pi: prefix)")
    p.add_argument("--ky", required=True, help="kappa_y (accepts pi: prefix)")

    command("stages", cmd_stages, "kick-product borders between the four stages",
            delta=False, workers=False)

    return parser


def _run(job: Callable[[], str], out: str | None) -> None:
    """Write the text of job() to the file out, or to stdout when out is
    None.  Before the job runs, out is opened for appending, which checks
    that it can be written and leaves a file already there unchanged;
    the text replaces its contents once the job has succeeded.  If the
    job fails, a file that was already there is left unchanged; if the
    job or the write fails, a file this call created is removed."""
    if out is None:
        sys.stdout.write(job())
        return
    created = not os.path.lexists(out)
    open(out, "a", encoding="utf-8").close()
    try:
        text = job()
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except BaseException:
        if created:
            os.remove(out)
        raise


@functools.cache
def _pad_heap() -> None:
    """Ask the C library, once per process, to keep TOP_PAD_BYTES of freed
    heap instead of returning it to the kernel, and to serve every block
    below MMAP_THRESHOLD_BYTES from that heap; nothing where it has no
    mallopt.  The padding is address space: pages count only once used."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TOP_PAD, TOP_PAD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _pad_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args.func(args), args.out)    # the command checks its options first
    except (ValueError, OSError) as exc:   # an OSError names the --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
