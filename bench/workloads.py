"""The benchmark's workloads, each built from a sweep command in the README.

A product sweep (rcurve, entropy) runs its README grid in chunks: chunk c
holds grid points c, c + stride, c + 2 stride, ..., an arithmetic
progression, so one command with `--kxky first:last --steps k` computes
it.  A timed run repeats a fixed set of timed_chunks chunks spread over
the grid, so that each chunk is timed several times; a traced run
computes that set once.  Seed 0 gives the README
grid itself; any other seed shifts every grid point by the same
seed-derived fraction of a grid step.  The dynamics workload runs its whole
README command as one chunk and shifts z0 instead.  The package sees only
the generated command lines; all randomness lives here.  BENCHMARK.json
records why each workload was chosen.
"""

import math
import random
from dataclasses import dataclass


def shift(seed: int) -> float:
    """Seed-derived fraction in [0, 1); exactly 0 for seed 0."""
    return 0.0 if seed == 0 else random.Random(seed).random()


@dataclass(frozen=True)
class Chunk:
    """One command line of a run and the grid points it computes."""

    argv: list
    points: list          # grid indices, one per sweep point in output order


@dataclass(frozen=True)
class ProductSweep:
    """A command scanning the kick product over a README grid."""

    name: str
    command: tuple        # command words without --kxky and --steps
    lo: float
    hi: float
    steps: int
    stride: int
    value_kind: str       # "r" or "s2": which tolerance the value column takes
    timed_chunks: int = 1  # chunks a timed run cycles through

    rows_per_point = 1

    def grid(self, seed: int) -> list:
        step = (self.hi - self.lo) / (self.steps - 1)
        offset = shift(seed) * step
        return [lo + offset for lo in _linspace(self.lo, self.hi, self.steps)]

    def _chunk(self, seed: int, indices: list) -> Chunk:
        grid = self.grid(seed)
        first, last = grid[indices[0]], grid[indices[-1]]
        argv = [*self.command, "--kxky", f"{first!r}:{last!r}", "--steps", str(len(indices))]
        return Chunk(argv=argv, points=list(indices))

    def setup_chunk(self, seed: int) -> Chunk:
        return self._chunk(seed, [0])

    def chunks(self, seed: int) -> list:
        return [self._chunk(seed, list(range(c, self.steps, self.stride)))
                for c in range(self.stride)]

    def timed(self, seed: int) -> list:
        """The chunks a timed run cycles through, evenly spaced among all chunks."""
        chunks = self.chunks(seed)
        return [chunks[i * self.stride // self.timed_chunks] for i in range(self.timed_chunks)]

    def check_chunk(self, seed: int) -> Chunk:
        """The first and last grid points, for the oracle."""
        return self._chunk(seed, [0, self.steps - 1])


@dataclass(frozen=True)
class LadderScan:
    """The dynamics command: one point per n_x column."""

    name: str
    command: tuple        # command words without --z0 and --nx
    z0: float
    nx: tuple
    n_max: int

    value_kind = "jz"

    @property
    def rows_per_point(self) -> int:
        return self.n_max + 1

    @property
    def steps(self) -> int:
        return len(self.nx)

    def z0_for(self, seed: int) -> float:
        return self.z0 + 0.01 * shift(seed)

    def _chunk(self, seed: int, indices: list) -> Chunk:
        nx = ",".join(str(self.nx[i]) for i in indices)
        argv = [*self.command, "--z0", repr(self.z0_for(seed)), "--nx", nx,
                "--n-max", str(self.n_max)]
        return Chunk(argv=argv, points=list(indices))

    def setup_chunk(self, seed: int) -> Chunk:
        return self._chunk(seed, [0])

    def chunks(self, seed: int) -> list:
        return [self._chunk(seed, list(range(self.steps)))]

    timed = chunks

    def check_chunk(self, seed: int) -> Chunk:
        return self._chunk(seed, [0, self.steps - 1])


def _linspace(lo: float, hi: float, n: int) -> list:
    """numpy.linspace(lo, hi, n) in plain floats, endpoint exact."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


WORKLOADS = {w.name: w for w in (
    ProductSweep(
        name="rcurve",
        command=("rcurve", "--two-j", "400", "--ratio", "1.7", "--workers", "1"),
        lo=10.0, hi=4000.0, steps=60, stride=60, value_kind="r", timed_chunks=2),
    ProductSweep(
        name="rcurve_delta",
        # two_j 200, not the README's 400: at 400 the memory-bound dense eigh
        # of every kick spread points_per_s by 28% between runs, at 200 by 11%
        command=("rcurve", "--two-j", "200", "--ratio", "1.7", "--delta", "1.6",
                 "--workers", "1"),
        lo=800 * math.pi, hi=4000 * math.pi, steps=40, stride=20, value_kind="r",
        timed_chunks=2),
    ProductSweep(
        name="entropy",
        command=("entropy", "--two-j", "200", "--ratio", "1.7", "--grid", "32",
                 "--workers", "1"),
        lo=10.0, hi=2600.0, steps=40, stride=8, value_kind="s2"),
    LadderScan(
        name="dynamics",
        command=("dynamics", "--two-j", "400", "--ky", "pi:8", "--workers", "1"),
        z0=0.5, nx=(2, 4, 7, 10, 14, 18), n_max=500),
)}
