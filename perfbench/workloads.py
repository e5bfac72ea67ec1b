"""The benchmark's workloads: which `rngts run` manifest each one builds.

A workload seed picks the manifest seeds and the file-source words from
fixed pools (index = seed mod pool size).  Every pool entry has per-cell
reference digests in reference.json, so every run's report can be checked
cell by cell whatever seed it was given.

catalog  all 22 catalog tests at default parameters x mt19937 x one seed,
         run with --jobs 1: the paper's full-battery run and the
         single-threaded baseline.  Battery kernels dominate it.
screen   ten cheap streaming tests x the six built-in engines (each with a
         non-zero warmup) and a file source x two seeds, run with
         --jobs 2: the "screen many generators" use.  Engines dominate it.

Each has a smoke variant at tiny sizes for the benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEVELS = (0.01, 0.05, 0.95, 0.99)
REPORT_DATE = "2000-01-01"

# aliases of the 22 catalog tests, in registry order
CATALOG_TESTS = (
    "chisqr_uniformity", "ks_uniformity", "gap", "serial", "poker",
    "coupon_collector", "permutation", "runs", "max_of_t", "collision",
    "serial_correlation", "birthday_spacings", "binary_rank", "parking_lot",
    "minimum_distance", "squeeze", "craps", "random_walk", "repetition",
    "gcd", "maurers_universal", "monkey_20bit",
)

SCREEN_TESTS = (
    "chisqr_uniformity", "ks_uniformity", "serial", "serial_correlation",
    "gap", "poker", "permutation", "runs", "max_of_t", "birthday_spacings",
)

# every built-in engine, with a non-zero warmup each
SCREEN_ENGINES = (
    ("minstd", 1009), ("randu", 2003), ("ecuyer1988", 3001),
    ("mt19937", 4001), ("lagged_fibonacci_1279", 5003),
    ("shuffled_minstd", 601),
)
FILE_WARMUP = 257

# engines timed standalone in the traced run; "file" reads a words file
MICRO_ENGINES = tuple(name for name, _ in SCREEN_ENGINES) + ("file",)

# parameters small enough that the whole catalog runs in about a second
TINY_PARAMS = {
    "chisqr_uniformity": {"n": 5000, "k": 64},
    "ks_uniformity": {"n": 2000},
    "gap": {"n_gaps": 1000},
    "serial": {"d": 8, "n_pairs": 2000},
    "poker": {"n_hands": 1000},
    "coupon_collector": {"n_segments": 500},
    "permutation": {"t": 3, "n_groups": 600},
    "runs": {"n_runs": 1000},
    "max_of_t": {"n_groups": 1000},
    "collision": {"m": 2**12, "n": 2**8},
    "serial_correlation": {"n": 5000},
    "birthday_spacings": {"m": 2**16, "n": 64, "reps": 20},
    "binary_rank": {"rows": 8, "cols": 8, "n_matrices": 500},
    "parking_lot": {"attempts": 1000, "side": 30.0},
    "minimum_distance": {"points": 500, "side": 1000.0, "reps": 10},
    "squeeze": {"games": 5000},
    "craps": {"games": 5000},
    "random_walk": {"walkers": 1000, "steps": 21},
    "repetition": {"bits": 12, "reps": 50},
    "gcd": {"pairs": 10000},
    "maurers_universal": {"L": 4, "Q": 160, "K": 2000},
    "monkey_20bit": {},
}


@dataclass(frozen=True)
class Inputs:
    """What one run hands to `rngts run`: a manifest and its cell keys."""

    manifest: Path
    jobs: int
    cells: tuple          # reference keys, in report order
    warmup_words: int     # raw words discarded by warmups over all cells
    file_path: Path       # words file (written for every workload)
    first_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str                 # "full" or "smoke"
    tests: tuple                 # aliases
    engines: tuple               # (engine name, warmup)
    with_file: bool
    seed_pool: tuple
    seeds_per_run: int
    file_words: int
    jobs: int

    def params(self, alias: str) -> dict:
        return TINY_PARAMS[alias] if self.variant == "smoke" else {}

    def manifest_seeds(self, seed: int) -> list:
        pool = self.seed_pool
        return [pool[(seed + i) % len(pool)] for i in range(self.seeds_per_run)]

    def file_key(self, seed: int) -> int:
        return seed % len(self.seed_pool)

    def generators(self, seed: int, file_path: Path) -> list:
        """Manifest generator entries, as (label, warmup, entry) triples."""
        gens = [(name, warmup, {"name": name, "warmup": warmup})
                for name, warmup in self.engines]
        if self.with_file:
            label = f"file:words-{self.file_key(seed)}"
            gens.append((label, FILE_WARMUP,
                         {"name": "file", "path": str(file_path),
                          "label": label, "warmup": FILE_WARMUP}))
        return gens

    def write_inputs(self, seed: int, workdir: Path,
                     tests: tuple = None) -> Inputs:
        """Write the manifest and words file for `seed` into workdir."""
        tests = self.tests if tests is None else tests
        workdir.mkdir(parents=True, exist_ok=True)
        file_path = workdir / f"words-{self.file_key(seed)}.bin"
        file_words(self.file_key(seed), self.file_words).tofile(file_path)
        gens = self.generators(seed, file_path)
        seeds = self.manifest_seeds(seed)
        manifest = {
            "generators": [entry for _, _, entry in gens],
            "seeds": seeds,
            "levels": list(LEVELS),
            "tests": [{"name": t, "parameters": self.params(t)}
                      for t in tests],
        }
        path = workdir / f"{self.name}-{seed}.json"
        path.write_text(json.dumps(manifest, indent=1))
        cells = tuple(
            cell_key(self.variant, label, warmup, s, t)
            for label, warmup, _ in gens for s in seeds for t in tests
        )
        warmups = sum(warmup for _, warmup, _ in gens) * len(seeds) * len(tests)
        return Inputs(manifest=path, jobs=self.jobs, cells=cells,
                      warmup_words=warmups, file_path=file_path,
                      first_seed=seeds[0])


def cell_key(variant: str, label: str, warmup: int, seed: int,
             alias: str) -> str:
    return f"{variant}|{label}|{warmup}|{seed}|{alias}"


def file_words(key: int, count: int) -> np.ndarray:
    """`count` little-endian 32-bit words of a splitmix64 stream.

    Written out here rather than taken from numpy's generators, whose
    streams are not promised to stay fixed across numpy versions.
    """
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64(key * 0xD1B54A32D192ED03 % 2**64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(32)).astype("<u4")


_CATALOG_POOL = (1, 331, 5489, 65537, 271828, 1000003, 8675309, 2718281828)
_SCREEN_POOL = (11, 97, 1234, 31337, 314159, 4194301, 123456789, 3141592653)


def _catalog(variant: str, pool: tuple) -> Workload:
    return Workload(name="catalog", variant=variant, tests=CATALOG_TESTS,
                    engines=(("mt19937", 0),), with_file=False,
                    seed_pool=pool, seeds_per_run=1, file_words=1 << 18,
                    jobs=1)


def _screen(variant: str, pool: tuple, file_words: int) -> Workload:
    return Workload(name="screen", variant=variant, tests=SCREEN_TESTS,
                    engines=SCREEN_ENGINES, with_file=True, seed_pool=pool,
                    seeds_per_run=2, file_words=file_words, jobs=2)


WORKLOADS = {
    "full": {
        "catalog": _catalog("full", _CATALOG_POOL),
        "screen": _screen("full", _SCREEN_POOL, 1 << 18),
    },
    "smoke": {
        "catalog": _catalog("smoke", _CATALOG_POOL[:2]),
        "screen": _screen("smoke", _SCREEN_POOL[:2], 1 << 17),
    },
}
