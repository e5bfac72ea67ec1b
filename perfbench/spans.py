"""In-memory spans around the public calls of each rngts layer.

The benchmark patches names from outside the package; nothing under src/
changes.  A span is [layer, name, test, start, end, parent]; `test` is
the alias of the test whose `execute` was running when the span opened.
A layer's self time is the sum over its spans of duration minus the
duration of their child spans.

Layers and the calls spanned:
  cli      rngts.cli.main (the root span, opened by the caller)
  runner   load_manifest, run_suite and _run_cell, as cli and run_suite
           look them up
  battery  TestCase.execute, and the cached exact laws
           (collision_null_distribution, maurer_reference)
  genkit   top-level RandomStream.next_block and unread, each engine's
           seed, and warmup (SeedableStream.warmup and the runner's
           discard loop); calls nested inside another genkit call are
           counted, not spanned
  stats    the p-value numerics, patched where battery.base imported them
  report   write_xml and render_html, as cli looks them up
"""

from __future__ import annotations

import time
from collections import defaultdict

import rngts.battery.base as battery_base
import rngts.battery.games as games
import rngts.battery.spatial as spatial
import rngts.cli as cli
import rngts.runner as runner
from rngts.battery.base import TestCase
from rngts.genkit.base import RandomStream, SeedableStream

STATS_NAMES = ("chi_square_statistic", "chi_square_pvalue", "ks_statistic",
               "ks_pvalue", "gaussian_pvalue")
EXACT_LAWS = ((spatial, "collision_null_distribution"),
              (games, "maurer_reference"))
LAYERS = ("cli", "runner", "battery", "genkit", "stats", "report")

_now = time.perf_counter


def clear_law_caches() -> None:
    """Make the next session pay the exact laws' first-call cost again."""
    for module, name in EXACT_LAWS:
        getattr(module, name).cache_clear()


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found += [sub] + _subclasses(sub)
    return found


class Tracer:
    """Installs span wrappers; `full=False` times only run_suite and cells.

    The light mode is safe under --jobs N: cells record durations only.
    The full mode keeps a span stack and must run at --jobs 1.
    """

    def __init__(self, alias_of: dict, full: bool = True):
        self.alias_of = alias_of      # TestCase.test_name -> alias
        self.full = full
        self.spans = []
        self.cell_seconds = []
        self.run_suite_seconds = 0.0
        self.next_block_calls = 0
        self.words = defaultdict(int)  # alias -> raw words its cells drew
        self.cell_words = []           # per execute, in the order run
        self.cell_pvalues = []         # per execute: each result's p-values
        self.warmup_words = 0
        self._stack = []
        self._test = None
        self._genkit_depth = 0
        self._patches = []

    # -- span bookkeeping ------------------------------------------------

    def enter(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, self._test, _now(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][4] = _now()
        self._stack.pop()

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        setattr(owner, attr, wrapper_factory(original))
        self._patches.append((owner, attr, original, owned))

    def restore(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------

    def _spanned(self, layer: str, name: str):
        def factory(fn):
            def wrapper(*args, **kwargs):
                idx = self.enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit(idx)
            return wrapper
        return factory

    def _genkit(self, name: str, words=None):
        """Span a top-level genkit call; `words(args)` is its word count."""
        def factory(fn):
            def wrapper(*args):
                if name == "next_block":
                    self.next_block_calls += 1
                if self._genkit_depth:
                    return fn(*args)
                self._genkit_depth = 1
                idx = self.enter("genkit", name)
                try:
                    out = fn(*args)
                finally:
                    self.exit(idx)
                    self._genkit_depth = 0
                if name == "warmup":
                    self.warmup_words += words(args)
                elif words is not None and self._test is not None:
                    self.words[self._test] += words(args)
                return out
            return wrapper
        return factory

    def _execute(self, fn):
        def execute(case, stream, levels):
            outer = self._test
            alias = self._test = self.alias_of[case.test_name]
            drawn = self.words[alias]
            idx = self.enter("battery", "execute")
            try:
                outcome = fn(case, stream, levels)
            finally:
                self.exit(idx)
                self._test = outer
            self.cell_words.append(self.words[alias] - drawn)
            self.cell_pvalues.append([sorted(r.p_values.items())
                                      for r in outcome.results])
            return outcome
        return execute

    def _timed_cell(self, fn):
        def cell(*args):
            start = _now()
            try:
                return fn(*args)
            finally:
                self.cell_seconds.append(_now() - start)
        return cell

    def _timed_run_suite(self, fn):
        def run_suite(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.run_suite_seconds += _now() - start
        return run_suite

    def install(self) -> None:
        if not self.full:
            self._patch(runner, "_run_cell", self._timed_cell)
            self._patch(cli, "run_suite", self._timed_run_suite)
            return
        self._patch(cli, "load_manifest",
                    self._spanned("runner", "load_manifest"))
        self._patch(cli, "run_suite", self._spanned("runner", "run_suite"))
        self._patch(runner, "_run_cell", lambda fn: self._timed_cell(
            self._spanned("runner", "cell")(fn)))
        self._patch(cli, "write_xml", self._spanned("report", "write_xml"))
        self._patch(cli, "render_html",
                    self._spanned("report", "render_html"))
        self._patch(TestCase, "execute", self._execute)
        for module, name in EXACT_LAWS:
            self._patch(module, name, self._spanned("battery", "exact_law"))
        for name in STATS_NAMES:
            self._patch(battery_base, name, self._spanned("stats", name))
        self._patch(RandomStream, "next_block",
                    self._genkit("next_block", lambda a: a[1]))
        self._patch(RandomStream, "unread",
                    self._genkit("unread", lambda a: -len(a[1])))
        self._patch(SeedableStream, "warmup",
                    self._genkit("warmup", lambda a: a[1]))
        for cls in _subclasses(SeedableStream):
            if "seed" in vars(cls):
                self._patch(cls, "seed", self._genkit("seed"))
        if hasattr(runner, "_discard"):
            self._patch(runner, "_discard",
                        self._genkit("warmup", lambda a: a[1]))

    # -- summaries -------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds per layer, battery self seconds per test alias)."""
        child = [0.0] * len(self.spans)
        for layer, name, test, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_layer = dict.fromkeys(LAYERS, 0.0)
        per_test = defaultdict(float)
        for i, (layer, name, test, start, end, _) in enumerate(self.spans):
            own = end - start - child[i]
            per_layer[layer] += own
            if layer == "battery":
                per_test[test] += own
        return per_layer, dict(per_test)

    def total(self, layer: str, name: str) -> float:
        return sum(end - start for lay, nm, _, start, end, _ in self.spans
                   if lay == layer and nm == name)

    def count(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)
