"""In-memory spans around the package's public calls, for the traced run.

The tracer replaces public functions in the package's module namespaces with
wrappers that record (name, start, end, parent, job) spans; `uninstall`
puts the originals back, so untraced and traced passes run the same code.
Nothing in the package itself changes. Generators are timed across each
`next()` call, so a streamed interval is charged to the layer that made it.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("quadfield", "substitution", "tiling", "fractal", "dimension", "estimate",
          "render", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()
        self.box_results: list = []
        self._saved: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def wrap_gen(self, fn, name: str, counter: str):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def gen():
                produced = 0
                try:
                    while True:
                        i = self.open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.close(i)
                        produced += 1
                        yield item
                finally:
                    self.counts[counter] += produced

            return gen()

        return wrapper

    # --- installing wrappers into the package ---------------------------------

    def install(self) -> None:
        cli = importlib.import_module("metallic.cli")
        dimension = importlib.import_module("metallic.dimension")
        estimate = importlib.import_module("metallic.estimate")
        fractal = importlib.import_module("metallic.fractal")
        quadfield = importlib.import_module("metallic.quadfield")
        render = importlib.import_module("metallic.render")
        substitution = importlib.import_module("metallic.substitution")
        tiling = importlib.import_module("metallic.tiling")

        c = self.counts

        def letters(word, *a, **k):
            c["substitution.letters"] += len(word)

        def tiles(t, *a, **k):
            c["tiling.tiles"] += len(t.tiles)

        def built(cover, *a, **k):
            c["fractal.intervals_built"] += len(cover.intervals)

        def kept(cover, *a, **k):
            c["fractal.intervals_materialized"] += len(cover.intervals)

        def box(fit, spec, k_max, *a, **k):
            self.box_results.append((spec, k_max, fit.box_counts))

        def drawn(text, *a, **k):
            c["render.bytes"] += len(text.encode())
            c["render.segments"] += text.count('class="seg"') + text.count("\\draw") // 3

        plan = [
            # (defining module or class, attribute, span name, hook, other namespaces)
            (quadfield.QuadElement, "to_mpf", "quadfield.to_mpf", None, ()),
            (quadfield.MetallicParams, "gamma_mpf", "quadfield.gamma_mpf", None, ()),
            (substitution, "word_at_step", "substitution.word_at_step", letters,
             (tiling, fractal)),
            (substitution, "word_length", "substitution.word_length", None, (cli,)),
            (tiling, "tiling_at_step", "tiling.tiling_at_step", tiles, (fractal, render, cli)),
            (fractal, "cover_at_depth", "fractal.cover_at_depth", kept, (render,)),
            (fractal, "refine", "fractal.refine", built, ()),
            (fractal, "cover_summary", "fractal.cover_summary", None, (cli,)),
            (dimension, "dimension", "dimension.dimension", None, (cli,)),
            (estimate, "empirical_dimension", "estimate.empirical_dimension", None, (cli,)),
            (estimate, "box_dimension", "estimate.box_dimension", box, (cli,)),
            (render, "render_construction", "render.render_construction", drawn, (cli,)),
            (render, "render_tiling_stack", "render.render_tiling_stack", drawn, (cli,)),
        ]
        gens = [
            (substitution, "iter_word_at_step", "substitution.iter_word_at_step",
             "substitution.letters", (cli,)),
            (fractal, "iter_cover_intervals", "fractal.iter_cover_intervals",
             "fractal.intervals_streamed", (cli,)),
        ]
        for owner, attr, name, hook, others in plan:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, hook), others)
        for owner, attr, name, counter, others in gens:
            self._patch(owner, attr, self.wrap_gen(getattr(owner, attr), name, counter), others)

    def _patch(self, owner, attr, wrapped, others) -> None:
        for target in (owner, *others):
            self._saved.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # --- analysis ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [b - a for a, b in zip(self.t0, self.t1)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.t1[i] - self.t0[i]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration and summed self time."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            rec = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += self.t1[i] - self.t0[i]
            rec["self_s"] += own[i]
        return out

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent index, job id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, nid in enumerate(self.name):
                fh.write(json.dumps([self.names[nid], self.t0[i], self.t1[i],
                                     self.parent[i], self.job[i]]) + "\n")
