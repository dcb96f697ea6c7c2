"""Outside-in layer tracing of repdyn, from the benchmark's own files.

`Tracer.installed` replaces repdyn functions under the name their callers
look them up by: a module attribute such as
``repdyn.words.iter_sphere_products``, or a name one module imported from
another, such as ``repdyn.flowbundle.subspace_distance``.  No program file
changes, and leaving the context restores every original.

Coarse calls (a command, a scan, a sphere) are kept in memory as spans
holding name, start, end, parent span and self time.  Per-word calls are
only added into per-name sums and counts.  A generator's time is the time
spent inside its ``next()``.  A call's self time is its time minus the time
of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN = "span"
CALL = "call"

# (module, attribute, traced name, kind).  A linalg function imported into
# several modules is wrapped in each of them under one traced name.
TARGETS = (
    ("cli", "main", "cli.main", SPAN),
    ("cli", "cmd_dominate", "cli.cmd_dominate", SPAN),
    ("cli", "cmd_spectrum", "cli.cmd_spectrum", SPAN),
    ("cli", "cmd_split", "cli.cmd_split", SPAN),
    ("cli", "cmd_affine", "cli.cmd_affine", SPAN),
    ("cli", "cmd_flowmetric", "cli.cmd_flowmetric", SPAN),
    ("cli", "load_json", "cli.load_json", SPAN),
    ("cli", "load_generator_set", "cli.load_generator_set", SPAN),
    ("cli", "load_affine_set", "cli.load_affine_set", SPAN),
    ("cli", "parse_lines", "cli.parse_lines", SPAN),
    ("cli", "parse_geodesics", "cli.parse_geodesics", SPAN),
    ("cli", "write_csv", "cli.write_csv", SPAN),
    ("cli", "write_summary", "cli.write_summary", SPAN),
    ("cli", "subspace_distance", "linalg.subspace_distance", CALL),
    ("words", "iter_sphere_products", "words.iter_sphere_products", CALL),
    ("words", "map_sphere_products", "words.map_sphere_products", SPAN),
    ("words", "sampled_words", "words.sampled_words", SPAN),
    ("words", "evaluate", "words.evaluate", CALL),
    ("words", "flow_metric", "words.flow_metric", CALL),
    ("domination", "domination_scan", "domination.domination_scan", SPAN),
    ("spectrum", "sample_cone", "spectrum.sample_cone", SPAN),
    ("spectrum", "containment_check", "spectrum.containment_check", SPAN),
    ("spectrum", "involution_symmetry_check", "spectrum.involution_symmetry_check", SPAN),
    ("affine", "hks_test", "affine.hks_test", SPAN),
    ("affine", "eigenvalue_norm_one_check", "affine.eigenvalue_norm_one_check", SPAN),
    ("affine", "bounded_singular_check", "affine.bounded_singular_check", SPAN),
    ("flowbundle", "build_trajectory", "flowbundle.build_trajectory", SPAN),
    ("flowbundle", "estimate_splitting", "flowbundle.estimate_splitting", SPAN),
    ("flowbundle", "measure_rates", "flowbundle.measure_rates", SPAN),
    ("flowbundle", "splitting_at", "flowbundle.splitting_at", CALL),
    ("flowbundle", "bottom_singular_subspace", "linalg.bottom_singular_subspace", CALL),
    ("flowbundle", "subspace_distance", "linalg.subspace_distance", CALL),
    ("linalg", "subspace_distance", "linalg.subspace_distance", CALL),
    ("linalg", "bottom_singular_subspace", "linalg.bottom_singular_subspace", CALL),
)

_PARSE = frozenset({"cli.load_json", "cli.load_generator_set", "cli.load_affine_set",
                    "cli.parse_lines", "cli.parse_geodesics"})
_DONE = object()


def _sphere_size(rank, length):
    return 1 if length == 0 else 2 * rank * (2 * rank - 1) ** (length - 1)


class Tracer:
    """Spans, per-name sums and counters of one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or None, self seconds)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        # one frame per open call: [seconds of wrapped children, span index]
        self._stack = [[0.0, None]]

    # -- recording ---------------------------------------------------------

    def _open(self, keep):
        parent = self._stack[-1][1]
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = parent
        frame = [0.0, index]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, keep, frame, parent, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        own = dur - frame[0]
        self._stack[-1][0] += dur
        self.total[name] += dur
        self.self_time[name] += own
        if keep:
            self.spans[frame[1]] = (name, t0, t1, parent, own)

    def wrap(self, name, fn, keep, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            self.calls[name] += 1
            frame, parent = self._open(keep)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, keep, frame, parent, t0, perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name, fn, done=None):
        """Time only what happens inside ``next()`` of the wrapped generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.calls[name] += 1
            yielded = 0
            while True:
                frame, parent = self._open(False)
                t0 = perf_counter()
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(name, False, frame, parent, t0, perf_counter())
                if item is _DONE:
                    break
                yielded += 1
                yield item
            if done is not None:
                done(args, kwargs, yielded)

        return traced

    # -- hooks that count work ---------------------------------------------

    def _sphere_nodes(self, args, kwargs, yielded):
        gens, length = args[0], args[1]
        if length == 0:
            return
        full = _sphere_size(gens.rank, length)
        share = yielded / full
        nodes = sum(_sphere_size(gens.rank, l) for l in range(1, length + 1))
        self.counts["nodes"] += share * nodes
        # first-level nodes reuse the generator image without a multiply
        self.counts["matmuls"] += share * (nodes - 2 * gens.rank)

    def _leaf_words(self, args, kwargs, result):
        self.counts["leaf_words"] += len(result)

    def _count_rows(self, args):
        path, header, rows = args[0], args[1], args[2]

        def counted():
            for row in rows:
                self.counts["csv_rows"] += 1
                yield row

        return (path, header, counted()) + tuple(args[3:])

    def _csv_bytes(self, args, kwargs, result):
        self.counts["emit_bytes"] += os.path.getsize(args[0])

    def _summary_bytes(self, args, kwargs, result):
        self.counts["emit_bytes"] += os.path.getsize(result)

    # -- patching -----------------------------------------------------------

    def _replacement(self, attr, name, kind, fn):
        if attr == "iter_sphere_products":
            return self.wrap_generator(name, fn, done=self._sphere_nodes)
        if attr == "map_sphere_products":
            return self.wrap(name, fn, True, after=self._leaf_words)
        if attr == "write_csv":
            return self.wrap(name, fn, True, before=self._count_rows,
                             after=self._csv_bytes)
        if attr == "write_summary":
            return self.wrap(name, fn, True, after=self._summary_bytes)
        return self.wrap(name, fn, kind == SPAN)

    @contextmanager
    def installed(self):
        """Replace every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, kind in TARGETS:
                mod = importlib.import_module(f"repdyn.{module}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._replacement(attr, name, kind, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- results ------------------------------------------------------------

    def root_seconds(self):
        """Time covered by spans that have no parent span."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] is None)

    def span_records(self):
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "self_s": s[4]}
            for s in self.spans if s is not None
        ]

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        t, own, calls, counts = self.total, self.self_time, self.calls, self.counts

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        parse_s = sum(
            s[2] - s[1] for s in self.spans
            if s is not None and s[0] in _PARSE
            and (s[3] is None or self.spans[s[3]][0] not in _PARSE)
        )
        commands = ("cli.main", "cli.cmd_dominate", "cli.cmd_spectrum",
                    "cli.cmd_split", "cli.cmd_affine", "cli.cmd_flowmetric")
        node_s = t["words.iter_sphere_products"]
        leaf_s = own["words.map_sphere_products"]
        return {
            "words.node_s": node_s,
            "words.nodes": counts["nodes"],
            "words.node_matmul_per_s": ratio(counts["matmuls"], node_s),
            "words.sphere_calls": calls["words.map_sphere_products"],
            "words.leaf_s": leaf_s,
            "words.leaf_words": counts["leaf_words"],
            "words.leaf_us_per_word": ratio(leaf_s, counts["leaf_words"], 1e6),
            "words.sample_draw_s": t["words.sampled_words"],
            "words.evaluate_s": t["words.evaluate"],
            "words.evaluate_calls": calls["words.evaluate"],
            "words.flow_metric_s": t["words.flow_metric"],
            "domination.scan_self_s": own["domination.domination_scan"],
            "spectrum.sample_cone_self_s": own["spectrum.sample_cone"],
            "spectrum.involution_s": t["spectrum.involution_symmetry_check"],
            "spectrum.containment_s": t["spectrum.containment_check"],
            "affine.hks_self_s": own["affine.hks_test"],
            "affine.eig_one_self_s": own["affine.eigenvalue_norm_one_check"],
            "affine.bounded_self_s": own["affine.bounded_singular_check"],
            "flowbundle.build_trajectory_s": t["flowbundle.build_trajectory"],
            "flowbundle.estimate_splitting_s": t["flowbundle.estimate_splitting"],
            "flowbundle.measure_rates_s": t["flowbundle.measure_rates"],
            "flowbundle.splitting_at_s": t["flowbundle.splitting_at"],
            "flowbundle.splitting_at_calls": calls["flowbundle.splitting_at"],
            "linalg.subspace_distance_s": t["linalg.subspace_distance"],
            "linalg.subspace_distance_calls": calls["linalg.subspace_distance"],
            "linalg.bottom_singular_subspace_calls":
                calls["linalg.bottom_singular_subspace"],
            "cli.parse_s": parse_s,
            "cli.emit_s": t["cli.write_csv"] + t["cli.write_summary"],
            "cli.emit_bytes": counts["emit_bytes"],
            "cli.csv_rows": counts["csv_rows"],
            "cli.main_self_s": sum(own[c] for c in commands),
        }
