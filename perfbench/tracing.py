"""Span tracing around the calls into gemtk's layers, installed from outside.

The tracer replaces module attributes with timing wrappers: the names that
``gemtk.search``, ``gemtk.complexes`` and ``gemtk.cli`` import, plus the
functions ``gemtk.complexes`` calls on itself, so calls between layers are
seen without any change to the package.  Calls inside one module that go
through its own globals elsewhere (say ``graphs`` calling
``residue_components``) stay inside the caller's span.

Each span is (round, id, parent, name, start, end).  Aggregates (calls, busy
time, self time) cover every span; the raw spans are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

# layer -> public functions that get a span
LAYER_FUNCTIONS = {
    "search": ("search_gems",),
    "graphs": (
        "validate",
        "is_connected",
        "is_bipartite",
        "canonical_code",
        "connected_components",
        "residue_components",
        "residue_subgraph",
        "residue_stats",
    ),
    "embeddings": ("semi_equivelar_type", "embedding_report", "all_embeddings"),
    "complexes": (
        "check_surface",
        "check_3manifold",
        "check_residues_sphere",
        "graph_homology",
        "build_complex",
        "smith_normal_form",
    ),
    "census": ("enumerate_types",),
    "gemio": ("parse_gem", "write_gem"),
    "cli": ("run_cli",),
}

# modules whose attributes are replaced
PATCHED_MODULES = ("search", "complexes", "cli")

# raw spans kept per run; aggregates cover the rest
SPAN_CAP = 50_000

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
)


class Tracer:
    """Records spans while installed; aggregates per span name.

    ``clock`` gives the span timestamps in seconds."""

    def __init__(self, package, clock):
        self.package = package
        self.clock = clock
        self.agg = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, s, self_s
        self.snf_entries = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.round = 0
        self._next_id = 1
        self._stack: list[list] = []
        self._originals: list[tuple] = []  # (module, attribute, original)
        self.wrappers: dict[str, object] = {}
        for layer, fns in LAYER_FUNCTIONS.items():
            module = getattr(package, layer)
            for fn in fns:
                original = getattr(module, fn)
                self.wrappers[f"{layer}.{fn}"] = self._wrap(f"{layer}.{fn}", original)

    def _wrap(self, name, fn):
        agg = self.agg[name]
        stack = self._stack
        spans = self.spans
        clock = self.clock
        count_entries = name == "complexes.smith_normal_form"

        def wrapper(*args, **kwargs):
            if count_entries:
                rows = args[0]
                self.snf_entries += len(rows) * (len(rows[0]) if rows else 0)
            parent = stack[-1]
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[1]
                parent[1] += d
                if len(spans) < SPAN_CAP:
                    spans.append((self.round, frame[0], parent[0], name, t0, t1))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Swap every traced name in the patched modules for its wrapper."""
        by_original = {w.__wrapped__: w for w in self.wrappers.values()}
        for mod_name in PATCHED_MODULES:
            module = getattr(self.package, mod_name)
            for attr, value in list(vars(module).items()):
                wrapper = by_original.get(value) if callable(value) else None
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def begin_round(self, index: int) -> None:
        """Open the root span that every span of this round descends from."""
        self.round = index
        root = [self._next_id, 0.0]
        self._next_id += 1
        self._stack[:] = [root]
        self._root_start = self.clock()

    def end_round(self) -> None:
        root = self._stack.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (self.round, root[0], 0, "bench.round", self._root_start, self.clock())
            )
        else:
            self.dropped += 1

    def snapshot(self) -> dict[str, tuple]:
        """Current aggregates, for differencing between rounds."""
        out = {name: tuple(v) for name, v in self.agg.items()}
        out["complexes.snf_entries"] = (self.snf_entries,)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("round\tid\tparent\tname\tstart\tend\n")
            for rnd, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{rnd}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} spans beyond the cap of {SPAN_CAP} not kept\n")
