"""gemtk benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a gemtk source tree; it imports the package from
``src/`` and nowhere else.  Each workload runs in this one process, with no
threads or child processes, as a closed loop of one client: the next
operation starts when the previous one has answered.  Operations repeat in
rounds until the next round would end after ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and it carries
the per-layer metrics (see ``tracing.py``).  Every time is scaled to a
reference host speed (see ``SpeedClock``).  Run records and spans go to
``.perfbench/`` under the source tree.  README.md lists the workloads, the
metrics and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import corpus  # noqa: E402  (sibling module; the script's directory is on sys.path)
from tracing import LAYER_FUNCTIONS, SPAN_NAMES, Tracer  # noqa: E402

SETUP_REPEATS = 7
PRUNE_REASONS = (
    "wrong_cycle_length",
    "path_too_long",
    "odd_cycle",
    "not_connected",
    "criterion_3manifold",
    "criterion_residues",
    "duplicate",
    "keep_rejected",
)

# workload -> searches: (label, SearchSpec fields, expected class count or
# None for a first-hit search)
SEARCHES = {
    "exhaust-classes": [
        ("(10,10,10);10", dict(seq=(10, 10, 10), vertex_count=10), 24),
        ("(4,4,8,8);8", dict(seq=(4, 4, 8, 8), vertex_count=8), 24),
    ],
    "firsthit-3manifold": [
        (
            "(4,4,4,6);24 3-manifold",
            dict(seq=(4, 4, 4, 6), vertex_count=24, require_3manifold=True, max_solutions=1),
            None,
        ),
    ],
    "exhaust-residues": [
        (
            "(4^5);8 residue-sphere",
            dict(seq=(4, 4, 4, 4, 4), vertex_count=8, require_residues_sphere=True),
            5,
        ),
    ],
}
WORKLOADS = (*SEARCHES, "analyze-files")
# With at least 11 passes over the corpus, the 11th slowest command, the
# tail sample, is always one of the heaviest command's samples.
ANALYZE_MIN_ROUNDS = 11
TYPES_LINES = {"-2": 31, "-1": 15}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_KERNEL_TABLE = [(v * 389 + 17) % 1021 for v in range(1021)]


def _kernel():
    """Fixed pure-Python work: list walks and int arithmetic, then tuples
    built as dict keys and freed again.  It runs with the collector off and
    keeps no object, so it triggers none of the program's collections."""
    inv = _KERNEL_TABLE
    counts = dict.fromkeys(range(64), 0)
    total = 0
    for r in range(30):
        for v in range(1021):
            u = inv[v]
            counts[u & 63] += 1
            total += inv[u] ^ (v + r)
    for r in range(10):
        seen = {}
        for v in range(1021):
            seen[(inv[v], v & 15, r)] = v
        total += len(seen)
    return total + counts[0]


class SpeedClock:
    """Program time, and the host speed to scale it by.

    On a shared host the speed a process gets drifts by tens of percent
    within a minute.  While the clock runs, a timer signal runs a fixed
    kernel every ``INTERVAL_S`` between two bytecodes of whatever is
    executing, and records how long it took.
    ``now()`` excludes kernel time, so operation latencies and spans contain
    only the program's own work; a latency is then multiplied by
    ``REFERENCE_S`` over the median kernel time around it, giving seconds on
    a host where the kernel takes ``REFERENCE_S``.
    """

    REFERENCE_S = 0.005
    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def factor(self, first, last=None) -> float:
        """Scale for the kernel samples with index ``first`` to ``last``."""
        return self.REFERENCE_S / statistics.median(self.samples[first:last])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_gemtk():
    """Import gemtk afresh from ``src/``; returns the package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gemtk" or m.startswith("gemtk.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gemtk")
    importlib.import_module("gemtk.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "gemtk").resolve():
        raise BenchError(f"imported gemtk from {pkg.__file__}, not from {SRC}")
    return pkg


class Api:
    """The entry points the benchmark calls, plus the original functions its
    checks use (never traced)."""

    def __init__(self, pkg):
        self.search_gems = pkg.search.search_gems
        self.run_cli = pkg.cli.run_cli
        self.parse_gem = pkg.gemio.parse_gem
        self.write_gem = pkg.gemio.write_gem
        self.check_3manifold = pkg.complexes.check_3manifold

    def traced(self, tracer: Tracer) -> "Api":
        api = copy.copy(self)
        api.search_gems = tracer.wrappers["search.search_gems"]
        api.run_cli = tracer.wrappers["cli.run_cli"]
        api.parse_gem = tracer.wrappers["gemio.parse_gem"]
        api.write_gem = tracer.wrappers["gemio.write_gem"]
        return api


def setup_searches(pkg, workload, seed, work_dir):
    searches = list(SEARCHES[workload])
    # the seed only orders the searches; their inputs are fixed specs
    if seed % 2 and len(searches) > 1:
        searches.reverse()
    ops = []
    for label, fields, classes in searches:
        spec = pkg.SearchSpec(**fields)
        pkg.search.check_spec(spec)
        ops.append(SearchOp(label, spec, classes))
    return ops, {}


def setup_analyze(pkg, workload, seed, work_dir):
    records = corpus.generate(seed, work_dir)
    ops = [TypesOp(chi) for chi in TYPES_LINES]
    for rec in records:
        canon = CanonOp(rec)
        ops += [VerifyOp(rec), EmbedOp(rec), HomologyOp(rec), canon,
                CanonOp(rec, original=canon), RoundTripOp(rec)]
    files = {p.name: p.read_bytes() for p in sorted(work_dir.iterdir())}
    return ops, files


def setup(workload, seed, base):
    """Import and build the inputs ``SETUP_REPEATS`` times; returns the last
    set-up, the median set-up seconds (each scaled by kernel samples taken
    just before and after it), and whether every repeat produced the same
    input files."""
    builder = setup_analyze if workload == "analyze-files" else setup_searches
    times, file_sets = [], []
    clock = SpeedClock()
    for k in range(SETUP_REPEATS):
        work_dir = base / f"setup{k}"
        work_dir.mkdir(parents=True)
        clock.sample()
        t0 = time.perf_counter()
        pkg = import_gemtk()
        ops, files = builder(pkg, workload, seed, work_dir)
        elapsed = time.perf_counter() - t0
        clock.sample()
        times.append(elapsed * clock.factor(2 * k, 2 * k + 2))
        file_sets.append(files)
    deterministic = all(f == file_sets[0] for f in file_sets)
    return pkg, ops, statistics.median(times), deterministic


# ---------------------------------------------------------------------------
# operations and their answer checks
# ---------------------------------------------------------------------------


class SearchOp:
    kind = "search"

    def __init__(self, label, spec, classes):
        self.label = label
        self.spec = spec
        self.classes = classes
        self.reference = None  # exact counts of the first round

    def run(self, api, now):
        t0 = now()
        outcome = api.search_gems(self.spec)
        latency = now() - t0
        return latency, self.check(api, outcome)

    def check(self, api, outcome):
        stats = outcome.stats
        counts = {
            "nodes": stats.nodes,
            "candidates": stats.candidates,
            "classes": len(outcome.solutions),
            "prunes": dict(sorted(stats.prunes.items())),
        }
        if self.reference is None:
            self.reference = counts
        elif counts != self.reference:
            return f"exact counts changed between rounds: {self.reference} -> {counts}"
        if self.classes is not None:
            if not stats.exhausted:
                return "exhaustive search did not exhaust"
            if len(outcome.solutions) != self.classes:
                return f"{len(outcome.solutions)} classes, expected {self.classes}"
            return None
        if len(outcome.solutions) != 1:
            return f"first-hit search returned {len(outcome.solutions)} solutions"
        g = outcome.solutions[0]
        invs = [list(row) for row in g.pairings]
        seq = self.spec.seq
        n, p = len(seq), len(invs[0])
        if p != self.spec.vertex_count:
            return f"first hit has p={p}"
        for i in range(n):
            lengths = set(corpus.component_sizes(invs, (i, (i + 1) % n)))
            if lengths != {seq[i]}:
                return f"faces of colors {i},{(i + 1) % n} have sizes {sorted(lengths)}"
        if not corpus.is_3manifold(invs):
            return "first hit fails the 3-manifold residue count (independent check)"
        if not api.check_3manifold(g).holds:
            return "first hit fails check_3manifold"
        return None


class CommandOp:
    """One ``gemtk`` CLI command, run in this process through ``run_cli``;
    its output must not change between rounds."""

    kind = "command"

    def __init__(self, argv):
        self.argv = argv
        self.label = " ".join(Path(a).name if "/" in a else a for a in argv)
        self.stdout = ""
        self.first_stdout = None

    def run(self, api, now):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = now()
            code = api.run_cli(self.argv)
            latency = now() - t0
        self.stdout = out.getvalue()
        if code != 0:
            return latency, f"exit code {code}: {err.getvalue().strip()[:300]}"
        if self.first_stdout is None:
            self.first_stdout = self.stdout
        elif self.stdout != self.first_stdout:
            return latency, "output changed between rounds"
        return latency, self.check(self.stdout)

    def check(self, stdout):
        raise NotImplementedError


class TypesOp(CommandOp):
    def __init__(self, chi):
        super().__init__(["types", "--chi", chi])
        self.lines = TYPES_LINES[chi]

    def check(self, stdout):
        got = len(stdout.splitlines())
        return None if got == self.lines else f"{got} types, expected {self.lines}"


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _check_embeddings(rec, entries):
    """Compare (eps, chi, orientable) entries with the independent answers."""
    got = {",".join(map(str, e["eps"])): (e["chi"], e["orientable"]) for e in entries}
    want = {eps: (chi, rec["orientable"]) for eps, chi in rec["chis"].items()}
    return None if got == want else f"embeddings {got}, expected {want}"


class VerifyOp(CommandOp):
    def __init__(self, rec):
        super().__init__(["verify", "--json", rec["path"]])
        self.rec = rec

    def check(self, stdout):
        (out,) = _records(stdout)
        if out["ok"] is not True or out["connected"] is not True:
            return f"verify did not pass: {out}"
        if (out["colors"], out["p"]) != (self.rec["colors"], self.rec["p"]):
            return f"verify read colors={out['colors']} p={out['p']}"
        return _check_embeddings(self.rec, out["embeddings"])


class EmbedOp(CommandOp):
    def __init__(self, rec):
        super().__init__(["embed", "--all-perms", "--json", rec["path"]])
        self.rec = rec

    def check(self, stdout):
        return _check_embeddings(self.rec, _records(stdout))


def check_homology(expected, stdout):
    (out,) = _records(stdout)
    got = {"betti": out["betti"], "torsion": out["torsion"]}
    return None if got == expected else f"homology {got}, expected {expected}"


class HomologyOp(CommandOp):
    def __init__(self, rec):
        super().__init__(["homology", "--json", rec["path"]])
        self.rec = rec

    def check(self, stdout):
        return check_homology(self.rec["homology"], stdout)


class CanonOp(CommandOp):
    """Canonical code of a corpus file; given ``original``, the op for the
    relabeled twin, which must print the same code in the same round."""

    def __init__(self, rec, original=None):
        super().__init__(["canon", rec["twin"] if original else rec["path"]])
        self.original = original

    def check(self, stdout):
        if not stdout.strip():
            return "empty canonical code"
        if self.original and stdout != self.original.stdout:
            return "canonical code changed under relabeling"
        return None


class RoundTripOp:
    """parse_gem then write_gem must reproduce the file byte for byte."""

    kind = "roundtrip"

    def __init__(self, rec):
        self.label = f"roundtrip {rec['name']}"
        self.text = Path(rec["path"]).read_text(encoding="ascii")

    def run(self, api, now):
        t0 = now()
        text = api.write_gem(api.parse_gem(self.text))
        latency = now() - t0
        return latency, None if text == self.text else "round trip changed the file"


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def run_round(ops, api, tally, clock):
    """Run every operation once; returns the round's latencies by operation
    kind, each scaled by the kernel samples during it and the two on either
    side, and the round's own scale."""
    first = len(clock.samples)
    clock.sample()
    raw = []
    for op in ops:
        before = len(clock.samples)
        tally.attempted += 1
        try:
            latency, error = op.run(api, clock.now)
        except Exception:  # an exception in one operation is a counted failure
            tally.fail(f"{op.label}: {traceback.format_exc(limit=3)}")
            continue
        raw.append((op.kind, latency, before, len(clock.samples)))
        if error:
            tally.fail(f"{op.label}: {error}")
    clock.sample()
    latencies: dict[str, list[float]] = {}
    for kind, latency, before, after in raw:
        scale = clock.factor(max(before - 2, first), after + 2)
        latencies.setdefault(kind, []).append(latency * scale)
    return {"latencies": latencies, "factor": clock.factor(first)}


def measure(ops, seconds, min_rounds, api_for_round, tally, clock, after_round=None):
    """Run rounds until the next one would end after ``seconds``."""
    rounds = []
    durations = []
    start = time.perf_counter()
    with clock:
        while True:
            index = len(rounds)
            t0 = time.perf_counter()
            rounds.append(run_round(ops, api_for_round(index), tally, clock))
            durations.append(time.perf_counter() - t0)
            if after_round:
                after_round(index)
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
                return rounds


def tail(samples):
    """Latency at the highest percentile with at least 10 samples beyond it
    (the maximum when there are 10 samples or fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def round_seconds(rounds):
    return [sum(sum(v) for v in r["latencies"].values()) for r in rounds]


def end_to_end(workload, rounds, setup_s):
    """End-to-end metrics.  The latency samples are CLI commands on
    analyze-files, and whole rounds of searches on the search workloads,
    whose question is the answer to every search of the round."""
    if workload == "analyze-files":
        kind = "command"
        samples = [x for r in rounds for x in r["latencies"].get(kind, [])]
    else:
        kind = "round"
        samples = round_seconds(rounds)
    samples = samples or [0.0]  # every operation failed; the run is not correct
    value, pct, n = tail(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "answer_s": (statistics.median(round_seconds(rounds)), "s"),
        "analyze_p50_ms": (1000 * statistics.median(samples), "ms"),
        "analyze_tail_ms": (1000 * value, "ms"),
        "commands_per_s": (len(samples) / (sum(round_seconds(rounds)) or 1.0), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"samples": kind, "sample_count": n, "tail_percentile": pct}
    return metrics, info


def search_counters(ops):
    total = {"nodes": 0, "candidates": 0, "classes": 0}
    prunes = dict.fromkeys(PRUNE_REASONS, 0)
    for op in ops:
        if op.kind == "search":
            for key in total:
                total[key] += op.reference[key]
            for reason, count in op.reference["prunes"].items():
                prunes[reason] = prunes.get(reason, 0) + count
    return total, prunes


def per_layer(ops, rounds, traced_rounds, tally):
    """Per-layer metrics from the traced rounds; times are per round."""
    untraced = [r for i, r in enumerate(rounds) if i not in traced_rounds]
    base_s = statistics.median(round_seconds(untraced))
    traced_s = statistics.median(round_seconds([rounds[i] for i in traced_rounds]))
    k = len(traced_rounds)
    metrics = {}
    for name in SPAN_NAMES:
        calls = {d[name][0] for d in traced_rounds.values()}
        if len(calls) != 1:
            tally.fail(f"{name} call counts differ between traced rounds: {sorted(calls)}")
        metrics[f"{name}.calls"] = (max(calls), "count")
        for pos, suffix in ((1, "s"), (2, "self_s")):
            total = sum(d[name][pos] * rounds[i]["factor"] for i, d in traced_rounds.items())
            metrics[f"{name}.{suffix}"] = (total / k, "s")
    self_sum = 0.0
    for layer, fns in LAYER_FUNCTIONS.items():
        layer_self = sum(metrics[f"{layer}.{fn}.self_s"][0] for fn in fns)
        metrics[f"{layer}.self_s"] = (layer_self, "s")
        self_sum += layer_self
    entries = {d["complexes.snf_entries"][0] for d in traced_rounds.values()}
    metrics["complexes.snf_entries"] = (max(entries), "count")

    total, prunes = search_counters(ops)
    search_s = statistics.median(sum(r["latencies"].get("search", [0.0])) for r in untraced)
    nodes, candidates, classes = total["nodes"], total["candidates"], total["classes"]
    metrics["search.nodes"] = (nodes, "count")
    metrics["search.candidates"] = (candidates, "count")
    metrics["search.classes"] = (classes, "count")
    metrics["search.nodes_per_class"] = (nodes / classes if classes else 0.0, "ratio")
    metrics["search.useful_ratio"] = (classes / candidates if candidates else 0.0, "ratio")
    metrics["search.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    for reason in PRUNE_REASONS:
        metrics[f"search.prunes.{reason}"] = (prunes[reason], "count")
    extra = sorted(set(prunes) - set(PRUNE_REASONS))
    if extra:
        print(f"note: prune reasons not reported as metrics: {extra}", file=sys.stderr)

    base_s = base_s or 1.0  # every operation failed; the run is not correct
    metrics["trace.overhead"] = (traced_s / base_s - 1, "ratio")
    metrics["trace.self_sum_ratio"] = (self_sum / base_s, "ratio")
    metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    return metrics


def traced_measure(pkg, api, ops, seconds, tally, clock):
    """Alternate untraced and traced rounds; returns the rounds, the
    aggregate deltas of each traced round, and the tracer."""
    tracer = Tracer(pkg, clock.now)
    traced_api = api.traced(tracer)
    traced_rounds: dict[int, dict] = {}
    marks = {}

    def api_for_round(index):
        if index % 2 == 0:
            return api
        tracer.install()
        tracer.begin_round(index)
        marks[index] = tracer.snapshot()
        return traced_api

    def after_round(index):
        if index % 2:
            now = tracer.snapshot()
            tracer.end_round()
            tracer.uninstall()
            traced_rounds[index] = {
                name: tuple(a - b for a, b in zip(now[name], marks[index][name]))
                for name in now
            }

    rounds = measure(ops, seconds, 2, api_for_round, tally, clock, after_round)
    return rounds, traced_rounds, tracer


# ---------------------------------------------------------------------------
# run record, self-test, entry point
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def checker_catches_corruption(rec, stdout):
    """The homology check accepts ``stdout`` against the true answer and
    refuses it against one with a torsion factor dropped."""
    corrupted = json.loads(json.dumps(rec["homology"]))
    dims = [k for k, t in enumerate(corrupted["torsion"]) if t]
    if not dims:
        return False
    corrupted["torsion"][dims[0]].pop()
    return check_homology(rec["homology"], stdout) is None and (
        check_homology(corrupted, stdout) is not None
    )


def self_test() -> int:
    """Generator determinism and answer-check sensitivity."""
    OUT.mkdir(exist_ok=True)
    failures = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        dirs = [Path(tmp) / name for name in ("a", "b", "c")]
        recs = []
        for seed, d in zip((7, 7, 8), dirs):
            d.mkdir()
            recs.append(corpus.generate(seed, d))
        data = [{p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in dirs]
        if data[0] != data[1]:
            failures.append("same seed wrote different files")
        if data[0] == data[2]:
            failures.append("different seeds wrote the same files")
        answers = [[{k: v for k, v in r.items() if k not in ("path", "twin")} for r in rs]
                   for rs in recs[:2]]
        if answers[0] != answers[1]:
            failures.append("same seed gave different expected answers")

        api = Api(import_gemtk())
        rec = next(r for r in recs[0] if any(r["homology"]["torsion"]))
        op = HomologyOp(rec)
        _, error = op.run(api, time.perf_counter)
        if error:
            failures.append(f"true answer refused: {error}")
        if not checker_catches_corruption(rec, op.stdout):
            failures.append("a dropped torsion factor was not counted as a failure")
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def run(workload, seed, seconds, trace_on):
    OUT.mkdir(exist_ok=True)
    meta = metadata()
    print(json.dumps({"meta": meta}), file=sys.stderr)
    work_base = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        pkg, ops, setup_s, deterministic = setup(workload, seed, work_base)
        api = Api(pkg)
        tally = Tally()
        clock = SpeedClock()
        if not deterministic:
            tally.fail("the same seed generated different inputs across set-ups")
        if not trace_on:
            min_rounds = ANALYZE_MIN_ROUNDS if workload == "analyze-files" else 2
            rounds = measure(ops, seconds, min_rounds, lambda i: api, tally, clock)
            metrics, info = end_to_end(workload, rounds, setup_s)
        else:
            rounds, traced_rounds, tracer = traced_measure(pkg, api, ops, seconds, tally, clock)
            metrics = per_layer(ops, rounds, traced_rounds, tally)
            info = {"traced_rounds": len(traced_rounds), "spans_kept": len(tracer.spans),
                    "spans_dropped": tracer.dropped}
            tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv")
        if workload == "analyze-files":
            hom = next(op for op in ops if isinstance(op, HomologyOp)
                       and any(op.rec["homology"]["torsion"]))
            if not checker_catches_corruption(hom.rec, hom.stdout):
                tally.fail("self-test: a dropped torsion factor was not counted as a failure")
    finally:
        shutil.rmtree(work_base, ignore_errors=True)

    info["rounds"] = len(rounds)
    info["speed_factors"] = [r["factor"] for r in rounds]
    if workload in SEARCHES:
        info["counts"] = {op.label: op.reference for op in ops}
    info["failures"] = tally.errors
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace_on), "meta": meta, "info": info, "result": result}
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace_on)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps({"info": info}), file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "gemtk" / "__init__.py").is_file():
            raise BenchError(f"no gemtk package under {SRC}")
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
