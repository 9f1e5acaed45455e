"""Benchmark of the biblioforge batch pipeline: one workload, one seed, one process.

    python3 bench/run.py --workload harvest --seed 1 --seconds 35 --trace 0

The run generates the workload's inputs from the seed, drives the pipeline
through ``biblioforge.cli.dispatch`` (the function ``main`` uses) and the
public library functions, checks every output against results computed
apart from the program, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run.  Runs are single-threaded and
read and write only under ``.bench_work/`` of the checkout.  Each cycle's
set-up runs in a forked child process, so the peak memory the run reports
is that of the timed part.  README.md describes the workloads, sizes and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CLUSTER_THRESHOLD = 0.3
# Every cycle sets up afresh, so a run's set-up figure is a median too.
MIN_CYCLES = 3
KEYWORDS_MAX = 10
TOP_K = 20
RECOMMEND_K = 10
# Timed per batch; harvest_to_alert_s is the median over the run's batches,
# the other three the median over cycles of their total in a cycle.
TIMINGS = ("harvest_to_alert_s", "citegraph_s", "usage_s", "cluster_s")
# Timings are CPU seconds (user + system) of this single-threaded process.
# On a shared host, elapsed time also carries waits on other tenants' disk
# and CPU load; those made elapsed timings drift far more between runs.
cpu_clock = time.process_time


def _import_program() -> None:
    """Put the checkout's sources first on the path, or stop without a result."""
    if not (ROOT / "src" / "biblioforge" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        sys.exit(f"error: {ROOT} is not a biblioforge checkout (src/biblioforge and tests/oracles.py)")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


_import_program()

from biblioforge import RecordStore, cli, load_taxonomy, taxonomy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import DAY, T0, TRACER_OCCURRENCES, Inputs, full_texts, generate, input_paths, write_files  # noqa: E402


@dataclass
class Op:
    """One checked operation; ``known`` marks a failure of the kept late-arrival fault."""

    name: str
    problems: list[str] = field(default_factory=list)
    known: bool = False


@dataclass
class Cycle:
    """A fresh set-up and one pass over the workload's batches.

    Store, notifications and reports stay on disk under the cycle's root;
    only the first cycle keeps its clusters in memory, later ones keep
    whether theirs were equal, so memory does not grow with the number of
    cycles a run completes.
    """

    index: int
    root: Path
    setup_s: float
    alert_ids: list[str]
    batches: list[dict[str, float]] = field(default_factory=list)  # timings per batch
    clusters: dict[int, list[list[str]]] = field(default_factory=dict)
    term_sets: dict[int, dict[str, set[str]]] = field(default_factory=dict)
    clusters_repeat: dict[int, bool] = field(default_factory=dict)
    failed_commands: list[str] = field(default_factory=list)
    usage_rss_mb: list[float] = field(default_factory=list)  # peak before and after backfile's usage reports

    @property
    def timed(self) -> float:
        return sum(sum(batch.values()) for batch in self.batches)

    def total(self, name: str) -> float:
        return sum(batch[name] for batch in self.batches)

    @property
    def store(self) -> Path:
        return self.root / "store"


class Workload:
    """State of one run: the inputs, the work directory and the CLI plumbing."""

    def __init__(self, name: str, seed: int, size: str, work: Path):
        self.name, self.seed, self.size_name, self.work = name, seed, size, work
        self.tracer: tracing.Tracer | None = None
        # Record metadata only (no texts, no log): the timed part needs the
        # batch plan; the checks complete it with the citations planted in
        # the texts once the timed part is over.
        self.inputs: Inputs = generate(seed, name, size)

    # --- set-up ------------------------------------------------------------

    def setup(self, c: int) -> Cycle:
        """Set up cycle ``c`` in a forked child process, which times itself.

        The child generates the inputs, writes them and brings the store to
        its state before the timed part; the parent's memory, and with it
        the peak the run reports, never holds the set-up's work.
        """
        root = self.work / f"cycle-{c}"
        report = self.work / f"cycle-{c}.json"
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                start = cpu_clock()
                alert_ids = self._set_up(root)
                seconds = cpu_clock() - start
                report.write_text(json.dumps({"setup_s": seconds, "alert_ids": alert_ids}))
                code = 0
            except Exception:  # the parent reports the failure
                traceback.print_exc()
            finally:  # the child never returns into the parent's code
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            sys.exit(f"error: set-up of cycle {c} failed")
        done = json.loads(report.read_text(encoding="utf-8"))
        return Cycle(c, root, done["setup_s"], done["alert_ids"])

    def _set_up(self, root: Path) -> list[str]:
        """Generate and write the inputs, pre-load the store, register the searches."""
        inputs = generate(self.seed, self.name, self.size_name)
        paths = write_files(inputs, root)
        if self.name == "harvest":
            for argv in (
                ["ingest", str(paths["batch-0"])],
                ["keywords", "--taxonomy", str(paths["taxonomy"]), "--max", str(KEYWORDS_MAX)],
                ["refextract"],
            ):
                self._setup_command(root, argv)
        return [
            self._setup_command(
                root,
                ["alerts", "register", "--owner", f"reader{j}", "--now", str(T0)]
                + [arg for clause in search.clauses for arg in ("--clause", clause)],
            ).strip()
            for j, search in enumerate(inputs.searches)
        ]

    def _setup_command(self, root: Path, argv: list[str]) -> str:
        out = root / "setup.out"
        if cli.dispatch([*argv, *self._dirs(root), "--out", str(out)]) != 0:
            raise RuntimeError(f"set-up command failed: {' '.join(argv)}")
        return out.read_text(encoding="utf-8")

    @staticmethod
    def _dirs(root: Path) -> list[str]:
        return ["--store-dir", str(root / "store"), "--alerts-dir", str(root / "alerts")]

    def paths(self, cycle: Cycle) -> dict[str, Path]:
        return input_paths(self.inputs, cycle.root)

    # --- one cycle ---------------------------------------------------------

    def command(self, cycle: Cycle, name: str, argv: list[str]) -> float:
        """Run one CLI command; returns its CPU time.  The report stays on disk."""
        out = cycle.root / "out" / f"{name}.tsv"
        notes = cycle.root / "notes"
        argv = [*argv, *self._dirs(cycle.root), "--notifications-dir", str(notes), "--out", str(out)]
        if self.tracer is not None and argv[0] == "refextract":
            self.tracer.counts["refextract.entries_since_command"] = 0
        start = cpu_clock()
        code = cli.dispatch(argv)
        elapsed = cpu_clock() - start
        if code != 0:
            cycle.failed_commands.append(f"{name} exited {code}")
        return elapsed

    def harvest(self, cycle: Cycle, r: int) -> None:
        """Land batch ``r``: ingest, enrich and alert, timed from files in place to notifications."""
        paths = self.paths(cycle)
        cycle.batches.append(dict.fromkeys(TIMINGS, 0.0))
        start = cpu_clock()
        self.command(cycle, f"r{r}-ingest", ["ingest", str(paths[f"batch-{r}"])])
        self.command(
            cycle,
            f"r{r}-keywords",
            ["keywords", "--taxonomy", str(paths["taxonomy"]), "--max", str(KEYWORDS_MAX)],
        )
        self.command(cycle, f"r{r}-refextract", ["refextract"])
        self.command(cycle, f"r{r}-alerts", ["alerts", "run", "--now", str(self.clock(r))])
        cycle.batches[-1]["harvest_to_alert_s"] = cpu_clock() - start

    def rounds(self) -> list[int]:
        """Batch numbers of a cycle: the nightly batches, or the one bulk batch."""
        return list(range(1, self.inputs.size.rounds + 1)) if self.name == "harvest" else [0]

    def clock(self, r: int) -> int:
        return T0 + max(r, 1) * DAY

    def usage(self, cycle: Cycle, name: str, argv: list[str]) -> None:
        argv = ["usage", *argv, "--log-path", str(self.paths(cycle)["log"])]
        cycle.batches[-1]["usage_s"] += self.command(cycle, name, argv)

    def cluster(self, cycle: Cycle, r: int) -> None:
        """Cluster every stored record's keyword set; the sets are read beforehand."""
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        keywords = {rec.record_id: rec.keywords for rec in RecordStore(cycle.store).iter_records()}
        if active:
            self.tracer.active = True
        start = cpu_clock()
        clusters = taxonomy.cluster_documents(keywords, CLUSTER_THRESHOLD)
        cycle.batches[-1]["cluster_s"] += cpu_clock() - start
        if cycle.index == 0:
            cycle.clusters[r] = clusters
            cycle.term_sets[r] = {
                rid: {ka.term_id for ka in kws} | {c for ka in kws for c in ka.components or ()}
                for rid, kws in keywords.items()
            }
        else:
            cycle.clusters_repeat[r] = clusters == self.first.clusters[r]

    def run_cycle(self, cycle: Cycle) -> None:
        (cycle.root / "out").mkdir()
        if self.name == "harvest":
            target = self.inputs.recommend_targets[0]
            for r in range(1, self.inputs.size.rounds + 1):
                self.harvest(cycle, r)
                cycle.batches[-1]["citegraph_s"] += self.command(cycle, f"r{r}-counts", ["citegraph"])
                self.usage(cycle, f"r{r}-top-views", ["top", "--action", "view", "-k", str(TOP_K)])
                self.usage(cycle, f"r{r}-recommend", ["recommend", target, "-k", str(RECOMMEND_K)])
                self.cluster(cycle, r)
        else:
            self.harvest(cycle, 0)
            for name, argv in (("counts", []), ("rank", ["--rank"]), ("edges", ["--edges"])):
                cycle.batches[-1]["citegraph_s"] += self.command(cycle, f"r0-{name}", ["citegraph", *argv])
            lo, hi = self.inputs.window
            cycle.usage_rss_mb = [_peak_rss_mb()]
            self.usage(cycle, "r0-top-views", ["top", "--action", "view", "-k", str(TOP_K)])
            self.usage(
                cycle,
                "r0-top-downloads",
                ["top", "--action", "download", "-k", str(TOP_K), "--from", str(lo), "--to", str(hi)],
            )
            for t, target in enumerate(self.inputs.recommend_targets):
                self.usage(cycle, f"r0-recommend-{t}", ["recommend", target, "-k", str(RECOMMEND_K)])
            cycle.usage_rss_mb.append(_peak_rss_mb())
            self.cluster(cycle, 0)

    @staticmethod
    def store_bytes(cycle: Cycle) -> tuple[int, int]:
        """(bytes, files) in the cycle's store directory, full texts excluded."""
        files = [p for p in cycle.store.iterdir() if p.is_file()]
        return sum(p.stat().st_size for p in files), len(files)

    # --- checks ------------------------------------------------------------

    def check_cycle(self, cycle: Cycle) -> list[Op]:
        """Check one cycle; later cycles must repeat the first one's reports exactly."""
        inputs = self.inputs
        ops: list[Op] = []
        seen = checks.read_notifications(cycle.root / "notes")
        expected_all: dict[tuple[str, str], tuple[str, str]] = {}
        for r in self.rounds():
            present = {rec.record_id for rec in inputs.records if rec.round <= r}
            batch = inputs.batch(r)
            expected = {
                (cycle.alert_ids[j], rec.record_id): (str(self.clock(r)), rec.title)
                for rec in batch
                for j in rec.searches
            }
            expected_all.update(expected)
            for name, verify in self._report_checks(r, present, batch):
                key = f"r{r}-{name}"
                text = self.report(cycle, key)
                if cycle.index:
                    repeats = text == self.report(self.first, key)
                    ops.append(Op(key, [] if repeats else ["report differs from the first cycle's"]))
                else:
                    ops.append(Op(key, verify(text)))
            if cycle.index:
                repeats = cycle.clusters_repeat[r]
                problems = [] if repeats else ["clusters differ from the first cycle's"]
            else:
                problems = checks.check_clusters(cycle.clusters[r], cycle.term_sets[r], CLUSTER_THRESHOLD)
            ops.append(Op(f"r{r}-cluster", problems))
            batch_notes = {k: v for k, v in seen.items() if v and v[0][0] == str(self.clock(r))}
            ops.append(Op(f"r{r}-alerts", self._check_alert_report(cycle, r, batch_notes)))
        verdicts, extra = checks.check_deliveries(seen, expected_all)
        late = {
            (cycle.alert_ids[j], rec.record_id) for rec in inputs.records if rec.late for j in rec.searches
        }
        for key, problem in sorted(verdicts.items()):
            known = key in late and problem == "never delivered"
            ops.append(Op(f"deliver {key[1]} to {key[0][:8]}", [problem] if problem else [], known))
        if extra or cycle.failed_commands:
            ops.append(Op(f"cycle {cycle.index} commands and deliveries", extra + cycle.failed_commands))
        return ops

    @staticmethod
    def report(cycle: Cycle, key: str) -> str:
        path = cycle.root / "out" / f"{key}.tsv"
        return path.read_text(encoding="utf-8") if path.is_file() else ""

    def _report_checks(self, r: int, present: set[str], batch):
        inputs = self.inputs
        edges = checks.planted_edges(inputs, present)
        sample = {
            rec.record_id: (self.first.store / "ft" / f"{rec.record_id}.txt").read_text(encoding="ascii")
            for rec in batch[: 1 if self.name == "harvest" else 3]
        }
        tracers = {
            rec.record_id: (rec.keyword_tracer, TRACER_OCCURRENCES)
            for rec in inputs.records
            if rec.record_id in present and rec.keyword_tracer is not None
        }
        entries = {rec.record_id: rec.entries for rec in inputs.records if rec.record_id in present}
        truth = self.usage_truth
        yield "ingest", lambda text: checks.check_ingest(text, len(batch))
        yield "keywords", lambda text: checks.check_keywords(
            text, sample, self.taxonomy, tracers, self.naive_scan
        )
        yield "refextract", lambda text: checks.check_refextract(text, entries)
        yield "counts", lambda text: checks.check_counts(text, edges, present)
        if self.name == "harvest":
            yield "top-views", lambda text: checks.check_ranking(text, truth.top_views(TOP_K), "top views")
            target = inputs.recommend_targets[0]
            yield "recommend", lambda text: checks.check_ranking(
                text, truth.co_views(target, RECOMMEND_K), "co-views"
            )
            return
        yield "rank", lambda text: checks.check_rank(text, present, edges)
        yield "edges", lambda text: checks.check_edges(text, edges)
        yield "top-views", lambda text: checks.check_ranking(text, truth.top_views(TOP_K), "top views")
        yield "top-downloads", lambda text: checks.check_ranking(
            text, truth.top_downloads(TOP_K), "top downloads"
        )
        for t, target in enumerate(inputs.recommend_targets):
            yield f"recommend-{t}", lambda text, target=target: checks.check_ranking(
                text, truth.co_views(target, RECOMMEND_K), "co-views"
            )

    def _check_alert_report(self, cycle: Cycle, r: int, batch_notes) -> list[str]:
        rows = self.report(cycle, f"r{r}-alerts").splitlines()
        reported = {alert_id: int(count) for alert_id, count in (row.split("\t") for row in rows)}
        written = Counter(alert_id for alert_id, _ in batch_notes)
        return [] if reported == written else ["alerts run report disagrees with the notification files"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("harvest", "backfile"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the tests")
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    work.mkdir()
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args: argparse.Namespace, work: Path) -> dict:
    bench = Workload(args.workload, args.seed, args.size, work)
    start_rss_mb = _peak_rss_mb()
    if args.trace:
        bench.tracer = tracing.Tracer()
        tracing.install(bench.tracer)
    cycles, layer_rows = _measure(bench, args.seconds)
    peak_rss_mb = _peak_rss_mb()
    store_bytes = bench.store_bytes(cycles[0])[0]
    if bench.tracer is not None:
        bench.tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
        bench.tracer.unwrap_all()
    if peak_rss_mb <= start_rss_mb:
        sys.exit(f"error: the timed part did not raise peak memory above {start_rss_mb:.1f} MB")

    from tests.oracles import naive_keyword_scan  # imports numpy: only once the peak is read

    for _ in full_texts(bench.inputs):
        pass
    bench.naive_scan = naive_keyword_scan
    bench.taxonomy = load_taxonomy(bench.paths(cycles[0])["taxonomy"])
    bench.usage_truth = checks.UsageTruth(bench.inputs)
    ops = [op for cycle in cycles for op in bench.check_cycle(cycle)]
    failed = [op for op in ops if op.problems]
    for op in failed:
        if not op.known:
            print(f"check failed: {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    usage_rss = cycles[0].usage_rss_mb
    print(
        f"{args.workload} seed {args.seed}: {len(cycles)} cycles, "
        f"{sum(len(cy.batches) for cy in cycles)} batches, {len(ops)} operations, {len(failed)} failed "
        f"({sum(op.known for op in failed)} late-arrival deliveries); peak RSS {start_rss_mb:.1f} MB "
        f"before the timed part, {peak_rss_mb:.1f} MB after it"
        + (f", {usage_rss[0]:.1f} -> {usage_rss[1]:.1f} MB over the first usage reports" if usage_rss else ""),
        file=sys.stderr,
    )

    if bench.tracer is not None:
        metrics = {
            name: (statistics.median([row[name] for row in layer_rows]), _layer_unit(name))
            for name in layer_rows[0]
        }
        traced = statistics.median([cy.timed for cy in cycles[1::2]])
        metrics["trace.overhead_s"] = (traced - statistics.median([cy.timed for cy in cycles[2::2]]), "s")
    else:
        batches = [b for cy in cycles for b in cy.batches]
        metrics = {
            "setup_s": (statistics.median([cy.setup_s for cy in cycles]), "s"),
            "harvest_to_alert_s": (statistics.median([b["harvest_to_alert_s"] for b in batches]), "s"),
            **{name: (statistics.median([cy.total(name) for cy in cycles]), "s") for name in TIMINGS[1:]},
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "store_mb": (store_bytes / 1e6, "MB"),
        }
    return {
        "correct": all(op.known for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _measure(bench: Workload, seconds: float) -> tuple[list[Cycle], list[dict[str, float]]]:
    """Run whole cycles, at least MIN_CYCLES, while the next is expected to end within ``seconds``.

    With a tracer, cycle 0 runs untraced as a warm-up; then traced and
    untraced cycles alternate, at least two of each, so the overhead
    compares cycles run under like conditions.  Set-ups are never traced.
    Each traced cycle gives one row of per-layer figures.
    """
    tracer = bench.tracer
    min_cycles = MIN_CYCLES if tracer is None else 5
    cycles: list[Cycle] = []
    layer_rows: list[dict[str, float]] = []
    new_records = sum(len(bench.inputs.batch(r)) for r in bench.rounds())
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle = bench.setup(len(cycles))
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.reset()
            tracer.active = True
        bench.run_cycle(cycle)
        cycles.append(cycle)
        if traced:
            tracer.active = False
            layer_rows.append(tracing.layer_metrics(tracer, new_records, bench.store_bytes(cycle)[1]))
        if len(cycles) == 1:
            bench.first = cycle
        now = time.perf_counter()
        if len(cycles) >= min_cycles and now - start + (now - cycle_start) > seconds:
            return cycles, layer_rows


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    ``ru_maxrss`` keeps the peak of the process that forked this one before
    it exec'd Python, so a large launcher would set it; the kernel's
    ``VmHWM`` starts afresh at exec.
    """
    status = Path("/proc/self/status").read_text(encoding="ascii")
    kb = next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:"))
    return int(kb) * 1024 / 1e6


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    ratios = ("_ratio", "_per_new_record", "_per_delivery", "_per_report")
    return "ratio" if name.endswith(ratios) else "count"


if __name__ == "__main__":
    sys.exit(main())
