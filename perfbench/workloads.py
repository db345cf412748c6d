"""The three workloads.  Each runs whole rounds until the timed work adds
up to ``seconds``, checks every round's outputs, and returns
``(metrics, attempted, failed)`` with metrics as ``name -> (value, unit)``.

- ``fixture_job``: cold ``run_extraction`` + ``run_merge`` over the
  fixture corpus (one input file, so one shard).
- ``digest_job``: the same job over the md5-choice corpus, checked
  against the DuckDB replay of both digest queries.
- ``finish``: re-merge, export and search over a fixture checkpoint made
  before timing starts; extraction does no timed work.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import median

from . import checks, corpus
from .trace import Tracer, wrapped

#: documents per workload input
SIZES = {"fixture_job": 160, "digest_job": 300, "finish": 120}
#: fewest timed rounds per workload: the host's own speed swings by tens of
#: percent over seconds, so figures are medians over several rounds (a job
#: round takes about 6 s, a finish round about 14 s)
MIN_ROUNDS = {"fixture_job": 5, "digest_job": 3, "finish": 3}
#: documents of the untimed warm-up job that starts Ray's worker processes
WARMUP_DOCS = 8
#: fixed tag queries of the finish workload (search.query TAGWORD form)
TAG_QUERIES = (
    "=F01", "=F04+L2", "+L5", "-D07", "-D1", "-K3", "=F08+L6-D2",
    "-W01", "-W029", "+L3-K", "=F02-D", "-X4",
)


@dataclass
class Ctx:
    work_dir: str
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    rounds: int = 0

    def fresh_dir(self, name: str) -> str:
        d = os.path.join(self.work_dir, name)
        shutil.rmtree(d, ignore_errors=True)
        return d


def log(msg: str) -> None:
    """Progress line on standard error (standard output ends with the
    result line)."""
    print(f"[perfbench {time.monotonic():.2f}] {msg}", file=sys.stderr, flush=True)


def _dir_mb(path: str) -> float:
    return sum(
        os.path.getsize(os.path.join(r, f))
        for r, _d, fs in os.walk(path) for f in fs
    ) / 1e6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _bucket_wrap(ctx: Ctx):
    """Traced run only: time the per-shard delta-bucket write, which runs
    inside run_extraction (jobs) or run_merge (re-merge)."""
    from indu_doc_transformer_ray.pipelines import runner

    targets = (
        [(runner, "_write_shard_delta_buckets", "runner.bucket_write")]
        if ctx.trace else []
    )
    return wrapped(ctx.tracer, targets)


def _job(ctx: Ctx, inp: str, out: str) -> tuple[float, float]:
    from indu_doc_transformer_ray.pipelines.runner import run_extraction, run_merge

    sp = ctx.tracer.span
    t0 = time.perf_counter()
    with sp("runner.run_extraction"):
        run_extraction(inp, out, shards=1)
    t1 = time.perf_counter()
    with sp("runner.run_merge"):
        run_merge(out)
    return t1 - t0, time.perf_counter() - t1


def _wait_quiet(timeout_s: float = 30.0) -> None:
    """Wait until every logical CPU is free again: Ray releases a finished
    job's actor only at its next garbage-collection request, and a round
    that starts earlier would measure the previous round's leftovers."""
    import gc

    import ray

    gc.collect()
    total = ray.cluster_resources()["CPU"]
    deadline = time.monotonic() + timeout_s
    while ray.available_resources().get("CPU", 0) < total:
        if time.monotonic() > deadline:
            log("logical CPUs still held after the wait; going on")
            return
        time.sleep(0.05)


def _timed_rounds(ctx: Ctx, round_fn, min_rounds: int = 1) -> list[dict]:
    """Call ``round_fn(i) -> dict with 'timed_s'`` until the timed work
    reaches ``ctx.seconds`` and ``min_rounds`` rounds ran; checks and the
    wait for an idle cluster between rounds are not timed."""
    results, timed = [], 0.0
    while timed < ctx.seconds or len(results) < min_rounds:
        _wait_quiet()
        r = round_fn(len(results))
        log(f"round {len(results)}: " + ", ".join(
            f"{k}={v:.3f}" for k, v in r.items() if isinstance(v, float)))
        results.append(r)
        timed += r["timed_s"]
    ctx.rounds = len(results)
    return results


def job_workload(ctx: Ctx, workload: str):
    n = SIZES[workload]
    expected = None
    if workload == "fixture_job":
        table = corpus.fixture_corpus(n, ctx.seed)

        def check(out):
            checks.check_spans(table, out)
            checks.check_merge(out)
    else:
        ids = corpus.digest_doc_ids(n, ctx.seed)
        # the DuckDB replay (about 25 s, mostly query planning) overlaps
        # the untimed input writing and warm-up, and ends before timing
        pool = ThreadPoolExecutor(1)
        expected = pool.submit(checks.expected_digests, ids)
        pool.shutdown(wait=False)
        table = corpus.digest_corpus(ids)

        def check(out):
            checks.check_digests(out, expected.result())

    inp = corpus.write_single_file(table, os.path.join(ctx.work_dir, "input"))
    warm = corpus.write_single_file(
        table.slice(0, WARMUP_DOCS), os.path.join(ctx.work_dir, "warmup"))
    log("inputs ready")
    _job(ctx, warm, ctx.fresh_dir("warmup-out"))
    log("warm-up done")
    if expected is not None:
        expected.result()
        log("SQL replay done")
    ctx.tracer.spans.clear()

    def one_round(i: int) -> dict:
        out = ctx.fresh_dir(f"job-{i % 2}")
        ext_s, merge_s = _job(ctx, inp, out)
        r = {"timed_s": ext_s + merge_s, "merge_s": merge_s,
             "mb": _dir_mb(out), "out": out}
        check(out)
        return r

    with _bucket_wrap(ctx):
        results = _timed_rounds(ctx, one_round, MIN_ROUNDS[workload])
    rss = _peak_rss_mb()
    if ctx.trace:
        last = results[-1]["out"]
        metrics = _merge_layer(ctx, last)
        finish_round(ctx, last)  # untimed: spans for the finisher layers
        metrics.update(_finish_layer(ctx))
        metrics.update(_extract_layer(
            ctx, table, inp, ctx.tracer.durations_s("runner.run_extraction")))
        return metrics, n * len(results), 0
    return _end_to_end(n, results, rss), n * len(results), 0


def finish_round(ctx: Ctx, out: str) -> dict:
    """Re-merge, then tools/run_job.py's export path, then search."""
    from indu_doc_transformer_ray import exporters
    from indu_doc_transformer_ray.pipelines.runner import object_table, run_merge
    from indu_doc_transformer_ray.search.index import SearchIndex

    sp = ctx.tracer.span
    for sub in ("delta_buckets", "objects"):
        shutil.rmtree(os.path.join(out, sub), ignore_errors=True)
    os.remove(os.path.join(out, "manifests", "merge.json"))
    t0 = time.perf_counter()
    with sp("runner.run_merge"):
        run_merge(out)
    t1 = time.perf_counter()
    tables = {}
    for name in checks.TABLES:
        with sp(f"runner.object_table.{name}"):
            tables[name] = object_table(out, name).to_pandas().to_dict("records")
    sqlite_path = os.path.join(out, "export.sqlite")
    if os.path.exists(sqlite_path):
        os.remove(sqlite_path)
    with sp("exporters.save_sqlite"):
        exporters.save_sqlite(tables, sqlite_path)
    with sp("exporters.export_json"):
        json_text = exporters.export_json(tables)
        with open(os.path.join(out, "export.json"), "w") as f:
            f.write(json_text)
    with sp("exporters.export_aml"):
        with open(os.path.join(out, "export.xml"), "w") as f:
            f.write(exporters.export_aml(tables))
    t2 = time.perf_counter()
    with sp("search.index_build"):
        index = SearchIndex(tables)
    hits = {}
    for q in TAG_QUERIES:
        with sp("search.query"):
            hits[q] = index.search_targets(q)
    t3 = time.perf_counter()

    counts = checks.check_merge(out)
    checks.check_sqlite(sqlite_path, counts)
    checks.check_json(json_text, counts)
    checks.check_search(hits, checks.expected_hits(out, list(TAG_QUERIES)))
    return {"merge_s": t1 - t0, "export_s": t2 - t1, "search_s": t3 - t2,
            "timed_s": t3 - t0, "mb": _dir_mb(out)}


#: operations in one finish round: merge, 9 table decodes, 3 exports,
#: the index build and the queries
FINISH_OPS = 1 + len(checks.TABLES) + 3 + 1 + len(TAG_QUERIES)


def finish_workload(ctx: Ctx):
    n = SIZES["finish"]
    table = corpus.fixture_corpus(n, ctx.seed)
    inp = corpus.write_single_file(table, os.path.join(ctx.work_dir, "input"))
    out = ctx.fresh_dir("checkpoint")
    with _bucket_wrap(ctx):
        _job(ctx, inp, out)  # set-up: the checkpoint; not timed
        checks.check_spans(table, out)
        build_s = ctx.tracer.durations_s("runner.run_extraction")
        ctx.tracer.spans.clear()
        results = _timed_rounds(
            ctx, lambda i: finish_round(ctx, out), MIN_ROUNDS["finish"])
    rss = _peak_rss_mb()
    if ctx.trace:
        metrics = _merge_layer(ctx, out)
        metrics.update(_finish_layer(ctx))
        metrics.update(_extract_layer(ctx, table, inp, build_s))
        return metrics, FINISH_OPS * len(results), 0
    return _end_to_end(n, results, rss), FINISH_OPS * len(results), 0


def _end_to_end(n_docs: int, results: list[dict], rss_mb: float) -> dict:
    return {
        "docs_per_s": (median([n_docs / r["timed_s"] for r in results]), "docs/s"),
        "checkpoint_mb": (median([r["mb"] for r in results]), "MB"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
    }


# -- traced-run layer metrics ---------------------------------------------------

def _merge_layer(ctx: Ctx, out: str) -> dict:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = ctx.tracer
    deltas = checks.read_checkpoint(out, ["deltas"]).column("deltas")
    delta_rows = pc.sum(pc.list_value_length(deltas)).as_py()
    obj_dir = os.path.join(out, "objects")
    per_bucket = [
        pq.read_metadata(os.path.join(obj_dir, f)).num_rows
        for f in sorted(os.listdir(obj_dir)) if f.endswith(".parquet")
    ]
    objects = sum(per_bucket)
    return {
        "runner.bucket_write_s": (median(t.durations_s("runner.bucket_write")), "s"),
        "runner.fold_s": (
            median([x / 1e9 for x in t.self_ns_each("runner.run_merge")]), "s"),
        "merge.delta_rows": (delta_rows, "rows"),
        "merge.objects": (objects, "rows"),
        "merge.combine_ratio": (objects / delta_rows, "ratio"),
        "merge.bucket_skew": (max(per_bucket) / median(per_bucket), "ratio"),
    }


def _finish_layer(ctx: Ctx) -> dict:
    t = ctx.tracer
    m = {}
    per_round = None
    for name in checks.TABLES:
        ds = t.durations_s(f"runner.object_table.{name}")
        m[f"runner.object_table_s.{name}"] = (median(ds), "s")
        per_round = ds if per_round is None else [a + b for a, b in zip(per_round, ds)]
    m["runner.object_table_s"] = (median(per_round), "s")
    for name in ("save_sqlite", "export_json", "export_aml"):
        m[f"exporters.{name}_s"] = (median(t.durations_s(f"exporters.{name}")), "s")
    m["search.index_build_s"] = (median(t.durations_s("search.index_build")), "s")
    m["search.query_ms"] = (median(t.durations_s("search.query")) * 1e3, "ms")
    return m


def _extract_layer(ctx: Ctx, table, inp: str, run_extraction_s: list) -> dict:
    from .calib import calibrate_v1
    from .layers import BATCH_SIZE, extractor_probe, identity_floor_s

    m = {"runner.run_extraction_s": (median(run_extraction_s), "s")}
    for b in (32, BATCH_SIZE):
        _wait_quiet()
        m[f"ray.identity_floor_b{b}_s"] = (
            identity_floor_s(inp, ctx.fresh_dir(f"floor-b{b}"), b), "s")
    m.update(extractor_probe(table))
    m["host.calibration_s"] = (calibrate_v1(), "s")
    return m


WORKLOADS = {
    "fixture_job": lambda ctx: job_workload(ctx, "fixture_job"),
    "digest_job": lambda ctx: job_workload(ctx, "digest_job"),
    "finish": finish_workload,
}
