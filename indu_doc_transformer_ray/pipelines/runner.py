"""Sharded, resumable extraction runs: checkpoint + lineage + metrics.

Ray Data gives task-level retry/lineage but no job-level checkpointing
(SURVEY.md §4.2), so the runner adds it explicitly:

- the input file list is split into SHARDS (the resumable unit; at 100 TB a
  shard is a group of Lance/parquet fragments).  Each shard runs as its own
  streaming pipeline into ``out_dir/extracted/shard=K/`` and commits a
  manifest JSON recording lineage (exact input files), row/page/span/error
  counts and time: ``extract_s`` (read -> extract -> checkpoint write ->
  stats), ``bucket_s`` (the shard's delta-bucket write) and their
  ``wall_s``.  Writes go to a temp dir renamed into place, so a
  half-written shard is never mistaken for a finished one.
- a re-run SKIPS every shard whose manifest is complete — kill the job at
  shard k, run again, and only shards >= k recompute (test-covered).
- the merge phase reads ONLY the ``deltas`` column of the checkpoint
  (parquet column pruning) and writes it, per bucket task, as one file
  sorted by a fixed-width GUID-prefix key (``delta_buckets/shard=K/
  part-T.parquet``: map-side partitioning, no all-to-all exchange).  The
  fold picks its bucket width (``extract.bucket_chars`` of the corpus's
  document count) only when it reads: each fold task range-reads a block
  of bucket prefixes from every shard's files, so no width is persisted.

The span equality surface lives in the checkpoint itself: ``doc_id, spans``
columns of ``extracted/`` — consumers column-prune them out for free.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data
from ray.data import Dataset

from ..core import AspectConfig, default_config
from ..deltas import TABLE_NAMES
from .extract import (
    BATCH_SIZE,
    MAX_BUCKET_CHARS,
    _bucketize,
    _explode_deltas,
    _max_fold,
    _tag_table_name,
    bucket_chars,
    decode_table,
    extract_documents,
    flatten_local_rows,
    session_cpus,
)


#: checkpoint / delta-bucket / objects write codec: zstd-1 halves the bytes
#: vs snappy on this payload (span+JSON text) and encodes FASTER (measured
#: 0.7 MB @ 0.05 s vs 1.4 MB @ 0.08 s per 78-doc file) — less CPU in the
#: write stage and fewer bytes for the fold phase to decode.
PQ_WRITE_KW = {"compression": "zstd", "compression_level": 1}

#: rows per row group of a delta file.  The file is sorted by its bucket
#: key, so a row group spans a narrow key range and a fold task's range
#: filter skips the row groups outside its block by min/max statistics.
DELTA_ROW_GROUP_ROWS = 8192


@dataclass
class ShardResult:
    shard: int
    skipped: bool
    n_docs: int
    n_pages: int
    n_spans_in: int
    n_errors: int
    wall_s: float


@ray.remote(num_cpus=0)
class _ProgressActor:
    """Zero-CPU accumulator for page-granular progress: extraction batches
    fire-and-forget (shard, docs, pages) increments; the driver poller
    snapshots totals.  State is O(shards) — nothing row-sized."""

    def __init__(self):
        self.docs: dict[int, int] = {}
        self.pages: dict[int, int] = {}

    def add(self, shard: int, n_docs: int, n_pages: int) -> None:
        self.docs[shard] = self.docs.get(shard, 0) + int(n_docs)
        self.pages[shard] = self.pages.get(shard, 0) + int(n_pages)

    def snapshot(self) -> tuple[int, int]:
        return sum(self.docs.values()), sum(self.pages.values())


def _manifest_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, "manifests", f"shard-{shard:05d}.json")


def _list_input_files(input_path: str) -> list[str]:
    if os.path.isfile(input_path):
        return [input_path]
    out = []
    for root, _dirs, files in os.walk(input_path):
        for f in sorted(files):
            if f.endswith((".parquet", ".pq")):
                out.append(os.path.join(root, f))
    return sorted(out)


def _shard_stats(shard_dir: str) -> dict[str, int]:
    """Shard metrics from the written checkpoint: row counts come from the
    parquet footers, sums from a driver-side column-pruned read of the three
    tiny int32 metric columns — no Ray pipeline spin-up."""
    import pyarrow.dataset as pads

    t = pads.dataset(shard_dir).to_table(
        columns=["n_pages", "n_spans_in", "n_errors", "n_page_objects"]
    )
    return {
        "docs": t.num_rows,
        "pages": pc.sum(t["n_pages"]).as_py() or 0,
        "spans": pc.sum(t["n_spans_in"]).as_py() or 0,
        "errors": pc.sum(t["n_errors"]).as_py() or 0,
        "page_objects": pc.sum(t["n_page_objects"]).as_py() or 0,
    }


def _shard_bucket_dir(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, "delta_buckets", f"shard={shard:05d}")


@ray.remote
def _bucket_task(files: list[str], btmp: str, task_id: int) -> None:
    """Explode + combine one group of checkpoint files into ONE delta file
    sorted by ``bucket``, the first ``MAX_BUCKET_CHARS`` hex chars of the
    GUID: a fold at any width reads its prefix range of that file."""
    combined = _max_fold(pa.concat_tables([
        _explode_deltas(pq.read_table(f, columns=["deltas"])) for f in files
    ]))
    pq.write_table(
        _bucketize(combined, MAX_BUCKET_CHARS).sort_by("bucket"),
        os.path.join(btmp, f"part-{task_id:04d}.parquet"),
        row_group_size=DELTA_ROW_GROUP_ROWS, **PQ_WRITE_KW,
    )


@ray.remote
def _fold_bucket_group(
    files: list[str], lo: str, hi: "str | None", chars: int, dest_dir: str
) -> tuple[list[int], dict[str, int]]:
    """Fold the ``chars``-wide buckets with keys in ``[lo, hi)`` (None: no
    upper bound) from every shard's delta ``files``: one range-filtered
    read (row-group statistics skip the rest of each sorted file), one max
    fold, then one objects file per bucket, tagged with its table name.
    Returns the rows written per bucket (in bucket order) and per table."""
    import pyarrow.dataset as pads

    in_block = pc.field("bucket") >= lo
    if hi is not None:
        in_block &= pc.field("bucket") < hi
    folded = pads.dataset(files).to_table(
        columns=["mkey", "payload"], filter=in_block
    )
    folded = _tag_table_name(_bucketize(_max_fold(folded), chars))
    folded = folded.sort_by("bucket")
    bucket_rows, offset = [], 0
    for vc in pc.value_counts(folded["bucket"]).to_pylist():
        n = vc["counts"]
        pq.write_table(
            folded.slice(offset, n).select(["mkey", "payload", "table_name"]),
            os.path.join(dest_dir, f"bucket={vc['values']}.parquet"),
            **PQ_WRITE_KW,
        )
        bucket_rows.append(n)
        offset += n
    per_table = pc.value_counts(folded["table_name"]).to_pylist()
    return bucket_rows, {vc["values"]: vc["counts"] for vc in per_table}


def _write_shard_delta_buckets(out_dir: str, shard: int) -> None:
    """Merge phase 2a, PER SHARD: read only the just-written checkpoint's
    ``deltas`` column, explode + combine (vectorized Arrow group_by max),
    and write one delta file per bucket task, sorted by bucket key.  Runs
    inside ``run_shard`` right after the checkpoint commit, so the bucketing
    of shard K overlaps the still-running extraction of shards K+1.. — the
    merge phase then only folds.  Plain Ray tasks over checkpoint-file
    groups (a per-shard Dataset pipeline here cost ~1s of executor startup
    × shards, round-3 regression finding).  Idempotent (tmp dir + atomic
    rename); ``run_merge`` regenerates any shard whose bucket dir is
    missing (a crash between checkpoint and bucket commit)."""
    import ray

    bdir = _shard_bucket_dir(out_dir, shard)
    if os.path.isdir(bdir):
        return
    btmp = bdir + ".tmp"
    shutil.rmtree(btmp, ignore_errors=True)
    os.makedirs(btmp, exist_ok=True)
    shard_dir = os.path.join(out_dir, "extracted", f"shard={shard:05d}")
    files = sorted(
        os.path.join(shard_dir, f)
        for f in os.listdir(shard_dir)
        if f.endswith(".parquet")
    )
    ncpu = session_cpus()
    # few, larger groups per shard: one delta file per group, and 8
    # concurrent shards still keep ~ncpu bucket tasks live
    nb = min(len(files), max(2, ncpu // 8)) or 1
    groups = [files[i::nb] for i in range(nb)]
    ray.get([
        _bucket_task.remote(g, btmp, i)
        for i, g in enumerate(groups)
        if g
    ])
    os.rename(btmp, bdir)


def shard_stage(
    shard_files: list[str],
    config: AspectConfig = default_config,
    batch_size: int = BATCH_SIZE,
    page_settings_json: "str | None" = None,
    progress: "tuple | None" = None,
) -> Dataset:
    """One shard's read -> extraction pipeline, which ``run_extraction``
    ends with the checkpoint write.

    The stage admits a task per free CPU from the start.  Ray Data 2.49
    fuses the extraction with the write but keeps the read its own
    operator (``batch_size`` blocks read -> map fusion), and its
    per-operator object-store reservation prices each task's output at
    ``target_max_block_size`` (128 MiB) times the generator buffer until
    one task of the operator has finished.  No operator's share of a small
    store covers that, so only the executor's liveness rule started a task:
    in a 2-CPU session with a 256 MiB store a one-file shard ran its
    extraction tasks one after the other.  The fused extract -> write task
    outputs one write-stats row, so this pipeline turns the reservation
    off.  With the reservation off, Ray Data also caps the pipeline's
    object-store use at 0.25 of the store instead of 0.5
    (``DEFAULT_OBJECT_STORE_MEMORY_LIMIT_FRACTION_NO_RESERVATION``).  The
    setting is on the context that ``read_parquet`` copied for this
    pipeline alone, never on the global ``DataContext.get_current()``."""
    extracted = extract_documents(
        ray.data.read_parquet(shard_files), config=config,
        batch_size=batch_size, page_settings_json=page_settings_json,
        progress=progress,
    )
    extracted.context.op_resource_reservation_enabled = False
    return extracted


def run_extraction(
    input_path: str,
    out_dir: str,
    shards: int = 8,
    config: AspectConfig = default_config,
    batch_size: int = BATCH_SIZE,
    max_concurrent_shards: int = 8,
    page_settings_json: "str | None" = None,
    on_event=None,
) -> list[ShardResult]:
    """Phase 1: per-shard extraction with checkpoint manifests.

    Shards execute as independent streaming pipelines; up to
    ``max_concurrent_shards`` (at most one per CPU) run concurrently, sharing
    the cluster under Ray's scheduler, while the shard stays the unit of
    resume/failure isolation.  Each shard is a read operator followed by
    one task stage that fuses extraction (``extract.extract_batch``) with
    the checkpoint write; the read stays its own operator, since the
    stage's ``batch_size`` blocks read -> map fusion.  The stage admits a
    task per free CPU from the start (``shard_stage`` turns Ray Data's
    per-operator object-store reservation off for its pipeline).
    A task holds a CPU only while it runs, so any session size works, and
    a finished shard leaves no CPU held.

    ``on_event`` (optional) mirrors the reference's plugin event emitter
    (plugins/events.py:32-127): called with plain dicts of type
    ``processing_started`` / ``progress`` (page-granular: a zero-CPU
    progress actor accumulates one fire-and-forget increment per
    extraction batch, a driver poller emits cumulative docs/pages + pct —
    the distributed restatement of the reference's per-page percentage
    events) / ``shard_completed`` / ``processing_completed`` /
    ``processing_error``.  Callbacks fire from shard worker or poller
    threads — keep them cheap and thread-safe."""
    import threading

    from concurrent.futures import ThreadPoolExecutor

    import ray

    files = _list_input_files(input_path)
    if not files:
        raise FileNotFoundError(f"no parquet inputs under {input_path}")
    shards = min(shards, len(files))
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)

    # purge orphans from a previous run with MORE shards: their dirs would
    # otherwise feed stale rows into the readers of extracted/ (which read
    # it whole); run_merge drops their delta files
    ex_dir = os.path.join(out_dir, "extracted")
    if os.path.isdir(ex_dir):
        for d in os.listdir(ex_dir):
            if d.startswith("shard="):
                k = int(d.split("=")[1].split(".")[0])
                if k >= shards:
                    shutil.rmtree(os.path.join(ex_dir, d), ignore_errors=True)
    man_dir = os.path.join(out_dir, "manifests")
    for f in os.listdir(man_dir):
        if f.startswith("shard-") and f.endswith(".json"):
            k = int(f.removeprefix("shard-").removesuffix(".json"))
            if k >= shards:
                os.remove(os.path.join(man_dir, f))

    # a shard in flight past the CPU count would only queue its tasks
    max_concurrent_shards = min(max_concurrent_shards, session_cpus())

    # page-granular progress: only materialized when someone listens
    progress_actor = None
    if on_event is not None:
        progress_actor = _ProgressActor.remote()
        total_docs = sum(pq.read_metadata(f).num_rows for f in files)

    def run_shard(k: int) -> ShardResult:
        mpath = _manifest_path(out_dir, k)
        shard_files = files[k::shards]
        if os.path.exists(mpath):
            m = json.load(open(mpath))
            # lineage check: a manifest only skips the shard when it covers
            # the SAME input files — a grown/changed corpus (incremental
            # ingest) invalidates the shard instead of silently dropping the
            # new files
            if m.get("complete") and m.get("input_files") == shard_files:
                if progress_actor is not None:
                    progress_actor.add.remote(k, m["n_docs"], m["n_pages"])
                return ShardResult(k, True, m["n_docs"], m["n_pages"],
                                   m["n_spans_in"], m["n_errors"], m["wall_s"])
        # wall_s: the whole recompute, stale-dir removal included;
        # extract_s + bucket_s: its two phases
        t0 = time.perf_counter()
        shard_dir = os.path.join(out_dir, "extracted", f"shard={k:05d}")
        tmp_dir = shard_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(shard_dir, ignore_errors=True)
        # a recompute invalidates the shard's delta buckets too (they are
        # regenerated below; a crash in between leaves them to run_merge)
        shutil.rmtree(_shard_bucket_dir(out_dir, k), ignore_errors=True)

        t_extract = time.perf_counter()
        shard_stage(
            shard_files, config=config, batch_size=batch_size,
            page_settings_json=page_settings_json,
            progress=(
                (progress_actor, k) if progress_actor is not None else None
            ),
        ).write_parquet(tmp_dir, **PQ_WRITE_KW)
        stats = _shard_stats(tmp_dir)
        os.rename(tmp_dir, shard_dir)
        t_bucket = time.perf_counter()
        # bucket this shard's deltas NOW (overlaps later shards' extraction;
        # the just-written checkpoint is page-cache warm)
        _write_shard_delta_buckets(out_dir, k)
        t_end = time.perf_counter()
        wall = t_end - t0
        manifest = {
            "shard": k,
            "complete": True,
            "input_files": shard_files,
            "n_docs": int(stats["docs"]),
            "n_pages": int(stats["pages"]),
            "n_spans_in": int(stats["spans"]),
            "n_errors": int(stats["errors"]),
            "n_page_objects": int(stats["page_objects"]),
            "extract_s": t_bucket - t_extract,
            "bucket_s": t_end - t_bucket,
            "wall_s": wall,
        }
        with open(mpath + ".tmp", "w") as f:
            json.dump(manifest, f, indent=1)
        os.rename(mpath + ".tmp", mpath)
        return ShardResult(k, False, manifest["n_docs"], manifest["n_pages"],
                           manifest["n_spans_in"], manifest["n_errors"], wall)

    def emit(ev: dict) -> None:
        if on_event is not None:
            on_event(ev)

    emit({"type": "processing_started", "n_shards": shards,
          "n_files": len(files)})

    def run_shard_ev(k: int) -> ShardResult:
        try:
            r = run_shard(k)
        except Exception as e:  # noqa: BLE001 — surface then re-raise
            emit({"type": "processing_error", "shard": k, "error": str(e)})
            raise
        emit({"type": "shard_completed", "shard": k, "n_docs": r.n_docs,
              "n_pages": r.n_pages, "skipped": r.skipped,
              "wall_s": r.wall_s})
        return r

    stop_poll = threading.Event()

    def poll_progress() -> None:
        last = (0, 0)
        while not stop_poll.is_set():
            stop_poll.wait(0.5)
            try:
                docs_done, pages_done = ray.get(
                    progress_actor.snapshot.remote(), timeout=5
                )
            except Exception:  # noqa: BLE001 — actor gone at shutdown
                return
            if (docs_done, pages_done) != last:
                last = (docs_done, pages_done)
                emit({"type": "progress", "docs_done": docs_done,
                      "pages_done": pages_done, "total_docs": total_docs,
                      "pct": round(100.0 * docs_done / total_docs, 2)
                      if total_docs else 0.0})

    poller = None
    if progress_actor is not None:
        poller = threading.Thread(target=poll_progress, daemon=True)
        poller.start()
    try:
        with ThreadPoolExecutor(max_workers=max_concurrent_shards) as pool:
            results = list(pool.map(run_shard_ev, range(shards)))
    finally:
        if poller is not None:
            stop_poll.set()
            poller.join(timeout=10)
            try:  # final drain: late in-flight increments from the last batches
                docs_done, pages_done = ray.get(
                    progress_actor.snapshot.remote(), timeout=5
                )
                emit({"type": "progress", "docs_done": docs_done,
                      "pages_done": pages_done, "total_docs": total_docs,
                      "pct": round(100.0 * docs_done / total_docs, 2)
                      if total_docs else 0.0})
            except Exception:  # noqa: BLE001
                pass
            ray.kill(progress_actor)
    emit({"type": "processing_completed",
          "n_docs": sum(r.n_docs for r in results),
          "n_pages": sum(r.n_pages for r in results)})
    return results


def _shard_fingerprint(out_dir: str) -> str:
    """Digest over every shard manifest's lineage + the counts the merge
    reads: the merge skips only when the extraction it folded is
    bit-for-bit the current one."""
    import hashlib

    man_dir = os.path.join(out_dir, "manifests")
    parts = []
    for f in sorted(os.listdir(man_dir)):
        if f.startswith("shard-"):
            m = json.load(open(os.path.join(man_dir, f)))
            parts.append(json.dumps(
                [f, m.get("input_files"), m.get("n_docs"),
                 m.get("n_spans_in"), m.get("n_page_objects"),
                 m.get("n_errors")], sort_keys=True))
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


def run_merge(out_dir: str) -> dict:
    """Phase 2: the object merge WITHOUT an all-to-all shuffle.

    2a. Map-side partitioning happens PER SHARD during extraction
        (``_write_shard_delta_buckets``: read only the checkpoint's
        ``deltas`` column, explode + batch-combine, write one file per
        bucket task sorted by GUID-prefix key) — so by the time the merge
        runs, most of 2a has already overlapped the extraction phase.
        Here we only regenerate shards whose bucket dir is missing (a
        crash between the checkpoint commit and the bucket commit) and
        remove everything else under ``delta_buckets/`` (orphan shards,
        an older layout).
    2b. Range fold: the width is ``bucket_chars`` of the manifests' summed
        ``n_docs``, chosen here and nowhere persisted.  Each Ray task folds
        one block of contiguous buckets from every shard's files into one
        objects file per bucket.  Buckets are uniform (md5 prefix), so no
        skew; blocks keep the task count near 2x CPUs (one task per bucket
        is dispatch-bound at hundreds of buckets).

    ``merge.json`` records the width, the bucket count, the per-bucket
    object rows (max and median: the fold's skew) and ``table_rows``, the
    rows per output table (summing to ``n_objects``).  Doc-scoped
    page_objects/errors stay as checkpoint columns: already persisted
    columnar + sharded, consumers flatten them lazily (object_table) —
    rewriting them would be a second copy of the data."""
    import statistics

    man_dir = os.path.join(out_dir, "manifests")
    mpath = os.path.join(man_dir, "merge.json")
    manifests = {
        int(f.removeprefix("shard-").removesuffix(".json")):
            json.load(open(os.path.join(man_dir, f)))
        for f in os.listdir(man_dir)
        if f.startswith("shard-") and f.endswith(".json")
    }
    shard_ids = sorted(manifests)
    fingerprint = _shard_fingerprint(out_dir)
    if os.path.exists(mpath):
        m = json.load(open(mpath))
        # a merge is only reusable for the exact shard set it folded —
        # re-extracted shards (incremental ingest) invalidate it
        if m.get("complete") and m.get("shard_fingerprint") == fingerprint:
            return m
    t0 = time.time()

    # 2a catch-up: every manifested shard gets its delta files, and
    # nothing else under delta_buckets/ is kept
    broot = os.path.join(out_dir, "delta_buckets")
    keep = {os.path.basename(_shard_bucket_dir(out_dir, k)) for k in shard_ids}
    for d in set(os.listdir(broot) if os.path.isdir(broot) else ()) - keep:
        shutil.rmtree(os.path.join(broot, d), ignore_errors=True)
    files = []
    for k in shard_ids:
        _write_shard_delta_buckets(out_dir, k)
        bdir = _shard_bucket_dir(out_dir, k)
        files += [os.path.join(bdir, f) for f in sorted(os.listdir(bdir))]

    # 2b: independent range folds (raw tasks: a deterministic partitioned
    # fold the Dataset API has no shuffle-free primitive for)
    obj_dir = os.path.join(out_dir, "objects")
    tmp_dir = obj_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(obj_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    chars = bucket_chars(sum(m["n_docs"] for m in manifests.values()))
    prefixes = [f"{i:0{chars}x}" for i in range(16**chars)]
    n_tasks = min(len(prefixes), 2 * session_cpus())
    starts = [prefixes[i * len(prefixes) // n_tasks] for i in range(1, n_tasks)]
    # open-ended first and last blocks: every key lands in exactly one
    blocks = zip([""] + starts, starts + [None]) if files else ()
    # each fold is independent; a failed run just re-runs
    folds = ray.get([
        _fold_bucket_group.remote(files, lo, hi, chars, tmp_dir)
        for lo, hi in blocks
    ])
    os.rename(tmp_dir, obj_dir)

    bucket_rows = [n for rows, _per_table in folds for n in rows]
    counts = Counter()
    for _rows, per_table in folds:
        counts.update(per_table)
    for m in manifests.values():
        counts.update(page_objects=m["n_page_objects"], errors=m["n_errors"])
    table_rows = {name: counts[name] for name in TABLE_NAMES}
    manifest = {
        "complete": True,
        "n_objects": sum(table_rows.values()),
        "table_rows": table_rows,
        "bucket_chars": chars,
        "n_buckets": len(bucket_rows),
        "bucket_rows_max": max(bucket_rows, default=0),
        "bucket_rows_median": statistics.median(bucket_rows or [0]),
        "wall_s": time.time() - t0,
        "shard_fingerprint": fingerprint,
    }
    with open(mpath + ".tmp", "w") as f:
        json.dump(manifest, f, indent=1)
    os.rename(mpath + ".tmp", mpath)
    return manifest


def spans_output(out_dir: str) -> Dataset:
    """The per-document span-sequence output (equality surface) — a
    column-pruned view of the checkpoint."""
    return ray.data.read_parquet(
        os.path.join(out_dir, "extracted"), columns=["doc_id", "spans"]
    )


def object_table(out_dir: str, name: str) -> Dataset:
    """One normalized object table: doc-scoped tables flatten lazily from
    the checkpoint columns; merged kinds decode from a predicate-pushdown
    read of the merged objects."""
    if name in ("page_objects", "errors"):
        src = ray.data.read_parquet(
            os.path.join(out_dir, "extracted"), columns=[name]
        )
        return flatten_local_rows(src, name)
    rows_ds = ray.data.read_parquet(
        os.path.join(out_dir, "objects"),
        columns=["table_name", "mkey", "payload"],
        filter=(pc.field("table_name") == name),
    )
    return decode_table(rows_ds, name)
