"""Sharded, resumable extraction runs: checkpoint + lineage + metrics.

Ray Data gives task-level retry/lineage but no job-level checkpointing
(SURVEY.md §4.2), so the runner adds it explicitly:

- the input file list is split into SHARDS (the resumable unit; at 100 TB a
  shard is a group of Lance/parquet fragments).  Each shard runs as its own
  streaming pipeline into ``out_dir/extracted/shard=K/`` and commits a
  manifest JSON recording lineage (exact input files), row/page/span/error
  counts and wall time.  Writes go to a temp dir renamed into place, so a
  half-written shard is never mistaken for a finished one.
- a re-run SKIPS every shard whose manifest is complete — kill the job at
  shard k, run again, and only shards >= k recompute (test-covered).
- the merge phase reads ONLY the ``deltas`` column of the checkpoint
  (parquet column pruning), writes it hash-partitioned by a GUID-derived
  bucket (map-side partitioning — no all-to-all exchange), and folds each
  bucket independently into the merged object tables, with its own manifest.
  The bucket width is ``extract.bucket_chars`` of the corpus's document
  count and is part of the bucket-dir path
  (``delta_buckets/chars=C/shard=K``), so dirs written at another width
  are never folded: they are removed and rebuilt like missing ones.

The span equality surface lives in the checkpoint itself: ``doc_id, spans``
columns of ``extracted/`` — consumers column-prune them out for free.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data
from ray.data import Dataset

from ..core import AspectConfig, default_config
from .extract import (
    BATCH_SIZE,
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


def _bucket_root(out_dir: str, chars: int) -> str:
    return os.path.join(out_dir, "delta_buckets", f"chars={chars}")


def _shard_bucket_dir(out_dir: str, shard: int, chars: int) -> str:
    return os.path.join(_bucket_root(out_dir, chars), f"shard={shard:05d}")


def _drop_other_widths(out_dir: str, chars: int) -> None:
    """Remove every ``delta_buckets`` entry but the ``chars=C`` tree: bucket
    dirs of another width (or an older flat layout) must never be folded
    with this width's, so they are rebuilt instead."""
    root = os.path.join(out_dir, "delta_buckets")
    if os.path.isdir(root):
        for d in os.listdir(root):
            if d != f"chars={chars}":
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)


@ray.remote
def _bucket_task(files: list[str], btmp: str, task_id: int, chars: int) -> None:
    """Explode + combine one group of checkpoint files and write the result
    partitioned by the GUID-derived bucket — a single sort-then-slice pass
    (NOT one filter scan per bucket), one file per (task, touched bucket)."""
    combined = _max_fold(pa.concat_tables([
        _explode_deltas(pq.read_table(f, columns=["deltas"])) for f in files
    ]))
    combined = _bucketize(combined, chars).sort_by("bucket")
    vc = combined.column("bucket").combine_chunks().value_counts()
    offset = 0
    for i in range(len(vc)):
        b = vc.field("values")[i].as_py()
        cnt = vc.field("counts")[i].as_py()
        sub = combined.slice(offset, cnt).select(["mkey", "payload"])
        offset += cnt
        d = os.path.join(btmp, f"bucket={b}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            sub, os.path.join(d, f"part-{task_id:04d}.parquet"), **PQ_WRITE_KW
        )


def _read_bucket_dirs(dirs: list[str]) -> pa.Table:
    """One bucket's combined deltas, spread over one partition dir per
    shard (``_write_shard_delta_buckets`` layout)."""
    import pyarrow.dataset as pads

    return pa.concat_tables([
        pads.dataset(d).to_table(columns=["mkey", "payload"]) for d in dirs
    ])


@ray.remote
def _fold_bucket_group(pairs: list) -> list[int]:
    """Fold SEVERAL (bucket_dirs, dest_file) pairs in one task: buckets stay
    the unit of merge correctness/resume, but one Ray task per bucket makes
    the fold phase dispatch-bound when bucket count >> CPUs (256 tasks of
    ~50ms each serialize under a degraded scheduler).  Grouping keeps
    task count ~2x CPUs with identical outputs.  Returns the object rows
    written per bucket, in ``pairs`` order."""
    rows = []
    for bucket_dirs, dest_file in pairs:
        out = _tag_table_name(_max_fold(_read_bucket_dirs(bucket_dirs)))
        pq.write_table(out, dest_file, **PQ_WRITE_KW)
        rows.append(out.num_rows)
    return rows


def _write_shard_delta_buckets(out_dir: str, shard: int, chars: int) -> None:
    """Merge phase 2a, PER SHARD: read only the just-written checkpoint's
    ``deltas`` column, explode + combine (vectorized Arrow group_by max),
    write hash-partitioned by the GUID-derived bucket.  Runs inside
    ``run_shard`` right after the checkpoint commit, so the bucketing of
    shard K overlaps the still-running extraction of shards K+1.. — the
    merge phase then only folds.  Plain Ray tasks over checkpoint-file
    groups (a per-shard Dataset pipeline here cost ~1s of executor startup
    × shards, round-3 regression finding).  Idempotent (tmp dir + atomic
    rename); ``run_merge`` regenerates any shard whose bucket dir at its
    width ``chars`` is missing (crash between checkpoint and bucket
    commit, or a width change)."""
    import ray

    bdir = _shard_bucket_dir(out_dir, shard, chars)
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
    # few, larger groups per shard: files written = groups x touched
    # buckets, and 8 concurrent shards still keep ~ncpu bucket tasks live
    nb = min(len(files), max(2, ncpu // 8)) or 1
    groups = [files[i::nb] for i in range(nb)]
    ray.get([
        _bucket_task.remote(g, btmp, i, chars)
        for i, g in enumerate(groups)
        if g
    ])
    os.rename(btmp, bdir)


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
    resume/failure isolation.  Each shard's read -> extract -> write is one
    fused Ray Data task stage (``extract.extract_batch``): it holds a CPU
    only while it runs, so any session size works, and a finished shard
    leaves no CPU held.

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
    # one merge width for the whole corpus, from the parquet footers; it
    # travels to the bucket tasks as an argument
    total_docs = sum(pq.read_metadata(f).num_rows for f in files)
    chars = bucket_chars(total_docs)
    _drop_other_widths(out_dir, chars)

    # purge orphans from a previous run with MORE shards: their dirs would
    # otherwise feed stale rows into the merge (which reads extracted/ whole)
    for ex_dir in (os.path.join(out_dir, "extracted"),
                   _bucket_root(out_dir, chars)):
        if os.path.isdir(ex_dir):
            for d in os.listdir(ex_dir):
                if d.startswith("shard="):
                    k = int(d.split("=")[1].split(".")[0])
                    if k >= shards:
                        shutil.rmtree(os.path.join(ex_dir, d),
                                      ignore_errors=True)
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
        shard_dir = os.path.join(out_dir, "extracted", f"shard={k:05d}")
        tmp_dir = shard_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(shard_dir, ignore_errors=True)
        # a recompute invalidates the shard's delta buckets too (they are
        # regenerated below; a crash in between leaves them to run_merge)
        shutil.rmtree(_shard_bucket_dir(out_dir, k, chars), ignore_errors=True)

        t0 = time.time()
        ds = ray.data.read_parquet(shard_files)
        extracted = extract_documents(
            ds, config=config, batch_size=batch_size,
            page_settings_json=page_settings_json,
            progress=(
                (progress_actor, k) if progress_actor is not None else None
            ),
        )
        extracted.write_parquet(tmp_dir, **PQ_WRITE_KW)
        stats = _shard_stats(tmp_dir)
        os.rename(tmp_dir, shard_dir)
        # bucket this shard's deltas NOW (overlaps later shards' extraction;
        # the just-written checkpoint is page-cache warm)
        _write_shard_delta_buckets(out_dir, k, chars)
        wall = time.time() - t0
        manifest = {
            "shard": k,
            "complete": True,
            "input_files": shard_files,
            "n_docs": int(stats["docs"]),
            "n_pages": int(stats["pages"]),
            "n_spans_in": int(stats["spans"]),
            "n_errors": int(stats["errors"]),
            "n_page_objects": int(stats["page_objects"]),
            "bucket_chars": chars,
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
    """Digest over every shard manifest's lineage + counts: the merge skips
    only when the extraction it folded is bit-for-bit the current one."""
    import hashlib

    man_dir = os.path.join(out_dir, "manifests")
    parts = []
    for f in sorted(os.listdir(man_dir)):
        if f.startswith("shard-"):
            m = json.load(open(os.path.join(man_dir, f)))
            parts.append(json.dumps(
                [f, m.get("input_files"), m.get("n_docs"),
                 m.get("n_spans_in")], sort_keys=True))
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


def run_merge(out_dir: str) -> dict:
    """Phase 2: the object merge WITHOUT an all-to-all shuffle.

    2a. Map-side partitioning happens PER SHARD during extraction
        (``_write_shard_delta_buckets``: read only the checkpoint's
        ``deltas`` column, explode + batch-combine, write hash-partitioned
        by the GUID-derived bucket) — so by the time the merge runs, most
        of 2a has already overlapped the extraction phase.  Here we only
        regenerate shards whose bucket dir at the merge width is missing:
        a crash between the checkpoint commit and the bucket commit, or a
        width change (a corpus that grew past a ``bucket_chars`` boundary
        while its old shards were skipped).
    2b. Per-bucket fold: each bucket B is read ACROSS shard dirs by one Ray
        task that runs the same max fold, tags table names, and writes its
        objects file.  Buckets are uniform (md5 prefix), so no skew.  The
        width is ``bucket_chars`` of the shard manifests' summed ``n_docs``
        (16 buckets up to 2,048 documents, 256 up to 32,768); those counts
        are in the shard fingerprint, so the fingerprint fixes the width.

    ``merge.json`` records the width, the bucket count and the per-bucket
    object rows (max and median: the fold's skew).  Doc-scoped
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
    chars = bucket_chars(sum(m["n_docs"] for m in manifests.values()))
    fingerprint = _shard_fingerprint(out_dir)
    if os.path.exists(mpath):
        m = json.load(open(mpath))
        # a merge is only reusable for the exact shard set and width it
        # folded — re-extracted shards (incremental ingest) invalidate it
        if (m.get("complete") and m.get("shard_fingerprint") == fingerprint
                and m.get("bucket_chars") == chars):
            return m
    t0 = time.time()

    # 2a catch-up: every manifested shard gets its bucket dir at this width
    _drop_other_widths(out_dir, chars)
    for k in shard_ids:
        _write_shard_delta_buckets(out_dir, k, chars)

    # 2b: independent per-bucket folds across shard dirs (raw tasks: a
    # deterministic partitioned fold the Dataset API has no shuffle-free
    # primitive for)
    obj_dir = os.path.join(out_dir, "objects")
    tmp_dir = obj_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(obj_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    shard_dirs = [_shard_bucket_dir(out_dir, k, chars) for k in shard_ids]
    bucket_names = sorted({
        d for sd in shard_dirs for d in os.listdir(sd) if d.startswith("bucket=")
    })
    pairs = []
    for b in bucket_names:
        dirs = [
            os.path.join(sd, b) for sd in shard_dirs
            if os.path.isdir(os.path.join(sd, b))
        ]
        pairs.append((dirs, os.path.join(tmp_dir, f"{b}.parquet")))
    # group buckets into ~2x-CPU tasks: the fold is dispatch-bound at one
    # task per bucket (256 x ~50ms dispatch serializes on a busy scheduler)
    ncpu = session_cpus()
    n_tasks = min(len(pairs), max(1, ncpu * 2))
    groups = [pairs[i::n_tasks] for i in range(n_tasks)]
    # each fold is independent; a failed run just re-runs
    bucket_rows = [
        n for rows in ray.get([_fold_bucket_group.remote(g) for g in groups])
        for n in rows
    ]
    os.rename(tmp_dir, obj_dir)

    # merged entities + doc-scoped counts from the shard manifests
    local_rows = sum(
        m.get("n_errors", 0) + m.get("n_page_objects", 0)
        for m in manifests.values()
    )
    manifest = {
        "complete": True,
        "n_objects": int(sum(bucket_rows) + local_rows),
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
