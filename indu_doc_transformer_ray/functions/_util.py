"""Shared helpers for the operator modules."""

from __future__ import annotations


def join_partitions(cap: int = 64) -> int:
    """Hash-join partition count sized to the Ray session: ncpu/2, capped.
    Each partition spawns a shuffle-aggregator actor PER JOIN SIDE, and a
    partition count exceeding available CPUs deadlocks small sessions
    (aggregators can't all schedule, the join never drains); the cap bounds
    actor fan-out on big clusters — raise it for >128-CPU clusters where
    join key cardinality warrants."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, min(cap, ncpu // 2))


#: Target rows a single coarse co-location bucket should hold: the in-bucket
#: kernel materializes one bucket as one pandas frame, so this bounds the
#: per-task working set (~64k rows of narrow int/str columns is a few MB)
#: while keeping buckets far fewer than groups at test scale.
ROWS_PER_BUCKET = 65_536


def n_buckets(
    n_rows: int | None,
    rows_per_bucket: int = ROWS_PER_BUCKET,
    lo: int = 64,
    hi: int = 1 << 22,
) -> int:
    """Coarse co-location bucket count DERIVED from the corpus size instead
    of a fixed constant: next power of two of ``n_rows / rows_per_bucket``,
    clamped to [lo, hi].  A fixed 512 meant corpus/512 rows per in-bucket
    pandas frame — ~200 GB/task at 10^12 rows; deriving from the row count
    keeps the per-task working set bounded at any scale while the power-of-
    two form keeps the modulo cheap.  Results must be (and are, see
    tests/test_functions.py bucket-invariance) independent of the count —
    buckets only coarsen the shuffle key, never the group key.  ``n_rows``
    comes from parquet metadata (``Dataset.count()`` on a fresh read) or a
    materialized Dataset's metadata — never a full scan."""
    if not n_rows or n_rows <= 0:
        return lo
    want = (n_rows + rows_per_bucket - 1) // rows_per_bucket
    b = 1 << max(0, (want - 1).bit_length())
    return max(lo, min(hi, b))


def read_num_blocks(n_rows: int, rows_per_block: int = 16_384):
    """Read-block count for a SMALL table: Ray's default read parallelism
    (2x CPUs) splinters a few thousand rows into ~64 micro-blocks, and
    every downstream exchange then pays per-block scheduling for nothing
    (measured: a 40k-row groupby costs 1.2s at 64 blocks vs 0.31s at <=16
    on this host — pure sort-machinery fixed cost).  Returns ``None``
    (keep Ray's default) once the table is big enough that default
    parallelism yields >= ``rows_per_block`` rows per block, so corpus-
    scale reads keep their streaming shape; row counts come from parquet
    metadata, never a scan."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    default_blocks = ncpu * 2
    if n_rows >= default_blocks * rows_per_block:
        return None
    want = (n_rows + rows_per_block - 1) // rows_per_block
    # compute-parallelism floor: never serialize a table with real work in
    # it onto one task — ~512 rows/block up to half the CPUs keeps per-doc
    # kernels parallel while staying far under the micro-block regime
    floor = min(max(ncpu // 2, 4), (n_rows + 511) // 512)
    return max(1, min(default_blocks, max(want, floor)))


def read_small_aware(path: str, columns=None, **kwargs):
    """``ray.data.read_parquet`` with ``override_num_blocks`` derived from
    the file's metadata row count via :func:`read_num_blocks`."""
    import pyarrow.parquet as pq

    import ray.data

    nb = read_num_blocks(pq.read_metadata(path).num_rows)
    if nb is not None:
        kwargs.setdefault("override_num_blocks", nb)
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def session_token() -> str:
    """Unique token per Ray SESSION for session-scoped memo keys.  Job ids
    alone restart at the same value every ``ray.init`` in repeated local
    sessions (bench chunks, test modules), which let a memo hand a later
    session a dead session's materialized blocks ("owner is unknown" on
    fetch); the node id is regenerated per raylet start, so the pair is
    unique across init/shutdown cycles."""
    import ray

    try:
        ctx = ray.get_runtime_context()
        return f"{ctx.get_node_id()}:{ctx.get_job_id()}"
    except Exception:  # pragma: no cover - outside a Ray session
        return ""


def session_memo(memo: dict, key, build):
    """One-entry session memo: the value cached in ``memo`` for ``key`` in
    the current Ray session, else ``build()``.  A miss empties ``memo``
    first, so a process that sweeps several keys or sessions keeps only
    the current entry's materialized blocks alive."""
    tok = session_token()
    hit = memo.get(key)
    if hit is not None and hit[0] == tok:
        return hit[1]
    memo.clear()
    value = build()
    memo[key] = (tok, value)
    return value
