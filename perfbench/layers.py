"""Traced-run probes: the extraction layers, driven in the benchmark process,
and the Ray plumbing floor.  Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .trace import Tracer, wrapped

#: run_extraction's default batch size
BATCH_SIZE = 64

EXTRACT_LAYERS = {
    "extract.arrow_io_ms_per_doc": "extract.call",
    "spandoc.split_pages_ms_per_doc": "spandoc.split_pages",
    "spandoc.classify_footer_ms_per_doc": "spandoc.classify_footer",
    "tables.page_table_ms_per_doc": "tables.page_table",
    "emit.emitters_ms_per_doc": "emit.emitters",
    "emit.process_document_self_ms_per_doc": "emit.process_document",
    "deltas.store_to_deltas_ms_per_doc": "deltas.store_to_deltas",
    "deltas.local_tuples_ms_per_doc": "deltas.local_tuples",
}


def _batches(table: pa.Table) -> list[pa.Table]:
    return [
        table.slice(i, BATCH_SIZE) for i in range(0, table.num_rows, BATCH_SIZE)
    ]


def extractor_probe(corpus: pa.Table) -> dict[str, tuple[float, str]]:
    """Drive ``DocumentExtractor`` over ``corpus`` at the runner's batch
    size: a warm-up pass, a plain timed pass, then a pass with every layer
    boundary wrapped.  Each timed pass uses a fresh extractor, as each
    Ray actor does.  Reports per-document self times and counts."""
    import time

    from indu_doc_transformer_ray import emit
    from indu_doc_transformer_ray.pagemodel import PageType
    from indu_doc_transformer_ray.pipelines import extract as ex

    n = corpus.num_rows
    batches = _batches(corpus)
    for b in batches:  # warms process-wide caches for both timed passes
        ex.DocumentExtractor()(b)
    plain = ex.DocumentExtractor()
    t0 = time.perf_counter_ns()
    for b in batches:
        plain(b)
    untraced_ns = time.perf_counter_ns() - t0

    tracer = Tracer()
    last_type: list = [None]

    def on_type(ptype):
        last_type[0] = ptype
        if ptype is None:
            tracer.count("emit.pages_dropped")

    def on_footer(footer):
        if footer is None:
            tracer.count("emit.pages_dropped")
        else:
            pt = last_type[0]
            tracer.count(f"emit.pages.{getattr(pt, 'value', pt)}")

    targets = [
        (ex, "process_document", "emit.process_document"),
        (ex, "store_to_deltas", "deltas.store_to_deltas"),
        (ex, "store_to_local_tuples", "deltas.local_tuples"),
        (emit, "split_pages", "spandoc.split_pages"),
        (emit, "detect_page_type", "spandoc.classify_footer", on_type),
        (emit, "extract_footer", "spandoc.classify_footer", on_footer),
        (emit, "extract_page_table", "tables.page_table"),
    ] + [(emit.EMITTERS, key, "emit.emitters") for key in list(emit.EMITTERS)]
    traced = ex.DocumentExtractor()
    outs = []
    with wrapped(tracer, targets):
        for b in batches:
            with tracer.span("extract.call"):
                outs.append(traced(b))
    out = pa.concat_tables(outs)

    def per_doc(v: float) -> float:
        return v / n

    m = {
        metric: (per_doc(sum(tracer.self_ns_each(span)) / 1e6), "ms/doc")
        for metric, span in EXTRACT_LAYERS.items()
    }
    m["extract.call_ms_per_doc"] = (
        per_doc(tracer.total_ns("extract.call") / 1e6), "ms/doc")
    m["extract.call_untraced_ms_per_doc"] = (per_doc(untraced_ns / 1e6), "ms/doc")

    def list_total(t: pa.Table, col: str) -> int:
        return pc.sum(pc.list_value_length(t.column(col))).as_py() or 0

    m["extract.spans_in_per_doc"] = (per_doc(list_total(corpus, "spans")), "spans/doc")
    m["extract.spans_out_per_doc"] = (per_doc(list_total(out, "spans")), "spans/doc")
    m["extract.deltas_per_doc"] = (per_doc(list_total(out, "deltas")), "deltas/doc")
    for pt in PageType:
        m[f"emit.pages.{pt.value}"] = (tracer.counts.get(f"emit.pages.{pt.value}", 0), "pages")
    m["emit.pages_dropped"] = (tracer.counts.get("emit.pages_dropped", 0), "pages")
    return m


class Identity:
    """Pass-through actor for the Ray plumbing floor."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch


def runner_pool_size(ncpu: int) -> int:
    """Actor-pool size ``run_extraction`` picks at ``ncpu`` CPUs (its
    concurrent-shard and pool formula, restated)."""
    shards = min(8, max(1, ncpu // 4))
    return max(1, ncpu // shards - 1)


def identity_floor_s(input_file: str, dest: str, batch_size: int) -> float:
    """read -> identity actor ``map_batches`` -> ``write_parquet`` over the
    same input with the runner's pool size: what the Ray stages cost when
    the actor does nothing."""
    import time

    import ray
    import ray.data

    pool = runner_pool_size(int(ray.cluster_resources()["CPU"]))
    t0 = time.perf_counter()
    ray.data.read_parquet(input_file).map_batches(
        Identity, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
    ).write_parquet(dest)
    return time.perf_counter() - t0
