"""The flagship Ray Data extraction pipeline.

    read (parquet/lance docs table)                   # its own operator
      -> map_batches(extract_batch)                   # classify+footer+tables+emit
           ├─ span path:  select(doc_id, spans_out)   # per-doc, shuffle-free
           └─ delta path: explode + max fold -> GUID bucket -> max fold per bucket
                          -> decode -> normalized object tables

Design points for 100 TB (SURVEY.md §3.4/§4):

- The unit of work is the DOCUMENT (one row), processed whole inside one
  extraction task: the equality surface (per-doc ordered spans) is
  embarrassingly parallel and never shuffles.  Per-page compute is
  micro-scale (dozens of cells), so document skew is bounded by pages/doc;
  small ``batch_size`` plus Ray's dynamic block splitting absorbs the
  multi-hundred-page tail.
- The ONLY cross-document step is the object merge: deltas are routed to
  one of ``16**c`` buckets by the first ``c = bucket_chars(n_docs)`` hex
  chars of their embedded GUID (16 buckets up to 2,048 documents, 256 up to
  32,768, at most ``16**MAX_BUCKET_CHARS``), and each bucket is reduced by
  the same max-per-``mkey`` fold (``_max_fold``) that pre-combines every
  batch — md5-derived keys are uniform by construction, so no skew/salting
  needed (SURVEY.md §7.4).
- Each worker process keeps one warm ``DocumentExtractor`` (parsed
  config, compiled separator regex, page-spec index, cross-document memos)
  across batches and jobs, rebuilt only when the config or page settings
  change (``extract_batch``).
- Extraction is a task stage.  Ray Data fuses it with the map or write
  that follows (the runner's checkpoint write) but not with the read,
  because its ``batch_size`` blocks read -> map fusion.  The runner's
  shard pipeline admits a task per free CPU from the start
  (``runner.shard_stage``).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pajson

import ray.data
from ray.data import Dataset

from ..core import AspectConfig, default_config
from ..deltas import (
    KIND_TO_TABLE,
    TABLE_NAMES,
    TABLE_SCHEMAS,
    store_to_deltas,
    store_to_local_tuples,
)
from ..emit import process_document, use_page_settings
from ..fixtures import SPAN_STRUCT
from ..spandoc import US, Span
from ..store import ExtractionStore, StoreMemo

DELTA_STRUCT = pa.struct([("mkey", pa.string()), ("payload", pa.string())])
PAGE_OBJECT_STRUCT = pa.struct(TABLE_SCHEMAS["page_objects"])
ERROR_STRUCT = pa.struct(TABLE_SCHEMAS["errors"])

EXTRACTED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("deltas", pa.list_(DELTA_STRUCT)),
        ("page_objects", pa.list_(PAGE_OBJECT_STRUCT)),
        ("errors", pa.list_(ERROR_STRUCT)),
        ("n_pages", pa.int32()),
        ("n_spans_in", pa.int32()),
        ("n_errors", pa.int32()),
        ("n_page_objects", pa.int32()),
    ]
)


def session_cpus() -> int:
    """Logical CPUs of the current Ray session (8 when none is running)."""
    import ray

    if not ray.is_initialized():
        return 8
    return int(ray.cluster_resources().get("CPU", 8))


#: documents per extraction batch, for ``extract_documents`` and
#: ``run_extraction`` alike.  Per-document work is heavy and variable
#: (SURVEY.md §4.2), so batches stay small; outputs do not depend on it,
#: since every memo entry is a pure function of its key.
BATCH_SIZE = 64


class DocumentExtractor:
    """The extraction kernel: one whole document per row, a fresh
    per-document store, output = renumbered span sequence + merge-ready
    deltas + per-doc metrics columns (feeding the partition manifest).
    Holds the warm state: the parsed config and the cross-document memos.
    Constructing one sets this process's page specs to the shipped ones
    plus ``page_settings_json`` (``emit.use_page_settings``)."""

    def __init__(
        self,
        config_records: Optional[list[dict]] = None,
        page_settings_json: Optional[str] = None,
    ):
        self.config = (
            AspectConfig.from_pairs(
                [(r["Separator"], r["Aspect"]) for r in config_records]
            )
            if config_records
            else default_config
        )
        # cross-document caches shared by every per-doc store this
        # extractor creates (pure-function results only); bounded per batch
        self.memo = StoreMemo()
        use_page_settings(page_settings_json)

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.memo.bound()
        doc_ids = batch.column("doc_id").to_pylist()
        # flat-column decode: four plain-list conversions + offset slicing
        # beat list<struct>.to_pylist's per-span dict materialization
        spans_arr = batch.column("spans").combine_chunks()
        flat = spans_arr.flatten()
        in_kind = flat.field("kind").to_pylist()
        in_text = flat.field("text").to_pylist()
        in_ref = flat.field("media_ref").to_pylist()
        in_off = flat.field("offset").to_pylist()
        in_offsets = spans_arr.offsets.to_pylist()
        # columnar accumulators: list<struct> columns are assembled from flat
        # value arrays + offset arrays (ListArray.from_arrays), which is
        # several times cheaper than pa.array over lists of per-row dicts
        sp_kind: list[str] = []
        sp_text: list[str] = []
        sp_ref: list[str] = []
        sp_off: list[int] = []
        sp_offsets = [0]
        d_mkey: list[str] = []
        d_payload: list[str] = []
        d_offsets = [0]
        po_doc: list[str] = []
        po_page: list[int] = []
        po_kind: list[str] = []
        po_guid: list[str] = []
        po_offsets = [0]
        er_doc: list[str] = []
        er_page: list[int] = []
        er_sev: list[str] = []
        er_msg: list[str] = []
        er_offsets = [0]
        n_pages: list[int] = []
        n_spans_in: list[int] = []
        n_errors: list[int] = []
        n_pobjs: list[int] = []

        for i, doc_id in enumerate(doc_ids):
            a, b = in_offsets[i], in_offsets[i + 1]
            store = ExtractionStore(self.config, self.memo)
            spans = [
                Span(k, t, r, o)
                for k, t, r, o in zip(
                    in_kind[a:b], in_text[a:b], in_ref[a:b], in_off[a:b]
                )
            ]
            # renumber=False: output offsets are positional by construction,
            # filled below via range() — skips a per-span Span rebuild
            out = process_document(doc_id, spans, store, renumber=False)
            if out:
                o_kind, o_text, o_ref, _stale = zip(*out)
                sp_kind.extend(o_kind)
                sp_text.extend(o_text)
                sp_ref.extend(o_ref)
                sp_off.extend(range(len(out)))
            sp_offsets.append(len(sp_kind))
            dl = store_to_deltas(store)
            if dl:
                mk, pl = zip(*dl)
                d_mkey.extend(mk)
                d_payload.extend(pl)
            d_offsets.append(len(d_mkey))
            pobjs, errs = store_to_local_tuples(store)
            if pobjs:
                p_doc, p_page, p_kind, p_guid = zip(*pobjs)
                po_doc.extend(p_doc)
                po_page.extend(p_page)
                po_kind.extend(p_kind)
                po_guid.extend(p_guid)
            po_offsets.append(len(po_doc))
            if errs:
                e_doc, e_page, e_sev, e_msg = zip(*errs)
                er_doc.extend(e_doc)
                er_page.extend(e_page)
                er_sev.extend(e_sev)
                er_msg.extend(e_msg)
            er_offsets.append(len(er_doc))
            n_pages.append(in_kind[a:b].count("page_break"))
            n_spans_in.append(b - a)
            n_errors.append(len(errs))  # set-deduplicated, matches the table
            n_pobjs.append(len(pobjs))

        def list_col(offsets, arrays, names):
            values = pa.StructArray.from_arrays(arrays, names)
            return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)

        spans_col = list_col(
            sp_offsets,
            [pa.array(sp_kind, pa.string()), pa.array(sp_text, pa.string()),
             pa.array(sp_ref, pa.string()), pa.array(sp_off, pa.int32())],
            ["kind", "text", "media_ref", "offset"],
        )
        deltas_col = list_col(
            d_offsets,
            [pa.array(d_mkey, pa.string()), pa.array(d_payload, pa.string())],
            ["mkey", "payload"],
        )
        pobj_col = list_col(
            po_offsets,
            [pa.array(po_doc, pa.string()), pa.array(po_page, pa.int32()),
             pa.array(po_kind, pa.string()), pa.array(po_guid, pa.string())],
            ["doc_id", "page_no", "object_kind", "object_guid"],
        )
        err_col = list_col(
            er_offsets,
            [pa.array(er_doc, pa.string()), pa.array(er_page, pa.int32()),
             pa.array(er_sev, pa.string()), pa.array(er_msg, pa.string())],
            ["doc_id", "page_no", "severity", "message"],
        )
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.string()),
                spans_col,
                deltas_col,
                pobj_col,
                err_col,
                pa.array(n_pages, pa.int32()),
                pa.array(n_spans_in, pa.int32()),
                pa.array(n_errors, pa.int32()),
                pa.array(n_pobjs, pa.int32()),
            ],
            schema=EXTRACTED_SCHEMA,
        )


#: this process's warm extractor, ``{key: DocumentExtractor}`` for the
#: one (config records, page settings) key last used — the one-entry
#: policy of ``_util.session_memo``.  Ray reuses worker processes across
#: tasks and jobs, so the memos stay warm from batch to batch.
_WARM: dict[tuple, DocumentExtractor] = {}


def extract_batch(
    batch: pa.Table,
    config_records: list[dict],
    page_settings_json: "str | None",
    progress: "tuple | None",
) -> pa.Table:
    """The extraction stage: ``batch`` through this process's warm
    ``DocumentExtractor`` for ``(config_records, page_settings_json)``,
    built anew (page specs reset first) when that key changes.

    ``progress`` is ``(progress_actor, shard)`` or None: when set, every
    batch fire-and-forgets one (shard, docs, pages) increment to the
    zero-CPU progress actor — page-granular progress (the reference's
    per-page percentage events, plugins/events.py:46-72) at one RPC per
    batch instead of one per page."""
    key = (
        tuple((r["Separator"], r["Aspect"]) for r in config_records),
        page_settings_json,
    )
    extractor = _WARM.get(key)
    if extractor is None:
        _WARM.clear()
        extractor = _WARM[key] = DocumentExtractor(
            config_records, page_settings_json
        )
    out = extractor(batch)
    if progress is not None:
        actor, shard = progress
        actor.add.remote(
            shard, out.num_rows, pc.sum(out.column("n_pages")).as_py() or 0
        )
    return out


def extract_documents(
    docs: Dataset,
    config: AspectConfig = default_config,
    batch_size: int = BATCH_SIZE,
    page_settings_json: "str | None" = None,
    progress: "tuple | None" = None,
) -> Dataset:
    """docs(doc_id, spans) -> extracted(doc_id, spans, deltas, metrics).

    A plain task stage (``extract_batch``) on already-running workers: no
    actor process to start per job, and no CPU held while a stage idles.
    Ray Data fuses it with what follows (the runner's checkpoint write),
    not with the read: ``batch_size`` keeps the read its own operator."""
    return docs.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_args=(config.to_records(), page_settings_json, progress),
    )


#: documents per merge bucket that ``bucket_chars`` sizes the width for.
#: A document yields about 300-500 delta rows (measured on the fixture and
#: md5-choice corpora), so a bucket receives at most ~40-64k delta rows.
#: At 128 the 20,000-document sf0.1 headline keeps 2 chars (256 buckets)
#: while 160-2,048 documents get 1 char (16 buckets); at 256 buckets a
#: 160-document job wrote ~300 rows per bucket file and spent most of its
#: merge on the 512 files of each round.
DOCS_PER_BUCKET = 128

#: the widest merge bucket: the runner's delta files are keyed by this many
#: GUID hex chars, so a fold at any width reads key ranges of them.
MAX_BUCKET_CHARS = 4


def bucket_chars(n_docs: int) -> int:
    """Merge bucket width for a corpus of ``n_docs`` documents: the
    smallest hex-char count ``c >= 1`` with ``16**c * DOCS_PER_BUCKET >=
    n_docs``, at most ``MAX_BUCKET_CHARS``.  Callers compute it once on the
    driver and pass it on, so Ray workers never read this module's
    globals."""
    c = 1
    while c < MAX_BUCKET_CHARS and 16**c * DOCS_PER_BUCKET < n_docs:
        c += 1
    return c


def _max_fold(t: pa.Table) -> pa.Table:
    """The merge kernel: max(payload) per mkey (God-merge semantics, see
    deltas.py for the per-kind proof), one vectorized Arrow group_by.  It
    is associative, so it serves as the per-batch combine, the per-task
    combine and the per-bucket fold alike."""
    merged = t.group_by("mkey").aggregate([("payload", "max")])
    return merged.rename_columns(["mkey", "payload"])


def _explode_deltas(batch: pa.Table) -> pa.Table:
    """Flatten per-doc delta lists and pre-combine within the batch (the
    partial-aggregate push-down before the shuffle) — all in vectorized
    Arrow kernels, no Python per row."""
    flat = pc.list_flatten(batch.column("deltas").combine_chunks())
    return _max_fold(pa.Table.from_arrays(
        [flat.field("mkey"), flat.field("payload")], ["mkey", "payload"]
    ))


def _bucketize(batch: pa.Table, chars: int) -> pa.Table:
    """Merge bucket from the first ``chars`` hex chars of the embedded
    GUID (uniform by construction)."""
    guid_part = pc.list_element(
        pc.split_pattern(batch.column("mkey"), US, max_splits=1), 1
    )
    bucket = pc.utf8_slice_codeunits(guid_part, 0, chars)
    return batch.append_column("bucket", bucket)


def merge_deltas(extracted: Dataset) -> Dataset:
    """In-memory merge path (tests / small runs): the max fold over a
    coarse bucket exchange, ``bucket_chars`` of the corpus wide.  Output:
    (mkey, payload).  The extraction is materialized (a no-op when it
    already is) so its document count sizes the width without running it
    twice.

    The production path avoids even this exchange: the runner writes each
    shard's deltas sorted by bucket key at checkpoint time (a map-side
    write — no all-to-all), then folds ranges of buckets independently
    (runner.run_merge)."""
    extracted = extracted.materialize()
    chars = bucket_chars(extracted.count())
    flat = extracted.select_columns(["deltas"]).map_batches(
        _explode_deltas, batch_format="pyarrow"
    )
    return (
        flat.map_batches(_bucketize, fn_args=(chars,), batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_max_fold, batch_format="pyarrow")
    )


def _tag_table_name(batch: pa.Table) -> pa.Table:
    """Attach the output-table name from the mkey prefix — dictionary-level
    mapping (a handful of distinct kinds), not per-row Python."""
    kind = pc.list_element(
        pc.split_pattern(batch.column("mkey"), US, max_splits=1), 0
    )
    enc = pc.dictionary_encode(kind.combine_chunks())
    mapped = pa.array(
        [KIND_TO_TABLE[v] for v in enc.dictionary.to_pylist()], pa.string()
    )
    table_name = pc.cast(
        pa.DictionaryArray.from_arrays(enc.indices, mapped), pa.string()
    )
    return batch.append_column("table_name", table_name)


def _json_rows(payload: pa.Array, schema: pa.Schema) -> pa.Table:
    """COLUMNAR JSON decode of a payload column: one C++ join into an
    NDJSON buffer, one ``pyarrow.json`` parse against the declared
    ``schema`` — no type is inferred, and a field outside it is an error.
    Canonical payloads (json.dumps) never contain raw newlines, so
    line-delimited framing is safe."""
    offsets = pa.array([0, len(payload)], pa.int32())
    la = pa.ListArray.from_arrays(offsets, payload)
    buf = pc.binary_join(la, "\n")[0].as_buffer()
    return pajson.read_json(
        pa.BufferReader(buf),
        parse_options=pajson.ParseOptions(
            explicit_schema=schema, unexpected_field_behavior="error"
        ),
    )


def decode_object_batch(batch: pa.Table) -> pa.Table:
    """(mkey, payload) rows of ONE merged table -> that table's typed rows
    (``deltas.TABLE_SCHEMAS``), in input order and fully columnar: mkeys
    split with Arrow kernels, JSON payloads decoded by one buffered parse
    against the table's declared payload columns.  ``deltas.assemble_rows``
    is the per-row reference (tests/test_deltas.py pins their equality)."""
    if batch.num_rows == 0:
        return pa.table({})
    mkey = batch.column("mkey").combine_chunks()
    payload = batch.column("payload").combine_chunks()
    parts = pc.split_pattern(mkey, US)
    kind = pc.list_element(parts, 0)
    names = {KIND_TO_TABLE[k] for k in pc.unique(kind).to_pylist()}
    if len(names) != 1:
        raise ValueError(f"one table per batch, got {sorted(names)}")
    name = names.pop()
    schema = TABLE_SCHEMAS[name]
    key = pc.list_element(parts, 1)
    if name == "object_attrs":  # everything is in the mkey
        owner = pc.replace_substring_regex(kind, "_attr$", "")
        cols = [owner, key, pc.list_element(parts, 2)]
    elif name == "xtargets":  # payload "prio␟type␟tag_str"
        ps = pc.split_pattern(payload, US, max_splits=2)
        cols = [key, pc.list_element(ps, 2), pc.list_element(ps, 1)]
    else:  # guid + the JSON payload's columns
        cols = [key, *_json_rows(payload, pa.schema(list(schema)[1:])).columns]
    return pa.Table.from_arrays(cols, schema=schema)


def _table_rows(tagged: pa.Table, name: str) -> pa.Table:
    """Typed rows of merged table ``name`` from (table_name, mkey, payload)
    rows (``_tag_table_name`` output)."""
    rows = tagged.filter(pc.equal(tagged.column("table_name"), name))
    if rows.num_rows == 0:
        return TABLE_SCHEMAS[name].empty_table()
    return decode_object_batch(rows.select(["mkey", "payload"]))


def decode_table(tagged: Dataset, name: str) -> Dataset:
    """One merged object table as a Dataset of typed rows."""
    return tagged.map_batches(
        _table_rows, fn_args=(name,), batch_format="pyarrow"
    )


def flatten_local_rows(extracted: Dataset, column: str) -> Dataset:
    """Doc-scoped rows (page_objects / errors): a pure flatten, no shuffle."""

    def flat(batch: pa.Table) -> pa.Table:
        arr = pc.list_flatten(batch.column(column).combine_chunks())
        return pa.Table.from_arrays(
            [arr.field(i) for i in range(arr.type.num_fields)],
            [arr.type.field(i).name for i in range(arr.type.num_fields)],
        )

    return extracted.select_columns([column]).map_batches(
        flat, batch_format="pyarrow"
    )


def object_tables_to_pylists(extracted: Dataset) -> dict[str, list[dict]]:
    """Small-scale/test materialization of every normalized object table."""
    extracted = extracted.materialize()  # one extraction feeds all three reads
    out: dict[str, list[dict]] = {n: [] for n in TABLE_NAMES}
    for batch in merge_deltas(extracted).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        tagged = _tag_table_name(batch)
        for name in pc.unique(tagged.column("table_name")).to_pylist():
            out[name].extend(_table_rows(tagged, name).to_pylist())
    for name in ("page_objects", "errors"):
        for batch in flatten_local_rows(extracted, name).iter_batches(
            batch_size=65536, batch_format="pyarrow"
        ):
            out[name].extend(batch.to_pylist())
    return out


#: session-scoped memo for the driver corpus extraction: extract_spans,
#: extract_object_stats and search_targets_count all extract the SAME
#: deterministic span corpus (documents rows // 5, seed 42); when a harness
#: runs them back-to-back in one session the heavy extraction
#: should happen once.  ``_util.session_memo`` keeps only the current
#: (key, session) entry — block refs die with the session, so a stale
#: entry is recomputed, never returned.
_EXTRACT_MEMO: dict[tuple, tuple[str, Dataset]] = {}


def extract_corpus_cached(sf_dir: str) -> Dataset:
    """Materialized extraction of the driver's deterministic span corpus
    (same sizing rule as ``__ray_entry__._corpus_docs_for``), shared across
    the extraction-family queries within one Ray session."""
    import pyarrow.parquet as pq

    from ..functions._util import session_memo
    from .corpus import corpus_dataset

    n_docs = max(
        20, pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows // 5
    )
    return session_memo(
        _EXTRACT_MEMO,
        (sf_dir, n_docs),
        lambda: extract_documents(corpus_dataset(n_docs, seed=42)).materialize(),
    )
