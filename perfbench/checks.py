"""Correctness checks over a finished job's output directory.

Every check raises ``CheckError`` on the first difference it finds.  The
merge, count and digest checks recompute their expected values with
DuckDB straight from the parquet files, never through the engine's own
readers; the span check compares against the benchmark's input table.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

US = "\x1f"
RS = "\x1e"
GENERATED = ("object", "error")
SEVERITIES = ("INFO", "WARNING", "FAULT", "UNKNOWN_ERROR")
_OBJECT_TEXT = (
    "^[a-z_]+\x1f[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$"
)
_ERROR_TEXT = "^(" + "|".join(SEVERITIES) + ")\x1f"
#: the nine tables of the export path (tools/run_job.py order)
TABLES = ("xtargets", "connections", "links", "pins", "aspects",
          "attributes", "object_attrs", "page_objects", "errors")


class CheckError(AssertionError):
    pass


def _fail(msg: str) -> None:
    raise CheckError(msg)


def _glob(out_dir: str, sub: str) -> str:
    return os.path.join(out_dir, sub, "**", "*.parquet")


def _duck() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads=1")
    con.execute("SET enable_progress_bar=false")
    return con


def read_checkpoint(out_dir: str, columns: list[str]) -> pa.Table:
    return pads.dataset(
        os.path.join(out_dir, "extracted"), format="parquet",
        partitioning="hive",
    ).to_table(columns=columns)


# -- spans --------------------------------------------------------------------

def _flat(spans: pa.ChunkedArray) -> tuple[np.ndarray, dict[str, pa.Array]]:
    arr = spans.combine_chunks()
    flat = arr.flatten()
    return arr.offsets.to_numpy(), {
        f: flat.field(f) for f in ("kind", "text", "media_ref", "offset")
    }


def check_spans(inputs: pa.Table, out_dir: str) -> int:
    """Every input document is in the checkpoint exactly once; within each
    page its spans are the page's input spans in offset order, followed
    only by generated ``object``/``error`` spans of the form
    ``<kind|severity>\x1f<guid|message>``; offsets run 0..n-1 and
    ``n_pages`` is the number of ``page_break`` spans.  Vectorized over
    the whole corpus; returns the number of documents checked."""
    out = read_checkpoint(out_dir, ["doc_id", "spans", "n_pages"])
    out_ids = out.column("doc_id").to_pylist()
    in_ids = inputs.column("doc_id").to_pylist()
    if len(set(out_ids)) != len(out_ids):
        _fail("a document appears twice in the checkpoint")
    if set(out_ids) != set(in_ids):
        missing = sorted(set(in_ids) - set(out_ids))[:3]
        _fail(f"checkpoint documents differ from the input: missing {missing}")
    pos = {d: i for i, d in enumerate(out_ids)}
    out = out.take(pa.array([pos[d] for d in in_ids]))  # input doc order

    in_off, ins = _flat(inputs.column("spans"))
    o_off, outs = _flat(out.column("spans"))
    n_in, n_out = np.diff(in_off), np.diff(o_off)
    doc_of_in = np.repeat(np.arange(len(n_in)), n_in)
    doc_of_out = np.repeat(np.arange(len(n_out)), n_out)
    in_pos = ins["offset"].to_numpy()
    if np.any((np.diff(in_pos) <= 0) & (np.diff(doc_of_in) == 0)):
        _fail("benchmark input spans are not in offset order")

    def where(mask: np.ndarray, what: str) -> None:
        if mask.any():
            _fail(f"{in_ids[doc_of_out[np.argmax(mask)]]}: {what}")

    position = np.arange(len(doc_of_out)) - o_off[doc_of_out]
    where(outs["offset"].to_numpy() != position, "output offsets do not run 0..n-1")
    kind = outs["kind"]
    gen = pc.is_in(kind, pa.array(GENERATED)).to_numpy(zero_copy_only=False)
    # input spans pass through unchanged and in order
    kept = pa.array(~gen)
    per_doc_kept = np.bincount(doc_of_out[~gen], minlength=len(n_out))
    if not np.array_equal(per_doc_kept, n_in):
        bad = np.argmax(per_doc_kept != n_in)
        _fail(f"{in_ids[bad]}: {int(n_in[bad] - per_doc_kept[bad])} input spans dropped")
    for f in ("kind", "text", "media_ref"):
        same = pc.equal(outs[f].filter(kept), ins[f]).to_numpy(zero_copy_only=False)
        if not same.all():
            _fail(f"{in_ids[doc_of_in[np.argmin(same)]]}: input span missing or changed")
    # generated spans only close a page: at least one input span before,
    # and the next input span (if any) opens a new page
    cz = np.r_[0, np.cumsum(~gen)]
    consumed = cz[:-1] - cz[o_off[doc_of_out]]  # input spans before each span
    in_kind = np.asarray(ins["kind"].to_pylist() + [""], dtype=object)
    opens_page = in_kind[in_off[doc_of_out] + consumed] == "page_break"
    closes = (consumed == n_in[doc_of_out]) | opens_page
    where(gen & ((consumed == 0) | ~closes), "generated span inside a page")
    text = outs["text"]
    well_formed = pc.or_(
        pc.and_(pc.equal(kind, "object"), pc.match_substring_regex(text, _OBJECT_TEXT)),
        pc.and_(pc.equal(kind, "error"), pc.match_substring_regex(text, _ERROR_TEXT)),
    )
    well_formed = pc.and_(well_formed, pc.equal(outs["media_ref"], ""))
    where(gen & ~well_formed.to_numpy(zero_copy_only=False), "malformed generated span")
    breaks = np.bincount(
        doc_of_in[pc.equal(ins["kind"], "page_break").to_numpy(zero_copy_only=False)],
        minlength=len(n_in),
    )
    n_pages = out.column("n_pages").to_numpy()
    if not np.array_equal(n_pages, breaks):
        _fail(f"{in_ids[np.argmax(n_pages != breaks)]}: n_pages != number of page_break spans")
    return len(in_ids)


# -- merge ----------------------------------------------------------------------

_H40 = "CAST('0x' || substr(md5(mkey || chr(31) || payload), 1, 10) AS BIGINT)"


def _kind_digest(con, rows_sql: str) -> dict[str, tuple[int, int]]:
    rows = con.execute(
        f"SELECT split_part(mkey, chr(31), 1) AS kind, count(*),"
        f" CAST(sum({_H40}) AS BIGINT) FROM ({rows_sql}) GROUP BY 1"
    ).fetchall()
    return {k: (n, h) for k, n, h in rows}


def objects_digest(out_dir: str) -> dict[str, tuple[int, int]]:
    """Per delta kind: (rows, 40-bit md5 hash sum) of ``objects/``."""
    with _duck() as con:
        return _kind_digest(
            con, f"SELECT mkey, payload FROM read_parquet('{_glob(out_dir, 'objects')}')"
        )


def fold_digest(out_dir: str) -> dict[str, tuple[int, int]]:
    """The same digest of an independent ``max(payload) GROUP BY mkey`` fold
    over the checkpoint's ``deltas`` column."""
    with _duck() as con:
        return _kind_digest(
            con,
            "SELECT d.mkey AS mkey, max(d.payload) AS payload FROM ("
            " SELECT unnest(deltas) AS d FROM read_parquet("
            f"'{_glob(out_dir, 'extracted')}', hive_partitioning = false))"
            " GROUP BY 1",
        )


def table_counts(out_dir: str) -> dict[str, int]:
    """Rows per export table: merged tables from ``objects/`` by
    ``table_name``, doc-scoped tables from the flattened checkpoint."""
    with _duck() as con:
        counts = dict(con.execute(
            "SELECT table_name, count(*) FROM read_parquet("
            f"'{_glob(out_dir, 'objects')}') GROUP BY 1"
        ).fetchall())
        for name in ("page_objects", "errors"):
            counts[name] = con.execute(
                f"SELECT count(*) FROM (SELECT unnest({name}) FROM read_parquet("
                f"'{_glob(out_dir, 'extracted')}', hive_partitioning = false))"
            ).fetchone()[0]
    return {t: int(counts.get(t, 0)) for t in TABLES}


def check_merge(out_dir: str) -> dict[str, int]:
    """``objects/`` equals the independent fold, per kind, and the merge
    manifest's ``n_objects`` is objects plus the flattened page_objects and
    errors.  Returns the per-table counts."""
    got, want = objects_digest(out_dir), fold_digest(out_dir)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        _fail(f"objects/ differs from the DuckDB fold for kinds {diff}")
    counts = table_counts(out_dir)
    n_merged = sum(n for n, _h in got.values())
    manifest = json.load(open(os.path.join(out_dir, "manifests", "merge.json")))
    expect = n_merged + counts["page_objects"] + counts["errors"]
    if manifest["n_objects"] != expect:
        _fail(f"n_objects {manifest['n_objects']} != DuckDB count {expect}")
    return counts


# -- md5-choice digest corpus -------------------------------------------------

def expected_digests(doc_ids: list[int]) -> tuple[list[tuple], dict]:
    """DuckDB replay of EXTRACT_SPAN_DIGEST_SQL and EXTRACT_MERGE_DIGEST_SQL
    over ``doc_ids`` (the slow part: about 15 s of query planning)."""
    from indu_doc_transformer_ray.functions.extractsql import (
        EXTRACT_MERGE_DIGEST_SQL,
        EXTRACT_SPAN_DIGEST_SQL,
    )

    with _duck() as con:
        con.execute("CREATE TABLE documents (doc_id BIGINT)")
        con.executemany("INSERT INTO documents VALUES (?)", [(d,) for d in doc_ids])
        spans = [tuple(r) for r in con.execute(EXTRACT_SPAN_DIGEST_SQL).fetchall()]
        merge = {
            k: (n, h) for k, n, h in con.execute(EXTRACT_MERGE_DIGEST_SQL).fetchall()
        }
    return sorted(spans), merge


def span_digests(out_dir: str) -> list[tuple]:
    """Per document (doc_id, n_pages, n_spans_in, n_errors, n_page_objects,
    md5 of the output span sequence) read from the checkpoint."""
    t = read_checkpoint(
        out_dir,
        ["doc_id", "spans", "n_pages", "n_spans_in", "n_errors",
         "n_page_objects"],
    )
    rows = []
    for r in t.to_pylist():
        seq = RS.join(
            f"{s['kind']}{US}{s['text']}{US}{s['media_ref']}{US}{s['offset']}"
            for s in r["spans"]
        )
        rows.append((
            r["doc_id"], r["n_pages"], r["n_spans_in"], r["n_errors"],
            r["n_page_objects"], hashlib.md5(seq.encode()).hexdigest(),
        ))
    return sorted(rows)


def check_digests(out_dir: str, expected: tuple[list[tuple], dict]) -> None:
    want_spans, want_merge = expected
    got_spans = span_digests(out_dir)
    if got_spans != want_spans:
        bad = [a[0] for a, b in zip(got_spans, want_spans) if a != b][:3]
        _fail(f"span digests differ from the SQL replay (first: {bad}, "
              f"{len(got_spans)} vs {len(want_spans)} documents)")
    got_merge = objects_digest(out_dir)
    if got_merge != want_merge:
        diff = sorted(
            k for k in set(got_merge) | set(want_merge)
            if got_merge.get(k) != want_merge.get(k)
        )
        _fail(f"merge digest differs from the SQL replay for kinds {diff}")


# -- exports and search ---------------------------------------------------------

def check_sqlite(path: str, counts: dict[str, int]) -> None:
    con = sqlite3.connect(path)
    try:
        for t in TABLES:
            n = con.execute(f'SELECT count(*) FROM "{t}"').fetchone()[0]
            if n != counts[t]:
                _fail(f"sqlite {t}: {n} rows, DuckDB counts {counts[t]}")
    finally:
        con.close()


def check_json(text: str, counts: dict[str, int]) -> None:
    objects = json.loads(text)["objects"]
    for t in TABLES:
        if len(objects[t]) != counts[t]:
            _fail(f"json {t}: {len(objects[t])} rows, DuckDB counts {counts[t]}")


def expected_hits(out_dir: str, queries: list[str]) -> dict[str, set[str]]:
    """Per tag query: the xtarget guids whose normalized ``tag_str``
    contains the normalized query, from the raw ``objects/`` rows."""
    from indu_doc_transformer_ray.core import normalize_string

    with _duck() as con:
        rows = con.execute(
            "SELECT split_part(mkey, chr(31), 2), split_part(payload, chr(31), 3)"
            f" FROM read_parquet('{_glob(out_dir, 'objects')}')"
            " WHERE table_name = 'xtargets'"
        ).fetchall()
    tags = [(g, normalize_string(t)) for g, t in rows]
    return {
        q: {g for g, t in tags if normalize_string(q) in t} for q in queries
    }


def check_search(results: dict[str, list[str]], expected: dict[str, set[str]]):
    for q, want in expected.items():
        got = results[q]
        if len(got) != len(set(got)) or set(got) != want:
            _fail(f"search {q!r}: {len(got)} hits, expected {len(want)}")
