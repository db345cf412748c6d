"""Object-delta encoding and the distributed merge contract.

Every per-document ExtractionStore flushes to a flat stream of
``(mkey, payload)`` string pairs.  The cross-document merge — the
reference's God dedup/merge semantics (SURVEY.md §2.4) — is then EXACTLY
one vectorized aggregate:

    groupby(mkey).aggregate(Max(payload))

because every delta kind is encoded so lexicographic-max-of-payload is its
merge rule:

    kind           mkey                                    payload / merge
    -------------  --------------------------------------  ----------------------
    xtarget        xtarget␟guid                            "prio␟type␟tag_str" — max
                                                           picks the max-priority
                                                           type (god.py:377-391)
    xtarget_attr   xtarget_attr␟guid␟attr_guid             "" — presence (attr union)
    aspect         aspect␟guid                             json — identical per key
    aspect_attr    aspect_attr␟guid␟attr_guid              "" — presence
    link           link␟guid                               json — identical per key
    link_attr      link_attr␟guid␟attr_guid                "" — presence
    attribute      attribute␟guid                          json — max(value_json),
                                                           canonical collision rule
    connection     connection␟guid                         json — identical per key
    pin            pin␟guid                                json — identical per key

(␟ is the unit separator \\x1f.)  Attribute membership is normalized into
its own rows (``*_attr``) instead of being embedded in object payloads —
this is what makes the shuffle a pure Min/Max exchange with no per-group
Python, the thing a ``map_groups`` merge would cost at 10^12-doc scale.
Doc-scoped rows (page_objects, errors) are no delta kind: their keys embed
the doc_id, so they never collide across documents and bypass the merge as
checkpoint columns.

``TABLE_SCHEMAS`` is the one declaration of the nine output tables.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _esc
from typing import Any, Iterable

import pyarrow as pa

from .spandoc import US
from .store import ExtractionStore, TYPE_PRIORITY, canonical_json


def _strings(*names: str) -> list[tuple[str, pa.DataType]]:
    return [(n, pa.string()) for n in names]


#: the nine normalized output tables: columns, order and types.  Merged
#: tables take their key columns from the mkey and the rest from the
#: payload; page_objects/errors are the checkpoint's doc-scoped structs.
TABLE_SCHEMAS: dict[str, pa.Schema] = {
    "xtargets": pa.schema(_strings("guid", "tag_str", "target_type")),
    "connections": pa.schema(
        _strings("guid", "src_guid", "dst_guid", "through_guid")
    ),
    "links": pa.schema(_strings(
        "guid", "name", "connection_guid", "src_pin_name", "dst_pin_name"
    )),
    "pins": pa.schema(
        _strings("guid", "name", "role")
        + [("chain", pa.list_(pa.string()))]
        + _strings("link_guid")
    ),
    "aspects": pa.schema(_strings("guid", "separator", "value")),
    "attributes": pa.schema(_strings("guid", "attr_type", "name", "value_json")),
    "object_attrs": pa.schema(_strings("owner_kind", "owner_guid", "attr_guid")),
    "page_objects": pa.schema(
        _strings("doc_id") + [("page_no", pa.int32())]
        + _strings("object_kind", "object_guid")
    ),
    "errors": pa.schema(
        _strings("doc_id") + [("page_no", pa.int32())]
        + _strings("severity", "message")
    ),
}

TABLE_NAMES = tuple(TABLE_SCHEMAS)

#: delta kind (mkey prefix) -> output table name
KIND_TO_TABLE = {
    "xtarget": "xtargets",
    "xtarget_attr": "object_attrs",
    "aspect_attr": "object_attrs",
    "link_attr": "object_attrs",
    "aspect": "aspects",
    "attribute": "attributes",
    "link": "links",
    "connection": "connections",
    "pin": "pins",
}

# ``_esc`` is CPython's C string escaper (the one json.dumps uses with its
# default ensure_ascii=True); the hand-assembled payloads below are
# byte-identical to ``canonical_json`` on these fixed flat all-string shapes
# (keys pre-sorted, separators (",", ":")) at ~1/10 the cost — pinned by
# tests/test_deltas.py::test_fast_payloads_match_canonical_json.


def store_to_deltas(store: ExtractionStore) -> list[tuple[str, str]]:
    """Flush a (per-document) store into merge-ready delta pairs for the
    GLOBALLY-merged kinds; doc-scoped rows bypass the shuffle entirely
    (``store_to_local_tuples``)."""
    out: list[tuple[str, str]] = []
    add = out.append

    for a in store.attributes.values():
        add(
            (
                f"attribute{US}{a.guid}",
                f'{{"attr_type":{_esc(a.attr_type)},"name":{_esc(a.name)}'
                f',"value_json":{_esc(a.value_json)}}}',
            )
        )
    for t in store.targets.values():
        add(
            (
                f"xtarget{US}{t.guid}",
                f"{TYPE_PRIORITY[t.target_type]}{US}{t.target_type}{US}{t.tag_str}",
            )
        )
        for g in sorted(t.attr_guids):
            add((f"xtarget_attr{US}{t.guid}{US}{g}", ""))
    for asp in store.aspects.values():
        add(
            (
                f"aspect{US}{asp.guid}",
                f'{{"separator":{_esc(asp.separator)},"value":{_esc(asp.value)}}}',
            )
        )
        for g in sorted(asp.attr_guids):
            add((f"aspect_attr{US}{asp.guid}{US}{g}", ""))
    for l in store.links.values():
        add(
            (
                f"link{US}{l.guid}",
                f'{{"connection_guid":{_esc(l.connection_guid)}'
                f',"dst_pin_name":{_esc(l.dst_pin_name)}'
                f',"name":{_esc(l.name)}'
                f',"src_pin_name":{_esc(l.src_pin_name)}}}',
            )
        )
        for g in sorted(l.attr_guids):
            add((f"link_attr{US}{l.guid}{US}{g}", ""))
    for c in store.connections.values():
        add(
            (
                f"connection{US}{c.guid}",
                '{"dst_guid":%s,"src_guid":%s,"through_guid":%s}'
                % (
                    _esc(c.dst_guid) if c.dst_guid is not None else "null",
                    _esc(c.src_guid) if c.src_guid is not None else "null",
                    _esc(c.through_guid) if c.through_guid is not None else "null",
                ),
            )
        )
    for p in store.pins.values():
        add(
            (
                f"pin{US}{p.guid}",
                f'{{"chain":[{",".join(map(_esc, p.chain))}]'
                f',"link_guid":{_esc(p.link_guid)}'
                f',"name":{_esc(p.name)},"role":{_esc(p.role)}}}',
            )
        )
    return out


def store_to_local_tuples(
    store: ExtractionStore,
) -> tuple[list[tuple], list[tuple]]:
    """Doc-scoped output rows as plain tuples, set-deduplicated like the
    reference's mapper sets (god.py:91-144): ``(page_objects, errors)`` —
    page_objects as ``(doc_id, page_no, kind, guid)``, errors as
    ``(doc_id, page_no, severity, message)``."""
    page_objects = [
        t for t in sorted(set(store.mapping_log)) if t[2] != "error"
    ]
    errors = sorted(set(store.error_log))
    return page_objects, errors


def local_combine(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Pre-shuffle combiner: max-payload per key within a batch.  Applying
    this before the groupby collapses cross-document duplicates early (the
    classic partial-aggregate push-down)."""
    acc: dict[str, str] = {}
    for k, v in pairs:
        prev = acc.get(k)
        if prev is None or v > prev:
            acc[k] = v
    return acc


def assemble_rows(mkey: str, payload: str) -> tuple[str, dict[str, Any]]:
    """Decode one merged ``(mkey, max_payload)`` pair into its normalized
    output-table row.  Returns ``(table_name, row)``.  The per-row
    reference for the columnar production decoder
    (``pipelines.extract.decode_object_batch``)."""
    parts = mkey.split(US)
    kind = parts[0]
    if kind == "xtarget":
        _prio, ttype, tag_str = payload.split(US, 2)
        return "xtargets", {
            "guid": parts[1], "tag_str": tag_str, "target_type": ttype,
        }
    if kind in ("xtarget_attr", "aspect_attr", "link_attr"):
        return "object_attrs", {
            "owner_kind": kind.removesuffix("_attr"),
            "owner_guid": parts[1],
            "attr_guid": parts[2],
        }
    if kind == "aspect":
        d = json.loads(payload)
        return "aspects", {
            "guid": parts[1], "separator": d["separator"], "value": d["value"],
        }
    if kind == "attribute":
        d = json.loads(payload)
        return "attributes", {
            "guid": parts[1], "attr_type": d["attr_type"], "name": d["name"],
            "value_json": d["value_json"],
        }
    if kind == "link":
        d = json.loads(payload)
        return "links", {"guid": parts[1], **d}
    if kind == "connection":
        d = json.loads(payload)
        return "connections", {"guid": parts[1], **d}
    if kind == "pin":
        d = json.loads(payload)
        return "pins", {"guid": parts[1], **d}
    raise ValueError(f"unknown delta kind: {kind}")


def oracle_tables(store: ExtractionStore) -> dict[str, list[dict[str, Any]]]:
    """Normalized golden tables from a (global, single-process) store:
    merged kinds through ``assemble_rows``, doc-scoped rows from
    ``store_to_local_tuples``."""
    out: dict[str, list[dict[str, Any]]] = {n: [] for n in TABLE_NAMES}
    for k, v in sorted(local_combine(store_to_deltas(store)).items()):
        name, row = assemble_rows(k, v)
        out[name].append(row)
    local = store_to_local_tuples(store)
    for name, rows in zip(("page_objects", "errors"), local):
        cols = TABLE_SCHEMAS[name].names
        out[name] = [dict(zip(cols, r)) for r in rows]
    return out
