"""Export sinks over the merged object tables.

The distributed outputs of the engine ARE parquet tables (the checkpoint +
``objects/``); these exporters are the reference's small-scale finishers
re-expressed over those tables (SURVEY.md §2.1 S5-S10):

- SQLite relational dump + reload + deep-equality round-trip
  (reference: exporters/db_builder/db.py:163-419 / 456-720)
- AutomationML/CAEX XML: aspect-hierarchy instance trees with target
  leaves, connection unpacking into ConnPoints / InternalConnections /
  InternalLinks (reference: exporters/aml_builder/aml_builder.py:248-457)
- JSON export of stats + objects (reference: cli.py:73-92)
- stats (object counts, manager.py:350-382) and the aspect prefix tree of
  targets (manager.py:317-345)

All operate on the object-table pylists (small by construction relative to
the corpus: they are the MERGED entity tables); each documents its scale
path in its docstring.
"""

from __future__ import annotations

import json
import sqlite3
import xml.etree.ElementTree as ET
from typing import Any

from . import core
from .core import AspectConfig, default_config, tag_parts
from .deltas import TABLE_NAMES, TABLE_SCHEMAS

Tables = dict[str, list[dict[str, Any]]]


# -- SQLite (S5/S6) ---------------------------------------------------------

_DDL = {
    "xtargets": "(guid TEXT PRIMARY KEY, tag_str TEXT, target_type TEXT)",
    "connections": "(guid TEXT PRIMARY KEY, src_guid TEXT, dst_guid TEXT, through_guid TEXT)",
    "links": "(guid TEXT PRIMARY KEY, name TEXT, connection_guid TEXT,"
             " src_pin_name TEXT, dst_pin_name TEXT)",
    "pins": "(guid TEXT PRIMARY KEY, name TEXT, role TEXT, chain TEXT, link_guid TEXT)",
    "aspects": "(guid TEXT PRIMARY KEY, separator TEXT, value TEXT)",
    "attributes": "(guid TEXT PRIMARY KEY, attr_type TEXT, name TEXT, value_json TEXT)",
    "object_attrs": "(owner_kind TEXT, owner_guid TEXT, attr_guid TEXT,"
                    " PRIMARY KEY (owner_kind, owner_guid, attr_guid))",
    "page_objects": "(doc_id TEXT, page_no INTEGER, object_kind TEXT, object_guid TEXT,"
                    " PRIMARY KEY (doc_id, page_no, object_kind, object_guid))",
    "errors": "(doc_id TEXT, page_no INTEGER, severity TEXT, message TEXT)",
    "xtarget_aspects": "(xtarget_guid TEXT, aspect_guid TEXT, sort_order INTEGER,"
                       " PRIMARY KEY (xtarget_guid, sort_order))",
}

_COLS = {
    **{name: schema.names for name, schema in TABLE_SCHEMAS.items()},
    "xtarget_aspects": ["xtarget_guid", "aspect_guid", "sort_order"],
}

_JSON_COLS = {"pins": ("chain",)}

# SQLite's bound-variable limit; the reference batches inserts the same way
# (db.py:35-60 keeps every statement under 999 variables)
_MAX_VARS = 999


def xtarget_aspect_rows(
    tables: Tables, config: AspectConfig = default_config
) -> list[dict[str, Any]]:
    """Ordered tag->aspect through rows (reference db.py:224-241): per
    xtarget, enumerate its tag's aspects level by level in config priority
    order (empty levels contribute their empty-value aspect, god.py:278-284);
    ``sort_order`` is the running index the reference's DB reader sorts by
    (db.py:541-543).  Derived purely from ``tag_str`` + the config, so the
    relational surface exposes the ordering without widening the merge."""
    pattern = core.compile_separator_pattern(config)
    rows: list[dict[str, Any]] = []
    for t in tables.get("xtargets", []):
        parts = core.tag_parts(t["tag_str"], config, pattern)
        if not parts:
            continue
        order = 0
        for sep, values in parts.items():
            for v in values if values else ("",):
                rows.append(
                    {
                        "xtarget_guid": t["guid"],
                        "aspect_guid": core.aspect_guid(sep, v),
                        "sort_order": order,
                    }
                )
                order += 1
    return rows


def with_derived(tables: Tables, config: AspectConfig = default_config) -> Tables:
    """Return ``tables`` plus the derived ``xtarget_aspects`` through table
    (computed when absent; non-mutating)."""
    if "xtarget_aspects" in tables:
        return tables
    out = dict(tables)
    out["xtarget_aspects"] = xtarget_aspect_rows(tables, config)
    return out


def save_sqlite(tables: Tables, path: str, config: AspectConfig = default_config) -> None:
    tables = with_derived(tables, config)
    con = sqlite3.connect(path)
    try:
        con.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        con.execute(
            "INSERT INTO meta VALUES ('aspects_config', ?)",
            (json.dumps(config.to_records()),),
        )
        for name, ddl in _DDL.items():
            con.execute(f'CREATE TABLE "{name}" {ddl}')
            rows = tables.get(name, [])
            if not rows:
                continue
            cols = _COLS[name]
            json_cols = _JSON_COLS.get(name, ())
            batch_rows = max(1, _MAX_VARS // len(cols))
            placeholders = ",".join("?" * len(cols))
            for i in range(0, len(rows), batch_rows):
                chunk = [
                    tuple(
                        # list(...) tolerates numpy arrays (rows decoded from
                        # Arrow list columns) as well as plain lists
                        json.dumps(list(r[c])) if c in json_cols else r[c]
                        for c in cols
                    )
                    for r in rows[i : i + batch_rows]
                ]
                con.executemany(
                    f'INSERT OR IGNORE INTO "{name}" VALUES ({placeholders})', chunk
                )
        con.commit()
    finally:
        con.close()


def load_sqlite(path: str) -> tuple[Tables, AspectConfig]:
    con = sqlite3.connect(path)
    con.row_factory = sqlite3.Row
    try:
        cfg_json = con.execute(
            "SELECT value FROM meta WHERE key='aspects_config'"
        ).fetchone()[0]
        config = AspectConfig.from_pairs(
            [(r["Separator"], r["Aspect"]) for r in json.loads(cfg_json)]
        )
        tables: Tables = {}
        for name in _DDL:
            json_cols = _JSON_COLS.get(name, ())
            rows = []
            for r in con.execute(f'SELECT * FROM "{name}"'):
                d = dict(r)
                for c in json_cols:
                    d[c] = json.loads(d[c])
                rows.append(d)
            tables[name] = rows
        return tables, config
    finally:
        con.close()


def tables_equal(a: Tables, b: Tables) -> bool:
    """Deep equality of two exports (order-insensitive), the analogue of the
    reference's save->load->``God.__eq__`` self-check (manager.py:510-531)."""

    def canon(rows: list[dict]) -> list:
        return sorted(
            tuple(sorted((k, json.dumps(v, sort_keys=True)) for k, v in r.items()))
            for r in rows
        )

    names = set(a) | set(b)
    return all(canon(a.get(n, [])) == canon(b.get(n, [])) for n in names)


# -- stats (G12) and aspect prefix tree (G11) -------------------------------

def get_stats(tables: Tables) -> dict[str, int]:
    """Global object counts (manager.py:350-382) — at scale this is one
    ``ds.count()`` per object table."""
    return {name: len(tables.get(name, [])) for name in TABLE_NAMES}


def get_tree(
    tables: Tables, config: AspectConfig = default_config
) -> dict[str, Any]:
    """Aspect prefix tree of targets (manager.py:317-345): nested dict keyed
    by ``sep+value`` per configured separator order; each node's ``_targets``
    lists the GUIDs of targets whose tag ends at that node.  At scale: group
    by first-level aspect and fold per group."""
    root: dict[str, Any] = {}
    for t in sorted(tables["xtargets"], key=lambda r: r["guid"]):
        parts = tag_parts(t["tag_str"], config)
        node = root
        last = None
        for sep in config.separators:
            for v in parts.get(sep, ()):
                key = f"{sep}{v}"
                node = node.setdefault(key, {})
                last = node
        if last is not None:
            last.setdefault("_targets", []).append(t["guid"])
    return root


# -- JSON export (S8) -------------------------------------------------------

def export_json(tables: Tables) -> str:
    """Stats + objects as JSON, each table's rows ordered by their
    canonical JSON: the text does not follow the input row order."""
    def coerce(o):
        # numpy scalars/arrays appear when rows were decoded via pandas
        if hasattr(o, "tolist"):
            return o.tolist()
        return list(o)

    def canon(row: dict) -> str:
        return json.dumps(row, sort_keys=True, default=coerce)

    objects = {name: sorted(rows, key=canon) for name, rows in tables.items()}
    return json.dumps(
        {"stats": get_stats(tables), "objects": objects},
        sort_keys=True, indent=1, default=coerce,
    )


# -- AutomationML / CAEX XML (S7) -------------------------------------------

def _attr_el(name: str, value: str) -> ET.Element:
    el = ET.Element("Attribute", Name=name)
    v = ET.SubElement(el, "Value")
    v.text = value
    return el


def _attrs_of(owner_guid: str, owner_attrs: dict, skip_loc=True) -> list[ET.Element]:
    out = []
    for a in owner_attrs.get(owner_guid, []):
        if skip_loc and a["attr_type"] == "PDFLocationAttribute":
            continue
        payload = json.loads(a["value_json"])
        if a["attr_type"] == "SimpleAttribute":
            val = payload["value"]
        elif a["attr_type"] == "RoutingTracksAttribute":
            val = ";".join(payload["tracks"])
        elif a["attr_type"] == "PLCAddressAttribute":
            val = json.dumps(payload["meta"], sort_keys=True)
        else:
            val = a["value_json"]
        out.append(_attr_el(a["name"], val))
    return out


def export_aml(
    tables: Tables, config: AspectConfig = default_config
) -> str:
    """CAEX file with one InstanceHierarchy per perspective: 'ECAD' nests
    every configured aspect level with target leaves; each remaining aspect
    name gets its own single-level hierarchy.  Connections unpack per the
    reference's G14 rule: each link adds ConnPoint elements on its endpoint
    targets; a through-cable hosts an InternalConnection bridged by two
    InternalLinks, a virtual cable gets one direct InternalLink.

    The output depends only on the tables' rows, never on their order: an
    element's attributes are sorted by (name, guid), and of two pins on
    one link end with equal chain length the larger guid wins."""
    owner_attrs: dict[str, list[dict]] = {}
    attrs_by_guid = {a["guid"]: a for a in tables["attributes"]}
    for oa in tables["object_attrs"]:
        owner_attrs.setdefault(oa["owner_guid"], []).append(
            attrs_by_guid[oa["attr_guid"]]
        )
    for attrs in owner_attrs.values():
        attrs.sort(key=lambda a: (a["name"], a["guid"]))

    targets = {t["guid"]: t for t in tables["xtargets"]}
    pins_by_link: dict[tuple[str, str], dict] = {}
    for p in tables["pins"]:
        key = (p["link_guid"], p["role"])
        cur = pins_by_link.get(key)
        if cur is None or (len(p["chain"]), p["guid"]) > (
            len(cur["chain"]), cur["guid"]
        ):
            pins_by_link[key] = p
    links_by_conn: dict[str, list[dict]] = {}
    for l in tables["links"]:
        links_by_conn.setdefault(l["connection_guid"], []).append(l)

    # per-target collected elements
    conn_points: dict[str, list[ET.Element]] = {}
    through_conns: dict[str, list[ET.Element]] = {}
    internal_links: list[tuple[str, str]] = []

    for c in sorted(tables["connections"], key=lambda r: r["guid"]):
        for l in sorted(links_by_conn.get(c["guid"], []), key=lambda r: r["guid"]):
            sp = pins_by_link.get((l["guid"], "src"))
            dp = pins_by_link.get((l["guid"], "dst"))
            for pin, end_guid in ((sp, c["src_guid"]), (dp, c["dst_guid"])):
                if pin and end_guid in targets:
                    el = ET.Element(
                        "InternalElement",
                        Name=f"ConnPoint {pin['name']}", ID=pin["guid"],
                    )
                    ET.SubElement(
                        el, "ExternalInterface",
                        Name="ConnectionPoint", ID=f"{pin['guid']}:ConnectionPoint",
                    )
                    conn_points.setdefault(end_guid, []).append(el)
            if not (sp and dp):
                continue
            if c["through_guid"] and c["through_guid"] in targets:
                el = ET.Element(
                    "InternalElement", Name=f"Connection {l['name']}", ID=l["guid"]
                )
                for a in _attrs_of(l["guid"], owner_attrs):
                    el.append(a)
                ET.SubElement(el, "ExternalInterface", Name="SideA",
                              ID=f"{l['guid']}:SideA")
                ET.SubElement(el, "ExternalInterface", Name="SideB",
                              ID=f"{l['guid']}:SideB")
                through_conns.setdefault(c["through_guid"], []).append(el)
                internal_links.append(
                    (f"{sp['guid']}:ConnectionPoint", f"{l['guid']}:SideA")
                )
                internal_links.append(
                    (f"{l['guid']}:SideB", f"{dp['guid']}:ConnectionPoint")
                )
            else:
                internal_links.append(
                    (f"{sp['guid']}:ConnectionPoint", f"{dp['guid']}:ConnectionPoint")
                )

    def target_el(t: dict) -> ET.Element:
        el = ET.Element("InternalElement", Name=t["tag_str"], ID=t["guid"])
        el.append(_attr_el("type", t["target_type"]))
        for a in _attrs_of(t["guid"], owner_attrs):
            el.append(a)
        for cp in conn_points.get(t["guid"], []):
            el.append(cp)
        for tc in through_conns.get(t["guid"], []):
            el.append(tc)
        return el

    root = ET.Element("CAEXFile", FileName="export.aml")

    def build_hierarchy(name: str, seps: list[str], with_leaves: bool) -> ET.Element:
        ih = ET.Element("InstanceHierarchy", Name=name)
        nodes: dict[tuple, ET.Element] = {(): ih}
        for t in sorted(targets.values(), key=lambda r: r["guid"]):
            parts = tag_parts(t["tag_str"], config)
            path: tuple = ()
            for sep in seps:
                for v in parts.get(sep, ()):
                    key = f"{sep}{v}"
                    nxt = path + (key,)
                    if nxt not in nodes:
                        el = ET.SubElement(
                            nodes[path], "InternalElement", Name=key
                        )
                        nodes[nxt] = el
                    path = nxt
            if with_leaves and path:
                nodes[path].append(target_el(t))
        return ih

    root.append(build_hierarchy("ECAD", config.separators, True))
    for sep in config.separators:
        root.append(
            build_hierarchy(config.aspect_of(sep), [sep], False)
        )
    links_el = ET.SubElement(root, "InternalLinks")
    for i, (a, b) in enumerate(internal_links):
        ET.SubElement(
            links_el, "InternalLink",
            Name=f"link-{i}", RefPartnerSideA=a, RefPartnerSideB=b,
        )
    return ET.tostring(root, encoding="unicode")


# -- whole-document blob persistence (reference db.py:360-376, 421-453) ------

def save_document_blobs(docs, path: str) -> int:
    """Persist whole source documents as SQLite blobs and return the count —
    parity with the reference, which stores each original PDF's bytes in
    the DB and can re-extract from them alone (reference: db.py:360-376
    ``store_pdf``; 421-453 ``load_pdf`` + re-extraction).  Here the source
    artifact is the span table, so each document serializes to one Arrow
    IPC blob (schema included — self-describing, version-stable).  SQLite
    is single-writer, so blobs stream driver-side via ``iter_batches``;
    a cluster-scale archive would write one DB per shard the same way the
    runner writes per-shard parquet (this surface is the reference-parity
    small-archive path)."""
    import io

    import pyarrow as pa
    import pyarrow.ipc as ipc

    con = sqlite3.connect(path)
    n = 0
    try:
        con.execute(
            "CREATE TABLE IF NOT EXISTS document_blobs"
            " (doc_id TEXT PRIMARY KEY, blob BLOB)"
        )
        for batch in docs.iter_batches(batch_format="pyarrow"):
            rows = []
            for i in range(batch.num_rows):
                one = batch.slice(i, 1)
                buf = io.BytesIO()
                with ipc.new_stream(buf, one.schema) as w:
                    w.write_table(one)
                rows.append((one.column("doc_id")[0].as_py(), buf.getvalue()))
            con.executemany(
                "INSERT OR REPLACE INTO document_blobs VALUES (?, ?)", rows
            )
            n += len(rows)
        con.commit()
    finally:
        con.close()
    return n


def load_document_blobs(path: str):
    """Blobs -> a Dataset with the original span schema (the re-extraction
    input).  Deserializes driver-side (the archive is the small path, see
    ``save_document_blobs``) and hands Ray one Arrow table."""
    import io

    import pyarrow as pa
    import pyarrow.ipc as ipc

    import ray.data

    con = sqlite3.connect(path)
    try:
        parts = [
            ipc.open_stream(io.BytesIO(b)).read_all()
            for (b,) in con.execute(
                "SELECT blob FROM document_blobs ORDER BY doc_id"
            )
        ]
    finally:
        con.close()
    tab = pa.concat_tables(parts) if parts else pa.table({})
    return ray.data.from_arrow(tab)
