"""Search index construction + distributed query evaluation.

The reference builds its index as in-memory ``to_dict`` projections over the
God store (searcher.py:114-145).  Here the index is a Ray Dataset of
(guid, tag, doc_json) rows assembled from the normalized object tables:

- target docs: xtargets ⋈ object_attrs ⋈ attributes (hash joins on GUID,
  grouped attr fold), shaped exactly like XTarget.to_dict
  (xtarget.py:200-215): normalized tag/type + merged attribute search
  entries.
- connection docs: connections ⋈ target-docs (src/dst/through) ⋈ links
  (grouped per connection) ⋈ pins (recursive names per link), shaped like
  Connection.to_dict (connection.py:398-411) plus the special raw-tag
  ``tag``/``src``/``dest`` fields (searcher.py:139-144).

Search = a map_batches boolean filter evaluating the parsed query per doc
(searcher.py:162-209); the tag prefilter is vectorized.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ray.data import Dataset

from ..core import normalize_string
from .query import matches, merge_search_tree, parse_query


# -- search-entry shaping (Attribute.get_search_entries per type) -----------

def attr_search_entries(attr_type: str, name: str, value_json: str) -> dict:
    payload = json.loads(value_json)
    if attr_type == "SimpleAttribute":
        return {normalize_string(name): normalize_string(payload["value"])}
    if attr_type == "RoutingTracksAttribute":
        return {"tracks": payload["tracks"]}
    if attr_type == "PLCAddressAttribute":
        return dict(payload["meta"])
    return {}  # PDFLocationAttribute: not searchable (attributes.py:559-568)


def _merge_entries(attrs: list[dict]) -> dict:
    """Merged search entries; iteration sorted so same-key collisions (two
    attributes normalizing to one key) resolve deterministically — the
    reference's set-iteration order is arbitrary (attributed_base.py:33)."""
    merged: dict = {}
    for a in sorted(
        attrs, key=lambda a: (a["attr_type"], a["name"], a["value_json"])
    ):
        merged.update(
            attr_search_entries(a["attr_type"], a["name"], a["value_json"])
        )
    return merged


def target_doc(row: dict, attrs: list[dict]) -> dict:
    """XTarget.to_dict shape (xtarget.py:200-215)."""
    merged = _merge_entries(attrs)
    return {
        "tag": normalize_string(row["tag_str"]),
        "guid": row["guid"],
        "type": normalize_string(row["target_type"]),
        "attributes": merged,
    }


def pin_doc(name: str, role: str, guid: str) -> dict:
    return {"name": name, "role": role, "attributes": {}, "guid": guid}


def link_doc(row: dict, attrs: list[dict],
             pin_names: dict[str, str]) -> dict:
    """Link.to_dict shape (connection.py:271-287); recursive pin names are
    the chain names concatenated (connection.py:108-115)."""
    merged = _merge_entries(attrs)
    src_name = pin_names.get("src")
    dst_name = pin_names.get("dst")
    return {
        "name": row["name"],
        "src_pin": (
            pin_doc(src_name, "src", pin_names.get("src_guid", ""))
            if src_name is not None
            else {"name": row["src_pin_name"], "role": "src", "attributes": []}
        ),
        "dest_pin": (
            pin_doc(dst_name, "dst", pin_names.get("dst_guid", ""))
            if dst_name is not None
            else {"name": row["dst_pin_name"], "role": "dest", "attributes": []}
        ),
        "attributes": merged,
        "guid": row["guid"],
    }


# -- index assembly from object-table pylists (small/driver side) -----------

class SearchIndex:
    """In-memory index over the merged object tables (the reference's
    searcher holds exactly this; at scale the same docs live in a Dataset —
    see build_target_index_ds)."""

    def __init__(self, tables: dict[str, list[dict]]):
        attrs_by_guid = {a["guid"]: a for a in tables["attributes"]}
        owner_attrs: dict[str, list[dict]] = {}
        for oa in tables["object_attrs"]:
            owner_attrs.setdefault(oa["owner_guid"], []).append(
                attrs_by_guid[oa["attr_guid"]]
            )

        self.targets: dict[str, dict] = {}
        raw_tag: dict[str, str] = {}
        for t in tables["xtargets"]:
            self.targets[t["guid"]] = target_doc(t, owner_attrs.get(t["guid"], []))
            raw_tag[t["guid"]] = t["tag_str"]

        # pins per (link_guid, role): head pin = longest chain
        pins_by_link: dict[tuple[str, str], dict] = {}
        for p in tables["pins"]:
            key = (p["link_guid"], p["role"])
            cur = pins_by_link.get(key)
            if cur is None or len(p["chain"]) > len(cur["chain"]):
                pins_by_link[key] = p

        links_by_conn: dict[str, list[dict]] = {}
        for l in tables["links"]:
            pn: dict[str, str] = {}
            sp = pins_by_link.get((l["guid"], "src"))
            dp = pins_by_link.get((l["guid"], "dst"))
            if sp:
                pn["src"] = "".join(sp["chain"])
                pn["src_guid"] = sp["guid"]
            if dp:
                pn["dst"] = "".join(dp["chain"])
                pn["dst_guid"] = dp["guid"]
            links_by_conn.setdefault(l["connection_guid"], []).append(
                link_doc(l, owner_attrs.get(l["guid"], []), pn)
            )

        self.connections: dict[str, dict] = {}
        for c in tables["connections"]:
            doc = {
                "src_target": self.targets.get(c["src_guid"]),
                "dest_target": self.targets.get(c["dst_guid"]),
                "through_target": self.targets.get(c["through_guid"]),
                "guid": c["guid"],
                "links": links_by_conn.get(c["guid"], []),
                # special raw-tag fields (searcher.py:139-144)
                "tag": raw_tag.get(c["through_guid"], ""),
                "src": raw_tag.get(c["src_guid"], ""),
                "dest": raw_tag.get(c["dst_guid"], ""),
            }
            self.connections[c["guid"]] = doc

    def search_targets(self, query: str) -> list[str]:
        tag, filters = parse_query(query)
        return [
            guid for guid, doc in self.targets.items()
            if matches(doc, tag, filters)
        ]

    def search_connections(self, query: str) -> list[str]:
        tag, filters = parse_query(query)
        return [
            guid for guid, doc in self.connections.items()
            if matches(doc, tag, filters)
        ]

    def target_guide_tree(self) -> dict:
        tree: dict = {}
        for doc in self.targets.values():
            merge_search_tree(tree, doc)
        return tree

    def connection_guide_tree(self) -> dict:
        tree: dict = {}
        for doc in self.connections.values():
            merge_search_tree(tree, doc)
        return tree


# -- distributed index + search ---------------------------------------------

def build_target_index_ds(
    xtargets: Dataset, object_attrs: Dataset, attributes: Dataset,
    num_partitions: int | None = None,
) -> Dataset:
    """Target index as a Dataset: object_attrs ⋈ attributes (hash join on
    attr GUID), fold per owner, join onto xtargets, shape docs per batch.
    Output rows: (guid, tag, doc_json)."""
    import pandas as pd

    from ..functions._util import join_partitions

    if num_partitions is None:
        num_partitions = join_partitions()

    owned = object_attrs.filter(
        expr="owner_kind == 'xtarget'"
    ).join(
        attributes, join_type="inner", num_partitions=num_partitions,
        on=("attr_guid",), right_on=("guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        attrs = group[["attr_type", "name", "value_json"]].to_dict("records")
        return pd.DataFrame(
            {
                "owner_guid": [group["owner_guid"].iloc[0]],
                "attrs_json": [json.dumps(attrs)],
            }
        )

    folded = owned.groupby("owner_guid").map_groups(fold, batch_format="pandas")
    joined = xtargets.join(
        folded, join_type="left_outer", num_partitions=num_partitions,
        on=("guid",), right_on=("owner_guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def shape(batch: pa.Table) -> pa.Table:
        guids, tags, raws, docs = [], [], [], []
        for row in batch.to_pylist():
            attrs = json.loads(row.get("attrs_json") or "[]")
            doc = target_doc(row, attrs)
            guids.append(row["guid"])
            tags.append(doc["tag"])
            raws.append(row["tag_str"])
            docs.append(json.dumps(doc))
        return pa.table(
            {
                "guid": pa.array(guids, pa.string()),
                "tag": pa.array(tags, pa.string()),
                "tag_str": pa.array(raws, pa.string()),
                "doc_json": pa.array(docs, pa.string()),
            }
        )

    return joined.map_batches(shape, batch_format="pyarrow")


def build_connection_index_ds(
    connections: Dataset,
    links: Dataset,
    pins: Dataset,
    object_attrs: Dataset,
    attributes: Dataset,
    target_index: Dataset,
    num_partitions: int | None = None,
) -> Dataset:
    """Connection index as a Dataset — the distributed analogue of
    ``SearchIndex.connections`` (the reference's G14-style GUID joins,
    aml_builder.py:339-350, re-expressed as hash joins + grouped folds):

        pins  --groupby(link,role)-->  head pin per link side
        links ⋈ link-attrs ⋈ head pins  --groupby(connection)--> links_json
        connections ⋈ target_index (src) ⋈ (dst) ⋈ (through) ⋈ links_json

    Join sides are pre-renamed to collision-free columns (this Ray version's
    suffixed chained joins are fragile).  Output rows: (guid, tag, doc_json)
    where tag is the through-cable's raw tag string (the searcher's
    tag-prefilter field, searcher.py:139-144)."""
    import pandas as pd

    from ..functions._util import join_partitions

    if num_partitions is None:
        num_partitions = join_partitions()

    # head pin per (link, role): the longest chain is the registered head
    def head_pin(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_len=g["chain"].map(len)).sort_values("_len")
        top = g.iloc[-1]
        return pd.DataFrame(
            {
                "link_guid": [top["link_guid"]],
                "role": [top["role"]],
                "rec_name": ["".join(top["chain"])],
                "pin_guid": [top["guid"]],
            }
        )

    heads = pins.groupby(["link_guid", "role"]).map_groups(
        head_pin, batch_format="pandas"
    )

    # link attr fold (same shape as the target-side fold)
    owned = object_attrs.filter(expr="owner_kind == 'link'").join(
        attributes, join_type="inner", num_partitions=num_partitions,
        on=("attr_guid",), right_on=("guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        attrs = group[["attr_type", "name", "value_json"]].to_dict("records")
        return pd.DataFrame(
            {
                "owner_guid": [group["owner_guid"].iloc[0]],
                "attrs_json": [json.dumps(attrs)],
            }
        )

    link_attrs = owned.groupby("owner_guid").map_groups(fold, batch_format="pandas")

    def renamed(ds: Dataset, mapping: dict[str, str], keep: list[str]) -> Dataset:
        def do(t: pa.Table) -> pa.Table:
            t = t.select(list(mapping))
            return t.rename_columns([mapping[c] for c in t.column_names])

        _ = keep
        return ds.map_batches(do, batch_format="pyarrow")

    src_heads = renamed(
        heads.filter(expr="role == 'src'"),
        {"link_guid": "src_link_guid", "rec_name": "src_rec_name",
         "pin_guid": "src_pin_guid"}, [],
    )
    dst_heads = renamed(
        heads.filter(expr="role == 'dst'"),
        {"link_guid": "dst_link_guid", "rec_name": "dst_rec_name",
         "pin_guid": "dst_pin_guid"}, [],
    )

    j = links.join(
        link_attrs, join_type="left_outer", num_partitions=num_partitions,
        on=("guid",), right_on=("owner_guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    j = j.join(
        src_heads, join_type="left_outer", num_partitions=num_partitions,
        on=("guid",), right_on=("src_link_guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    j = j.join(
        dst_heads, join_type="left_outer", num_partitions=num_partitions,
        on=("guid",), right_on=("dst_link_guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def shape_link(batch: pa.Table) -> pa.Table:
        conn_guids, link_jsons = [], []
        for row in batch.to_pylist():
            pn: dict[str, str] = {}
            if row.get("src_rec_name") is not None:
                pn["src"] = row["src_rec_name"]
                pn["src_guid"] = row["src_pin_guid"]
            if row.get("dst_rec_name") is not None:
                pn["dst"] = row["dst_rec_name"]
                pn["dst_guid"] = row["dst_pin_guid"]
            attrs = json.loads(row.get("attrs_json") or "[]")
            doc = link_doc(row, attrs, pn)
            conn_guids.append(row["connection_guid"])
            link_jsons.append(json.dumps(doc))
        return pa.table(
            {
                "connection_guid": pa.array(conn_guids, pa.string()),
                "link_json": pa.array(link_jsons, pa.string()),
            }
        )

    link_rows = j.map_batches(shape_link, batch_format="pyarrow")

    def fold_links(g: pd.DataFrame) -> pd.DataFrame:
        docs = sorted(g["link_json"])  # deterministic order (by json)
        return pd.DataFrame(
            {
                "connection_guid": [g["connection_guid"].iloc[0]],
                "links_json": [json.dumps([json.loads(d) for d in docs])],
            }
        )

    conn_links = link_rows.groupby("connection_guid").map_groups(
        fold_links, batch_format="pandas"
    )

    def tgt_side(prefix: str) -> Dataset:
        return renamed(
            target_index,
            {"guid": f"{prefix}_tguid", "tag_str": f"{prefix}_tag_str",
             "doc_json": f"{prefix}_doc_json"}, [],
        )

    c = connections.join(
        tgt_side("src"), join_type="left_outer",
        num_partitions=num_partitions,
        on=("src_guid",), right_on=("src_tguid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    c = c.join(
        tgt_side("dst"), join_type="left_outer",
        num_partitions=num_partitions,
        on=("dst_guid",), right_on=("dst_tguid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    c = c.join(
        tgt_side("thr"), join_type="left_outer",
        num_partitions=num_partitions,
        on=("through_guid",), right_on=("thr_tguid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    c = c.join(
        conn_links, join_type="left_outer", num_partitions=num_partitions,
        on=("guid",), right_on=("connection_guid",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def shape_conn(batch: pa.Table) -> pa.Table:
        guids, tags, docs = [], [], []
        for row in batch.to_pylist():
            def load(col):
                v = row.get(col)
                return json.loads(v) if v else None

            doc = {
                "src_target": load("src_doc_json"),
                "dest_target": load("dst_doc_json"),
                "through_target": load("thr_doc_json"),
                "guid": row["guid"],
                "links": json.loads(row.get("links_json") or "[]"),
                "tag": row.get("thr_tag_str") or "",
                "src": row.get("src_tag_str") or "",
                "dest": row.get("dst_tag_str") or "",
            }
            guids.append(row["guid"])
            tags.append(doc["tag"])
            docs.append(json.dumps(doc))
        return pa.table(
            {
                "guid": pa.array(guids, pa.string()),
                "tag": pa.array(tags, pa.string()),
                "doc_json": pa.array(docs, pa.string()),
            }
        )

    return c.map_batches(shape_conn, batch_format="pyarrow")


def search_index_ds(index: Dataset, query: str) -> Dataset:
    """Distributed search: vectorized normalized-substring tag prefilter +
    per-doc filter evaluation inside map_batches; returns matching guids."""
    import pyarrow.compute as pc

    tag, filters = parse_query(query)
    ds = index
    if tag:
        needle = normalize_string(tag)
        ds = ds.map_batches(
            lambda t: t.filter(pc.match_substring(t["tag"], needle)),
            batch_format="pyarrow",
        )

    def evaluate(batch: pa.Table) -> pa.Table:
        keep = []
        for guid, doc_json in zip(
            batch.column("guid").to_pylist(), batch.column("doc_json").to_pylist()
        ):
            doc = json.loads(doc_json)
            if matches(doc, None, filters):
                keep.append(guid)
        return pa.table({"guid": pa.array(keep, pa.string())})

    return ds.map_batches(evaluate, batch_format="pyarrow")


def search_targets_count(sf_dir: str) -> "object":
    """Driver-visible end-to-end of the search subsystem (Q1-Q6 surface):
    distributed extraction -> delta merge -> decoded object tables ->
    distributed index build -> DSL queries, returning (query, n_matches).

    The three object tables decode from one table-tagged merge (a
    persisted run reads them from the runner's checkpoint instead).  The
    strong equality gate vs the in-memory SearchIndex lives in
    tests/test_search_distributed.py; this entry makes the subsystem run
    under the driver harness at sf scale (rows-only: extraction semantics
    have no SQL form)."""
    import pandas as pd

    from ..pipelines.extract import (
        _tag_table_name,
        decode_table,
        extract_corpus_cached,
        merge_deltas,
    )

    # one extraction+merge, materialized: the in-session analogue of the
    # runner's persisted object checkpoint (merged objects are orders of
    # magnitude smaller than the corpus; a production run reads the
    # checkpoint parquet here instead of holding blocks in the store).
    # extraction itself is the session-cached corpus extraction shared
    # with extract_spans / extract_object_stats.
    tagged = (
        merge_deltas(extract_corpus_cached(sf_dir))
        .map_batches(_tag_table_name, batch_format="pyarrow")
        .materialize()
    )
    xt = decode_table(tagged, "xtargets")
    oa = decode_table(tagged, "object_attrs")
    at = decode_table(tagged, "attributes")
    # materialize: the index is probed by every query below — lazy, each
    # count() would re-run the whole build join DAG (3x the build cost)
    index = build_target_index_ds(xt, oa, at, num_partitions=4).materialize()

    rows = []
    for q in ("@type=device", "@type=cable", "@type=pin"):
        rows.append((q, int(search_index_ds(index, q).count())))
    return pd.DataFrame(rows, columns=["query", "n_matches"]).astype(
        {"n_matches": "int64"}
    )
