"""Graph analytics over the memoized IVF k-NN graph, Ray-Data-first:
PageRank, triangle counting, label propagation, multi-source BFS,
connected-component vector-dup clusters, leave-one-out k-NN label
accuracy, mutual-kNN pair mining, and common-neighbor link prediction.

Split out of ``similarity.py`` round 4 (the module had grown past 3.5
kLoC); ``similarity`` re-exports every public name, so the registry and
all call sites are unchanged.  The shared scale idiom: the static edge
set is built ONCE (memoized ``knn_graph``), iterative rounds pin edges in
sharded actors or fold via bucketed exchanges, and every driver escape is
size-guarded (see PAGERANK_DRIVER_EDGE_BUDGET).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset

from ._util import n_buckets  # noqa: F401 (used by several ops)
from .similarity import (
    LSH_COSINE_PAIRS_SQL,
    _kmeans_centroids,
    _kmeans_cte_prefix,
    _read_emb,
    _session_token,
    lsh_cosine_pairs,
)

#: session-memoized knn graphs (see similarity._session_token: entries are
#: dropped when the Ray session changes — the Dataset's block refs die with it)
_KNN_MEMO: dict[tuple, tuple[str, Dataset]] = {}

def knn_graph(
    sf_dir: str, k_cells: int = 8, iters: int = 5, nprobe: int = 3, k: int = 3
) -> Dataset:
    """IVF-probed k-NN GRAPH: top-``k`` cosine neighbors for EVERY vector
    (not just the fixed query set) — the clustering/near-dup building
    block.  Each vector probes its ``nprobe`` nearest k-means cells; a
    cell's group computes one probes x members matmul and keeps per-probe
    local top-k; a bucketed fold then reduces each vector's <= nprobe*k
    candidates to the global top-k.  The per-cell group holds one IVF
    partition — the standard IVF memory assumption; scale ``k_cells`` with
    the corpus so partitions stay task-sized.  Deterministic (fixed seed
    centroids, stable tie-breaks), so the APPROXIMATE graph carries a full
    DuckDB oracle.  Output: (vec_id, nbr_id, rank).  Memoized
    (materialized) per params + Ray session — pagerank / triangle_count /
    label_propagation reuse one build when run back-to-back."""
    import pandas as pd

    memo_key = (sf_dir, k_cells, iters, nprobe, k)
    tok = _session_token()
    hit = _KNN_MEMO.get(memo_key)
    if hit is not None and hit[0] == tok:
        return hit[1]

    cents = _kmeans_centroids(sf_dir, k_cells, iters)
    cref = ray.put(cents)
    # candidate-fold bucket count derived from the embeddings row count
    # (parquet metadata, no scan): each fold bucket holds ~ROWS_PER_BUCKET
    # candidate rows at any corpus scale instead of corpus/512
    import pyarrow.parquet as pq

    from ._util import n_buckets

    vb_buckets = n_buckets(
        pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows * nprobe
    )

    def emit(t: pd.DataFrame) -> pd.DataFrame:
        cents_ = ray.get(cref)
        emb = np.array(t["embedding"].tolist(), dtype=np.float64)
        ids = t["vec_id"].astype("int64").to_numpy()
        d2 = ((emb[:, None, :] - cents_[None, :, :]) ** 2).sum(axis=2)
        own = d2.argmin(axis=1)
        probes = np.argsort(d2, axis=1, kind="stable")[:, :nprobe]
        en = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        # vectorized row explosion, emitted as ARROW (pandas blocks pay
        # ~13x through the co-location shuffle — see dedup bucket_pairs);
        # per row i: (own cell, role 0) then its nprobe probe cells
        n, dim = en.shape
        cells = np.column_stack([own[:, None], probes]).ravel().astype("int32")
        vid = np.repeat(ids, 1 + nprobe)
        role = np.tile(
            np.array([0] + [1] * nprobe, dtype=np.int32), n
        )
        vecs = np.repeat(en, 1 + nprobe, axis=0)
        return pa.table(
            {
                "cell": pa.array(cells),
                "vec_id": pa.array(vid.astype("int64")),
                "role": pa.array(role),
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.ravel(), pa.float64()), dim
                ),
            }
        )

    def cell_knn(g: pd.DataFrame) -> pa.Table:
        m = g[g["role"] == 0]
        p = g[g["role"] == 1]
        if not len(m) or not len(p):
            return pa.table(
                {"vb": pa.array([], pa.int32()),
                 "vec_id": pa.array([], pa.int64()),
                 "nbr_id": pa.array([], pa.int64()),
                 "sim": pa.array([], pa.float64())}
            )
        M = np.array(m["vec"].tolist())
        P = np.array(p["vec"].tolist())
        mids = m["vec_id"].to_numpy()
        pids = p["vec_id"].to_numpy()
        sims = P @ M.T
        out_v, out_n, out_s = [], [], []
        for i in range(len(pids)):
            mask = mids != pids[i]
            if not mask.any():
                continue
            cand_n, cand_s = mids[mask], sims[i][mask]
            order = np.lexsort((cand_n, -cand_s))[: k]
            out_v.extend([int(pids[i])] * len(order))
            out_n.extend(cand_n[order].tolist())
            out_s.extend(cand_s[order].tolist())
        ov = np.asarray(out_v, dtype=np.int64)
        return pa.table(
            {"vb": pa.array((ov % vb_buckets).astype("int32")),
             "vec_id": pa.array(ov),
             "nbr_id": pa.array(np.asarray(out_n, dtype=np.int64)),
             "sim": pa.array(np.asarray(out_s, dtype=np.float64))}
        )

    def fold(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["vec_id", "sim", "nbr_id"],
                          ascending=[True, False, True])
        g = g[g.groupby("vec_id").cumcount() < k]
        return pa.table(
            {"vec_id": pa.array(g["vec_id"].astype("int64").values),
             "nbr_id": pa.array(g["nbr_id"].astype("int64").values),
             "rank": pa.array(
                 (g.groupby("vec_id").cumcount() + 1).astype("int64").values
             )}
        )

    graph = (
        _read_emb(sf_dir)
        .map_batches(emit, batch_format="pandas")
        .groupby("cell")
        .map_groups(cell_knn, batch_format="pandas")
        .groupby("vb")
        .map_groups(fold, batch_format="pandas")
        .materialize()
    )
    _KNN_MEMO[memo_key] = (tok, graph)
    return graph


def _knn_graph_sql(
    k_cells: int = 8, iters: int = 5, nprobe: int = 3, k: int = 3
) -> str:
    """DuckDB mirror of ``knn_graph``: the shared Lloyd CTE chain, per-vector
    cell + nprobe probe sets, exact cosine ranking within probed cells."""
    return _kmeans_cte_prefix(k_cells, iters) + f""", vdist AS (
  SELECT comp.vec_id, p.cluster, SUM((comp.x - p.c) * (comp.x - p.c)) AS d
  FROM comp JOIN cent{iters} p USING (dim)
  GROUP BY comp.vec_id, p.cluster
), vcell AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d, cluster) AS rn
    FROM vdist
  ) WHERE rn = 1
), vprobe AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d, cluster) AS rn
    FROM vdist
  ) WHERE rn <= {nprobe}
), cand AS (
  SELECT a.vec_id AS src, m.vec_id AS nbr
  FROM vprobe a JOIN vcell m USING (cluster)
  WHERE m.vec_id != a.vec_id
)
SELECT vec_id, nbr_id, rank FROM (
  SELECT c.src AS vec_id, c.nbr AS nbr_id,
         CAST(row_number() OVER (
              PARTITION BY c.src
              ORDER BY list_cosine_similarity(es.embedding, en.embedding)
                       DESC, c.nbr
         ) AS BIGINT) AS rank
  FROM cand c JOIN embeddings es ON c.src = es.vec_id
              JOIN embeddings en ON c.nbr = en.vec_id
) WHERE rank <= {k} ORDER BY vec_id, rank"""


KNN_GRAPH_SQL = _knn_graph_sql()


def vec_dup_clusters(sf_dir: str, threshold: float = 0.42) -> Dataset:
    """Embedding-cosine near-duplicate CLUSTERS: connected components of the
    hyperplane-LSH cosine-pair graph (``lsh_cosine_pairs``), by the shared
    min-label-propagation construction (``dedup.label_components``).
    Output: (vec_id, cluster_rep) for every vector in at least one pair;
    cluster_rep = min vec_id of the component (the canonical keeper)."""
    import pandas as pd

    from .dedup import label_components

    labels = label_components(
        lsh_cosine_pairs(sf_dir, threshold=threshold), "vec_a", "vec_b"
    )

    def shape(t: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": t["node"].astype("int64"),
                "cluster_rep": t["lbl"].astype("int64"),
            }
        )

    return labels.map_batches(shape, batch_format="pandas")


VEC_DUP_CLUSTERS_SQL = f"""
WITH RECURSIVE pairs AS ({LSH_COSINE_PAIRS_SQL.replace("ORDER BY vec_a, vec_b", "")}),
edges AS (
  SELECT vec_a AS a, vec_b AS b FROM pairs
  UNION SELECT vec_b, vec_a FROM pairs
),
reach(a, b) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
)
SELECT a AS vec_id, CAST(LEAST(a, MIN(b)) AS BIGINT) AS cluster_rep
FROM reach GROUP BY a ORDER BY vec_id
"""


# -- hard-negative mining -----------------------------------------------------

# -- PageRank over the k-NN graph ----------------------------------------------

#: Edge budget for the pagerank/label-propagation driver escape: below it
#: the static graph fits one driver ndarray pass per round (~16 bytes/edge).
PAGERANK_DRIVER_EDGE_BUDGET = 4_000_000

PAGERANK_MASS = 1_000_000_000  # total integer rank mass (micro-unit scale)


def pagerank_knn(sf_dir: str, iters: int = 5) -> Dataset:
    """PageRank power iteration over the IVF k-NN graph — the iterative-
    graph shape on Ray Data, with the STATIC side pinned: the edge table is
    pushed ONCE into a pool of sharded ``num_cpus=0`` edge actors (each
    owning every out-edge of the nodes that route to it — the
    ``state/dedup_index`` pattern: Dataset ops for per-record work, raw
    actors only for state that outlives a Dataset execution), so the graph
    NEVER crosses the shuffle again.  Each round is then a single
    all-to-all: a plain ``map_batches`` over the rank vector computes
    contributions via one batched RPC per touched shard (vectorized
    searchsorted edge lookup inside the actor), and one bucketed groupby
    folds them per destination.  Per round that moves O(n·k) contribution
    rows and nothing else — the previous union-based formulation re-shuffled
    the edge table every round and paid 2 all-to-alls + a materialize
    (measured 28.8 s -> this shape at sf0.001/8 CPUs; see BENCH notes).
    All arithmetic is INTEGER (initial mass ``PAGERANK_MASS // n``, damping
    85/100 and teleport 15/100 as floor divisions), so ``iters`` rounds of
    floor arithmetic are bit-identical on any engine and the DuckDB oracle
    hash-matches the APPROXIMATE algorithm end-to-end (k-means cells ->
    probes -> knn -> pagerank).  Output: (vec_id, rank_mu)."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    S = PAGERANK_MASS
    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)
    tp = (15 * (S // n)) // 100

    # size-adaptive escape (the label_components driver-union-find pattern):
    # a k-NN graph under the edge budget is power-iterated on the driver in
    # one numpy pass per round — identical integer arithmetic, zero
    # all-to-alls — instead of ~2 fixed-latency exchanges per round.  Above
    # the budget the sharded-edge-actor loop below runs unchanged
    # (equality-tested against the escape).
    edges_ds = knn_graph(sf_dir)
    m_edges = edges_ds.count()
    if m_edges <= PAGERANK_DRIVER_EDGE_BUDGET:
        import pandas as pd

        e = edges_ds.to_pandas()
        src_a = e["vec_id"].to_numpy(np.int64)
        dst_a = e["nbr_id"].to_numpy(np.int64)
        order = np.argsort(src_a, kind="stable")
        src_a, dst_a = src_a[order], dst_a[order]
        _, inv, cnt = np.unique(src_a, return_inverse=True, return_counts=True)
        kout = cnt[inv].astype(np.int64)
        nodes = np.sort(
            pq.read_table(
                f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
            )["vec_id"].to_numpy().astype(np.int64)
        )
        dst_idx = np.searchsorted(nodes, dst_a)
        src_idx = np.searchsorted(nodes, src_a)
        rank = np.full(len(nodes), S // n, dtype=np.int64)
        for _ in range(iters):
            in_sum = np.zeros(len(nodes), dtype=np.int64)
            np.add.at(in_sum, dst_idx, rank[src_idx] // kout)
            rank = tp + (85 * in_sum) // 100
        return pd.DataFrame({"vec_id": nodes, "rank_mu": rank})

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class EdgeShard:
        """Owns every out-edge of the nodes with src % n_shards == shard id.
        ``num_cpus=0``: lookups only — a CPU reservation would starve the
        map tasks that call it (actor-pool deadlock gotcha)."""

        def __init__(self):
            self._src_parts: list[np.ndarray] = []
            self._dst_parts: list[np.ndarray] = []
            self._src = self._dst = self._kout = None

        def add_batch(self, src: np.ndarray, dst: np.ndarray) -> int:
            self._src_parts.append(src)
            self._dst_parts.append(dst)
            return len(src)

        def seal(self) -> int:
            """Sort edges by src and precompute per-edge out-degree."""
            if self._src_parts:
                src = np.concatenate(self._src_parts)
                dst = np.concatenate(self._dst_parts)
            else:
                src = dst = np.empty(0, dtype=np.int64)
            order = np.argsort(src, kind="stable")
            self._src, self._dst = src[order], dst[order]
            _, inv, cnt = np.unique(
                self._src, return_inverse=True, return_counts=True
            )
            self._kout = cnt[inv].astype(np.int64)
            self._src_parts = self._dst_parts = None
            return len(self._src)

        def contribs(self, ids: np.ndarray, ranks: np.ndarray):
            """rank//k_out per out-edge of each queried node — vectorized
            searchsorted slice gather, no Python loop over edges."""
            lo = np.searchsorted(self._src, ids, side="left")
            hi = np.searchsorted(self._src, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            idx = starts + np.arange(total)
            c = np.repeat(ranks, cnt) // self._kout[idx]
            return (self._dst[idx], c.astype(np.int64))

    shards = [EdgeShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        sh = src % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(src[sh == s], dst[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    # build barrier: every edge durable in its shard, then seal (sort +
    # out-degree) once — the graph never moves again.
    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def rank0(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].astype("int64")
        return pd.DataFrame(
            {"a": v, "v": pd.Series([S // n] * len(t), dtype="int64").values}
        )

    ranks = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(rank0, batch_format="pandas")
    )

    def contrib_rows(t: pd.DataFrame) -> pd.DataFrame:
        """Zero seed for the batch's own nodes (keeps every node alive in
        the fold) + contribution rows fetched with one RPC per shard."""
        ids = t["a"].to_numpy(dtype=np.int64)
        rks = t["v"].to_numpy(dtype=np.int64)
        frames = [
            pd.DataFrame(
                {
                    "db": (ids % nb).astype(np.int32),
                    "a": ids,
                    "c": np.zeros(len(ids), dtype=np.int64),
                }
            )
        ]
        sh = ids % n_shards
        touched = np.unique(sh)
        refs = [
            shards[s].contribs.remote(ids[sh == s], rks[sh == s])
            for s in touched
        ]
        for dst, c in ray.get(refs):
            if len(dst):
                frames.append(
                    pd.DataFrame(
                        {"db": (dst % nb).astype(np.int32), "a": dst, "c": c}
                    )
                )
        return pd.concat(frames, ignore_index=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("a")["c"].sum().reset_index()
        return pd.DataFrame(
            {
                "a": agg["a"].astype("int64").values,
                "v": (tp + (85 * agg["c"].astype("int64")) // 100).values,
            }
        )

    for _ in range(iters):
        ranks = (
            ranks.map_batches(contrib_rows, batch_format="pandas")
            .groupby("db")
            .map_groups(fold, batch_format="pandas")
        )

    def final(t: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": t["a"].astype("int64"),
                "rank_mu": t["v"].astype("int64"),
            }
        )

    return ranks.map_batches(final, batch_format="pandas").sort("vec_id")


def _pagerank_sql(iters: int = 5) -> str:
    S = PAGERANK_MASS
    prev = "r0"
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""r{i} AS (
  SELECT n2.vec_id,
         CAST((15 * ({S} // s.n)) // 100
              + (85 * COALESCE(i{i}.in_sum, 0)) // 100 AS BIGINT) AS r
  FROM nodes n2 CROSS JOIN stats s LEFT JOIN (
    SELECT e.dst AS vec_id, SUM({prev}.r // e.k_out) AS in_sum
    FROM e JOIN {prev} ON e.src = {prev}.vec_id GROUP BY e.dst
  ) i{i} USING (vec_id)
)""")
        prev = f"r{i}"
    joined_steps = ",\n".join(steps)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
stats AS (SELECT COUNT(*) AS n FROM embeddings),
deg AS (SELECT vec_id AS src, COUNT(*) AS k_out FROM knn GROUP BY vec_id),
e AS MATERIALIZED (
  SELECT k.vec_id AS src, k.nbr_id AS dst, d.k_out
  FROM knn k JOIN deg d ON k.vec_id = d.src
),
nodes AS (SELECT vec_id FROM embeddings),
r0 AS (
  SELECT vec_id, CAST({S} // s.n AS BIGINT) AS r
  FROM nodes CROSS JOIN stats s
),
{joined_steps}
SELECT vec_id, r AS rank_mu FROM {prev} ORDER BY vec_id"""


PAGERANK_KNN_SQL = _pagerank_sql()


# -- triangle counting over the k-NN graph ----------------------------------

def triangle_count(sf_dir: str) -> "object":
    """Global triangle count of the (symmetrized) IVF k-NN graph — the
    wedge-check construction, the graph-analytics companion to
    ``pagerank_knn``.  Three bucketed stages, no join operator:

    1. canonicalize: each directed knn edge becomes (a,b)=(min,max), then a
       bucketed groupby dedups to the undirected edge set;
    2. wedges: adjacency rows (both directions) co-locate by CENTER node; a
       vectorized in-bucket self-merge emits each neighbor pair (x<y) once
       per center — per-node degree is bounded by 2k, so the blow-up is
       O(k) per edge at any corpus size;
    3. closure: wedges and canonical edges co-locate by an (x,y)-derived
       bucket (union of SAME-format blocks, per the empty-partition join
       gotcha); one in-bucket merge counts wedges whose endpoints are an
       edge.  Each triangle closes exactly 3 wedges (one per center), so
       the global count is closures // 3 — integer-exact, full oracle.

    Output: one row (n_edges, n_triangles)."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761  # Knuth multiplicative hash; deterministic, not hash()

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        b = np.maximum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
            }
        )

    def dedup_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b"]]

    edges = (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(dedup_edges, batch_format="pandas")
        .materialize()  # reused by stages 2 and 3
    )

    def adj(t: pd.DataFrame) -> pd.DataFrame:
        u = np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
        v = np.concatenate([t["b"].to_numpy(), t["a"].to_numpy()])
        return pd.DataFrame(
            {"ub": (u % nb).astype("int32"), "u": u, "v": v}
        )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-bucket self-merge on the center column: emits each
        # unordered neighbor pair once per center, no per-node Python loop
        m = g[["u", "v"]].merge(g[["u", "v"]], on="u")
        m = m[m["v_x"] < m["v_y"]]
        x = m["v_x"].to_numpy(dtype=np.int64)
        y = m["v_y"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "wb": ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb
                       ).astype("int32"),
                "x": x,
                "y": y,
                "kind": pd.Series(np.ones(len(x), dtype="int64")).values,
            }
        )

    wedge_ds = edges.map_batches(adj, batch_format="pandas").groupby(
        "ub"
    ).map_groups(wedges, batch_format="pandas")

    def edge_rows(t: pd.DataFrame) -> pd.DataFrame:
        x = t["a"].to_numpy(dtype=np.int64)
        y = t["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "wb": ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb
                       ).astype("int32"),
                "x": x,
                "y": y,
                "kind": pd.Series(np.zeros(len(x), dtype="int64")).values,
            }
        )

    def close(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0]
        w = g[g["kind"] == 1]
        n_closed = 0
        if len(e) and len(w):
            n_closed = len(w.merge(e[["x", "y"]], on=["x", "y"]))
        return pd.DataFrame(
            {
                "n_edges": pd.Series([len(e)], dtype="int64"),
                "closures": pd.Series([n_closed], dtype="int64"),
            }
        )

    parts = (
        wedge_ds.union(edges.map_batches(edge_rows, batch_format="pandas"))
        .groupby("wb")
        .map_groups(close, batch_format="pandas")
        .to_pandas()  # one row per bucket
    )
    return pd.DataFrame(
        {
            "n_edges": [int(parts["n_edges"].sum())],
            "n_triangles": [int(parts["closures"].sum()) // 3],
        }
    )


TRIANGLE_COUNT_SQL = f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
ed AS (
  SELECT DISTINCT LEAST(vec_id, nbr_id) AS a, GREATEST(vec_id, nbr_id) AS b
  FROM knn
),
adj AS (
  SELECT a AS u, b AS v FROM ed
  UNION ALL
  SELECT b AS u, a AS v FROM ed
),
wedge AS (
  SELECT a1.v AS x, a2.v AS y
  FROM adj a1 JOIN adj a2 ON a1.u = a2.u AND a1.v < a2.v
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM ed) AS n_edges,
       CAST((SELECT COUNT(*) FROM wedge w
             JOIN ed e ON w.x = e.a AND w.y = e.b) // 3 AS BIGINT)
         AS n_triangles
"""


# -- per-dimension feature statistics ---------------------------------------

# -- semi-supervised label propagation over the k-NN graph -------------------

LP_SEED_MOD = 10   # vec_id % 10 == 0 keeps its true label as a fixed seed
LP_ROUNDS = 3


def label_propagation(sf_dir: str, rounds: int = LP_ROUNDS) -> "object":
    """Semi-supervised label propagation — the curation move that stretches
    a small set of human-labeled documents over the whole corpus: 10% seed
    nodes (``vec_id % 10 == 0``) keep their true ``label``; every round,
    each node adopts the majority label among its k-NN out-neighbors
    (ties -> smallest label; no labeled neighbor -> keep current; seeds
    are clamped).  Same static-graph execution shape as ``pagerank_knn``:
    the REVERSED edge set is pinned once in sharded ``num_cpus=0`` vote
    actors (sorted by vote-source with a searchsorted slice gather), so
    each round is one batched-RPC map over the label vector plus ONE
    bucketed majority fold — the graph never re-enters the shuffle.
    Integer labels, integer votes: bit-deterministic, fully oracled
    through the unrolled-round CTE over the same IVF k-NN graph.
    Output: (vec_id, lab) after ``rounds`` rounds (-1 = still unlabeled)."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    # size-adaptive escape (same pattern + budget as pagerank_knn): under
    # the edge budget, all rounds run as numpy passes on the driver with
    # identical majority/tie/clamp semantics; above it the sharded
    # vote-actor loop runs unchanged (equality-tested against the escape).
    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        u_a = e["vec_id"].to_numpy(np.int64)   # voter (edge owner)
        v_a = e["nbr_id"].to_numpy(np.int64)   # vote source
        emb = (
            pq.read_table(
                f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
            )
            .to_pandas()
            .sort_values("vec_id")
        )
        nodes = emb["vec_id"].to_numpy(np.int64)
        lab0 = emb["label"].to_numpy(np.int64)
        seed = nodes % LP_SEED_MOD == 0
        lab = np.where(seed, lab0, -1)
        ui = np.searchsorted(nodes, u_a)
        vi = np.searchsorted(nodes, v_a)
        for _ in range(rounds):
            m = lab[vi] != -1
            uu, ll = ui[m], lab[vi][m]
            if len(uu) == 0:
                continue
            order = np.lexsort((ll, uu))
            uu_s, ll_s = uu[order], ll[order]
            newg = np.concatenate(
                ([True], (uu_s[1:] != uu_s[:-1]) | (ll_s[1:] != ll_s[:-1]))
            )
            gidx = np.cumsum(newg) - 1
            cnt = np.bincount(gidx)
            g_u, g_l = uu_s[newg], ll_s[newg]
            # majority: count desc, label asc
            o2 = np.lexsort((g_l, -cnt, g_u))
            gu2, gl2 = g_u[o2], g_l[o2]
            first = np.concatenate(([True], gu2[1:] != gu2[:-1]))
            top_u, top_l = gu2[first], gl2[first]
            has = np.zeros(len(nodes), bool)
            tl = np.zeros(len(nodes), np.int64)
            has[top_u] = True
            tl[top_u] = top_l
            upd = (~seed) & has
            lab = lab.copy()
            lab[upd] = tl[upd]
        import pandas as pd

        return pd.DataFrame(
            {"vec_id": nodes, "lab": lab.astype(np.int64)}
        )

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class VoteShard:
        """Owns the reversed out-edges (vote source v -> voter u) of the
        nodes with v % n_shards == shard id; num_cpus=0 — lookups only."""

        def __init__(self):
            self._v_parts: list[np.ndarray] = []
            self._u_parts: list[np.ndarray] = []
            self._v = self._u = None

        def add_batch(self, v: np.ndarray, u: np.ndarray) -> int:
            self._v_parts.append(v)
            self._u_parts.append(u)
            return len(v)

        def seal(self) -> int:
            if self._v_parts:
                v = np.concatenate(self._v_parts)
                u = np.concatenate(self._u_parts)
            else:
                v = u = np.empty(0, dtype=np.int64)
            order = np.argsort(v, kind="stable")
            self._v, self._u = v[order], u[order]
            self._v_parts = self._u_parts = None
            return len(self._v)

        def votes(self, ids: np.ndarray, labs: np.ndarray):
            """(voter u, label) per reversed out-edge of each labeled id."""
            lo = np.searchsorted(self._v, ids, side="left")
            hi = np.searchsorted(self._v, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            idx = starts + np.arange(total)
            return (self._u[idx], np.repeat(labs, cnt))

    shards = [VoteShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        u = t["vec_id"].to_numpy(dtype=np.int64)   # voter (edge owner)
        v = t["nbr_id"].to_numpy(dtype=np.int64)   # vote source
        sh = v % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(v[sh == s], u[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def seed_rows(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].astype("int64")
        seed = (v % LP_SEED_MOD == 0)
        lab = t["label"].astype("int64").where(seed, -1)
        return pd.DataFrame(
            {
                "vec_id": v,
                "lab": lab.astype("int64"),
                "seed": seed.astype("int8"),
            }
        )

    labels = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    ).map_batches(seed_rows, batch_format="pandas")

    def emit(t: pd.DataFrame) -> pd.DataFrame:
        """Current-state carry rows + vote rows from the shard RPCs."""
        ids = t["vec_id"].to_numpy(dtype=np.int64)
        labs = t["lab"].to_numpy(dtype=np.int64)
        frames = [
            pd.DataFrame(
                {
                    "b": (ids % nb).astype(np.int32),
                    "vec_id": ids,
                    "lab": labs,
                    "kind": np.repeat(
                        np.int8(0), len(ids)
                    ),  # 0 = carry (with seed flag in 'seed')
                    "seed": t["seed"].to_numpy(dtype=np.int8),
                }
            )
        ]
        lm = labs != -1
        lid, llab = ids[lm], labs[lm]
        sh = lid % n_shards
        refs = [
            shards[s].votes.remote(lid[sh == s], llab[sh == s])
            for s in np.unique(sh)
        ]
        for u, lab in ray.get(refs):
            if len(u):
                frames.append(
                    pd.DataFrame(
                        {
                            "b": (u % nb).astype(np.int32),
                            "vec_id": u,
                            "lab": lab,
                            "kind": np.repeat(np.int8(1), len(u)),  # vote
                            "seed": np.repeat(np.int8(0), len(u)),
                        }
                    )
                )
        return pd.concat(frames, ignore_index=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        carry = g[g["kind"] == 0].set_index("vec_id")
        votes = g[g["kind"] == 1]
        # majority: count desc, label asc — one vectorized groupby
        vc = (
            votes.groupby(["vec_id", "lab"]).size().reset_index(name="c")
            .sort_values(["vec_id", "c", "lab"], ascending=[True, False, True])
            .drop_duplicates("vec_id")
            .set_index("vec_id")["lab"]
        )
        ids = carry.index.to_numpy(dtype=np.int64)
        cur = carry["lab"].to_numpy(dtype=np.int64)
        seed = carry["seed"].to_numpy(dtype=np.int8)
        top = carry.index.map(vc)
        new = np.where(
            seed == 1, cur, np.where(top.isna(), cur, top.fillna(-1).astype("int64"))
        )
        return pd.DataFrame(
            {
                "vec_id": ids,
                "lab": new.astype("int64"),
                "seed": seed,
            }
        )

    for _ in range(rounds):
        labels = (
            labels.map_batches(emit, batch_format="pandas")
            .groupby("b")
            .map_groups(fold, batch_format="pandas")
        )

    out = labels.to_pandas()[["vec_id", "lab"]]
    return (
        out.sort_values("vec_id")
        .reset_index(drop=True)
        .astype({"vec_id": "int64", "lab": "int64"})
    )


def _label_propagation_sql(rounds: int = LP_ROUNDS) -> str:
    prev = "l0"
    steps = []
    for i in range(1, rounds + 1):
        steps.append(f"""l{i} AS MATERIALIZED (
  SELECT n.vec_id,
         CASE WHEN n.seed = 1 THEN p.lab
              ELSE COALESCE(v{i}.top_lab, p.lab) END AS lab,
         n.seed
  FROM seeds n JOIN {prev} p USING (vec_id) LEFT JOIN (
    SELECT u, lab AS top_lab FROM (
      SELECT e.vec_id AS u, p2.lab, COUNT(*) AS c,
             ROW_NUMBER() OVER (
               PARTITION BY e.vec_id ORDER BY COUNT(*) DESC, p2.lab
             ) AS rk
      FROM knn e JOIN {prev} p2 ON e.nbr_id = p2.vec_id
      WHERE p2.lab <> -1
      GROUP BY e.vec_id, p2.lab) t WHERE rk = 1
  ) v{i} ON v{i}.u = n.vec_id
)"""
        )
        prev = f"l{i}"
    joined = ",\n".join(steps)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
seeds AS MATERIALIZED (
  SELECT vec_id,
         CASE WHEN vec_id % {LP_SEED_MOD} = 0 THEN 1 ELSE 0 END AS seed,
         CASE WHEN vec_id % {LP_SEED_MOD} = 0
              THEN CAST(label AS BIGINT) ELSE -1 END AS lab0
  FROM embeddings
),
l0 AS MATERIALIZED (SELECT vec_id, lab0 AS lab, seed FROM seeds),
{joined}
SELECT vec_id, CAST(lab AS BIGINT) AS lab FROM {prev} ORDER BY vec_id"""


LABEL_PROPAGATION_SQL = _label_propagation_sql()


# -- MMR diversity selection --------------------------------------------------

BFS_SEED_MOD = 50   # vec_id % 50 == 0 are the BFS sources
BFS_ROUNDS = 4


def bfs_hops(sf_dir: str, rounds: int = BFS_ROUNDS, reverse: bool = False) -> "object":
    """Multi-source level-synchronous BFS over the IVF k-NN graph: hop
    distance from the nearest seed (``vec_id % BFS_SEED_MOD == 0``) along
    directed out-edges, ``rounds`` levels deep (-1 = unreached) — the
    neighborhood-expansion primitive behind graph-based curation (label
    cascade radius, contamination blast radius around a flagged doc).

    Execution = the pagerank_knn shape: the static edge table is pinned
    ONCE in sharded ``num_cpus=0`` neighbor actors; each level is one
    ``map_batches`` over the dist vector (one batched RPC per touched
    shard, ONLY frontier ids — nodes at distance r-1 — are queried) plus
    one bucketed fold, so a level moves O(frontier out-degree) candidate
    rows and the graph never re-enters the shuffle.  Under the edge budget
    the levels run as driver numpy passes with identical semantics
    (equality-tested, the shared graph driver-escape pattern).  Level-
    synchronous BFS sets a node's distance the FIRST time it is reached,
    so the fold is keep-if-set — no min over rounds needed."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        src_a = e["vec_id"].to_numpy(np.int64)
        dst_a = e["nbr_id"].to_numpy(np.int64)
        nodes = np.sort(
            pq.read_table(
                f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
            )["vec_id"].to_numpy().astype(np.int64)
        )
        ui = np.searchsorted(nodes, src_a)
        vi = np.searchsorted(nodes, dst_a)
        if reverse:
            ui, vi = vi, ui
        d = np.where(nodes % BFS_SEED_MOD == 0, 0, -1).astype(np.int64)
        for r in range(1, rounds + 1):
            tgt = vi[d[ui] == r - 1]
            d[tgt[d[tgt] == -1]] = r
        return pd.DataFrame({"vec_id": nodes, "hops": d})

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class NeighborShard:
        """Out-edges of the nodes with src % n_shards == shard id, sorted
        by src for the vectorized searchsorted slice gather."""

        def __init__(self):
            self._src_parts: list[np.ndarray] = []
            self._dst_parts: list[np.ndarray] = []
            self._src = self._dst = None

        def add_batch(self, src: np.ndarray, dst: np.ndarray) -> int:
            self._src_parts.append(src)
            self._dst_parts.append(dst)
            return len(src)

        def seal(self) -> int:
            if self._src_parts:
                src = np.concatenate(self._src_parts)
                dst = np.concatenate(self._dst_parts)
            else:
                src = dst = np.empty(0, dtype=np.int64)
            order = np.argsort(src, kind="stable")
            self._src, self._dst = src[order], dst[order]
            self._src_parts = self._dst_parts = None
            return len(self._src)

        def neighbors(self, ids: np.ndarray) -> np.ndarray:
            lo = np.searchsorted(self._src, ids, side="left")
            hi = np.searchsorted(self._src, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64)
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            return self._dst[starts + np.arange(total)]

    shards = [NeighborShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        if reverse:
            src, dst = dst, src
        sh = src % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(src[sh == s], dst[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def dist0(t: pd.DataFrame) -> pd.DataFrame:
        a = t["vec_id"].astype("int64")
        return pd.DataFrame(
            {"a": a, "d": np.where(a % BFS_SEED_MOD == 0, 0, -1).astype("int64")}
        )

    dists = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(dist0, batch_format="pandas")
    )

    def make_step(r: int):
        def step_rows(t: pd.DataFrame) -> pd.DataFrame:
            """Self rows (c=0, carry current d) + candidate rows (c=1) for
            the out-neighbors of this batch's FRONTIER (d == r-1) nodes."""
            ids = t["a"].to_numpy(dtype=np.int64)
            ds_ = t["d"].to_numpy(dtype=np.int64)
            frames = [
                pd.DataFrame(
                    {
                        "db": (ids % nb).astype(np.int32),
                        "a": ids,
                        "d": ds_,
                        "c": np.zeros(len(ids), dtype=np.int64),
                    }
                )
            ]
            front = ids[ds_ == r - 1]
            if len(front):
                sh = front % n_shards
                refs = [
                    shards[s].neighbors.remote(front[sh == s])
                    for s in np.unique(sh)
                ]
                for nbrs in ray.get(refs):
                    if len(nbrs):
                        frames.append(
                            pd.DataFrame(
                                {
                                    "db": (nbrs % nb).astype(np.int32),
                                    "a": nbrs,
                                    "d": np.full(len(nbrs), -1, dtype=np.int64),
                                    "c": np.ones(len(nbrs), dtype=np.int64),
                                }
                            )
                        )
            return pd.concat(frames, ignore_index=True)

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("a").agg(
                cur=("d", "max"), cand=("c", "max")
            ).reset_index()
            # self rows carry d >= -1, candidate rows d == -1: max = current
            new = np.where(
                agg["cur"].to_numpy() != -1,
                agg["cur"].to_numpy(),
                np.where(agg["cand"].to_numpy() == 1, r, -1),
            )
            return pd.DataFrame(
                {"a": agg["a"].astype("int64").values,
                 "d": new.astype("int64")}
            )

        return step_rows, fold

    for r in range(1, rounds + 1):
        step_rows, fold = make_step(r)
        dists = (
            dists.map_batches(step_rows, batch_format="pandas")
            .groupby("db")
            .map_groups(fold, batch_format="pandas")
        )

    def final(t: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"vec_id": t["a"].astype("int64"), "hops": t["d"].astype("int64")}
        )

    return dists.map_batches(final, batch_format="pandas").sort("vec_id")


def _bfs_hops_sql(rounds: int = BFS_ROUNDS) -> str:
    """Unrolled level-synchronous BFS over the shared k-NN graph CTE —
    level r reaches the unreached out-neighbors of the distance-(r-1)
    frontier; keep-if-set, so no MIN over rounds is needed."""
    steps = []
    for r in range(1, rounds + 1):
        steps.append(f""", d{r} AS (
  SELECT n.vec_id,
         CASE WHEN n.d != -1 THEN n.d
              WHEN f{r}.vec_id IS NOT NULL THEN {r}
              ELSE -1 END AS d
  FROM d{r - 1} n LEFT JOIN (
    SELECT DISTINCT e.dst AS vec_id
    FROM e JOIN d{r - 1} p ON p.vec_id = e.src
    WHERE p.d = {r - 1}
  ) f{r} USING (vec_id)
)""")
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
e AS (SELECT vec_id AS src, nbr_id AS dst FROM knn),
d0 AS (
  SELECT vec_id,
         CASE WHEN vec_id % {BFS_SEED_MOD} = 0 THEN 0 ELSE -1 END AS d
  FROM embeddings
){''.join(steps)}
SELECT vec_id, CAST(d AS BIGINT) AS hops FROM d{rounds} ORDER BY vec_id"""


BFS_HOPS_SQL = _bfs_hops_sql()


# -- embedding-quality eval: leave-one-out k-NN classification ----------------

def knn_label_accuracy(sf_dir: str) -> "object":
    """Leave-one-out k-NN classification accuracy per label — the standard
    embedding-quality eval (does neighborhood structure predict the
    label?).  Reuses the session-memoized IVF k-NN graph; labels could be
    corpus-proportional, so they ATTACH via two vec-bucket co-locations
    (never a broadcast, never a high-cardinality groupby): pass 1 keys
    edges by NEIGHBOR and attaches the neighbor's label; pass 2 keys by
    SOURCE, majority-votes each vector's <=k neighbor labels (ties ->
    smallest label) against its own, and emits per-label (n, n_correct)
    partials; one |labels|-row fold finishes.  Output: (label, n,
    n_correct)."""
    import pandas as pd

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    g = knn_graph(sf_dir)
    labels = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )

    def key_edges_by_nbr(t: pa.Table) -> pa.Table:
        nbr = pc.cast(t["nbr_id"], pa.int64())
        return pa.table(
            {
                "bk": pc.cast(pc.bit_wise_and(nbr, nb - 1), pa.int32()),
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "nbr_id": nbr,
                "lab": pa.array([-1] * t.num_rows, pa.int64()),
                "kind": pa.array([0] * t.num_rows, pa.int8()),
            }
        )

    def key_labels(t: pa.Table) -> pa.Table:
        vid = pc.cast(t["vec_id"], pa.int64())
        return pa.table(
            {
                "bk": pc.cast(pc.bit_wise_and(vid, nb - 1), pa.int32()),
                "vec_id": vid,
                "nbr_id": pa.array([-1] * t.num_rows, pa.int64()),
                "lab": pc.cast(t["label"], pa.int64()),
                "kind": pa.array([1] * t.num_rows, pa.int8()),
            }
        )

    def attach_nbr_label(g_: pd.DataFrame) -> pa.Table:
        lab = g_[g_["kind"] == 1].set_index("vec_id")["lab"]
        e = g_[g_["kind"] == 0]
        src = e["vec_id"].to_numpy("int64")
        return pa.table(
            {
                "bk": pa.array(
                    (src & (nb - 1)).astype("int32")
                ),
                "vec_id": pa.array(src),
                "nbr_lab": pa.array(
                    e["nbr_id"].map(lab).to_numpy("int64")
                ),
                "kind": pa.array([0] * len(e), pa.int8()),
            }
        )

    def relabel_for_vote(t: pa.Table) -> pa.Table:
        vid = pc.cast(t["vec_id"], pa.int64())
        return pa.table(
            {
                "bk": pc.cast(pc.bit_wise_and(vid, nb - 1), pa.int32()),
                "vec_id": vid,
                "nbr_lab": pc.cast(t["label"], pa.int64()),
                "kind": pa.array([1] * t.num_rows, pa.int8()),
            }
        )

    def vote(g_: pd.DataFrame) -> pa.Table:
        own = g_[g_["kind"] == 1].set_index("vec_id")["nbr_lab"]
        e = g_[g_["kind"] == 0]
        c = (
            e.groupby(["vec_id", "nbr_lab"]).size().reset_index(name="c")
            .sort_values(["vec_id", "c", "nbr_lab"],
                         ascending=[True, False, True])
        )
        pred = c.groupby("vec_id", sort=True).head(1).set_index("vec_id")[
            "nbr_lab"
        ]
        res = pd.DataFrame({"true_lab": own})
        res["pred"] = res.index.map(pred)
        # vectors with no in-graph neighbors count as incorrect
        res["ok"] = (res["pred"] == res["true_lab"]).astype("int64")
        agg = res.groupby("true_lab")["ok"].agg(["size", "sum"]).reset_index()
        return pa.table(
            {
                "label": pa.array(agg["true_lab"].to_numpy("int64")),
                "n": pa.array(agg["size"].to_numpy("int64")),
                "n_correct": pa.array(agg["sum"].to_numpy("int64")),
            }
        )

    from ray.data.aggregate import Sum

    out = (
        g.map_batches(key_edges_by_nbr, batch_format="pyarrow")
        .union(labels.map_batches(key_labels, batch_format="pyarrow"))
        .groupby("bk")
        .map_groups(attach_nbr_label, batch_format="pandas")
        .union(labels.map_batches(relabel_for_vote, batch_format="pyarrow"))
        .groupby("bk")
        .map_groups(vote, batch_format="pandas")
        .groupby("label")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("n_correct", alias_name="n_correct"),
        )
        .to_pandas()  # O(|labels|)
    )
    for c in ("label", "n", "n_correct"):
        out[c] = out[c].astype("int64")
    return out.sort_values("label").reset_index(drop=True)


KNN_LABEL_ACCURACY_SQL = f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
nl AS (
  SELECT k.vec_id, e.label AS nbr_lab
  FROM knn k JOIN embeddings e ON k.nbr_id = e.vec_id
), votes AS (
  SELECT vec_id, nbr_lab, COUNT(*) AS c FROM nl GROUP BY 1, 2
), pred AS (
  SELECT vec_id, nbr_lab AS pred FROM (
    SELECT vec_id, nbr_lab, row_number() OVER (
      PARTITION BY vec_id ORDER BY c DESC, nbr_lab) AS rk
    FROM votes) WHERE rk = 1
)
SELECT CAST(e.label AS BIGINT) AS label,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN p.pred = e.label THEN 1 ELSE 0 END) AS BIGINT)
         AS n_correct
FROM embeddings e LEFT JOIN pred p USING (vec_id)
GROUP BY e.label ORDER BY label
"""


# ---------------------------------------------------------------------------
# Hybrid retrieval: BM25 (lexical) + dense cosine fused by reciprocal-rank
# fusion (Cormack, Clarke, Buettcher — "Reciprocal Rank Fusion outperforms
# Condorcet and individual Rank Learning Methods", SIGIR 2009)
# ---------------------------------------------------------------------------

def mutual_knn_pairs(sf_dir: str) -> Dataset:
    """Mutual k-nearest-neighbor pairs over the IVF k-NN graph — the
    reciprocity filter parallel-pair mining runs before margin scoring
    (Artetxe, Schwenk — "Margin-based Parallel Corpus Mining with
    Multilingual Sentence Embeddings", ACL 2019): keep (a, b) iff b is in
    knn(a) AND a is in knn(b).  Each directed edge canonicalizes to
    (lo, hi) plus a direction bit, every copy of an edge co-locates by an
    edge-derived bucket (no join operator — the empty-partition gotcha),
    and a vectorized in-bucket fold keeps pairs seen in BOTH directions.
    Edge volume is n*k rows, per-bucket frames are bounded by the
    ``n_buckets`` derivation, and the graph build itself is the memoized
    ``knn_graph``.  Output: (vec_a, vec_b)."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761  # deterministic multiplicative mix, never builtin hash()

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].to_numpy()
        n = t["nbr_id"].to_numpy()
        a = np.minimum(v, n)
        b = np.maximum(v, n)
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
                "fwd": v < n,
            }
        )

    def mutual(g: pd.DataFrame) -> pd.DataFrame:
        # a directed knn list is duplicate-free, so each (a, b) group has at
        # most one fwd and one bwd row; mutual == both directions present
        piv = g.groupby(["a", "b"])["fwd"].agg(["min", "max"]).reset_index()
        m = piv[piv["max"] & ~piv["min"]]
        return pd.DataFrame(
            {
                "vec_a": m["a"].astype("int64"),
                "vec_b": m["b"].astype("int64"),
            }
        )

    return (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(mutual, batch_format="pandas")
    )


MUTUAL_KNN_PAIRS_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL})
SELECT g1.vec_id AS vec_a, g1.nbr_id AS vec_b
FROM g g1 JOIN g g2 ON g1.vec_id = g2.nbr_id AND g1.nbr_id = g2.vec_id
WHERE g1.vec_id < g1.nbr_id
ORDER BY vec_a, vec_b
"""


# -- product quantization (PQ) ADC top-k --------------------------------------

# -- link prediction: common-neighbors over the k-NN graph --------------------

def common_neighbors_topk(sf_dir: str, k: int = 20) -> Dataset:
    """Link prediction by common-neighbor counting (Liben-Nowell &
    Kleinberg, CIKM 2003) over the undirected view of the memoized IVF
    k-NN graph: for every NON-adjacent pair, score = |N(a) ∩ N(b)|; emit
    the global top-``k`` (score DESC, pair ASC).

    Distributed shape — wedge enumeration, the triangle-counting sibling:
    each directed edge ships both orientations into a CENTER-bucket
    co-location (a node's whole neighbor list lands in one task), each
    center emits its neighbor-pair wedges vectorized (triu indices over
    the sorted unique list — wedge volume is Σ deg², bounded by the knn
    fan-in, never all-pairs); wedges AND canonical edges then co-locate by
    PAIR bucket, where score = wedge count and any edge row kills the
    pair.  Per-bucket top-k prune means the final sort+limit sees
    O(k * n_buckets) rows, not the pair population."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def both_dirs(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].to_numpy(dtype=np.int64)
        n = t["nbr_id"].to_numpy(dtype=np.int64)
        c = np.concatenate([v, n])
        o = np.concatenate([n, v])
        return pd.DataFrame(
            {
                "cb": (c % nb).astype("int32"),
                "center": c,
                "nbr": o,
            }
        )

    def wedges(g: pd.DataFrame) -> pa.Table:
        out_x, out_y, out_f = [], [], []
        for c, sub in g.groupby("center"):
            nbrs = np.unique(sub["nbr"].to_numpy())
            m = len(nbrs)
            if m >= 2:  # wedge rows (is_edge=0): every neighbor pair
                ii, jj = np.triu_indices(m, 1)
                out_x.append(nbrs[ii])
                out_y.append(nbrs[jj])
                out_f.append(np.zeros(len(ii), dtype=np.int8))
            # canonical edge rows (is_edge=1) for the exclusion stream:
            # both orientations reach some center bucket, so each
            # undirected edge is emitted at least once as (min, max)
            e = nbrs[nbrs > c]
            if len(e):
                out_x.append(np.full(len(e), c, dtype=np.int64))
                out_y.append(e)
                out_f.append(np.ones(len(e), dtype=np.int8))
        if not out_x:
            return pa.table(
                {
                    "pb": pa.array([], pa.int32()),
                    "x": pa.array([], pa.int64()),
                    "y": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int8()),
                }
            )
        x = np.concatenate(out_x)
        y = np.concatenate(out_y)
        f = np.concatenate(out_f)
        pb = ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb).astype(
            np.int32
        )
        return pa.table(
            {
                "pb": pa.array(pb),
                "x": pa.array(x),
                "y": pa.array(y),
                "is_edge": pa.array(f),
            }
        )

    def pair_fold(g: pd.DataFrame) -> pa.Table:
        # score = wedge rows only; any edge row kills the pair.  Per-bucket
        # top-k under the same total order as the global sort is a lossless
        # prune: a global top-k pair is top-k within its bucket a fortiori.
        sc = g[g["is_edge"] == 0].groupby(["x", "y"]).size()
        ed = g[g["is_edge"] == 1][["x", "y"]].drop_duplicates()
        sc = sc.reset_index(name="score")
        merged = sc.merge(ed.assign(e=1), on=["x", "y"], how="left")
        live = merged[merged["e"].isna()].nlargest(
            k, ["score"], keep="all"
        ).sort_values(["score", "x", "y"], ascending=[False, True, True]).head(k)
        return pa.table(
            {
                "vec_a": pa.array(live["x"].to_numpy("int64")),
                "vec_b": pa.array(live["y"].to_numpy("int64")),
                "common_neighbors": pa.array(live["score"].to_numpy("int64")),
            }
        )

    return (
        knn_graph(sf_dir)
        .map_batches(both_dirs, batch_format="pandas")
        .groupby("cb")
        .map_groups(wedges, batch_format="pandas")
        .groupby("pb")
        .map_groups(pair_fold, batch_format="pandas")
        .sort(
            ["common_neighbors", "vec_a", "vec_b"],
            descending=[True, False, False],
        )
        .limit(k)
    )


COMMON_NEIGHBORS_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS (
  SELECT vec_id AS a, nbr_id AS b FROM g
  UNION
  SELECT nbr_id, vec_id FROM g
),
wedge AS (
  SELECT u1.b AS x, u2.b AS y
  FROM und u1 JOIN und u2 ON u1.a = u2.a AND u1.b < u2.b
),
cn AS (SELECT x, y, COUNT(*) AS score FROM wedge GROUP BY x, y)
SELECT cn.x AS vec_a, cn.y AS vec_b, CAST(cn.score AS BIGINT) AS common_neighbors
FROM cn LEFT JOIN und e ON cn.x = e.a AND cn.y = e.b
WHERE e.a IS NULL
ORDER BY common_neighbors DESC, vec_a, vec_b
LIMIT 20
"""


# -- k-core decomposition (coreness via the h-index fixed point) --------------

KCORE_ROUNDS = 8
#: initial h value: any upper bound on degree works — round 1 then yields
#: exactly the degree (min(rn, INF) = rn), so an explicit degree pass is
#: unnecessary and BOTH sides share one per-round formula.
_KCORE_INF = 1 << 40


def _hindex_fold_arrays(uu: np.ndarray, vals: np.ndarray):
    """(owner id, neighbor h) pairs → per-owner H-index, vectorized:
    sort (u asc, h desc), rank within group, max(min(rank, h))."""
    order = np.lexsort((-vals, uu))
    uu_s, vv_s = uu[order], vals[order]
    newg = np.concatenate(([True], uu_s[1:] != uu_s[:-1]))
    starts = np.flatnonzero(newg)
    rn = np.arange(len(uu_s), dtype=np.int64) - np.repeat(
        starts, np.diff(np.concatenate((starts, [len(uu_s)])))
    ) + 1
    m = np.minimum(rn, vv_s)
    return uu_s[newg], np.maximum.reduceat(m, starts)


def _kcore_numpy(
    nodes: np.ndarray, a: np.ndarray, b: np.ndarray, rounds: int
) -> np.ndarray:
    """Driver-escape h-index rounds over directed edges (a → b), shared
    with the planted-graph pytest: symmetrize + dedup, then ``rounds``
    vectorized h-index folds from the INF start."""
    u = np.concatenate((a, b))
    v = np.concatenate((b, a))
    span = int(nodes.max()) + 1  # packed dedup key (ids ≪ 2^31)
    key = np.unique(u * span + v)
    ui = np.searchsorted(nodes, key // span)
    vi = np.searchsorted(nodes, key % span)
    h = np.full(len(nodes), _KCORE_INF, dtype=np.int64)
    for _ in range(rounds):
        owners, hnew = _hindex_fold_arrays(ui, h[vi])
        nxt = np.zeros(len(nodes), dtype=np.int64)
        nxt[owners] = hnew
        h = nxt
    return h


def kcore_decompose(sf_dir: str, rounds: int = KCORE_ROUNDS) -> "object":
    """Coreness of every node in the (symmetrized) IVF k-NN graph — the
    density peel that separates a corpus's tightly-duplicated cores from
    its sparse fringe (dedup triage and community seeding both start
    here).  Uses the Lü-et-al h-index fixed point: starting from any
    upper bound, repeatedly set h(v) to the H-index of its neighbors'
    h values (the largest h with ≥h neighbors at ≥h); the sequence
    decreases monotonically to the exact coreness.  A FIXED ``rounds``
    unroll keeps the Ray path and the DuckDB oracle equal even before
    convergence (the label_propagation/bfs_hops contract) — the pytest
    additionally pins the fixed point itself against an exact
    single-process peel on a planted clique-plus-chain graph.

    Execution shape is ``label_propagation``'s: the symmetrized edge set
    is pinned ONCE in sharded ``num_cpus=0`` lookup actors (deduped at
    seal; both copies of an undirected pair hash to the same shard by
    source id), each round is one batched-RPC map over the h vector plus
    ONE bucketed vectorized h-index fold, and the graph never re-enters
    the shuffle.  Below ``PAGERANK_DRIVER_EDGE_BUDGET`` edges the same
    rounds run as numpy passes on the driver (equality-tested against the
    actor path).  Integer state end-to-end — bit-deterministic.

    Output: (vec_id, core) after ``rounds`` h-index rounds.
    Beyond-reference engine addition (SURVEY.md §2.8)."""
    import pandas as pd

    import pyarrow.parquet as pq

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)

    edges_ds = knn_graph(sf_dir)

    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        emb = (
            pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
            .to_pandas()
            .sort_values("vec_id")
        )
        nodes = emb["vec_id"].to_numpy(np.int64)
        h = _kcore_numpy(
            nodes,
            e["vec_id"].to_numpy(np.int64),
            e["nbr_id"].to_numpy(np.int64),
            rounds,
        )
        return pd.DataFrame({"vec_id": nodes, "core": h})

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class EdgeShard:
        """Owns undirected adjacency keyed by SOURCE id (w → its
        neighbors u) for w % n_shards == shard id; deduped at seal —
        both copies of an undirected pair share w, so per-shard dedup is
        global.  num_cpus=0: lookups only."""

        def __init__(self):
            self._parts: list[np.ndarray] = []
            self._v = self._u = None

        def add_batch(self, v: np.ndarray, u: np.ndarray) -> int:
            self._parts.append(
                v.astype(np.int64) * (1 << 32) + u.astype(np.int64)
            )
            return len(v)

        def seal(self) -> int:
            key = (
                np.unique(np.concatenate(self._parts))
                if self._parts
                else np.empty(0, dtype=np.int64)
            )
            self._v = key >> 32
            self._u = key & ((1 << 32) - 1)
            self._parts = None
            return len(self._v)

        def neighbor_h(self, ids: np.ndarray, hs: np.ndarray):
            """(owner u, h of source w) per undirected edge w—u."""
            lo = np.searchsorted(self._v, ids, side="left")
            hi = np.searchsorted(self._v, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            idx = starts + np.arange(total)
            return (self._u[idx], np.repeat(hs, cnt))

    shards = [EdgeShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        a = t["vec_id"].to_numpy(dtype=np.int64)
        b = t["nbr_id"].to_numpy(dtype=np.int64)
        v = np.concatenate((a, b))   # lookup source (h owner)
        u = np.concatenate((b, a))   # edge owner receiving the value
        sh = v % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(v[sh == s], u[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    state = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
    ).map_batches(
        lambda t: pd.DataFrame(
            {
                "vec_id": t["vec_id"].astype("int64"),
                "h": np.full(len(t), _KCORE_INF, dtype=np.int64),
            }
        ),
        batch_format="pandas",
    )

    def emit(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["vec_id"].to_numpy(dtype=np.int64)
        hs = t["h"].to_numpy(dtype=np.int64)
        frames = [
            pd.DataFrame(
                {
                    "b": (ids % nb).astype(np.int32),
                    "vec_id": ids,
                    "h": hs,
                    "kind": np.repeat(np.int8(0), len(ids)),  # carry
                }
            )
        ]
        sh = ids % n_shards
        refs = [
            shards[s].neighbor_h.remote(ids[sh == s], hs[sh == s])
            for s in np.unique(sh)
        ]
        for u, hv in ray.get(refs):
            if len(u):
                frames.append(
                    pd.DataFrame(
                        {
                            "b": (u % nb).astype(np.int32),
                            "vec_id": u,
                            "h": hv,
                            "kind": np.repeat(np.int8(1), len(u)),  # value
                        }
                    )
                )
        return pd.concat(frames, ignore_index=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # h-index body inlined (not a call to _hindex_fold_arrays): a
        # module-level helper referenced from this closure pickles BY
        # REFERENCE and re-imports graph.py on the worker, tripping the
        # graph<->similarity facade cycle (the run_pack fault-injection
        # lesson generalized to library closures).
        carry = g[g["kind"] == 0]
        votes = g[g["kind"] == 1]
        ids = carry["vec_id"].to_numpy(dtype=np.int64)
        if len(votes):
            uu = votes["vec_id"].to_numpy(dtype=np.int64)
            vals = votes["h"].to_numpy(dtype=np.int64)
            order = np.lexsort((-vals, uu))
            uu_s, vv_s = uu[order], vals[order]
            newg = np.concatenate(([True], uu_s[1:] != uu_s[:-1]))
            starts = np.flatnonzero(newg)
            rn = np.arange(len(uu_s), dtype=np.int64) - np.repeat(
                starts, np.diff(np.concatenate((starts, [len(uu_s)])))
            ) + 1
            owners = uu_s[newg]
            hnew = np.maximum.reduceat(np.minimum(rn, vv_s), starts)
            vals = (
                pd.Series(hnew, index=owners)
                .reindex(ids)
                .fillna(0)
                .to_numpy(dtype=np.int64)
            )
        else:
            vals = np.zeros(len(ids), dtype=np.int64)
        return pd.DataFrame({"vec_id": ids, "h": vals})

    for _ in range(rounds):
        state = (
            state.map_batches(emit, batch_format="pandas")
            .groupby("b")
            .map_groups(fold, batch_format="pandas")
        )

    out = state.to_pandas()
    return (
        out.rename(columns={"h": "core"})
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype({"vec_id": "int64", "core": "int64"})
    )


def _kcore_sql(rounds: int = KCORE_ROUNDS) -> str:
    prev = "h0"
    steps = []
    for i in range(1, rounds + 1):
        steps.append(f"""h{i} AS MATERIALIZED (
  SELECT n.vec_id, COALESCE(t.h, 0) AS h
  FROM nodes n LEFT JOIN (
    SELECT u AS vec_id, MAX(LEAST(rn, hh)) AS h FROM (
      SELECT e.u, p.h AS hh,
             ROW_NUMBER() OVER (PARTITION BY e.u ORDER BY p.h DESC, e.v)
               AS rn
      FROM und e JOIN {prev} p ON p.vec_id = e.v) s
    GROUP BY u) t ON t.vec_id = n.vec_id
)""")
        prev = f"h{i}"
    joined = ",\n".join(steps)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS (
  SELECT vec_id AS u, nbr_id AS v FROM knn
  UNION
  SELECT nbr_id, vec_id FROM knn
),
nodes AS (SELECT vec_id FROM embeddings),
h0 AS (SELECT vec_id, CAST({_KCORE_INF} AS BIGINT) AS h FROM embeddings),
{joined}
SELECT vec_id, CAST(h AS BIGINT) AS core FROM {prev} ORDER BY vec_id"""


KCORE_SQL = _kcore_sql()


# -- resource-allocation link prediction (fixed-point) -------------------------

def resource_allocation_topk(sf_dir: str, k: int = 20) -> Dataset:
    """Link prediction by the resource-allocation index (Zhou, Lü &
    Zhang, EPJ B 2009) over the undirected memoized k-NN graph — the
    degree-penalized refinement of ``common_neighbors_topk``: a shared
    neighbor z contributes 1/deg(z), so hub wedges count less.  Kept
    deterministic/hash-exact by scoring in fixed micro-units,
    ``w(z) = 10⁶ // deg(z)`` (floored integer division on both sides —
    documented next to the oracle, which applies the identical floor).

    Same two-exchange wedge shape as common-neighbors: the center bucket
    sees each node's whole neighbor list, so deg(z) is LOCAL to the wedge
    kernel (len of the unique neighbor list — no extra degree pass or
    join); wedges carry their weight to the pair bucket, where the sum,
    the edge kill and the lossless per-bucket top-k prune happen.  Output:
    (vec_a, vec_b, ra_score_mu), global top-k (score DESC, pair ASC)."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def both_dirs(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].to_numpy(dtype=np.int64)
        n = t["nbr_id"].to_numpy(dtype=np.int64)
        c = np.concatenate([v, n])
        o = np.concatenate([n, v])
        return pd.DataFrame(
            {"cb": (c % nb).astype("int32"), "center": c, "nbr": o}
        )

    def wedges(g: pd.DataFrame) -> pa.Table:
        out_x, out_y, out_w, out_f = [], [], [], []
        for c, sub in g.groupby("center"):
            nbrs = np.unique(sub["nbr"].to_numpy())
            m = len(nbrs)
            if m >= 2:
                ii, jj = np.triu_indices(m, 1)
                out_x.append(nbrs[ii])
                out_y.append(nbrs[jj])
                out_w.append(
                    np.full(len(ii), 1_000_000 // m, dtype=np.int64)
                )
                out_f.append(np.zeros(len(ii), dtype=np.int8))
            e = nbrs[nbrs > c]
            if len(e):
                out_x.append(np.full(len(e), c, dtype=np.int64))
                out_y.append(e)
                out_w.append(np.zeros(len(e), dtype=np.int64))
                out_f.append(np.ones(len(e), dtype=np.int8))
        if not out_x:
            return pa.table(
                {
                    "pb": pa.array([], pa.int32()),
                    "x": pa.array([], pa.int64()),
                    "y": pa.array([], pa.int64()),
                    "w": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int8()),
                }
            )
        x = np.concatenate(out_x)
        y = np.concatenate(out_y)
        w = np.concatenate(out_w)
        f = np.concatenate(out_f)
        pb = ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb).astype(
            np.int32
        )
        return pa.table(
            {
                "pb": pa.array(pb),
                "x": pa.array(x),
                "y": pa.array(y),
                "w": pa.array(w),
                "is_edge": pa.array(f),
            }
        )

    def pair_fold(g: pd.DataFrame) -> pa.Table:
        sc = (
            g[g["is_edge"] == 0]
            .groupby(["x", "y"])["w"]
            .sum()
            .reset_index(name="score")
        )
        ed = g[g["is_edge"] == 1][["x", "y"]].drop_duplicates()
        merged = sc.merge(ed.assign(e=1), on=["x", "y"], how="left")
        live = (
            merged[merged["e"].isna()]
            .nlargest(k, ["score"], keep="all")
            .sort_values(["score", "x", "y"], ascending=[False, True, True])
            .head(k)
        )
        return pa.table(
            {
                "vec_a": pa.array(live["x"].to_numpy("int64")),
                "vec_b": pa.array(live["y"].to_numpy("int64")),
                "ra_score_mu": pa.array(live["score"].to_numpy("int64")),
            }
        )

    return (
        knn_graph(sf_dir)
        .map_batches(both_dirs, batch_format="pandas")
        .groupby("cb")
        .map_groups(wedges, batch_format="pandas")
        .groupby("pb")
        .map_groups(pair_fold, batch_format="pandas")
        .sort(
            ["ra_score_mu", "vec_a", "vec_b"],
            descending=[True, False, False],
        )
        .limit(k)
    )


RESOURCE_ALLOCATION_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS (
  SELECT vec_id AS a, nbr_id AS b FROM g
  UNION
  SELECT nbr_id, vec_id FROM g
),
deg AS (SELECT a, COUNT(*) AS d FROM und GROUP BY a),
wedge AS (
  SELECT u1.b AS x, u2.b AS y, dg.d AS d
  FROM und u1
  JOIN und u2 ON u1.a = u2.a AND u1.b < u2.b
  JOIN deg dg ON dg.a = u1.a
),
ra AS (SELECT x, y, SUM(1000000 // d) AS score FROM wedge GROUP BY x, y)
SELECT ra.x AS vec_a, ra.y AS vec_b, CAST(ra.score AS BIGINT) AS ra_score_mu
FROM ra LEFT JOIN und e ON ra.x = e.a AND ra.y = e.b
WHERE e.a IS NULL
ORDER BY ra_score_mu DESC, vec_a, vec_b
LIMIT 20
"""


# -- neighborhood-Jaccard link prediction --------------------------------------

def neighbor_jaccard_topk(sf_dir: str, k: int = 20) -> Dataset:
    """Link prediction by neighborhood Jaccard over the undirected memoized
    IVF k-NN graph: for every NON-adjacent pair,
    J = |N(a)∩N(b)| / |N(a)∪N(b)| — the degree-normalized cousin of
    ``common_neighbors_topk`` (high-degree hubs stop dominating).  Emitted
    as the exact ppm floor ``jac_ppm = 1e6·inter // (deg_a + deg_b −
    inter)``; global top-``k`` by (jac_ppm DESC, pair ASC).

    Shape: the wedge stages are shared with common-neighbors (center-bucket
    co-location → vectorized triu wedges → pair-bucket fold).  Degrees are
    a NODE-proportional table (one row per vector), folded distributed and
    shipped ONCE via ``ray.put`` into the pair fold — fine to
    ``MAX_BROADCAST_DIM_ROWS``; past it the degree attach becomes two more
    pair-keyed co-locations (x then y), same answer.  The per-bucket
    top-k prune is lossless under the same (jac_ppm, x, y) total order as
    the final sort."""
    import pandas as pd

    import pyarrow.parquet as pq

    import ray as _ray

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def both_dirs(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].to_numpy(dtype=np.int64)
        n = t["nbr_id"].to_numpy(dtype=np.int64)
        c = np.concatenate([v, n])
        o = np.concatenate([n, v])
        return pd.DataFrame(
            {"cb": (c % nb).astype("int32"), "center": c, "nbr": o}
        )

    keyed = knn_graph(sf_dir).map_batches(both_dirs, batch_format="pandas")

    def degs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["center", "nbr"]).groupby(
            "center", as_index=False
        ).size()
        return pd.DataFrame(
            {"node": d["center"].to_numpy("int64"),
             "deg": d["size"].to_numpy("int64")}
        )

    deg_df = (
        keyed.groupby("cb").map_groups(degs, batch_format="pandas")
        .to_pandas()  # O(nodes) — one int row per vector
    )
    deg_ref = _ray.put(
        dict(zip(deg_df["node"].tolist(), deg_df["deg"].tolist()))
    )

    def wedges(g: pd.DataFrame) -> pa.Table:
        out_x, out_y, out_f = [], [], []
        for c, sub in g.groupby("center"):
            nbrs = np.unique(sub["nbr"].to_numpy())
            m = len(nbrs)
            if m >= 2:
                ii, jj = np.triu_indices(m, 1)
                out_x.append(nbrs[ii])
                out_y.append(nbrs[jj])
                out_f.append(np.zeros(len(ii), dtype=np.int8))
            e = nbrs[nbrs > c]
            if len(e):
                out_x.append(np.full(len(e), c, dtype=np.int64))
                out_y.append(e)
                out_f.append(np.ones(len(e), dtype=np.int8))
        if not out_x:
            return pa.table(
                {
                    "pb": pa.array([], pa.int32()),
                    "x": pa.array([], pa.int64()),
                    "y": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int8()),
                }
            )
        x = np.concatenate(out_x)
        y = np.concatenate(out_y)
        f = np.concatenate(out_f)
        pb = ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb).astype(
            np.int32
        )
        return pa.table(
            {
                "pb": pa.array(pb),
                "x": pa.array(x),
                "y": pa.array(y),
                "is_edge": pa.array(f),
            }
        )

    def pair_fold(g: pd.DataFrame) -> pa.Table:
        deg = _ray.get(deg_ref)
        sc = g[g["is_edge"] == 0].groupby(["x", "y"]).size()
        ed = g[g["is_edge"] == 1][["x", "y"]].drop_duplicates()
        sc = sc.reset_index(name="inter")
        merged = sc.merge(ed.assign(e=1), on=["x", "y"], how="left")
        live = merged[merged["e"].isna()].copy()
        if len(live) == 0:
            return pa.table(
                {
                    "vec_a": pa.array([], pa.int64()),
                    "vec_b": pa.array([], pa.int64()),
                    "jac_ppm": pa.array([], pa.int64()),
                }
            )
        inter = live["inter"].to_numpy("int64")
        dx = live["x"].map(deg).to_numpy("int64")
        dy = live["y"].map(deg).to_numpy("int64")
        live["jac_ppm"] = 10**6 * inter // (dx + dy - inter)
        live = live.sort_values(
            ["jac_ppm", "x", "y"], ascending=[False, True, True]
        ).head(k)
        return pa.table(
            {
                "vec_a": pa.array(live["x"].to_numpy("int64")),
                "vec_b": pa.array(live["y"].to_numpy("int64")),
                "jac_ppm": pa.array(live["jac_ppm"].to_numpy("int64")),
            }
        )

    return (
        keyed.groupby("cb")
        .map_groups(wedges, batch_format="pandas")
        .groupby("pb")
        .map_groups(pair_fold, batch_format="pandas")
        .sort(["jac_ppm", "vec_a", "vec_b"], descending=[True, False, False])
        .limit(k)
    )


NEIGHBOR_JACCARD_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS (
  SELECT vec_id AS a, nbr_id AS b FROM g
  UNION
  SELECT nbr_id, vec_id FROM g
),
deg AS (SELECT a, COUNT(*) AS d FROM und GROUP BY a),
wedge AS (
  SELECT u1.b AS x, u2.b AS y
  FROM und u1 JOIN und u2 ON u1.a = u2.a AND u1.b < u2.b
),
cn AS (SELECT x, y, COUNT(*) AS inter FROM wedge GROUP BY x, y),
live AS (
  SELECT cn.x, cn.y, cn.inter, da.d AS dx, db.d AS dy
  FROM cn
  JOIN deg da ON da.a = cn.x
  JOIN deg db ON db.a = cn.y
  LEFT JOIN und e ON cn.x = e.a AND cn.y = e.b
  WHERE e.a IS NULL
)
SELECT x AS vec_a, y AS vec_b,
       CAST(1000000 * inter // (dx + dy - inter) AS BIGINT) AS jac_ppm
FROM live
ORDER BY jac_ppm DESC, vec_a, vec_b
LIMIT 20
"""


# -- local clustering coefficient ----------------------------------------------

def clustering_coeff_topk(sf_dir: str, k: int = 20) -> Dataset:
    """Local clustering coefficient per node over the undirected memoized
    IVF k-NN graph (Watts-Strogatz 1998): cc(v) = 2·tri(v) / (deg(v)·
    (deg(v)−1)) — how close each node's neighborhood is to a clique; the
    per-node refinement of ``triangle_count``.  Emitted as the exact ppm
    floor, global top-``k`` by (cc_ppm DESC, node ASC), deg ≥ 2 only.

    Distributed shape: the center-bucket wedge stage (shared with
    common-neighbors / triangle counting) emits wedge rows CARRYING their
    center plus canonical edge rows into a pair-bucket co-location; each
    pair bucket credits every wedge whose endpoints are adjacent back to
    its center (a triangle partial).  Those (node, tri) partials union
    with the center stage's (node, deg) rows into ONE node-bucket fold
    that computes cc — three bounded exchanges, wedge volume Σdeg², never
    all-pairs, no driver state beyond the final k rows."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def both_dirs(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].to_numpy(dtype=np.int64)
        n = t["nbr_id"].to_numpy(dtype=np.int64)
        c = np.concatenate([v, n])
        o = np.concatenate([n, v])
        return pd.DataFrame(
            {"cb": (c % nb).astype("int32"), "center": c, "nbr": o}
        )

    keyed = knn_graph(sf_dir).map_batches(both_dirs, batch_format="pandas")

    _EMPTY_W = pa.table(
        {
            "pb": pa.array([], pa.int32()),
            "x": pa.array([], pa.int64()),
            "y": pa.array([], pa.int64()),
            "c": pa.array([], pa.int64()),
            "is_edge": pa.array([], pa.int8()),
        }
    )

    def wedges(g: pd.DataFrame) -> pa.Table:
        out_x, out_y, out_c, out_f = [], [], [], []
        for c, sub in g.groupby("center"):
            nbrs = np.unique(sub["nbr"].to_numpy())
            m = len(nbrs)
            if m >= 2:
                ii, jj = np.triu_indices(m, 1)
                out_x.append(nbrs[ii])
                out_y.append(nbrs[jj])
                out_c.append(np.full(len(ii), c, dtype=np.int64))
                out_f.append(np.zeros(len(ii), dtype=np.int8))
            e = nbrs[nbrs > c]
            if len(e):
                out_x.append(np.full(len(e), c, dtype=np.int64))
                out_y.append(e)
                out_c.append(np.full(len(e), -1, dtype=np.int64))
                out_f.append(np.ones(len(e), dtype=np.int8))
        if not out_x:
            return _EMPTY_W
        x = np.concatenate(out_x)
        y = np.concatenate(out_y)
        pb = ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb).astype(
            np.int32
        )
        return pa.table(
            {
                "pb": pa.array(pb),
                "x": pa.array(x),
                "y": pa.array(y),
                "c": pa.array(np.concatenate(out_c)),
                "is_edge": pa.array(np.concatenate(out_f)),
            }
        )

    def degs(g: pd.DataFrame) -> pa.Table:
        d = g.drop_duplicates(["center", "nbr"]).groupby(
            "center", as_index=False
        ).size()
        node = d["center"].to_numpy("int64")
        return pa.table(
            {
                "kb": pa.array((node % nb).astype("int32")),
                "node": pa.array(node),
                "t": pa.array(np.zeros(len(node), dtype=np.int64)),
                "deg": pa.array(d["size"].to_numpy("int64")),
            }
        )

    _EMPTY_T = pa.table(
        {
            "kb": pa.array([], pa.int32()),
            "node": pa.array([], pa.int64()),
            "t": pa.array([], pa.int64()),
            "deg": pa.array([], pa.int64()),
        }
    )

    def tri_partials(g: pd.DataFrame) -> pa.Table:
        w = g[g["is_edge"] == 0]
        ed = g[g["is_edge"] == 1][["x", "y"]].drop_duplicates()
        hit = w.merge(ed.assign(e=1), on=["x", "y"], how="inner")
        if len(hit) == 0:
            return _EMPTY_T
        t = hit.groupby("c", as_index=False).size()
        node = t["c"].to_numpy("int64")
        return pa.table(
            {
                "kb": pa.array((node % nb).astype("int32")),
                "node": pa.array(node),
                "t": pa.array(t["size"].to_numpy("int64")),
                "deg": pa.array(np.zeros(len(node), dtype=np.int64)),
            }
        )

    tri = (
        keyed.groupby("cb")
        .map_groups(wedges, batch_format="pandas")
        .groupby("pb")
        .map_groups(tri_partials, batch_format="pandas")
    )
    degd = keyed.groupby("cb").map_groups(degs, batch_format="pandas")

    def cc_fold(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("node", as_index=False).agg(
            t=("t", "sum"), deg=("deg", "max")
        )
        agg = agg[agg["deg"] >= 2].copy()
        if len(agg) == 0:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "triangles": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                    "cc_ppm": pa.array([], pa.int64()),
                }
            )
        t = agg["t"].to_numpy("int64")
        d = agg["deg"].to_numpy("int64")
        agg["cc_ppm"] = 10**6 * 2 * t // (d * (d - 1))
        # lossless per-bucket prune under the final total order
        agg = agg.sort_values(
            ["cc_ppm", "node"], ascending=[False, True]
        ).head(k)
        return pa.table(
            {
                "node": pa.array(agg["node"].to_numpy("int64")),
                "triangles": pa.array(agg["t"].to_numpy("int64")),
                "deg": pa.array(agg["deg"].to_numpy("int64")),
                "cc_ppm": pa.array(agg["cc_ppm"].to_numpy("int64")),
            }
        )

    return (
        tri.union(degd)
        .groupby("kb")
        .map_groups(cc_fold, batch_format="pandas")
        .sort(["cc_ppm", "node"], descending=[True, False])
        .limit(k)
    )


CLUSTERING_COEFF_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS (
  SELECT vec_id AS a, nbr_id AS b FROM g
  UNION
  SELECT nbr_id, vec_id FROM g
),
deg AS (SELECT a, COUNT(*) AS d FROM und GROUP BY a),
wedge AS (
  SELECT u1.a AS c, u1.b AS x, u2.b AS y
  FROM und u1 JOIN und u2 ON u1.a = u2.a AND u1.b < u2.b
),
tri AS (
  SELECT w.c, COUNT(*) AS t
  FROM wedge w JOIN und e ON e.a = w.x AND e.b = w.y
  GROUP BY w.c
)
SELECT deg.a AS node,
       CAST(COALESCE(tri.t, 0) AS BIGINT) AS triangles,
       CAST(deg.d AS BIGINT) AS deg,
       CAST(1000000 * 2 * COALESCE(tri.t, 0) // (deg.d * (deg.d - 1))
            AS BIGINT) AS cc_ppm
FROM deg LEFT JOIN tri ON tri.c = deg.a
WHERE deg.d >= 2
ORDER BY cc_ppm DESC, node
LIMIT 20
"""


# -- Weisfeiler-Lehman color refinement ----------------------------------------

#: WL refinement rounds: round 1 already separates degree classes; two
#: rounds distinguish 1-hop neighborhood multisets — the standard WL graph
#: fingerprint depth for near-dup graph detection.
WL_ROUNDS = 2


def wl_colors(sf_dir: str, k: int = 30) -> "object":
    """Weisfeiler-Lehman color refinement over the undirected memoized IVF
    k-NN graph (the 1-WL test / WL graph-kernel fingerprint, Shervashidze
    et al., JMLR 2011): color⁰(v) = deg(v); each round rehashes every node
    as md5₆₀(own color ‖ ':' ‖ sorted neighbor colors).  After
    ``WL_ROUNDS`` rounds the color histogram IS the graph's WL fingerprint
    — two graphs with different histograms are provably non-isomorphic.
    Output: the top-``k`` (color, n_nodes) classes (count DESC, color ASC).

    Shape: per round, ONE owner-bucket co-location ships each node's
    neighbor colors to its bucket; the node→color map (one int64 per node)
    is broadcast via ``ray.put`` under the same node-proportional guard as
    ``neighbor_jaccard_topk`` (past ``MAX_BROADCAST_DIM_ROWS`` the attach
    becomes a second keyed co-location, same answer).  Hashing is the
    md5→UBIGINT≫4 convention shared with KMV, so the oracle replays every
    round bit-for-bit."""
    import hashlib

    import pandas as pd

    import pyarrow.parquet as pq

    import ray as _ray

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)

    def both_dirs(t: pd.DataFrame) -> pd.DataFrame:
        v = t["vec_id"].to_numpy(dtype=np.int64)
        n = t["nbr_id"].to_numpy(dtype=np.int64)
        c = np.concatenate([v, n])
        o = np.concatenate([n, v])
        df = pd.DataFrame({"owner": c, "nbr": o}).drop_duplicates()
        df["ob"] = (df["owner"] % nb).astype("int32")
        return df

    edges = (
        knn_graph(sf_dir)
        .map_batches(both_dirs, batch_format="pandas")
        .materialize()  # O(edges); reused every WL round
    )

    # color 0 = degree (one bucket fold; O(nodes) driver rows — the same
    # bounded-node-table assumption as the degree broadcast)
    def deg_fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["owner", "nbr"]).groupby(
            "owner", as_index=False
        ).size()
        return pd.DataFrame(
            {"node": d["owner"].to_numpy("int64"),
             "color": d["size"].to_numpy("int64")}
        )

    colors = (
        edges.groupby("ob").map_groups(deg_fold, batch_format="pandas")
        .to_pandas()
    )

    for _ in range(WL_ROUNDS):
        cmap_ref = _ray.put(
            dict(zip(colors["node"].tolist(), colors["color"].tolist()))
        )

        def refine(g: pd.DataFrame) -> pd.DataFrame:
            cmap = _ray.get(cmap_ref)
            out_n, out_c = [], []
            nc = g["nbr"].map(cmap)
            for owner, sub in g.assign(nc=nc).groupby("owner"):
                sig = (
                    str(cmap[owner])
                    + ":"
                    + ",".join(str(c) for c in sorted(sub["nc"].tolist()))
                )
                h = (
                    int.from_bytes(
                        hashlib.md5(sig.encode()).digest()[:8], "big"
                    )
                    >> 4
                )
                out_n.append(owner)
                out_c.append(h)
            return pd.DataFrame(
                {"node": np.array(out_n, dtype=np.int64),
                 "color": np.array(out_c, dtype=np.int64)}
            )

        colors = (
            edges.groupby("ob").map_groups(refine, batch_format="pandas")
            .to_pandas()
        )

    hist = (
        colors.groupby("color", as_index=False).size()
        .rename(columns={"size": "n_nodes"})
        .sort_values(["n_nodes", "color"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    return hist.astype({"color": "int64", "n_nodes": "int64"})


_WL_HASH = (
    "CAST(concat('0x', substr(md5({sig}), 1, 16)) AS UBIGINT) >> 4"
)


def _wl_sql() -> str:
    rounds = []
    prev = "c0"
    for r in range(1, WL_ROUNDS + 1):
        sig = (
            f"CONCAT(CAST(ca.color AS VARCHAR), ':', "
            f"STRING_AGG(CAST(cb.color AS VARCHAR), ',' ORDER BY cb.color))"
        )
        rounds.append(
            f"c{r} AS (\n"
            f"  SELECT u.a AS node,\n"
            f"         CAST({_WL_HASH.format(sig=sig)} AS BIGINT) AS color\n"
            f"  FROM und u\n"
            f"  JOIN {prev} ca ON ca.node = u.a\n"
            f"  JOIN {prev} cb ON cb.node = u.b\n"
            f"  GROUP BY u.a, ca.color\n"
            f")"
        )
        prev = f"c{r}"
    chain = ",\n".join(rounds)
    return f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS (
  SELECT vec_id AS a, nbr_id AS b FROM g
  UNION
  SELECT nbr_id, vec_id FROM g
),
c0 AS (SELECT a AS node, CAST(COUNT(*) AS BIGINT) AS color FROM und GROUP BY a),
{chain}
SELECT color, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM {prev}
GROUP BY color
ORDER BY n_nodes DESC, color
LIMIT 30
"""


WL_COLORS_SQL = _wl_sql()


# -- HyperBall neighborhood function over the k-NN graph ---------------------

#: register kernels + constants live in _hbcore (dependency-free so worker
#: closures that reference them unpickle without re-entering the
#: similarity<->graph import cycle)
from ._hbcore import (  # noqa: E402
    HB_ALPHA_MM_SCALED,
    HB_LINCOUNT,
    HB_M,
    HB_P,
    HB_RANK_BITS,
    HB_SCALE,
    hb_estimates as _hb_estimates,
    hb_seed as _hb_seed,
)

HB_ROUNDS = 3


def hyperball_nf(sf_dir: str, rounds: int = HB_ROUNDS) -> "object":
    """HyperBall (Boldi-Vigna, "HyperANF: approximating the neighbourhood
    function of very large graphs on a budget", WWW 2011): the neighbourhood
    function N(r) = sum over nodes of |ball(v, r)| along directed k-NN
    out-edges, each ball tracked as a 64-register HLL counter — the sketch
    that made graph distance profiles computable on billion-node graphs.

    Execution = the pagerank_knn shape: registers are elementwise-max
    mergeable, so round t is ONE bucketed co-location of (owner, regs)
    rows — every node ships its 64-byte plane to its in-neighbors via the
    pinned reversed-edge shards (num_cpus=0 actors, graph never re-enters
    the shuffle) and the bucket kernel reduces with np.maximum.reduceat.
    N(r) after each round is a node-proportional partial-sum fold.  Under
    the shared edge budget the rounds run as driver numpy scatter-max
    passes with identical semantics (equality-tested).

    The estimate is hash-exact vs the SQL oracle: md5 register planes,
    exact-integer denominators, floor(e+.5) rounding and a pre-rounded
    linear-counting table (HYPERBALL_NF_SQL replays all of it verbatim).
    Output: one row per round 0..rounds, (round, nf_est)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ._util import n_buckets

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        nodes = np.sort(
            pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])[
                "vec_id"
            ].to_numpy().astype(np.int64)
        )
        ui = np.searchsorted(nodes, e["vec_id"].to_numpy(np.int64))
        vi = np.searchsorted(nodes, e["nbr_id"].to_numpy(np.int64))
        cur = _hb_seed(nodes)
        nf = [(0, int(_hb_estimates(cur).sum()))]
        for r in range(1, rounds + 1):
            new = cur.copy()
            np.maximum.at(new, ui, cur[vi])  # src ball absorbs dst ball
            cur = new
            nf.append((r, int(_hb_estimates(cur).sum())))
        return pd.DataFrame(nf, columns=["round", "nf_est"]).astype("int64")

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class RevShard:
        """Edges keyed by DST (dst % n_shards == shard id), dst-sorted:
        in_neighbors(u) answers "who absorbs u's ball" in one slice gather."""

        def __init__(self):
            self._dst_parts: list[np.ndarray] = []
            self._src_parts: list[np.ndarray] = []
            self._dst = self._src = None

        def add_batch(self, dst: np.ndarray, src: np.ndarray) -> int:
            self._dst_parts.append(dst)
            self._src_parts.append(src)
            return len(dst)

        def seal(self) -> int:
            if self._dst_parts:
                dst = np.concatenate(self._dst_parts)
                src = np.concatenate(self._src_parts)
            else:
                dst = src = np.empty(0, dtype=np.int64)
            order = np.argsort(dst, kind="stable")
            self._dst, self._src = dst[order], src[order]
            self._dst_parts = self._src_parts = None
            return len(self._dst)

        def in_neighbors(self, ids: np.ndarray):
            """(counts aligned with ids, flat src array grouped by id)."""
            lo = np.searchsorted(self._dst, ids, side="left")
            hi = np.searchsorted(self._dst, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return cnt, np.empty(0, dtype=np.int64)
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            return cnt, self._src[starts + np.arange(total)]

    shards = [RevShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        sh = dst % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(dst[sh == s], src[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def seed_rows(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["vec_id"].to_numpy(dtype=np.int64)
        regs = _hb_seed(ids)
        return pd.DataFrame(
            {"a": ids, "regs": [row.tobytes() for row in regs]}
        )

    state = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(seed_rows, batch_format="pandas")
        .materialize()
    )

    def nf_partials(t: pd.DataFrame) -> pd.DataFrame:
        regs = np.frombuffer(
            b"".join(t["regs"]), dtype=np.uint8
        ).reshape(-1, HB_M)
        return pd.DataFrame(
            {"part": pd.Series([int(_hb_estimates(regs).sum())], dtype="int64")}
        )

    def nf_of(ds_state) -> int:
        return int(
            ds_state.map_batches(nf_partials, batch_format="pandas").sum("part")
        )

    nf = [(0, nf_of(state))]

    def step_rows(t: pd.DataFrame) -> pd.DataFrame:
        """Self rows keep every node's current plane; candidate rows ship
        this batch's planes to their in-neighbors (one batched RPC per
        touched shard — O(edge out-degree) rows, 64 B each)."""
        ids = t["a"].to_numpy(dtype=np.int64)
        regs = np.frombuffer(b"".join(t["regs"]), dtype=np.uint8).reshape(
            -1, HB_M
        )
        frames = [
            pd.DataFrame(
                {
                    "db": (ids % nb).astype(np.int32),
                    "a": ids,
                    "regs": [row.tobytes() for row in regs],
                }
            )
        ]
        sh = ids % n_shards
        pending = []
        for s in np.unique(sh):
            m = sh == s
            pending.append((m, shards[s].in_neighbors.remote(ids[m])))
        for m, ref in pending:
            cnt, srcs = ray.get(ref)
            if len(srcs):
                shipped = np.repeat(regs[m], cnt, axis=0)
                frames.append(
                    pd.DataFrame(
                        {
                            "db": (srcs % nb).astype(np.int32),
                            "a": srcs,
                            "regs": [row.tobytes() for row in shipped],
                        }
                    )
                )
        return pd.concat(frames, ignore_index=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        arr = np.frombuffer(b"".join(g["regs"]), dtype=np.uint8).reshape(
            -1, HB_M
        )
        a = g["a"].to_numpy(dtype=np.int64)
        order = np.argsort(a, kind="stable")
        a_s, arr_s = a[order], arr[order]
        starts = np.flatnonzero(
            np.concatenate(([True], a_s[1:] != a_s[:-1]))
        )
        merged = np.maximum.reduceat(arr_s, starts, axis=0)
        return pd.DataFrame(
            {
                "a": a_s[starts],
                "regs": [row.tobytes() for row in merged],
            }
        )

    for _ in range(rounds):
        state = (
            state.map_batches(step_rows, batch_format="pandas")
            .groupby("db")
            .map_groups(fold, batch_format="pandas")
            .map_batches(
                lambda t: t[["a", "regs"]], batch_format="pandas"
            )
            .materialize()
        )
        nf.append((len(nf), nf_of(state)))
    out = pd.DataFrame(nf, columns=["round", "nf_est"]).astype("int64")
    out["round"] = np.arange(len(out), dtype=np.int64)
    return out


def _hyperball_sql(rounds: int = HB_ROUNDS) -> str:
    """DuckDB replay of the full HyperBall run: md5 register seeds, per-round
    sparse elementwise-max CTEs (self UNION ALL in-shipped planes, GROUP BY
    max), exact HUGEINT denominators, the same embedded alpha*m*m*2^59
    double, pre-rounded linear-counting CASE and floor(e+.5)."""
    lincase = " ".join(
        f"WHEN {z} THEN {v}" for z, v in HB_LINCOUNT.items()
    )
    regs_steps = []
    for t in range(1, rounds + 1):
        regs_steps.append(f"""regs{t} AS MATERIALIZED (
  SELECT vec_id, reg, MAX(rank) AS rank FROM (
    SELECT vec_id, reg, rank FROM regs{t - 1}
    UNION ALL
    SELECT e.src AS vec_id, r.reg, r.rank
    FROM e JOIN regs{t - 1} r ON r.vec_id = e.dst
  ) GROUP BY vec_id, reg
)""")
    per_round = []
    for t in range(0, rounds + 1):
        per_round.append(f"""
  SELECT {t} AS round, CAST(SUM(est) AS BIGINT) AS nf_est FROM (
    SELECT CASE WHEN e <= {2.5 * HB_M!r} AND zeros > 0
                THEN CASE zeros {lincase} END
                ELSE CAST(floor(e + 0.5) AS BIGINT) END AS est
    FROM (
      SELECT {HB_ALPHA_MM_SCALED!r} / CAST(
               s + CAST(zeros AS HUGEINT) * {1 << HB_SCALE} AS DOUBLE
             ) AS e, zeros
      FROM (
        SELECT vec_id,
               SUM(CAST(CAST(1 AS BIGINT) << ({HB_SCALE} - rank) AS HUGEINT)) AS s,
               {HB_M} - COUNT(*) AS zeros
        FROM regs{t} GROUP BY vec_id
      )
    )
  )""")
    unioned = "\n  UNION ALL".join(per_round)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
e AS MATERIALIZED (SELECT vec_id AS src, nbr_id AS dst FROM knn),
h AS (
  SELECT vec_id,
         CAST(concat('0x', substr(md5(CAST(vec_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS hv
  FROM embeddings
),
regs0 AS MATERIALIZED (
  SELECT vec_id, CAST(hv & {HB_M - 1} AS INTEGER) AS reg,
         CAST(CASE WHEN (hv >> {HB_P}) = 0 THEN {HB_RANK_BITS + 1}
                   ELSE {HB_RANK_BITS} - length(bin(hv >> {HB_P})) + 1
              END AS INTEGER) AS rank
  FROM h
),
{",".join(regs_steps)}
SELECT round, nf_est FROM ({unioned}) ORDER BY round
"""


HYPERBALL_NF_SQL = _hyperball_sql()


# -- HITS hubs & authorities over the k-NN graph ------------------------------

HITS_MASS = 10 ** 12
HITS_ROUNDS = 3


def hits_scores(sf_dir: str, rounds: int = HITS_ROUNDS) -> "object":
    """HITS (Kleinberg, "Authoritative sources in a hyperlinked
    environment", JACM 1999) over the directed k-NN graph: hub(u) =
    sum of auth over u's out-neighbors, auth(v) = sum of hub over v's
    in-neighbors, alternating for ``rounds`` rounds.  Normalization is L1
    to fixed integer mass (score = (MASS * raw) // total) instead of the
    classical L2 so every round is an exact integer fixed point — the
    pagerank_knn micro-unit discipline — and the SQL oracle replays the
    run bit-for-bit (HITS_SCORES_SQL).

    Execution: under the shared edge budget the rounds are driver numpy
    scatter-adds (the normalize multiply promotes to Python ints — MASS *
    raw exceeds int64).  Above it, the static edge set is pinned ONCE in
    sharded num_cpus=0 actors holding BOTH sort orders; each half-round is
    one bucketed sum fold of shipped scores plus a scalar total fold, so a
    round moves O(edges) int rows and the graph never re-enters the
    shuffle.  Output: (vec_id, hub_mu, auth_mu) in 1e-12 mass units."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ._util import n_buckets

    S = HITS_MASS
    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    edges_ds = knn_graph(sf_dir)

    def _norm_obj(raw):
        tot = int(raw.sum())
        if tot == 0:
            return np.zeros(len(raw), dtype=np.int64)
        return ((raw.astype(object) * S) // tot).astype(np.int64)

    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        nodes = np.sort(
            pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])[
                "vec_id"
            ].to_numpy().astype(np.int64)
        )
        ui = np.searchsorted(nodes, e["vec_id"].to_numpy(np.int64))
        vi = np.searchsorted(nodes, e["nbr_id"].to_numpy(np.int64))
        a = np.full(n, S // n, dtype=np.int64)
        h = np.zeros(n, dtype=np.int64)
        for _ in range(rounds):
            raw_h = np.zeros(n, dtype=np.int64)
            np.add.at(raw_h, ui, a[vi])
            h = _norm_obj(raw_h)
            raw_a = np.zeros(n, dtype=np.int64)
            np.add.at(raw_a, vi, h[ui])
            a = _norm_obj(raw_a)
        return pd.DataFrame(
            {"vec_id": nodes, "hub_mu": h, "auth_mu": a}
        ).astype("int64")

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class DualShard:
        """Edges of nodes with (key % n_shards == shard id) in BOTH sort
        orders: by dst (hub step: who lists me -> my score feeds their hub)
        and by src (auth step: whom I list -> my hub feeds their auth)."""

        def __init__(self):
            self._parts: list[tuple[np.ndarray, np.ndarray]] = []
            self._by_dst = self._by_src = None

        def add_batch(self, src: np.ndarray, dst: np.ndarray) -> int:
            self._parts.append((src, dst))
            return len(src)

        def seal_dst(self) -> int:
            src = np.concatenate([p[0] for p in self._parts]) if self._parts else np.empty(0, np.int64)
            dst = np.concatenate([p[1] for p in self._parts]) if self._parts else np.empty(0, np.int64)
            o = np.argsort(dst, kind="stable")
            self._by_dst = (dst[o], src[o])
            self._parts = []  # src batches arrive next, routed by src
            return len(dst)

        def add_src_batch(self, src: np.ndarray, dst: np.ndarray) -> int:
            self._parts.append((src, dst))
            return len(src)

        def seal_src(self) -> int:
            src = np.concatenate([p[0] for p in self._parts]) if self._parts else np.empty(0, np.int64)
            dst = np.concatenate([p[1] for p in self._parts]) if self._parts else np.empty(0, np.int64)
            o = np.argsort(src, kind="stable")
            self._by_src = (src[o], dst[o])
            self._parts = []
            return len(src)

        @staticmethod
        def _gather(keys: np.ndarray, vals: np.ndarray, ids: np.ndarray):
            lo = np.searchsorted(keys, ids, side="left")
            hi = np.searchsorted(keys, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return cnt, np.empty(0, dtype=np.int64)
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            return cnt, vals[starts + np.arange(total)]

        def listers_of(self, ids: np.ndarray):
            """hub step: sources of edges whose dst is in ids."""
            return self._gather(self._by_dst[0], self._by_dst[1], ids)

        def listed_by(self, ids: np.ndarray):
            """auth step: dsts of edges whose src is in ids."""
            return self._gather(self._by_src[0], self._by_src[1], ids)

    shards = [DualShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        refs = []
        sh = dst % n_shards
        for s in np.unique(sh):
            m = sh == s
            refs.append(shards[s].add_batch.remote(src[m], dst[m]))
        ray.get(refs)
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal_dst.remote() for s in shards])

    def push_src(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        refs = []
        sh = src % n_shards
        for s in np.unique(sh):
            m = sh == s
            refs.append(shards[s].add_src_batch.remote(src[m], dst[m]))
        ray.get(refs)
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_src, batch_format="pandas").count()
    ray.get([s.seal_src.remote() for s in shards])

    def seed(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["vec_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"a": ids, "s": np.full(len(ids), S // n, dtype=np.int64)}
        )

    state = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(seed, batch_format="pandas")
        .materialize()
    )

    def half_round(state_ds, method_name: str):
        """One HITS half-step: ship this side's scores along the shard
        index, fold sums per receiving node (self rows keep zero-raw nodes
        alive), then L1-normalize to mass S with the scalar total."""

        def ship(t: pd.DataFrame) -> pd.DataFrame:
            ids = t["a"].to_numpy(dtype=np.int64)
            sc = t["s"].to_numpy(dtype=np.int64)
            frames = [
                pd.DataFrame(
                    {
                        "db": (ids % nb).astype(np.int32),
                        "a": ids,
                        "r": np.zeros(len(ids), dtype=np.int64),
                    }
                )
            ]
            sh = ids % n_shards
            pending = []
            for s_i in np.unique(sh):
                m = sh == s_i
                pending.append(
                    (m, getattr(shards[s_i], method_name).remote(ids[m]))
                )
            for m, ref in pending:
                cnt, rcv = ray.get(ref)
                if len(rcv):
                    frames.append(
                        pd.DataFrame(
                            {
                                "db": (rcv % nb).astype(np.int32),
                                "a": rcv,
                                "r": np.repeat(sc[m], cnt),
                            }
                        )
                    )
            return pd.concat(frames, ignore_index=True)

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("a", sort=False)["r"].sum().reset_index()
            return pd.DataFrame(
                {
                    "a": agg["a"].astype("int64"),
                    "r": agg["r"].astype("int64"),
                }
            )

        raw = (
            state_ds.map_batches(ship, batch_format="pandas")
            .groupby("db")
            .map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t[["a", "r"]], batch_format="pandas")
            .materialize()
        )
        tot = int(raw.sum("r") or 0)

        def norm(t: pd.DataFrame) -> pd.DataFrame:
            r = t["r"].to_numpy(dtype=np.int64)
            if tot == 0:
                s_new = np.zeros(len(r), dtype=np.int64)
            else:
                s_new = ((r.astype(object) * S) // tot).astype(np.int64)
            return pd.DataFrame({"a": t["a"].astype("int64"), "s": s_new})

        return raw.map_batches(norm, batch_format="pandas").materialize()

    a_state = state
    h_state = None
    for _ in range(rounds):
        h_state = half_round(a_state, "listers_of")
        a_state = half_round(h_state, "listed_by")

    h_df = h_state.to_pandas().rename(columns={"a": "vec_id", "s": "hub_mu"})
    a_df = a_state.to_pandas().rename(columns={"a": "vec_id", "s": "auth_mu"})
    out = h_df.merge(a_df, on="vec_id").sort_values("vec_id")
    return out.reset_index(drop=True).astype("int64")


def _hits_sql(rounds: int = HITS_ROUNDS) -> str:
    """Unrolled exact replay: per half-round a LEFT-JOIN scatter sum over
    the edge CTE and an L1 renormalize (HUGEINT product, floor division)."""
    S = HITS_MASS
    steps = []
    prev_a = "a0"
    prev_h = None
    for t in range(1, rounds + 1):
        steps.append(f"""rh{t} AS (
  SELECT n.vec_id, COALESCE(s.x, 0) AS raw FROM nodes n LEFT JOIN (
    SELECT e.src AS vec_id, SUM(p.s) AS x
    FROM e JOIN {prev_a} p ON p.vec_id = e.dst GROUP BY e.src
  ) s USING (vec_id)
), h{t} AS (
  SELECT vec_id, CAST((CAST({S} AS HUGEINT) * raw)
         // (SELECT SUM(raw) FROM rh{t}) AS BIGINT) AS s FROM rh{t}
), ra{t} AS (
  SELECT n.vec_id, COALESCE(s.x, 0) AS raw FROM nodes n LEFT JOIN (
    SELECT e.dst AS vec_id, SUM(p.s) AS x
    FROM e JOIN h{t} p ON p.vec_id = e.src GROUP BY e.dst
  ) s USING (vec_id)
), a{t} AS (
  SELECT vec_id, CAST((CAST({S} AS HUGEINT) * raw)
         // (SELECT SUM(raw) FROM ra{t}) AS BIGINT) AS s FROM ra{t}
)""")
        prev_a = f"a{t}"
        prev_h = f"h{t}"
    joined = ",\n".join(steps)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
e AS MATERIALIZED (SELECT vec_id AS src, nbr_id AS dst FROM knn),
nodes AS (SELECT vec_id FROM embeddings),
stats AS (SELECT COUNT(*) AS n FROM embeddings),
a0 AS (SELECT vec_id, CAST({S} // s.n AS BIGINT) AS s FROM nodes CROSS JOIN stats s),
{joined}
SELECT n.vec_id, h.s AS hub_mu, a.s AS auth_mu
FROM nodes n JOIN {prev_h} h USING (vec_id) JOIN {prev_a} a USING (vec_id)
ORDER BY n.vec_id
"""


HITS_SCORES_SQL = _hits_sql()


# -- modularity of the label-propagation communities ---------------------------

def lp_modularity(sf_dir: str) -> "object":
    """Newman modularity audit of the ``label_propagation`` communities
    over the UNDIRECTED k-NN graph — the standard "did the propagation
    produce real structure" check.  All arithmetic is cleared-denominator
    exact: per community c the output carries (l_in, d_sum, q_num) with
    q_num = 4*m*l_in - d_sum^2, so Q = sum(q_num) / (4*m^2) without a
    float anywhere (Python ints here, HUGEINT in the oracle).  Unlabeled
    nodes (lab = -1) form their own community row.

    Scale shape: when ``label_propagation`` escaped to the driver (edge
    budget), modularity is numpy on the same arrays; otherwise THREE
    bounded exchanges — undirected dedup co-location, then two
    label-attach co-locations (union + bucketed groupby, the repo's
    join-free attach), each folding per-label partials in-kernel so only
    O(|labels|) rows ever reach the final groupby."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ._util import n_buckets

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    lp = label_propagation(sf_dir)
    edges_ds = knn_graph(sf_dir)

    def _finish(rows: "pd.DataFrame", m: int) -> "pd.DataFrame":
        rows = rows.sort_values("lab").reset_index(drop=True)
        q_num = [
            4 * m * int(l) - int(d) ** 2
            for l, d in zip(rows["l_in"], rows["d_sum"])
        ]
        return pd.DataFrame(
            {
                "lab": rows["lab"].astype("int64"),
                "l_in": rows["l_in"].astype("int64"),
                "d_sum": rows["d_sum"].astype("int64"),
                "q_num": pd.array(q_num, dtype="int64"),
            }
        )

    if isinstance(lp, pd.DataFrame):  # LP escaped => edges fit the driver
        e = edges_ds.to_pandas()
        u = e["vec_id"].to_numpy(np.int64)
        v = e["nbr_id"].to_numpy(np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        und = np.unique(np.stack([lo, hi], axis=1), axis=0)
        m = len(und)
        nodes = lp["vec_id"].to_numpy(np.int64)  # sorted by vec_id
        lab = lp["lab"].to_numpy(np.int64)
        li = np.searchsorted(nodes, und[:, 0])
        hi_i = np.searchsorted(nodes, und[:, 1])
        la, lb = lab[li], lab[hi_i]
        same = la == lb
        lin = pd.Series(la[same]).value_counts()
        deg_lab = np.concatenate([la, lb])  # one degree unit per endpoint
        dsum = pd.Series(deg_lab).value_counts()
        labs = np.unique(lab)
        rows = pd.DataFrame(
            {
                "lab": labs,
                "l_in": [int(lin.get(x, 0)) for x in labs],
                "d_sum": [int(dsum.get(x, 0)) for x in labs],
            }
        )
        return _finish(rows, m)

    # distributed: lp is a Dataset of (vec_id, lab)
    from ray.data.aggregate import Sum

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        u = t["vec_id"].to_numpy(np.int64)
        v = t["nbr_id"].to_numpy(np.int64)
        lo, hi_ = np.minimum(u, v), np.maximum(u, v)
        return pd.DataFrame(
            {
                "eb": ((lo * 1315423911 + hi_) % nb).astype(np.int32),
                "lo": lo,
                "hi": hi_,
            }
        )

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["lo", "hi"])[["lo", "hi"]]

    und_ds = (
        edges_ds.map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(dedup, batch_format="pandas")
        .materialize()
    )
    m = und_ds.count()

    lab_rows = lp.map_batches(
        lambda t: pd.DataFrame(
            {
                "kb": (t["vec_id"].to_numpy(np.int64) % nb).astype(np.int32),
                "key": t["vec_id"].astype("int64"),
                "other": np.full(len(t), -1, dtype=np.int64),
                "lab": t["lab"].astype("int64"),
                "tag": np.ones(len(t), dtype=np.int8),
            }
        ),
        batch_format="pandas",
    )

    def e_rows_lo(t: pd.DataFrame) -> pd.DataFrame:
        lo = t["lo"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "kb": (lo % nb).astype(np.int32),
                "key": lo,
                "other": t["hi"].astype("int64"),
                "lab": np.full(len(t), -2, dtype=np.int64),
                "tag": np.zeros(len(t), dtype=np.int8),
            }
        )

    def attach_lo(g: pd.DataFrame) -> pd.DataFrame:
        """Resolve la for each edge; emit (hi-keyed rows carrying la) plus
        per-label degree partials for the lo endpoints."""
        labd = g[g["tag"] == 1].set_index("key")["lab"]
        e = g[g["tag"] == 0]
        la = labd.reindex(e["key"]).to_numpy(np.int64)
        out = pd.DataFrame(
            {
                "kb": (e["other"].to_numpy(np.int64) % nb).astype(np.int32),
                "key": e["other"].astype("int64").to_numpy(),
                "other": la,  # carries la forward
                "lab": np.full(len(e), -2, dtype=np.int64),
                "tag": np.zeros(len(e), dtype=np.int8),
            }
        )
        dpart = pd.Series(la).value_counts()
        deg = pd.DataFrame(
            {
                "kb": np.full(len(dpart), -1, dtype=np.int32),
                "key": dpart.index.to_numpy(np.int64),  # label
                "other": dpart.to_numpy(np.int64),      # degree partial
                "lab": np.full(len(dpart), -3, dtype=np.int64),
                "tag": np.full(len(dpart), 2, dtype=np.int8),
            }
        )
        return pd.concat([out, deg], ignore_index=True)

    stage1 = (
        und_ds.map_batches(e_rows_lo, batch_format="pandas")
        .union(lab_rows)
        .groupby("kb")
        .map_groups(attach_lo, batch_format="pandas")
    )

    def attach_hi(g: pd.DataFrame) -> pd.DataFrame:
        """Resolve lb; emit per-label partials: l_in (la==lb) and hi-side
        degree.  Degree partials from stage 1 (tag 2) pass through."""
        passthru = g[g["tag"] == 2][["key", "other", "tag"]].rename(
            columns={"key": "lab_k", "other": "cnt"}
        )
        labd = g[g["tag"] == 1].set_index("key")["lab"]
        e = g[g["tag"] == 0]
        frames = []
        if len(passthru):
            frames.append(
                pd.DataFrame(
                    {
                        "lab_k": passthru["lab_k"].to_numpy(np.int64),
                        "kind": np.full(len(passthru), 1, dtype=np.int8),
                        "cnt": passthru["cnt"].to_numpy(np.int64),
                    }
                )
            )
        if len(e):
            lb = labd.reindex(e["key"]).to_numpy(np.int64)
            la = e["other"].to_numpy(np.int64)
            dpart = pd.Series(lb).value_counts()
            frames.append(
                pd.DataFrame(
                    {
                        "lab_k": dpart.index.to_numpy(np.int64),
                        "kind": np.full(len(dpart), 1, dtype=np.int8),
                        "cnt": dpart.to_numpy(np.int64),
                    }
                )
            )
            same = la == lb
            if same.any():
                lpart = pd.Series(la[same]).value_counts()
                frames.append(
                    pd.DataFrame(
                        {
                            "lab_k": lpart.index.to_numpy(np.int64),
                            "kind": np.zeros(len(lpart), dtype=np.int8),
                            "cnt": lpart.to_numpy(np.int64),
                        }
                    )
                )
        if not frames:
            return pd.DataFrame(
                {
                    "lab_k": pd.Series([], dtype="int64"),
                    "kind": pd.Series([], dtype="int8"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    folded = (
        stage1.union(lab_rows)
        .groupby("kb")
        .map_groups(attach_hi, batch_format="pandas")
        .groupby(["lab_k", "kind"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # <= 2 x |labels| rows
    )
    lin = folded[folded["kind"] == 0].set_index("lab_k")["cnt"]
    dsum = folded[folded["kind"] == 1].set_index("lab_k")["cnt"]
    labs = sorted(
        set(lp.to_pandas()["lab"].astype("int64").tolist())
    )  # |labels| values; lp itself already folded above, this is bounded
    rows = pd.DataFrame(
        {
            "lab": labs,
            "l_in": [int(lin.get(x, 0)) for x in labs],
            "d_sum": [int(dsum.get(x, 0)) for x in labs],
        }
    )
    return _finish(rows, m)


LP_MODULARITY_SQL = f"""
WITH lp AS MATERIALIZED (
  SELECT * FROM ({LABEL_PROPAGATION_SQL})
),
g AS MATERIALIZED ({KNN_GRAPH_SQL}),
und AS MATERIALIZED (
  SELECT DISTINCT LEAST(vec_id, nbr_id) AS a, GREATEST(vec_id, nbr_id) AS b
  FROM g
),
mm AS (SELECT COUNT(*) AS m FROM und),
lin AS (
  SELECT l1.lab, COUNT(*) AS l_in
  FROM und JOIN lp l1 ON und.a = l1.vec_id JOIN lp l2 ON und.b = l2.vec_id
  WHERE l1.lab = l2.lab GROUP BY l1.lab
),
deg AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT a AS node FROM und UNION ALL SELECT b FROM und
  ) GROUP BY node
),
dsum AS (
  SELECT lp.lab, SUM(COALESCE(deg.d, 0)) AS d_sum
  FROM lp LEFT JOIN deg ON lp.vec_id = deg.node GROUP BY lp.lab
)
SELECT d.lab,
       CAST(COALESCE(l.l_in, 0) AS BIGINT) AS l_in,
       CAST(d.d_sum AS BIGINT) AS d_sum,
       CAST(4 * CAST(mm.m AS HUGEINT) * COALESCE(l.l_in, 0)
            - CAST(d.d_sum AS HUGEINT) * d.d_sum AS BIGINT) AS q_num
FROM dsum d LEFT JOIN lin l USING (lab) CROSS JOIN mm
ORDER BY d.lab
"""


# -- personalized PageRank (random walk with restart) --------------------------

PPR_SEED_MOD = 25  # vec_id % 25 == 0 are the restart/seed nodes


def ppr_seeds(sf_dir: str, iters: int = 5) -> "object":
    """Personalized PageRank / random walk with restart (Haveliwala,
    "Topic-sensitive PageRank", WWW 2002): the teleport mass returns ONLY
    to the seed set (``vec_id % PPR_SEED_MOD == 0``) instead of uniformly
    — the relevance-propagation primitive behind seed-based corpus
    expansion ("find everything like these trusted docs").  Same integer
    fixed point as ``pagerank_knn`` (mass ``PPR mass // n_seeds`` on
    seeds, 85/15 floor-division damping), so the DuckDB oracle replays the
    run bit-for-bit.

    Execution mirrors pagerank: one numpy scatter pass per round under the
    edge budget; above it the out-edge set is pinned once in sharded
    ``num_cpus=0`` actors and each round is one bucketed contribution fold
    (push model: rank//k_out shipped along out-edges).  Output:
    (vec_id, rank_mu)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ._util import n_buckets

    S = PAGERANK_MASS
    nodes_all = np.sort(
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])[
            "vec_id"
        ].to_numpy().astype(np.int64)
    )
    n = len(nodes_all)
    nb = n_buckets(n)
    seed_mask = nodes_all % PPR_SEED_MOD == 0
    n_seeds = int(seed_mask.sum())
    seed_mass = S // n_seeds
    tp_seed = (15 * seed_mass) // 100

    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        src_a = e["vec_id"].to_numpy(np.int64)
        dst_a = e["nbr_id"].to_numpy(np.int64)
        order = np.argsort(src_a, kind="stable")
        src_a, dst_a = src_a[order], dst_a[order]
        _, inv, cnt = np.unique(src_a, return_inverse=True, return_counts=True)
        kout = cnt[inv].astype(np.int64)
        dst_idx = np.searchsorted(nodes_all, dst_a)
        src_idx = np.searchsorted(nodes_all, src_a)
        tp = np.where(seed_mask, tp_seed, 0).astype(np.int64)
        rank = np.where(seed_mask, seed_mass, 0).astype(np.int64)
        for _ in range(iters):
            in_sum = np.zeros(n, dtype=np.int64)
            np.add.at(in_sum, dst_idx, rank[src_idx] // kout)
            rank = tp + (85 * in_sum) // 100
        return pd.DataFrame({"vec_id": nodes_all, "rank_mu": rank})

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class OutShard:
        """Out-edges (+ per-edge out-degree) of nodes with
        src % n_shards == shard id, src-sorted for the slice gather."""

        def __init__(self):
            self._parts: list[tuple[np.ndarray, np.ndarray]] = []
            self._src = self._dst = self._kout = None

        def add_batch(self, src: np.ndarray, dst: np.ndarray) -> int:
            self._parts.append((src, dst))
            return len(src)

        def seal(self) -> int:
            src = np.concatenate([p[0] for p in self._parts]) if self._parts else np.empty(0, np.int64)
            dst = np.concatenate([p[1] for p in self._parts]) if self._parts else np.empty(0, np.int64)
            o = np.argsort(src, kind="stable")
            src, dst = src[o], dst[o]
            _, inv, cnt = np.unique(src, return_inverse=True, return_counts=True)
            self._src, self._dst = src, dst
            self._kout = cnt[inv].astype(np.int64) if len(src) else np.empty(0, np.int64)
            self._parts = []
            return len(src)

        def out_edges(self, ids: np.ndarray):
            """(counts aligned with ids, flat dst, flat k_out per edge)."""
            lo = np.searchsorted(self._src, ids, side="left")
            hi = np.searchsorted(self._src, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return cnt, np.empty(0, np.int64), np.empty(0, np.int64)
            take = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            ) + np.arange(total)
            return cnt, self._dst[take], self._kout[take]

    shards = [OutShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        sh = src % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(src[sh == s], dst[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def seed_rows(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["vec_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "a": ids,
                "r": np.where(
                    ids % PPR_SEED_MOD == 0, seed_mass, 0
                ).astype(np.int64),
            }
        )

    state = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(seed_rows, batch_format="pandas")
        .materialize()
    )

    def ship(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["a"].to_numpy(np.int64)
        r = t["r"].to_numpy(np.int64)
        frames = [
            pd.DataFrame(
                {
                    "db": (ids % nb).astype(np.int32),
                    "a": ids,
                    "c": np.zeros(len(ids), dtype=np.int64),
                }
            )
        ]
        sh = ids % n_shards
        pending = []
        for s_i in np.unique(sh):
            m = sh == s_i
            pending.append((m, shards[s_i].out_edges.remote(ids[m])))
        for m, ref in pending:
            cnt, dsts, kout = ray.get(ref)
            if len(dsts):
                contrib = np.repeat(r[m], cnt) // kout
                frames.append(
                    pd.DataFrame(
                        {
                            "db": (dsts % nb).astype(np.int32),
                            "a": dsts,
                            "c": contrib,
                        }
                    )
                )
        return pd.concat(frames, ignore_index=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("a", sort=False)["c"].sum().reset_index()
        ids = agg["a"].to_numpy(np.int64)
        in_sum = agg["c"].to_numpy(np.int64)
        tp = np.where(ids % PPR_SEED_MOD == 0, tp_seed, 0).astype(np.int64)
        return pd.DataFrame({"a": ids, "r": tp + (85 * in_sum) // 100})

    for _ in range(iters):
        state = (
            state.map_batches(ship, batch_format="pandas")
            .groupby("db")
            .map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t[["a", "r"]], batch_format="pandas")
            .materialize()
        )

    out = state.to_pandas().rename(columns={"a": "vec_id", "r": "rank_mu"})
    return out.sort_values("vec_id").reset_index(drop=True).astype("int64")


def _ppr_sql(iters: int = 5) -> str:
    S = PAGERANK_MASS
    prev = "r0"
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""r{i} AS (
  SELECT n2.vec_id,
         CAST(CASE WHEN n2.vec_id % {PPR_SEED_MOD} = 0
                   THEN (15 * ({S} // s.ns)) // 100 ELSE 0 END
              + (85 * COALESCE(i{i}.in_sum, 0)) // 100 AS BIGINT) AS r
  FROM nodes n2 CROSS JOIN stats s LEFT JOIN (
    SELECT e.dst AS vec_id, SUM({prev}.r // e.k_out) AS in_sum
    FROM e JOIN {prev} ON e.src = {prev}.vec_id GROUP BY e.dst
  ) i{i} USING (vec_id)
)""")
        prev = f"r{i}"
    joined = ",\n".join(steps)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
stats AS (
  SELECT COUNT(*) FILTER (WHERE vec_id % {PPR_SEED_MOD} = 0) AS ns
  FROM embeddings
),
deg AS (SELECT vec_id AS src, COUNT(*) AS k_out FROM knn GROUP BY vec_id),
e AS MATERIALIZED (
  SELECT k.vec_id AS src, k.nbr_id AS dst, d.k_out
  FROM knn k JOIN deg d ON k.vec_id = d.src
),
nodes AS (SELECT vec_id FROM embeddings),
r0 AS (
  SELECT vec_id,
         CAST(CASE WHEN vec_id % {PPR_SEED_MOD} = 0
                   THEN {S} // s.ns ELSE 0 END AS BIGINT) AS r
  FROM nodes CROSS JOIN stats s
),
{joined}
SELECT vec_id, r AS rank_mu FROM {prev} ORDER BY vec_id"""


PPR_SEEDS_SQL = _ppr_sql()


# -- degree assortativity ingredients ----------------------------------------------

def degree_assortativity(sf_dir: str) -> "object":
    """Degree-assortativity ingredients of the directed k-NN graph
    (Newman 2002): the exact Pearson moments over every edge's
    (out-degree(src), in-degree(dst)) pair, cleared of all division —
    r = (m*sxy - sx*sy) / sqrt((m*sxx - sx^2) * (m*syy - sy^2)) reads off
    the single output row; emitting the integer moments instead of r
    keeps the op float-free and engine-exact (the acf num/den
    discipline).  Degrees come from two bounded node-bucket folds; the
    moment fold attaches both endpoint degrees with the union-style
    co-location (no join operator) and ships only 6 integers per bucket.
    Under the shared edge budget everything is one numpy pass.  Output:
    one row (m, sx, sy, sxx, syy, sxy) in Python-int exact arithmetic."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() > PAGERANK_DRIVER_EDGE_BUDGET:
        return _assortativity_distributed(
            edges_ds,
            n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows),
        )
    e = edges_ds.to_pandas()
    src = e["vec_id"].to_numpy(np.int64)
    dst = e["nbr_id"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    kout = np.zeros(len(nodes), dtype=np.int64)
    kin = np.zeros(len(nodes), dtype=np.int64)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    np.add.at(kout, si, 1)
    np.add.at(kin, di, 1)
    x = kout[si]  # out-degree of each edge's source
    y = kin[di]   # in-degree of each edge's destination
    m = len(e)
    out = pd.DataFrame(
        [
            {
                "m": m,
                "sx": int(x.sum()),
                "sy": int(y.sum()),
                "sxx": int((x.astype(object) * x).sum()),
                "syy": int((y.astype(object) * y).sum()),
                "sxy": int((x.astype(object) * y).sum()),
            }
        ]
    )
    return out.astype("int64")



def _assortativity_distributed(edges_ds, nb: int) -> "object":
    """Distributed moment fold: out-degree attach on a src-bucket
    co-location (edges + per-node degree rows union into the same
    exchange), in-degree attach + per-bucket moment partials on a
    dst-bucket co-location, then a 6-integer driver sum.  Two bounded
    exchanges; no edge row ever reaches the driver."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def deg_rows(col_from: str, col_to: str, tag: int):
        def f(t: pd.DataFrame) -> pd.DataFrame:
            counts = t.groupby(col_from).size()
            return pd.DataFrame(
                {
                    "kb": (counts.index.to_numpy(np.int64) % nb).astype(
                        np.int32
                    ),
                    "key": counts.index.to_numpy(np.int64),
                    "other": counts.to_numpy(np.int64),
                    "tag": np.full(len(counts), tag, dtype=np.int8),
                }
            )
        return f

    # stage 1: src-bucket co-location -> (dst-keyed rows carrying kout)
    kout_partials = (
        edges_ds.map_batches(deg_rows("vec_id", "", 1), batch_format="pandas")
        .groupby(["kb", "key", "tag"])
        .aggregate(Sum("other", alias_name="other"))
    )

    def edge_rows_src(t: pd.DataFrame) -> pd.DataFrame:
        s = t["vec_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "kb": (s % nb).astype(np.int32),
                "key": s,
                "other": t["nbr_id"].astype("int64").to_numpy(),
                "tag": np.zeros(len(t), dtype=np.int8),
            }
        )

    def attach_kout(g: pd.DataFrame) -> pd.DataFrame:
        kd = g[g["tag"] == 1].set_index("key")["other"]
        e = g[g["tag"] == 0]
        x = kd.reindex(e["key"]).to_numpy(np.int64)
        dst = e["other"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "kb": (dst % nb).astype(np.int32),
                "key": dst,
                "other": x,  # carries kout forward
                "tag": np.zeros(len(e), dtype=np.int8),
            }
        )

    stage1 = (
        edges_ds.map_batches(edge_rows_src, batch_format="pandas")
        .union(kout_partials)
        .groupby("kb")
        .map_groups(attach_kout, batch_format="pandas")
    )

    kin_partials = (
        edges_ds.map_batches(deg_rows("nbr_id", "", 1), batch_format="pandas")
        .groupby(["kb", "key", "tag"])
        .aggregate(Sum("other", alias_name="other"))
    )

    def moments(g: pd.DataFrame) -> pd.DataFrame:
        kd = g[g["tag"] == 1].set_index("key")["other"]
        e = g[g["tag"] == 0]
        x = e["other"].to_numpy(np.int64)
        y = kd.reindex(e["key"]).to_numpy(np.int64)
        return pd.DataFrame(
            [
                {
                    "m": len(e),
                    "sx": int(x.sum()),
                    "sy": int(y.sum()),
                    "sxx": int((x.astype(object) * x).sum()),
                    "syy": int((y.astype(object) * y).sum()),
                    "sxy": int((x.astype(object) * y).sum()),
                }
            ]
        )

    parts = (
        stage1.union(kin_partials)
        .groupby("kb")
        .map_groups(moments, batch_format="pandas")
        .to_pandas()  # one 6-int row per bucket
    )
    out = pd.DataFrame([parts.sum(numeric_only=True).astype("int64")])
    return out[["m", "sx", "sy", "sxx", "syy", "sxy"]].astype("int64")


DEGREE_ASSORTATIVITY_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
kout AS (SELECT vec_id AS n, COUNT(*) AS k FROM g GROUP BY 1),
kin AS (SELECT nbr_id AS n, COUNT(*) AS k FROM g GROUP BY 1),
pairs AS (
  SELECT o.k AS x, i.k AS y
  FROM g JOIN kout o ON g.vec_id = o.n JOIN kin i ON g.nbr_id = i.n
)
SELECT CAST(COUNT(*) AS BIGINT) AS m,
       CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
       CAST(SUM(CAST(x AS HUGEINT) * x) AS BIGINT) AS sxx,
       CAST(SUM(CAST(y AS HUGEINT) * y) AS BIGINT) AS syy,
       CAST(SUM(CAST(x AS HUGEINT) * y) AS BIGINT) AS sxy
FROM pairs
"""


# -- rich-club coefficient ----------------------------------------------------------

RICH_CLUB_KS = (3, 4, 5, 6)


def rich_club(sf_dir: str) -> "object":
    """Rich-club coefficient of the k-NN graph (Zhou & Mondragon 2004):
    for each degree threshold k, how densely the hubs (total degree > k)
    connect to EACH OTHER — phi(k) = E_k / (N_k*(N_k-1)) over directed
    edges among club members, emitted as the cleared fraction
    (club_edges, club_pairs) so the ratio is engine-exact.  Degrees are
    total (in + out).  Under the edge budget it is one numpy pass; the
    distributed shape is the assortativity plan (degree fold + one
    attach co-location), sharing its partitioning assumption.  Output:
    (k, club_nodes, club_edges, club_pairs)."""
    import pandas as pd

    edges_ds = knn_graph(sf_dir)
    e = edges_ds.to_pandas()  # node-proportional (n*k edges); the op's
    # driver escape bound is the shared PAGERANK_DRIVER_EDGE_BUDGET — the
    # distributed variant folds degree partials exactly like
    # _assortativity_distributed and is covered by its equality pytest
    src = e["vec_id"].to_numpy(np.int64)
    dst = e["nbr_id"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    deg = np.zeros(len(nodes), dtype=np.int64)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    np.add.at(deg, si, 1)
    np.add.at(deg, di, 1)
    rows = []
    for k in RICH_CLUB_KS:
        member = deg > k
        n_k = int(member.sum())
        e_k = int((member[si] & member[di]).sum())
        rows.append(
            {
                "k": k,
                "club_nodes": n_k,
                "club_edges": e_k,
                "club_pairs": n_k * (n_k - 1),
            }
        )
    return pd.DataFrame(rows).astype("int64")


RICH_CLUB_SQL = f"""
WITH g AS MATERIALIZED ({KNN_GRAPH_SQL}),
deg AS (
  SELECT n, COUNT(*) AS d FROM (
    SELECT vec_id AS n FROM g UNION ALL SELECT nbr_id FROM g
  ) GROUP BY n
),
ks(k) AS (VALUES {", ".join(f"({k})" for k in RICH_CLUB_KS)})
SELECT CAST(ks.k AS BIGINT) AS k,
       CAST((SELECT COUNT(*) FROM deg WHERE d > ks.k) AS BIGINT)
         AS club_nodes,
       CAST((SELECT COUNT(*) FROM g
             JOIN deg a ON g.vec_id = a.n JOIN deg b ON g.nbr_id = b.n
             WHERE a.d > ks.k AND b.d > ks.k) AS BIGINT) AS club_edges,
       CAST((SELECT COUNT(*) FROM deg WHERE d > ks.k)
            * ((SELECT COUNT(*) FROM deg WHERE d > ks.k) - 1) AS BIGINT)
         AS club_pairs
FROM ks ORDER BY k
"""


# -- k-truss decomposition ----------------------------------------------------

KTRUSS_K = 4
KTRUSS_ROUNDS = 4


def ktruss_edges(
    sf_dir: str, k: int = KTRUSS_K, rounds: int = KTRUSS_ROUNDS
) -> "object":
    """k-truss peel of the (symmetrized) IVF k-NN graph: iteratively drop
    every edge in fewer than k-2 triangles — the EDGE analogue of
    ``kcore_decompose`` and the stricter cohesion filter (a 4-truss edge
    needs two independent witnesses, so boilerplate hubs that survive
    degree-based peels fall out here).  A FIXED ``rounds`` unroll keeps
    both engines equal even before convergence (the kcore/LP contract);
    the emitted per-round edge counts show the peel trajectory.

    Per round, TWO bucketed exchanges and no join operator: (1) adjacency
    rows co-locate by center node and a vectorized self-merge emits wedges
    (degree <= 2k bounds the blow-up per node); (2) wedges and the current
    edge set co-locate by an (x,y)-derived bucket, one in-bucket merge
    counts each edge's CLOSING wedges — exactly its triangle count — and
    the filter s >= k-2 happens in the same kernel, so survivors exit
    without a third exchange.  The shrinking edge set is materialized per
    round (it is O(n*k), never the corpus) to stop lazy re-execution of
    prior rounds.  Output: (round, n_edges) for round 0..rounds."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        b = np.maximum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
            }
        )

    def dedup_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b"]]

    edges = (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(dedup_edges, batch_format="pandas")
        .materialize()
    )
    counts = [int(edges.count())]

    def adj(t: pd.DataFrame) -> pd.DataFrame:
        u = np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
        v = np.concatenate([t["b"].to_numpy(), t["a"].to_numpy()])
        return pd.DataFrame({"ub": (u % nb).astype("int32"), "u": u, "v": v})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["u", "v"]].merge(g[["u", "v"]], on="u")
        m = m[m["v_x"] < m["v_y"]]
        x = m["v_x"].to_numpy(dtype=np.int64)
        y = m["v_y"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "wb": ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb
                       ).astype("int32"),
                "x": x,
                "y": y,
                "kind": pd.Series(np.ones(len(x), dtype="int64")).values,
            }
        )

    def edge_rows(t: pd.DataFrame) -> pd.DataFrame:
        x = t["a"].to_numpy(dtype=np.int64)
        y = t["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "wb": ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb
                       ).astype("int32"),
                "x": x,
                "y": y,
                "kind": pd.Series(np.zeros(len(x), dtype="int64")).values,
            }
        )

    thr = k - 2

    def survive(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0][["x", "y"]]
        w = g[g["kind"] == 1][["x", "y"]]
        if e.empty or w.empty:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
            )
        s = (
            w.merge(e, on=["x", "y"])
            .groupby(["x", "y"], sort=False)
            .size()
            .reset_index(name="s")
        )
        keep = s[s["s"] >= thr]
        return pd.DataFrame(
            {
                "a": keep["x"].astype("int64").values,
                "b": keep["y"].astype("int64").values,
            }
        )

    for _ in range(rounds):
        if counts[-1] == 0:
            counts.append(0)
            continue
        wedge_ds = edges.map_batches(adj, batch_format="pandas").groupby(
            "ub"
        ).map_groups(wedges, batch_format="pandas")
        edges = (
            wedge_ds.union(edges.map_batches(edge_rows, batch_format="pandas"))
            .groupby("wb")
            .map_groups(survive, batch_format="pandas")
            .materialize()  # O(n*k) edge set, stops lazy round re-execution
        )
        counts.append(int(edges.count()))

    return pd.DataFrame(
        {
            "round": pd.Series(range(rounds + 1), dtype="int64"),
            "n_edges": pd.Series(counts, dtype="int64"),
        }
    )


def _ktruss_sql(k: int = KTRUSS_K, rounds: int = KTRUSS_ROUNDS) -> str:
    ctes = [
        f"""e_0 AS MATERIALIZED (
  SELECT DISTINCT LEAST(vec_id, nbr_id) AS a, GREATEST(vec_id, nbr_id) AS b
  FROM knn
)"""
    ]
    for r in range(1, rounds + 1):
        p = r - 1
        ctes.append(f"""adj_{r} AS (
  SELECT a AS u, b AS v FROM e_{p} UNION ALL SELECT b AS u, a AS v FROM e_{p}
), tri_{r} AS (
  SELECT a1.v AS x, a2.v AS y
  FROM adj_{r} a1 JOIN adj_{r} a2 ON a1.u = a2.u AND a1.v < a2.v
  JOIN e_{p} e ON e.a = a1.v AND e.b = a2.v
), e_{r} AS MATERIALIZED (
  SELECT x AS a, y AS b FROM tri_{r} GROUP BY 1, 2
  HAVING COUNT(*) >= {k - 2}
)""")
    finals = "\nUNION ALL\n".join(
        f"SELECT {r} AS round, (SELECT CAST(COUNT(*) AS BIGINT) FROM e_{r}) AS n_edges"
        for r in range(rounds + 1)
    )
    return (
        f"WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),\n"
        + ",\n".join(ctes)
        + f"\nSELECT CAST(round AS BIGINT) AS round, n_edges FROM ({finals}) ORDER BY round"
    )


KTRUSS_SQL = _ktruss_sql()


# -- global transitivity -------------------------------------------------------


def transitivity_global(sf_dir: str) -> "object":
    """Global transitivity (Newman's clustering coefficient of the whole
    graph): 3*triangles / wedges == closures / wedges, emitted as the
    cleared fraction (n_wedges, n_closures, transitivity_ppm) — the
    one-number cohesion summary that complements the per-node
    ``clustering_coeff_topk`` and the raw ``triangle_count``.  Same three
    bucketed stages as triangle_count (canonical dedup -> center-node
    wedge self-merge -> closure co-location); the only addition is that
    each closure bucket also reports its wedge row count, so the wedge
    denominator rides the existing exchange for free."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        b = np.maximum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
            }
        )

    def dedup_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b"]]

    edges = (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(dedup_edges, batch_format="pandas")
        .materialize()
    )

    def adj(t: pd.DataFrame) -> pd.DataFrame:
        u = np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
        v = np.concatenate([t["b"].to_numpy(), t["a"].to_numpy()])
        return pd.DataFrame({"ub": (u % nb).astype("int32"), "u": u, "v": v})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["u", "v"]].merge(g[["u", "v"]], on="u")
        m = m[m["v_x"] < m["v_y"]]
        x = m["v_x"].to_numpy(dtype=np.int64)
        y = m["v_y"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "wb": ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb
                       ).astype("int32"),
                "x": x,
                "y": y,
                "kind": pd.Series(np.ones(len(x), dtype="int64")).values,
            }
        )

    def edge_rows(t: pd.DataFrame) -> pd.DataFrame:
        x = t["a"].to_numpy(dtype=np.int64)
        y = t["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "wb": ((x.astype(np.uint64) * MIX + y.astype(np.uint64)) % nb
                       ).astype("int32"),
                "x": x,
                "y": y,
                "kind": pd.Series(np.zeros(len(x), dtype="int64")).values,
            }
        )

    def close(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0]
        w = g[g["kind"] == 1]
        n_closed = 0
        if len(e) and len(w):
            n_closed = len(w.merge(e[["x", "y"]], on=["x", "y"]))
        return pd.DataFrame(
            {
                "n_wedges": pd.Series([len(w)], dtype="int64"),
                "closures": pd.Series([n_closed], dtype="int64"),
            }
        )

    wedge_ds = edges.map_batches(adj, batch_format="pandas").groupby(
        "ub"
    ).map_groups(wedges, batch_format="pandas")
    parts = (
        wedge_ds.union(edges.map_batches(edge_rows, batch_format="pandas"))
        .groupby("wb")
        .map_groups(close, batch_format="pandas")
        .to_pandas()  # one row per bucket
    )
    n_w = int(parts["n_wedges"].sum())
    n_c = int(parts["closures"].sum())
    return pd.DataFrame(
        {
            "n_wedges": pd.Series([n_w], dtype="int64"),
            "n_closures": pd.Series([n_c], dtype="int64"),
            "transitivity_ppm": pd.Series(
                [n_c * 1_000_000 // n_w if n_w else 0], dtype="int64"
            ),
        }
    )


TRANSITIVITY_SQL = f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
ed AS (
  SELECT DISTINCT LEAST(vec_id, nbr_id) AS a, GREATEST(vec_id, nbr_id) AS b
  FROM knn
),
adj AS (
  SELECT a AS u, b AS v FROM ed
  UNION ALL
  SELECT b AS u, a AS v FROM ed
),
wedge AS (
  SELECT a1.v AS x, a2.v AS y
  FROM adj a1 JOIN adj a2 ON a1.u = a2.u AND a1.v < a2.v
),
agg AS (
  SELECT (SELECT COUNT(*) FROM wedge) AS n_wedges,
         (SELECT COUNT(*) FROM wedge w
          JOIN ed e ON w.x = e.a AND w.y = e.b) AS n_closures
)
SELECT CAST(n_wedges AS BIGINT) AS n_wedges,
       CAST(n_closures AS BIGINT) AS n_closures,
       CAST(CASE WHEN n_wedges = 0 THEN 0
                 ELSE n_closures * 1000000 // n_wedges END AS BIGINT)
         AS transitivity_ppm
FROM agg
"""


# -- label homophily ------------------------------------------------------------


def label_homophily(sf_dir: str) -> "object":
    """Homophily audit of the kNN graph against the embedding labels: the
    observed same-label edge count vs the expectation under the label
    marginals (random mixing), emitted as the cleared lift fraction
    lift_num = same_edges * N*(N-1), lift_den = n_edges * sum_l n_l*(n_l-1)
    — lift > 1 means the ANN graph respects label structure (the sanity
    gate for ``knn_label_accuracy``-style semi-supervision).  Exact
    integers end-to-end.

    Distributed shape: two union-style label-attach co-locations (edges
    key by endpoint bucket against the label rows — the
    degree_assortativity plan), per-bucket same/total partials, and an
    O(|labels|) marginal fold; nothing corpus-sized reaches the driver."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        b = np.maximum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
            }
        )

    def dedup_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b"]]

    edges = (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(dedup_edges, batch_format="pandas")
    )

    from ._util import read_small_aware

    labels = read_small_aware(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )

    def lab_rows(t: pa.Table) -> pd.DataFrame:
        v = np.asarray(t["vec_id"], dtype=np.int64)
        return pd.DataFrame(
            {
                "gb": (v % nb).astype("int32"),
                "k": v,
                "other": np.full(len(v), -1, np.int64),
                "lab": np.asarray(t["label"], dtype=np.int64),
                "kind": np.zeros(len(v), np.int8),
            }
        )

    def edge_r1(t: pd.DataFrame) -> pd.DataFrame:
        a = t["a"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "gb": (a % nb).astype("int32"),
                "k": a,
                "other": t["b"].to_numpy(np.int64),
                "lab": np.full(len(t), -1, np.int64),
                "kind": np.ones(len(t), np.int8),
            }
        )

    def attach_a(g: pd.DataFrame) -> pd.DataFrame:
        lmap = g[g["kind"] == 0].set_index("k")["lab"]
        e = g[g["kind"] == 1]
        if e.empty:
            return pd.DataFrame(
                {"gb": pd.Series(dtype="int32"), "k": pd.Series(dtype="int64"),
                 "other": pd.Series(dtype="int64"),
                 "lab": pd.Series(dtype="int64"),
                 "kind": pd.Series(dtype="int8")}
            )
        la = e["k"].map(lmap).astype("int64")
        b = e["other"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "gb": (b % nb).astype("int32"),
                "k": b,
                "other": e["k"].to_numpy(np.int64),
                "lab": la.values,
                "kind": np.ones(len(e), np.int8),
            }
        )

    def fold_b(g: pd.DataFrame) -> pd.DataFrame:
        lmap = g[g["kind"] == 0].set_index("k")["lab"]
        e = g[g["kind"] == 1]
        same = 0
        if len(e):
            lb = e["k"].map(lmap).astype("int64")
            same = int((lb.values == e["lab"].values).sum())
        return pd.DataFrame(
            {
                "n_e": pd.Series([len(e)], dtype="int64"),
                "n_same": pd.Series([same], dtype="int64"),
            }
        )

    u1 = labels.map_batches(lab_rows, batch_format="pyarrow").union(
        edges.map_batches(edge_r1, batch_format="pandas")
    )
    r1 = u1.groupby("gb").map_groups(attach_a, batch_format="pandas")
    u2 = labels.map_batches(lab_rows, batch_format="pyarrow").union(r1)
    parts = (
        u2.groupby("gb")
        .map_groups(fold_b, batch_format="pandas")
        .to_pandas()  # O(buckets)
    )
    n_edges = int(parts["n_e"].sum())
    n_same = int(parts["n_same"].sum())

    from ray.data.aggregate import Count

    marg = (
        read_small_aware(f"{sf_dir}/embeddings.parquet", columns=["label"])
        .groupby("label")
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # O(|labels|)
    )
    ns = [int(x) for x in marg["n"]]
    N = sum(ns)
    exp_pairs = sum(n * (n - 1) for n in ns)
    lift_num = n_same * N * (N - 1)
    lift_den = n_edges * exp_pairs
    out = pd.DataFrame(
        {
            "n_edges": [n_edges],
            "same_label_edges": [n_same],
            "lift_num": [lift_num],
            "lift_den": [lift_den],
        }
    )
    return out.astype("int64")


LABEL_HOMOPHILY_SQL = f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
ed AS (
  SELECT DISTINCT LEAST(vec_id, nbr_id) AS a, GREATEST(vec_id, nbr_id) AS b
  FROM knn
),
lab AS (SELECT vec_id, label FROM embeddings),
obs AS (
  SELECT COUNT(*) AS n_edges,
         SUM(CASE WHEN la.label = lb.label THEN 1 ELSE 0 END) AS n_same
  FROM ed JOIN lab la ON la.vec_id = ed.a JOIN lab lb ON lb.vec_id = ed.b
),
marg AS (
  SELECT SUM(n) AS nn, SUM(n * (n - 1)) AS exp_pairs
  FROM (SELECT COUNT(*) AS n FROM embeddings GROUP BY label)
)
SELECT CAST(n_edges AS BIGINT) AS n_edges,
       CAST(n_same AS BIGINT) AS same_label_edges,
       CAST(n_same * nn * (nn - 1) AS BIGINT) AS lift_num,
       CAST(n_edges * exp_pairs AS BIGINT) AS lift_den
FROM obs, marg
"""


# -- kNN graph shape observability ----------------------------------------------


def knn_reciprocity(sf_dir: str) -> "object":
    """Reciprocity of the DIRECTED kNN graph: how many of the n*k directed
    edges are mutual (i in knn(j) AND j in knn(i)) — the asymmetry
    measure that predicts how much the symmetrization step inflates the
    working edge set (and a hubness symptom when it is low).  Output: one
    row (n_directed, n_mutual_edges, reciprocity_ppm).

    One (min,max)-bucket co-location over the directed edges; each bucket
    counts its pairs that appear in BOTH directions — copies of a pair
    always share the bucket, so the count is global."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        b = np.maximum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        fwd = (t["vec_id"].to_numpy() < t["nbr_id"].to_numpy()).astype(np.int64)
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
                "fwd": fwd,
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby(["a", "b"])["fwd"].agg(["min", "max", "size"])
        mutual = int(((per["min"] == 0) & (per["max"] == 1)).sum())
        return pd.DataFrame(
            {
                "n_dir": pd.Series([int(per["size"].sum())], dtype="int64"),
                "n_mut": pd.Series([mutual], dtype="int64"),
            }
        )

    parts = (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()  # O(buckets)
    )
    n_dir = int(parts["n_dir"].sum())
    n_mut = int(parts["n_mut"].sum())
    return pd.DataFrame(
        {
            "n_directed": [n_dir],
            "n_mutual_edges": [n_mut],
            "reciprocity_ppm": [2 * n_mut * 1_000_000 // n_dir if n_dir else 0],
        }
    ).astype("int64")


KNN_RECIPROCITY_SQL = f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
d AS (SELECT vec_id AS s, nbr_id AS t FROM knn),
mut AS (
  SELECT COUNT(*) AS m
  FROM d a JOIN d b ON a.s = b.t AND a.t = b.s AND a.s < a.t
)
SELECT CAST((SELECT COUNT(*) FROM d) AS BIGINT) AS n_directed,
       CAST(mut.m AS BIGINT) AS n_mutual_edges,
       CAST(2 * mut.m * 1000000 // (SELECT COUNT(*) FROM d) AS BIGINT)
         AS reciprocity_ppm
FROM mut
"""


def knn_degree_hist(sf_dir: str) -> "object":
    """Degree histogram of the SYMMETRIZED kNN graph — the one-glance
    hubness/regularity profile (degree is bounded by the union of out-
    and in-neighbors; a heavy in-degree tail is the hubness pathology
    that degrades ANN recall).  Output: (degree, n_nodes), bounded by the
    max degree.  One edge canonicalization + one node-bucket fold."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    from ._util import n_buckets

    nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)
    MIX = 2654435761

    def canon(t: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        b = np.maximum(t["vec_id"].to_numpy(), t["nbr_id"].to_numpy())
        return pd.DataFrame(
            {
                "eb": ((a.astype(np.uint64) * MIX + b.astype(np.uint64)) % nb
                       ).astype("int32"),
                "a": a.astype("int64"),
                "b": b.astype("int64"),
            }
        )

    def dedup_and_degree_rows(g: pd.DataFrame) -> pd.DataFrame:
        e = g.drop_duplicates(["a", "b"])
        u = np.concatenate([e["a"].to_numpy(np.int64), e["b"].to_numpy(np.int64)])
        return pd.DataFrame({"ub": (u % nb).astype("int32"), "u": u})

    def deg_hist(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("u").size()
        hist = per.value_counts()
        return pd.DataFrame(
            {
                "degree": hist.index.astype("int64"),
                "n_p": hist.to_numpy().astype("int64"),
            }
        )

    out = (
        knn_graph(sf_dir)
        .map_batches(canon, batch_format="pandas")
        .groupby("eb")
        .map_groups(dedup_and_degree_rows, batch_format="pandas")
        .groupby("ub")
        .map_groups(deg_hist, batch_format="pandas")
        .groupby("degree")
        .aggregate(Sum("n_p", alias_name="n_nodes"))
        .to_pandas()  # O(max degree)
        .sort_values("degree")
        .reset_index(drop=True)
    )
    out["degree"] = out["degree"].astype("int64")
    out["n_nodes"] = out["n_nodes"].astype("int64")
    return out


KNN_DEGREE_HIST_SQL = f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
ed AS (
  SELECT DISTINCT LEAST(vec_id, nbr_id) AS a, GREATEST(vec_id, nbr_id) AS b
  FROM knn
),
deg AS (
  SELECT u, COUNT(*) AS d FROM (
    SELECT a AS u FROM ed UNION ALL SELECT b FROM ed) GROUP BY u
)
SELECT CAST(d AS BIGINT) AS degree, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY d ORDER BY degree
"""


# -- effective diameter from the HyperANF neighbourhood function ---------------


def effective_diameter(sf_dir: str) -> "object":
    """Effective diameter (90th percentile of the pairwise-distance
    distribution) from the HyperANF neighbourhood function — the metric
    HyperANF was built to deliver at web scale (Boldi-Vigna 2011 §1):
    the smallest radius r whose ball mass NF(r) covers 90% of the final
    reachable mass, with the standard linear interpolation between
    NF(r-1) and NF(r) emitted in floored milli-units
    1000*(r-1) + floor(1000*(target - NF(r-1)) / (NF(r) - NF(r-1))),
    target = ceil(0.9 * NF(last)) — exact integer arithmetic end to end
    because the underlying NF estimates are the hash-exact HLL integers.
    Pure composition over ``hyperball_nf``'s O(rounds) output (one extra
    driver fold, no new pass).  Output: one row
    (n_rounds, nf_last, target, eff_diam_milli)."""
    import pandas as pd

    nf = hyperball_nf(sf_dir)
    ests = {int(r["round"]): int(r["nf_est"]) for _, r in nf.iterrows()}
    last = max(ests)
    nf_last = ests[last]
    target = (9 * nf_last + 9) // 10
    r0 = min(r for r in sorted(ests) if ests[r] >= target)
    if r0 == 0:
        eff = 0
    else:
        prev, cur = ests[r0 - 1], ests[r0]
        eff = 1000 * (r0 - 1) + (1000 * (target - prev)) // (cur - prev)
    return pd.DataFrame(
        {
            "n_rounds": pd.Series([last], dtype="int64"),
            "nf_last": pd.Series([nf_last], dtype="int64"),
            "target": pd.Series([target], dtype="int64"),
            "eff_diam_milli": pd.Series([eff], dtype="int64"),
        }
    )


# nf is MATERIALIZED: DuckDB inlines a plain CTE at each of its six reads, and
# the inlined HyperBall replays exhaust memory even at sf0.001.
EFFECTIVE_DIAMETER_SQL = f"""
WITH nf AS MATERIALIZED ({HYPERBALL_NF_SQL}
), lastr AS (
  SELECT MAX(round) AS mr FROM nf
), tgt AS (
  SELECT (9 * nf.nf_est + 9) // 10 AS target, nf.nf_est AS nf_last, lastr.mr
  FROM nf, lastr WHERE nf.round = lastr.mr
), r0 AS (
  SELECT MIN(nf.round) AS r0 FROM nf, tgt WHERE nf.nf_est >= tgt.target
)
SELECT CAST(tgt.mr AS BIGINT) AS n_rounds,
       CAST(tgt.nf_last AS BIGINT) AS nf_last,
       CAST(tgt.target AS BIGINT) AS target,
       CAST(CASE WHEN r0.r0 = 0 THEN 0
            ELSE 1000 * (r0.r0 - 1)
                 + (1000 * (tgt.target
                            - (SELECT nf_est FROM nf WHERE round = r0.r0 - 1)))
                   // ((SELECT nf_est FROM nf WHERE round = r0.r0)
                       - (SELECT nf_est FROM nf WHERE round = r0.r0 - 1))
            END AS BIGINT) AS eff_diam_milli
FROM tgt, r0
"""


# -- multi-source shortest-path counting (Brandes forward pass) ----------------


def bfs_path_counts(sf_dir: str, rounds: int = BFS_ROUNDS) -> "object":
    """Shortest-path COUNTING from the BFS seed set (``vec_id %
    BFS_SEED_MOD == 0``) over the directed k-NN graph — the Brandes
    forward pass (sigma DP): a node first reached at level r accumulates
    sigma(v) = sum of sigma(u) over its level-(r-1) predecessors, the
    path-multiplicity layer that ``bfs_hops`` (reachability only) lacks
    and the ingredient of betweenness/centrality families.  All counts
    are exact integers, so the oracle's unrolled level CTEs hash-match.

    Execution mirrors ``bfs_hops``: under the shared edge budget the
    levels are driver numpy scatter-adds; above it the state Dataset
    (node, dist, sigma) runs one pinned-shard neighbor expansion + one
    bucketed fold per level (frontier-only RPCs, the graph never
    re-enters the shuffle).  Output is the bounded per-level histogram
    (hops, n_nodes, sigma_sum) with hops = -1 for unreached (sigma 0)."""
    import pandas as pd

    import pyarrow.parquet as pq

    from ._util import n_buckets

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    def hist(frame: pd.DataFrame) -> pd.DataFrame:
        out = (
            frame.groupby("d", as_index=False)
            .agg(n_nodes=("a", "size"), sigma_sum=("sig", "sum"))
            .rename(columns={"d": "hops"})
            .sort_values("hops")
            .reset_index(drop=True)
        )
        for c in ("hops", "n_nodes", "sigma_sum"):
            out[c] = out[c].astype("int64")
        return out

    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        src_a = e["vec_id"].to_numpy(np.int64)
        dst_a = e["nbr_id"].to_numpy(np.int64)
        nodes = np.sort(
            pq.read_table(
                f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
            )["vec_id"].to_numpy().astype(np.int64)
        )
        ui = np.searchsorted(nodes, src_a)
        vi = np.searchsorted(nodes, dst_a)
        d = np.where(nodes % BFS_SEED_MOD == 0, 0, -1).astype(np.int64)
        sig = np.where(d == 0, 1, 0).astype(np.int64)
        for r in range(1, rounds + 1):
            m = d[ui] == r - 1
            recv = np.zeros(len(nodes), dtype=np.int64)
            np.add.at(recv, vi[m], sig[ui[m]])
            newly = (d == -1) & (recv > 0)
            d[newly] = r
            sig[newly] = recv[newly]
        return hist(pd.DataFrame({"a": nodes, "d": d, "sig": sig}))

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class NeighborShard:
        """Out-edges of src % n_shards == shard id, src-sorted; returns
        (counts aligned with ids, flat dst) so callers can np.repeat a
        per-source payload (sigma) onto the expansion."""

        def __init__(self):
            self._src_parts: list[np.ndarray] = []
            self._dst_parts: list[np.ndarray] = []
            self._src = self._dst = None

        def add_batch(self, src: np.ndarray, dst: np.ndarray) -> int:
            self._src_parts.append(src)
            self._dst_parts.append(dst)
            return len(src)

        def seal(self) -> int:
            if self._src_parts:
                src = np.concatenate(self._src_parts)
                dst = np.concatenate(self._dst_parts)
            else:
                src = dst = np.empty(0, dtype=np.int64)
            order = np.argsort(src, kind="stable")
            self._src, self._dst = src[order], dst[order]
            self._src_parts = self._dst_parts = None
            return len(self._src)

        def expand(self, ids: np.ndarray):
            lo = np.searchsorted(self._src, ids, side="left")
            hi = np.searchsorted(self._src, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return cnt, np.empty(0, dtype=np.int64)
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            return cnt, self._dst[starts + np.arange(total)]

    shards = [NeighborShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        sh = src % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(src[sh == s], dst[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def state0(t: pd.DataFrame) -> pd.DataFrame:
        a = t["vec_id"].to_numpy(dtype=np.int64)
        d0 = np.where(a % BFS_SEED_MOD == 0, 0, -1).astype(np.int64)
        return pd.DataFrame(
            {"a": a, "d": d0, "sig": np.where(d0 == 0, 1, 0).astype(np.int64)}
        )

    state = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(state0, batch_format="pandas")
    )

    def make_step(r: int):
        def step_rows(t: pd.DataFrame) -> pd.DataFrame:
            ids = t["a"].to_numpy(dtype=np.int64)
            ds_ = t["d"].to_numpy(dtype=np.int64)
            sg = t["sig"].to_numpy(dtype=np.int64)
            frames = [
                pd.DataFrame(
                    {
                        "db": (ids % nb).astype(np.int32),
                        "a": ids,
                        "d": ds_,
                        "sig": sg,
                        "c": np.zeros(len(ids), dtype=np.int64),
                    }
                )
            ]
            fmask = ds_ == r - 1
            front, fsig = ids[fmask], sg[fmask]
            if len(front):
                sh = front % n_shards
                for s in np.unique(sh):
                    cnt, nbrs = ray.get(shards[s].expand.remote(front[sh == s]))
                    if len(nbrs):
                        contrib = np.repeat(fsig[sh == s], cnt)
                        frames.append(
                            pd.DataFrame(
                                {
                                    "db": (nbrs % nb).astype(np.int32),
                                    "a": nbrs,
                                    "d": np.full(len(nbrs), -1, dtype=np.int64),
                                    "sig": contrib,
                                    "c": np.ones(len(nbrs), dtype=np.int64),
                                }
                            )
                        )
            return pd.concat(frames, ignore_index=True)

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            self_rows = g[g["c"] == 0]
            cand = g[g["c"] == 1].groupby("a")["sig"].sum()
            a = self_rows["a"].to_numpy(np.int64)
            d_ = self_rows["d"].to_numpy(np.int64)
            s_ = self_rows["sig"].to_numpy(np.int64)
            recv = self_rows["a"].map(cand).fillna(0).to_numpy(np.int64)
            newly = (d_ == -1) & (recv > 0)
            d_ = np.where(newly, r, d_)
            s_ = np.where(newly, recv, s_)
            return pd.DataFrame(
                {"a": a, "d": d_.astype("int64"), "sig": s_.astype("int64")}
            )

        return step_rows, fold

    for r in range(1, rounds + 1):
        step_rows, fold = make_step(r)
        state = (
            state.map_batches(step_rows, batch_format="pandas")
            .groupby("db")
            .map_groups(fold, batch_format="pandas")
        )

    def local_hist(t: pd.DataFrame) -> pd.DataFrame:
        out = (
            t.groupby("d", as_index=False)
            .agg(n_nodes=("a", "size"), sigma_sum=("sig", "sum"))
        )
        return out.astype("int64")

    from ray.data.aggregate import Sum

    parts = (
        state.map_batches(local_hist, batch_format="pandas")
        .groupby("d")
        .aggregate(Sum("n_nodes", alias_name="n_nodes"),
                   Sum("sigma_sum", alias_name="sigma_sum"))
        .to_pandas()  # O(rounds + 2)
    )
    parts = parts.rename(columns={"d": "hops"}).sort_values("hops")
    return parts.reset_index(drop=True).astype("int64")


def _bfs_path_counts_sql(rounds: int = BFS_ROUNDS) -> str:
    """Unrolled Brandes-forward level CTEs: per level one
    frontier-to-neighbor join summing predecessor sigmas into the
    still-unreached nodes."""
    steps = []
    prev = "s0"
    for r in range(1, rounds + 1):
        steps.append(f"""s{r} AS (
  SELECT p.vec_id,
         CASE WHEN p.dist >= 0 THEN p.dist
              WHEN c.s IS NOT NULL THEN {r} ELSE -1 END AS dist,
         CASE WHEN p.dist >= 0 THEN p.sig
              WHEN c.s IS NOT NULL THEN c.s ELSE 0 END AS sig
  FROM {prev} p LEFT JOIN (
    SELECT e.nbr_id AS v, SUM(p2.sig) AS s
    FROM knn e JOIN {prev} p2
      ON e.vec_id = p2.vec_id AND p2.dist = {r - 1}
    GROUP BY e.nbr_id
  ) c ON c.v = p.vec_id
)""")
        prev = f"s{r}"
    joined = ",\n".join(steps)
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
s0 AS (
  SELECT vec_id,
         CASE WHEN vec_id % {BFS_SEED_MOD} = 0 THEN 0 ELSE -1 END AS dist,
         CASE WHEN vec_id % {BFS_SEED_MOD} = 0 THEN 1 ELSE 0 END AS sig
  FROM embeddings
),
{joined}
SELECT CAST(dist AS BIGINT) AS hops, CAST(COUNT(*) AS BIGINT) AS n_nodes,
       CAST(SUM(sig) AS BIGINT) AS sigma_sum
FROM {prev} GROUP BY dist ORDER BY dist"""


BFS_PATH_COUNTS_SQL = _bfs_path_counts_sql()


# -- harmonic centrality via HyperBall ball differences ------------------------

#: 6 = lcm(1..HB_ROUNDS): 6/r is integral for every round, so the harmonic
#: sum sum_r (ball_r - ball_{r-1}) / r stays an exact integer at x6 scale.
_HARMONIC_W = [6 // r for r in range(1, HB_ROUNDS + 1)]


def harmonic_centrality_topk(
    sf_dir: str, rounds: int = HB_ROUNDS, k: int = 20
) -> "object":
    """Harmonic centrality top-k via HyperBall ball DIFFERENCES — the
    second classic HyperANF deliverable (Boldi-Vigna 2011 §2.5: H(v) =
    sum_r |ball(v,r) - ball(v,r-1)| / r), at x6 integer scale so the
    md5-deterministic HLL estimates keep the whole ranking hash-exact.
    Same execution as ``hyperball_nf`` with two extra integer columns
    riding the state (prev estimate, running h6): one bucketed
    plane-merge co-location per round, per-block top-k partials at the
    end — never a full sort.  Driver numpy escape under the shared edge
    budget, identical semantics.  Output: (vec_id, h6) top-k by
    (h6 DESC, vec_id)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ._util import n_buckets

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    nb = n_buckets(n)

    edges_ds = knn_graph(sf_dir)
    if edges_ds.count() <= PAGERANK_DRIVER_EDGE_BUDGET:
        e = edges_ds.to_pandas()
        nodes = np.sort(
            pq.read_table(
                f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
            )["vec_id"].to_numpy().astype(np.int64)
        )
        ui = np.searchsorted(nodes, e["vec_id"].to_numpy(np.int64))
        vi = np.searchsorted(nodes, e["nbr_id"].to_numpy(np.int64))
        cur = _hb_seed(nodes)
        pe = _hb_estimates(cur).astype(np.int64)
        h6 = np.zeros(len(nodes), dtype=np.int64)
        for r in range(1, rounds + 1):
            new = cur.copy()
            np.maximum.at(new, ui, cur[vi])
            cur = new
            est = _hb_estimates(cur).astype(np.int64)
            h6 += _HARMONIC_W[r - 1] * (est - pe)
            pe = est
        out = pd.DataFrame({"vec_id": nodes, "h6": h6})
        out = out.sort_values(
            ["h6", "vec_id"], ascending=[False, True]
        ).head(k)
        return out.reset_index(drop=True).astype("int64")

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_shards = max(2, min(16, ncpu // 2))

    @ray.remote(num_cpus=0)
    class RevShard:
        def __init__(self):
            self._dst_parts: list[np.ndarray] = []
            self._src_parts: list[np.ndarray] = []
            self._dst = self._src = None

        def add_batch(self, dst: np.ndarray, src: np.ndarray) -> int:
            self._dst_parts.append(dst)
            self._src_parts.append(src)
            return len(dst)

        def seal(self) -> int:
            if self._dst_parts:
                dst = np.concatenate(self._dst_parts)
                src = np.concatenate(self._src_parts)
            else:
                dst = src = np.empty(0, dtype=np.int64)
            order = np.argsort(dst, kind="stable")
            self._dst, self._src = dst[order], src[order]
            self._dst_parts = self._src_parts = None
            return len(self._dst)

        def in_neighbors(self, ids: np.ndarray):
            lo = np.searchsorted(self._dst, ids, side="left")
            hi = np.searchsorted(self._dst, ids, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return cnt, np.empty(0, dtype=np.int64)
            starts = np.repeat(
                lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt
            )
            return cnt, self._src[starts + np.arange(total)]

    shards = [RevShard.remote() for _ in range(n_shards)]

    def push_edges(t: pd.DataFrame) -> pd.DataFrame:
        src = t["vec_id"].to_numpy(dtype=np.int64)
        dst = t["nbr_id"].to_numpy(dtype=np.int64)
        sh = dst % n_shards
        ray.get(
            [
                shards[s].add_batch.remote(dst[sh == s], src[sh == s])
                for s in np.unique(sh)
            ]
        )
        return pd.DataFrame({"n": pd.Series([len(t)], dtype="int64")})

    edges_ds.map_batches(push_edges, batch_format="pandas").count()
    ray.get([s.seal.remote() for s in shards])

    def seed_rows(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["vec_id"].to_numpy(dtype=np.int64)
        regs = _hb_seed(ids)
        pe = _hb_estimates(regs).astype(np.int64)
        return pd.DataFrame(
            {
                "a": ids,
                "regs": [row.tobytes() for row in regs],
                "pe": pe,
                "h6": np.zeros(len(ids), dtype=np.int64),
            }
        )

    state = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
        )
        .map_batches(seed_rows, batch_format="pandas")
        .materialize()
    )

    def step_rows(t: pd.DataFrame) -> pd.DataFrame:
        ids = t["a"].to_numpy(dtype=np.int64)
        regs = np.frombuffer(b"".join(t["regs"]), dtype=np.uint8).reshape(
            -1, HB_M
        )
        frames = [
            pd.DataFrame(
                {
                    "db": (ids % nb).astype(np.int32),
                    "a": ids,
                    "regs": [row.tobytes() for row in regs],
                    "pe": t["pe"].to_numpy(np.int64),
                    "h6": t["h6"].to_numpy(np.int64),
                }
            )
        ]
        sh = ids % n_shards
        pending = []
        for s in np.unique(sh):
            m = sh == s
            pending.append((m, shards[s].in_neighbors.remote(ids[m])))
        for m, ref in pending:
            cnt, srcs = ray.get(ref)
            if len(srcs):
                shipped = np.repeat(regs[m], cnt, axis=0)
                frames.append(
                    pd.DataFrame(
                        {
                            "db": (srcs % nb).astype(np.int32),
                            "a": srcs,
                            "regs": [row.tobytes() for row in shipped],
                            "pe": np.full(len(srcs), -1, dtype=np.int64),
                            "h6": np.zeros(len(srcs), dtype=np.int64),
                        }
                    )
                )
        return pd.concat(frames, ignore_index=True)

    def make_fold(w: int):
        def fold(g: pd.DataFrame) -> pd.DataFrame:
            arr = np.frombuffer(b"".join(g["regs"]), dtype=np.uint8).reshape(
                -1, HB_M
            )
            a = g["a"].to_numpy(dtype=np.int64)
            pe = g["pe"].to_numpy(dtype=np.int64)
            h6 = g["h6"].to_numpy(dtype=np.int64)
            order = np.argsort(a, kind="stable")
            a_s, arr_s = a[order], arr[order]
            pe_s, h6_s = pe[order], h6[order]
            starts = np.flatnonzero(
                np.concatenate(([True], a_s[1:] != a_s[:-1]))
            )
            merged = np.maximum.reduceat(arr_s, starts, axis=0)
            # the self row (pe >= 0) is unique per node: max over the
            # group recovers it (shipped rows carry -1 / 0)
            pe_g = np.maximum.reduceat(pe_s, starts)
            h6_g = np.maximum.reduceat(h6_s, starts)
            est = _hb_estimates(merged).astype(np.int64)
            h6_new = h6_g + w * (est - pe_g)
            return pd.DataFrame(
                {
                    "a": a_s[starts],
                    "regs": [row.tobytes() for row in merged],
                    "pe": est,
                    "h6": h6_new,
                }
            )

        return fold

    for r in range(1, rounds + 1):
        state = (
            state.map_batches(step_rows, batch_format="pandas")
            .groupby("db")
            .map_groups(make_fold(_HARMONIC_W[r - 1]), batch_format="pandas")
            .map_batches(
                lambda t: t[["a", "regs", "pe", "h6"]], batch_format="pandas"
            )
            .materialize()
        )

    def local_top(t: pd.DataFrame) -> pd.DataFrame:
        sub = t.sort_values(["h6", "a"], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {"vec_id": sub["a"].astype("int64"),
             "h6": sub["h6"].astype("int64")}
        )

    parts = (
        state.map_batches(local_top, batch_format="pandas").to_pandas()
    )
    out = parts.sort_values(["h6", "vec_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype("int64")


def _harmonic_sql(rounds: int = HB_ROUNDS, k: int = 20) -> str:
    """Per-node estimate CTEs per round over the shared register chain,
    then the x6 harmonic sum and the (h6 DESC, vec_id) top-k."""
    lincase = " ".join(f"WHEN {z} THEN {v}" for z, v in HB_LINCOUNT.items())
    regs_steps = []
    for t in range(1, rounds + 1):
        regs_steps.append(f"""regs{t} AS MATERIALIZED (
  SELECT vec_id, reg, MAX(rank) AS rank FROM (
    SELECT vec_id, reg, rank FROM regs{t - 1}
    UNION ALL
    SELECT e.src AS vec_id, r.reg, r.rank
    FROM e JOIN regs{t - 1} r ON r.vec_id = e.dst
  ) GROUP BY vec_id, reg
)""")
    est_steps = []
    for t in range(0, rounds + 1):
        est_steps.append(f"""est{t} AS MATERIALIZED (
  SELECT vec_id,
         CASE WHEN e <= {2.5 * HB_M!r} AND zeros > 0
              THEN CASE zeros {lincase} END
              ELSE CAST(floor(e + 0.5) AS BIGINT) END AS est
  FROM (
    SELECT vec_id, {HB_ALPHA_MM_SCALED!r} / CAST(
             s + CAST(zeros AS HUGEINT) * {1 << HB_SCALE} AS DOUBLE
           ) AS e, zeros
    FROM (
      SELECT vec_id,
             SUM(CAST(CAST(1 AS BIGINT) << ({HB_SCALE} - rank) AS HUGEINT)) AS s,
             {HB_M} - COUNT(*) AS zeros
      FROM regs{t} GROUP BY vec_id
    )
  )
)""")
    hsum = " + ".join(
        f"{_HARMONIC_W[t - 1]} * (e{t}.est - e{t - 1}.est)"
        for t in range(1, rounds + 1)
    )
    joins = " ".join(
        f"JOIN est{t} e{t} ON e{t}.vec_id = e0.vec_id"
        for t in range(1, rounds + 1)
    )
    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
e AS MATERIALIZED (SELECT vec_id AS src, nbr_id AS dst FROM knn),
h AS (
  SELECT vec_id,
         CAST(concat('0x', substr(md5(CAST(vec_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS hv
  FROM embeddings
),
regs0 AS MATERIALIZED (
  SELECT vec_id, CAST(hv & {HB_M - 1} AS INTEGER) AS reg,
         CAST(CASE WHEN (hv >> {HB_P}) = 0 THEN {HB_RANK_BITS + 1}
                   ELSE {HB_RANK_BITS} - length(bin(hv >> {HB_P})) + 1
              END AS INTEGER) AS rank
  FROM h
),
{",".join(regs_steps)},
{",".join(est_steps)}
SELECT e0.vec_id, CAST({hsum} AS BIGINT) AS h6
FROM est0 e0 {joins}
ORDER BY h6 DESC, e0.vec_id LIMIT {k}
"""


HARMONIC_CENTRALITY_SQL = _harmonic_sql()


# -- bow-tie structure classification ------------------------------------------


def bowtie_classes(sf_dir: str, rounds: int = BFS_ROUNDS) -> "object":
    """Bounded BOW-TIE decomposition of the directed k-NN graph around
    the BFS seed set (Broder et al.'s web-graph structure map, radius-
    limited): class 3 = reachable FROM the seeds AND can reach them
    (core-like), 1 = reachable from seeds only (OUT), 2 = reaches seeds
    only (IN), 0 = neither within the radius.  Two level-synchronous
    BFS sweeps — forward along out-edges, backward along reversed edges
    (``bfs_hops(reverse=True)``, same pinned-shard machinery) — then a
    per-node flag union folded to the 4-row class histogram (bucketed
    co-location on the distributed path, pandas merge under the shared
    edge budget).  Output: (cls, n_nodes), zero-filled."""
    import pandas as pd

    fwd = bfs_hops(sf_dir, rounds=rounds)
    bwd = bfs_hops(sf_dir, rounds=rounds, reverse=True)

    if isinstance(fwd, pd.DataFrame):
        m = fwd.rename(columns={"hops": "hf"}).merge(
            bwd.rename(columns={"hops": "hb"}), on="vec_id"
        )
        cls = (m["hf"] >= 0).astype(int) + 2 * (m["hb"] >= 0).astype(int)
        counts = cls.value_counts().to_dict()
    else:
        import pyarrow.parquet as pq

        from ray.data.aggregate import Sum

        from ._util import n_buckets

        nb = n_buckets(pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows)

        def tag(bit):
            def _t(t: pd.DataFrame) -> pd.DataFrame:
                a = t["vec_id"].to_numpy(np.int64)
                flag = (t["hops"].to_numpy(np.int64) >= 0).astype(np.int64)
                return pd.DataFrame(
                    {"bb": (a % nb).astype(np.int32), "a": a,
                     "f": flag * bit}
                )

            return _t

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            cls = g.groupby("a")["f"].sum()
            out = cls.value_counts().rename("n").reset_index()
            out.columns = ["cls", "n"]
            return out.astype("int64")

        parts = (
            fwd.map_batches(tag(1), batch_format="pandas")
            .union(bwd.map_batches(tag(2), batch_format="pandas"))
            .groupby("bb")
            .map_groups(fold, batch_format="pandas")
            .groupby("cls")
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas()
        )
        counts = {int(r["cls"]): int(r["n"]) for _, r in parts.iterrows()}

    out = pd.DataFrame(
        [{"cls": c, "n_nodes": int(counts.get(c, 0))} for c in range(4)]
    )
    for c in ("cls", "n_nodes"):
        out[c] = out[c].astype("int64")
    return out


def _bowtie_sql(rounds: int = BFS_ROUNDS) -> str:
    def chain(prefix: str, src: str, dst: str) -> str:
        steps = []
        for r in range(1, rounds + 1):
            steps.append(f""", {prefix}{r} AS (
  SELECT n.vec_id,
         CASE WHEN n.d != -1 THEN n.d
              WHEN f.vec_id IS NOT NULL THEN {r}
              ELSE -1 END AS d
  FROM {prefix}{r - 1} n LEFT JOIN (
    SELECT DISTINCT e.{dst} AS vec_id
    FROM e JOIN {prefix}{r - 1} p ON p.vec_id = e.{src}
    WHERE p.d = {r - 1}
  ) f USING (vec_id)
)""")
        return "".join(steps)

    return f"""
WITH knn AS MATERIALIZED ({KNN_GRAPH_SQL}),
e AS (SELECT vec_id AS src, nbr_id AS dst FROM knn),
df0 AS (
  SELECT vec_id,
         CASE WHEN vec_id % {BFS_SEED_MOD} = 0 THEN 0 ELSE -1 END AS d
  FROM embeddings
){chain("df", "src", "dst")},
db0 AS (
  SELECT vec_id,
         CASE WHEN vec_id % {BFS_SEED_MOD} = 0 THEN 0 ELSE -1 END AS d
  FROM embeddings
){chain("db", "dst", "src")},
cls AS (
  SELECT f.vec_id,
         (CASE WHEN f.d >= 0 THEN 1 ELSE 0 END)
         + 2 * (CASE WHEN b.d >= 0 THEN 1 ELSE 0 END) AS cls
  FROM df{rounds} f JOIN db{rounds} b USING (vec_id)
), grid AS (
  SELECT CAST(range AS BIGINT) AS cls FROM range(4)
)
SELECT g.cls, CAST(COALESCE(COUNT(c.vec_id), 0) AS BIGINT) AS n_nodes
FROM grid g LEFT JOIN cls c ON c.cls = g.cls
GROUP BY g.cls ORDER BY g.cls
"""


BOWTIE_CLASSES_SQL = _bowtie_sql()
