"""Generic-operator semantics that the DuckDB oracle can't check:
near-dup detection actually finds planted duplicates; multimodal plumbing
produces the declared schema; LSH ANN recall is sane."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from indu_doc_transformer_ray.functions.dedup import (
    _minhash_sig,
    _shingles,
    simhash64,
)
from indu_doc_transformer_ray.functions.multimodal import (
    MEDIA_SCHEMA,
    MediaFeatureExtractor,
    media_features,
)


def test_shingles_and_minhash_similarity():
    a = "the quick brown fox jumps over the lazy dog again and again"
    b = "the quick brown fox jumps over the lazy cat again and again"
    c = "completely different words with nothing shared at all here"
    sa, sb, sc = _shingles(a), _shingles(b), _shingles(c)
    jab = len(sa & sb) / len(sa | sb)
    jac = len(sa & sc) / len(sa | sc)
    assert jab > 0.5 > jac
    ma, mb, mc = _minhash_sig(sa), _minhash_sig(sb), _minhash_sig(sc)
    agree_ab = sum(x == y for x, y in zip(ma, mb))
    agree_ac = sum(x == y for x, y in zip(ma, mc))
    assert agree_ab > agree_ac  # minhash agreement tracks jaccard


def test_minhash_lsh_finds_planted_dups(ray_session, tmp_path, monkeypatch):
    import pandas as pd

    from indu_doc_transformer_ray.functions import dedup

    rows = []
    base = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lambda mu nu xi omicron pi rho sigma tau upsilon"
    )
    for i in range(30):
        rows.append({"doc_id": i, "text": f"unique doc {i} " + " ".join(
            f"w{i}_{j}" for j in range(25)
        )})
    # planted near-duplicate pair: one word changed
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base.replace("sigma", "sigmb")})
    df = pd.DataFrame(rows)
    sf_dir = str(tmp_path)
    df.to_parquet(f"{sf_dir}/documents.parquet")

    pairs = dedup.minhash_lsh_pairs(sf_dir, threshold=0.5).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (100, 101) in got
    # unique docs must not pair with each other
    assert all(a >= 100 for a, b in got)


def test_simhash_near_dup_close_hamming(ray_session, tmp_path):
    import pandas as pd

    base = " ".join(f"tok{i}" for i in range(60))
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("tok30", "tokX")},
        {"doc_id": 2, "text": " ".join(f"other{i}" for i in range(60))},
    ]
    pd.DataFrame(rows).to_parquet(f"{tmp_path}/documents.parquet")
    out = simhash64(str(tmp_path)).to_pandas().set_index("doc_id")["simhash"]

    def ham(a, b):
        return bin((int(a) ^ int(b)) & ((1 << 64) - 1)).count("1")

    assert ham(out[0], out[1]) < ham(out[0], out[2])
    assert ham(out[0], out[1]) <= 8


def test_media_feature_extractor_schema():
    from indu_doc_transformer_ray.fixtures import corpus_table

    tab = corpus_table(8, seed=9)
    out = MediaFeatureExtractor()(tab)
    assert out.schema == MEDIA_SCHEMA
    assert out.num_rows > 0
    # deterministic: same ref -> same feature
    out2 = MediaFeatureExtractor()(tab)
    assert out.equals(out2)
    # feature is a fixed-size list<float32, 8>
    feat = out.column("feature")[0].as_py()
    assert len(feat) == 8


def test_media_features_pipeline(ray_session):
    from indu_doc_transformer_ray.fixtures import corpus_table

    ds = ray.data.from_arrow(corpus_table(10, seed=4))
    out = media_features(ds).to_pandas()
    assert set(out.columns) == {
        "doc_id", "media_ref", "width", "height", "n_bytes", "feature",
    }
    assert out["media_ref"].str.startswith("media/").all()


def test_lsh_bucket_topk_recall(ray_session):
    """LSH ANN recall vs exact top-k, plus the partition-pruned read: the
    persisted hive index exists and the wanted directory set is a strict
    subset of the index (the candidate read really prunes)."""
    import glob
    import os

    from indu_doc_transformer_ray.functions.similarity import (
        ann_topk,
        build_lsh_index,
        lsh_bucket_topk,
    )

    sf = "/root/testdata/sf0.001"
    exact = ann_topk(sf)
    approx = lsh_bucket_topk(sf)

    path, planes_n = build_lsh_index(sf)  # cached — no rebuild
    assert os.path.exists(f"{path}/_SUCCESS")
    all_dirs = glob.glob(f"{path}/tbl=*/bucket=*")
    # 8 tables x 2^4 buckets of 500 vectors: nearly all populated; the
    # 3 queries want at most 3 buckets per table
    assert len(all_dirs) > 3 * 8
    from indu_doc_transformer_ray.functions.similarity import (
        LSH_TOPK_TABLES,
        _query_matrix,
        _topk_tables,
        _wanted_dirs,
    )
    import numpy as np

    q, _ = _query_matrix(sf)
    planes = _topk_tables(q.shape[1], LSH_TOPK_TABLES, planes_n)
    w = 1 << np.arange(planes_n)
    wanted = {
        (t, int(b))
        for t in range(LSH_TOPK_TABLES)
        for b in (((q @ planes[t].T) > 0) * w).sum(axis=1)
    }
    pruned = {os.path.dirname(f) for f in _wanted_dirs(path, wanted)}
    assert 0 < len(pruned) <= 3 * LSH_TOPK_TABLES
    assert len(pruned) < len(all_dirs)  # a strict subset is read
    recalls = {}
    for qid in (0, 1, 2):
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        recalls[qid] = len(e & a) / len(e)
    # deterministic planes => deterministic recall@10 per query; the
    # Hamming-1 bucket expansion must keep mean recall useful
    print(f"lsh_bucket_topk recall@10 per query: {recalls}")
    assert min(recalls.values()) >= 0.2, recalls
    assert sum(recalls.values()) / len(recalls) >= 0.5, recalls


def test_lsh_cosine_pairs_recall(ray_session):
    """Deterministic-plane LSH pairs vs the exact blocked product: recall is
    a fixed number per corpus (1.0 at sf0.001 with the shipped budget) and
    LSH may never invent pairs the exact path lacks."""
    from indu_doc_transformer_ray.functions.similarity import (
        cosine_dup_pairs,
        lsh_cosine_pairs,
    )

    sf = "/root/testdata/sf0.001"
    exact = cosine_dup_pairs(sf).to_pandas()
    approx = lsh_cosine_pairs(sf).to_pandas()
    E = set(zip(exact.vec_a, exact.vec_b))
    L = set(zip(approx.vec_a, approx.vec_b))
    assert not (L - E)  # no false positives: in-bucket check is exact
    recall = len(E & L) / len(E)
    assert recall >= 0.9, f"recall {recall}"


def test_media_pil_branch_real_decode(tmp_path):
    """The real decode kernel, run wherever the PIL wheel exists (this
    container has none, so the stub path is what the corpus exercises)."""
    from indu_doc_transformer_ray.functions.multimodal import (
        HAVE_PIL,
        MediaFeatureExtractor,
    )

    if not HAVE_PIL:
        pytest.skip("PIL wheel not installed")
    from PIL import Image  # pragma: no cover

    img = tmp_path / "img0.png"
    Image.new("RGB", (20, 10), (255, 0, 0)).save(img)
    ex = MediaFeatureExtractor(media_root=str(tmp_path))
    w, h, nb, feat = ex.decode("img0.png")
    assert (w, h) == (20, 10)
    assert nb == img.stat().st_size
    assert abs(feat[0] - 1.0) < 1e-6 and abs(feat[1]) < 1e-6  # pure red


def test_dedup_clusters_transitive(ray_session, tmp_path):
    """Label propagation must close chains: A~B and B~C (but A!~C directly)
    still land in one cluster with rep = min doc_id."""
    import pandas as pd

    from indu_doc_transformer_ray.functions import dedup

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    toks = base.split()
    a = " ".join(toks)
    b = " ".join(toks[:11] + ["CHANGED1"] + toks[12:])  # ~ a
    c = " ".join(toks[:11] + ["CHANGED1"] + toks[12:17] + ["CHANGED2"]
                 + toks[18:])  # ~ b, further from a
    rows = [{"doc_id": 10, "text": a}, {"doc_id": 20, "text": b},
            {"doc_id": 30, "text": c}]
    for i in range(25):
        rows.append({"doc_id": 100 + i,
                     "text": f"unrelated {i} " + " ".join(
                         f"z{i}_{j}" for j in range(20))})
    pd.DataFrame(rows).to_parquet(f"{tmp_path}/documents.parquet")

    pairs = dedup.minhash_lsh_pairs(str(tmp_path), threshold=0.5).to_pandas()
    got = set(zip(pairs.doc_a, pairs.doc_b))
    assert (10, 20) in got and (20, 30) in got

    clusters = dedup.dedup_clusters(str(tmp_path)).to_pandas()
    reps = clusters.set_index("doc_id")["cluster_rep"].to_dict()
    assert reps[10] == reps[20] == reps[30] == 10


def test_label_components_distributed_matches_driver(ray_session, monkeypatch):
    """The size-adaptive escape (driver union-find below one bucket budget)
    and the distributed large-star/small-star loop must produce identical
    labels.  Forces the star path by shrinking the escape threshold, on a
    graph with chains, a star, singleton-free isolates and a cycle."""
    import pandas as pd

    import ray.data

    from indu_doc_transformer_ray.functions import _util, dedup

    edges = pd.DataFrame(
        {
            "x": [1, 2, 3,   10, 10, 10,   20, 21, 22,   40, 41],
            "y": [2, 3, 4,   11, 12, 13,   21, 22, 20,   41, 40],
        }
    )
    ds = ray.data.from_pandas(edges).repartition(3)

    fast = (
        dedup.label_components(ds, "x", "y")
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    monkeypatch.setattr(_util, "ROWS_PER_BUCKET", 0)
    monkeypatch.setattr(dedup, "ROWS_PER_BUCKET", 0, raising=False)
    slow = (
        dedup.label_components(ds, "x", "y")
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert fast.to_dict("list") == slow.to_dict("list")
    want = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 12: 10, 13: 10,
            20: 20, 21: 20, 22: 20, 40: 40, 41: 40}
    assert dict(zip(fast["node"], fast["lbl"])) == want


def test_kmeans_assign_matches_local(ray_session):
    """Distributed broadcast-centroid Lloyd's vs a single-process numpy
    reference: same init, same iteration count.  Assignments must agree on
    (nearly) every vector — disagreement is only possible for points
    ulp-close to a Voronoi boundary under different float summation orders."""
    import numpy as np
    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.functions.similarity import kmeans_assign

    sf = "/root/testdata/sf0.001"
    k, iters = 8, 5
    got = kmeans_assign(sf, k=k, iters=iters)

    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist())
    emb = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    ids, emb = ids[order], emb[order]
    cents = emb[ids < k]
    for _ in range(iters):
        d2 = ((emb[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new = cents.copy()
        for ci in range(k):
            m = emb[assign == ci]
            if len(m):
                new[ci] = m.mean(axis=0)
        cents = new
    d2 = ((emb[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    want = d2.argmin(axis=1)

    got_map = got.set_index("vec_id")["cluster"]
    agree = sum(int(got_map[v]) == int(w) for v, w in zip(ids, want))
    assert agree / len(ids) >= 0.995, f"{agree}/{len(ids)}"
    # cluster sizes sane: every cluster non-empty on this corpus
    assert got["cluster"].nunique() == k


def test_ivf_topk_recall(ray_session):
    """IVF (k-means-cell) ANN vs exact top-k: deterministic centroids =>
    deterministic recall; probing 3 of 8 cells must keep recall high on the
    small corpus, and IVF may only return vectors the probed cells contain."""
    from indu_doc_transformer_ray.functions.similarity import ann_topk, ivf_topk

    sf = "/root/testdata/sf0.001"
    exact = ann_topk(sf)
    approx = ivf_topk(sf)
    recalls = {}
    for qid in (0, 1, 2):
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        assert len(a) == len(e)  # enough candidates in the probed cells
        recalls[qid] = len(e & a) / len(e)
    print(f"ivf_topk recall@10 per query: {recalls}")
    assert min(recalls.values()) >= 0.5, recalls
    assert sum(recalls.values()) / len(recalls) >= 0.7, recalls


def test_repetition_stats_matches_local(ray_session):
    """Ray repetition_stats equals a single-process Counter reference."""
    from collections import Counter

    import duckdb

    from indu_doc_transformer_ray.functions.text import TOKEN_RE, repetition_stats

    sf = "/root/testdata/sf0.001"
    got = (
        repetition_stats(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf}/documents.parquet' ORDER BY doc_id"
    ).df()
    assert len(got) == len(docs)
    for (_, g), (_, d) in zip(got.iterrows(), docs.iterrows()):
        toks = TOKEN_RE.findall(d.text.lower())
        c = Counter(toks)
        bgs = list(zip(toks, toks[1:]))
        assert (
            int(g.n_tokens), int(g.n_uniq_tokens), int(g.max_token_count),
            int(g.n_bigrams), int(g.n_uniq_bigrams),
        ) == (len(toks), len(c), max(c.values()) if c else 0, len(bgs), len(set(bgs)))


def test_hll_users_per_type_accuracy(ray_session):
    """HLL per-type distinct-user estimates vs exact: p=12 gives sigma
    ~1.6%, gate at 5% (deterministic md5 hashing => a fixed number per
    corpus, not a flaky bound)."""
    import duckdb

    from indu_doc_transformer_ray.functions.sketches import hll_users_per_type

    sf = "/root/testdata/sf0.001"
    got = hll_users_per_type(sf)
    exact = duckdb.sql(
        f"SELECT event_type, COUNT(DISTINCT user_id) AS n"
        f" FROM '{sf}/events.parquet' GROUP BY event_type ORDER BY event_type"
    ).df()
    merged = got.merge(exact, on="event_type")
    assert len(merged) == len(exact)
    for r in merged.itertuples():
        rel_err = abs(r.approx_distinct - r.n) / max(1, r.n)
        assert rel_err < 0.05, (r.event_type, r.approx_distinct, r.n)


def test_hll_merge_invariance(ray_session):
    """The register fold is associative/commutative: estimates must be
    identical across input partitionings (1 block vs 8)."""
    import ray.data

    from indu_doc_transformer_ray.functions.sketches import hll_distinct

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/events.parquet", columns=["event_type", "user_id"]
    )
    one = hll_distinct(ds.repartition(1), "event_type", "user_id")
    many = hll_distinct(ds.repartition(8), "event_type", "user_id")
    assert one.equals(many)


def test_all_queries_run_at_smallest_scale(ray_session):
    """Every queries() entry executes at sf0.001 and yields rows — the
    small-scale guard for empty-join-partition/schema edge cases (the
    driver's correctness gate runs at sf0.01; this catches the tail)."""
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    # legitimately empty on the synthetic corpus: media refs are unique per
    # doc/page, so there are no image near-dups to pair (the operator's
    # recall gate is test_media_phash_pairs_planted_neardups)
    may_be_empty = {"media_phash_pairs", "media_phash_clusters"}
    failures = []
    for name, fn in e.queries().items():
        try:
            res = fn("/root/testdata/sf0.001")
            n = len(res.to_pandas()) if hasattr(res, "to_pandas") else len(res)
            if n <= 0 and name not in may_be_empty:
                failures.append((name, "0 rows"))
        except Exception as ex:  # noqa: BLE001
            failures.append((name, f"{type(ex).__name__}: {ex}"))
    assert not failures, failures


def test_media_ppm_real_decode(ray_session, tmp_path):
    """The zero-dependency PPM decode kernel, end-to-end through the
    actor-pool stage: refs resolving to real P6 files must yield TRUE
    dimensions and pixel-derived features (not the stub's hash fakes)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from indu_doc_transformer_ray.functions.multimodal import (
        HAVE_PIL,
        _feature8,
        media_features,
    )

    if HAVE_PIL:  # this container has no PIL; kernel preference differs with it
        import pytest

        pytest.skip("PIL present: PPMs route through the PIL branch")

    rng = np.random.RandomState(11)
    sizes = [(20, 12), (7, 31), (64, 3)]
    expected = {}
    for i, (w, h) in enumerate(sizes):
        px = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
        path = tmp_path / f"img{i}.ppm"
        with open(path, "wb") as f:
            f.write(b"P6\n# test comment\n%d %d\n255\n" % (w, h))
            f.write(px.tobytes())
        expected[f"img{i}.ppm"] = (
            w, h, _feature8(px.astype(np.float32) / 255.0, w, h)
        )

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d0"], pa.string()),
                "spans": pa.array(
                    [[
                        {"kind": "media", "text": "", "media_ref": f"img{i}.ppm",
                         "offset": i}
                        for i in range(len(sizes))
                    ]],
                ),
            }
        )
    )
    out = media_features(docs, media_root=str(tmp_path)).to_pandas()
    assert len(out) == len(sizes)
    for r in out.itertuples():
        w, h, feat = expected[r.media_ref]
        assert (r.width, r.height) == (w, h)
        assert np.allclose(np.asarray(r.feature), feat, atol=1e-6)


def test_pack_bins_partitioning_invariance(ray_session):
    """The distributed prefix scan must be a pure function of the data, not
    the block layout: same totals at any read parallelism, contiguous bins,
    and cum_before consistent with per-doc token counts."""
    from indu_doc_transformer_ray.functions.text import pack_bins

    sf = "/root/testdata/sf0.001"
    a = pack_bins(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = (
        pack_bins(sf, range_docs=16)  # many more ranges -> different layout
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert a.equals(b)
    # prefix property: cum_before[i] = cum_before[i-1] + n_tokens[i-1]
    assert (
        a["cum_before"].iloc[1:].to_numpy()
        == (a["cum_before"] + a["n_tokens"]).iloc[:-1].to_numpy()
    ).all()


def test_knn_graph_structure_and_recall(ray_session):
    """knn_graph: dense ranks 1..k per vector, no self edges; rank-1
    neighbors agree with exact brute force for most vectors (IVF recall)."""
    import numpy as np
    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.functions.similarity import knn_graph

    sf = "/root/testdata/sf0.001"
    out = knn_graph(sf).to_pandas()
    assert (out["vec_id"] != out["nbr_id"]).all()
    for _, g in out.groupby("vec_id"):
        assert sorted(g["rank"]) == list(range(1, len(g) + 1))
        assert len(g) <= 3
    # exact rank-1 neighbor for comparison
    t = pq.read_table(f"{sf}/embeddings.parquet").to_pandas()
    emb = np.array(t["embedding"].tolist(), dtype=np.float64)
    en = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = en @ en.T
    np.fill_diagonal(sims, -np.inf)
    exact1 = dict(zip(t["vec_id"], t["vec_id"].to_numpy()[sims.argmax(axis=1)]))
    got1 = out[out["rank"] == 1].set_index("vec_id")["nbr_id"]
    recall = (got1 == got1.index.map(exact1)).mean()
    # structureless uniform embeddings are IVF's worst case; random-probe
    # baseline is nprobe/k_cells = 0.375 — require well above it
    assert recall > 0.6, recall


def test_n_buckets_derivation():
    """n_buckets: power-of-two count targeting ROWS_PER_BUCKET rows per
    coarse bucket, clamped — the scale knob VERDICT r2 item 3 asked for."""
    from indu_doc_transformer_ray.functions._util import (
        ROWS_PER_BUCKET,
        n_buckets,
    )

    assert n_buckets(None) == 64  # unknown size -> lo floor
    assert n_buckets(0) == 64
    assert n_buckets(1) == 64
    assert n_buckets(ROWS_PER_BUCKET * 512) == 512
    assert n_buckets(ROWS_PER_BUCKET * 512 + 1) == 1024
    assert n_buckets(10**13) == 1 << 22  # hi clamp
    assert n_buckets(10**7) == 256


def test_bucket_count_invariance(ray_session, monkeypatch):
    """Coarse co-location bucket counts shape the SHUFFLE, never the
    answer: the same op forced to two different bucket counts is
    row-identical (the in-kernel code always re-groups by the exact key)."""
    import pandas as pd

    from indu_doc_transformer_ray.functions import dedup, events

    sf = "/root/testdata/sf0.001"

    def run_sess():
        return events.sessionize(sf).to_pandas().reset_index(drop=True)

    from indu_doc_transformer_ray.functions import events_streams

    monkeypatch.setattr(events_streams, "_user_buckets", lambda _sf: 7)
    a = run_sess()
    monkeypatch.setattr(events_streams, "_user_buckets", lambda _sf: 128)
    b = run_sess()
    pd.testing.assert_frame_equal(a, b)

    def run_pairs():
        p = dedup.minhash_lsh_pairs(sf, threshold=0.5).to_pandas()
        return p.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    monkeypatch.setattr(dedup, "_corpus_buckets", lambda _sf: 5)
    c = run_pairs()
    monkeypatch.setattr(dedup, "_corpus_buckets", lambda _sf: 64)
    d = run_pairs()
    pd.testing.assert_frame_equal(c, d)


def test_count_min_estimate_bounds(ray_session):
    """CM guarantee: estimate >= true count for present tokens; exact for
    collision-free ones (all, at this scale/width)."""
    import re

    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.functions.sketches import (
        CM_PROBE_TOKENS,
        count_min_probe,
    )

    sf = "/root/testdata/sf0.001"
    out = count_min_probe(sf).set_index("token")["cm_estimate"]
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])
    from collections import Counter

    true = Counter()
    for t in texts.column("text").to_pylist():
        true.update(re.findall(r"[a-z0-9_]+", t.lower()))
    for tok in CM_PROBE_TOKENS:
        assert out[tok] >= true[tok], tok
    assert true["zzz_not_a_token"] == 0
    present = [t for t in CM_PROBE_TOKENS if true[t] > 0]
    assert present, "probe list matches no corpus token"
    # width 1024 x depth 4 over a small vocab: no collisions expected
    assert all(out[t] == true[t] for t in present)


def test_weighted_sample_deterministic_and_ranked(ray_session):
    from indu_doc_transformer_ray.functions.curation import weighted_sample

    sf = "/root/testdata/sf0.001"
    a = weighted_sample(sf)
    b = weighted_sample(sf)
    assert a.equals(b)  # hash-derived, not RNG
    assert list(a["rk"]) == list(range(1, len(a) + 1))
    assert a["doc_id"].is_unique and (a["w"] >= 1).all()


def test_media_resize_and_frame_sample(ray_session):
    """Resize/frame-sample plumbing: declared schemas, deterministic
    checksums, nearest-neighbor kernel correctness on a known plane."""
    import numpy as np

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.functions.multimodal import (
        FRAME_SCHEMA,
        RESIZE_SCHEMA,
        _nn_resize,
        frame_sample,
        media_resize,
    )

    # kernel: downscaling a constant-quadrant plane keeps the quadrants
    px = np.zeros((8, 8, 3), np.uint8)
    px[:4, 4:] = 10
    px[4:, :4] = 20
    px[4:, 4:] = 30
    small = _nn_resize(px, 2, 2)
    assert small[0, 0].tolist() == [0, 0, 0]
    assert small[0, 1].tolist() == [10, 10, 10]
    assert small[1, 0].tolist() == [20, 20, 20]
    assert small[1, 1].tolist() == [30, 30, 30]

    ds = ray.data.from_arrow(corpus_table(10, seed=4))
    rz = media_resize(ds).to_pandas()
    assert list(rz.columns) == RESIZE_SCHEMA.names
    assert len(rz) > 0
    assert (rz["out_w"] == 32).all() and (rz["out_h"] == 32).all()
    rz2 = media_resize(ray.data.from_arrow(corpus_table(10, seed=4))).to_pandas()
    assert rz.sort_values("media_ref").reset_index(drop=True).equals(
        rz2.sort_values("media_ref").reset_index(drop=True)
    )

    fs = frame_sample(ds, every_n=4).to_pandas()
    assert list(fs.columns) == FRAME_SCHEMA.names
    assert (fs["frame_idx"] % 4 == 0).all()
    for _ref, g in fs.groupby("media_ref"):
        nf = g["n_frames"].iloc[0]
        assert sorted(g["frame_idx"]) == list(range(0, nf, 4))


def test_bm25_ranks_term_dense_docs_first(ray_session, tmp_path):
    import pandas as pd

    from indu_doc_transformer_ray.functions.text import bm25_topk

    rows = [
        {"doc_id": i, "text": "filler words only here nothing relevant " * 5}
        for i in range(20)
    ]
    rows.append({"doc_id": 100, "text": "data stream vector " * 10})
    rows.append({"doc_id": 101, "text": "data appears once amid filler " * 8})
    pd.DataFrame(rows).to_parquet(f"{tmp_path}/documents.parquet")

    out = bm25_topk(str(tmp_path), k=5)
    assert out.loc[0, "doc_id"] == 100  # all three terms, high tf
    assert 101 in set(out["doc_id"])
    assert (out["score_mu"] > 0).all()
    assert list(out["rk"]) == list(range(1, len(out) + 1))


def test_round3_new_ops_match_oracle(ray_session):
    """Window functions (running total, lag gaps), the 5-way nation-pair
    join, the disjunctive-predicate join, distinct-count-over-join, and
    JSON props extraction all hash-match their DuckDB oracles at sf0.001
    (same order-insensitive compare as the driver gate)."""
    import sys

    import duckdb

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    names = [
        "running_total_per_customer",
        "order_gaps",
        "q7_nation_pairs",
        "q19_disjunctive",
        "suppliers_per_type",
        "props_extract_stats",
        "lang_top_terms",
        "value_quantile_sample",
        "pmi_bigrams",
        "corr_qty_price",
        "daily_orders_events_outer",
        "char_entropy",
        "copurchase_type_pairs",
        "event_transitions",
        "embedding_dim_stats",
        "semdedup",
        "charlm_quality",
        "bigram_surprisal",
        "q8_market_share",
        "q13_order_distribution",
        "q17_small_qty_revenue",
        "q22_dormant_balance",
        "ngram_jaccard_pairs",
        "embedding_covariance",
        "q15_top_supplier",
        "q21_sole_returner",
        "value_outliers",
        "exact_price_quantiles",
        "source_overlap",
        "dataset_split",
        "whiten_embeddings",
        "label_propagation",
        "bpe_pair_merges",
        "bloom_semi_join",
        "latest_event_per_user",
        "orders_cube",
        "q2_min_cost_supplier",
        "q11_important_parts",
        "q16_supplier_counts",
        "q9_nation_profit",
        "q12_late_shipments",
        "q20_excess_suppliers",
        "median_price_per_status",
        "customers_1997_except_1998",
        "html_main_content",
        "html_spans",
        "gopher_rules",
        "dsir_weights",
        "rolling_window_orders",
        "price_decile",
        "first_touch_attribution",
        "corpus_diff",
        "late_event_rates",
        "substring_dup_coverage",
        "line_dedup",
        "mmr_diverse_topk",
        "customers_both_years",
        "stopword_scrub",
        "lang_adaptive_filter",
        "source_drift_ks",
        "cluster_cap_sample",
        "bfs_hops",
        "constraint_check",
        "ewma_user_value",
        "scd2_intervals",
        "pca_project",
        "langid_confusion",
        "pareto_frontier",
        "fuzzy_name_pairs",
        "session_overlap",
        "cumulative_unique_users",
        "events_hourly_dense",
        "top_paths",
        "mad_outliers",
        "leakage_safe_split",
        "user_modal_event",
        "value_histogram",
        "dau_wau_stickiness",
        "k_anonymity_audit",
        "event_state_lookup",
        "global_price_rank",
        "orders_wide",
        "join_size_estimate",
        "zorder_parts",
        "item_similarity_topk",
        "skew_report",
        "incremental_hourly_counts",
        "hll_wau",
        "value_trend_per_type",
        "knn_label_accuracy",
        "daily_value_median",
    ]
    qs, oracles = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in ("orders", "lineitem", "part", "supplier", "customer",
              "nation", "region", "events", "documents", "embeddings"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'"
        )
    for name in names:
        res = qs[name](sf)
        got = res.to_pandas() if hasattr(res, "to_pandas") else res
        want = con.execute(oracles[name]).df()
        assert sorted(got.columns) == sorted(want.columns), name
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        assert len(g) == len(w), (name, len(g), len(w))
        for c in cols:
            assert (g[c].astype(str).values == w[c].astype(str).values).all(), (
                name, c,
            )


def test_windows_bucket_invariance(ray_session, monkeypatch):
    """Window results are invariant to the derived co-location bucket
    count (buckets coarsen the shuffle key only; the kernel re-sorts by
    the exact partition key)."""
    import pandas as pd

    from indu_doc_transformer_ray.functions import windows

    sf = "/root/testdata/sf0.001"

    def run():
        return (
            windows.running_total_per_customer(sf)
            .to_pandas()
            .reset_index(drop=True)
        )

    monkeypatch.setattr(windows, "n_buckets", lambda *a, **k: 3)
    a = run()
    monkeypatch.setattr(windows, "n_buckets", lambda *a, **k: 64)
    b = run()
    pd.testing.assert_frame_equal(a, b)


def test_line_dedup_bucket_invariance(ray_session, monkeypatch):
    """line_dedup's two derived bucket counts (unit-hash co-location and
    doc-bucket rewrite co-location) only coarsen the shuffle keys — the
    rewrite output must be identical at any bucket count."""
    import pandas as pd

    from indu_doc_transformer_ray.functions import _util, dedup

    sf = "/root/testdata/sf0.001"

    def run():
        return (
            dedup.line_dedup(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    monkeypatch.setattr(_util, "n_buckets", lambda *a, **k: 3)
    a = run()
    monkeypatch.setattr(_util, "n_buckets", lambda *a, **k: 64)
    b = run()
    pd.testing.assert_frame_equal(a, b)
    assert a["n_dropped"].sum() > 0  # the fixture corpus really has dups


def test_shared_subdag_memoized(ray_session):
    """knn_graph and the Lloyd fit are pure functions of (sf_dir, params);
    within one Ray session repeat calls must return the SAME materialized
    object so pagerank/triangle/label-propagation share one build."""
    from indu_doc_transformer_ray.functions import similarity

    sf = "/root/testdata/sf0.001"
    c1 = similarity._kmeans_centroids(sf, 8, 5)
    c2 = similarity._kmeans_centroids(sf, 8, 5)
    assert c1 is c2
    g1 = similarity.knn_graph(sf)
    g2 = similarity.knn_graph(sf)
    assert g1 is g2
    assert similarity.knn_graph(sf, k=2) is not g1  # param-keyed


def test_html_boilerplate_strip(ray_session):
    """The synthesized page really contains the adversarial boilerplate
    (nav, link-heavy sidebar, cookie banner, footer, logo image, script)
    and the extractor removes ALL of it by DOM suppression + link density —
    while keeping every content word and every content image in order."""
    from indu_doc_transformer_ray.functions.html import (
        _MainContentParser,
        synth_html,
    )

    text = " ".join(f"w{i}" for i in range(30))
    page = synth_html(2, text, "srcZ")
    # the trap is planted: page is several times the text, with boilerplate
    assert len(page) > 3 * len(text)
    for marker in ("cookies", "Home", "promo", "logo.png", "track()", "Terms"):
        assert marker in page
    p = _MainContentParser()
    p.reset_doc()
    p.feed(page)
    spans = p.close_doc()
    main = " ".join(x for k, x in spans if k == "text")
    assert main == text
    media = [x for k, x in spans if k == "media"]
    assert media == ["media/img_2_0.png", "media/img_2_1.png"]
    for junk in ("cookies", "Home", "promo", "logo", "Terms", "docId"):
        assert junk not in main
    # interleaving: first text, then alternating img after each early para
    kinds = [k for k, _ in spans]
    assert kinds[:4] == ["text", "media", "text", "media"]

    # link density alone must kill an unlabeled link-farm div (no semantic
    # tag to suppress): genuinely heuristic, not an inverse of synthesis
    p.reset_doc()
    p.feed('<body><div>pick <a href="/x">one two three four</a> '
           '<a href="/y">five six seven</a></div><p>real content</p></body>')
    spans2 = p.close_doc()
    assert [x for k, x in spans2 if k == "text"] == ["real content"]


def test_broadcast_and_colocated_plans_agree(ray_session, monkeypatch):
    """Every query with a dimension-broadcast fast path (q7/q9/q3/q16/q2)
    must produce identical rows from both physical plans — the size guard
    only switches execution shape, never the answer."""
    import sys

    sys.path.insert(0, ".")
    from indu_doc_transformer_ray.functions import _relcommon as RC
    from indu_doc_transformer_ray.functions import relational as R

    sf = "/root/testdata/sf0.001"
    names = [
        "q7_nation_pairs", "q9_nation_profit", "q3_top_orders",
        "q16_supplier_counts", "q2_min_cost_supplier", "q8_market_share",
        "q17_small_qty_revenue", "q5_nation_revenue", "q20_excess_suppliers",
        "q14_promo_revenue", "q11_important_parts", "q19_disjunctive",
        "suppliers_per_type",
    ]
    fast = {}
    for n in names:
        r = getattr(R, n)(sf)
        fast[n] = r.to_pandas() if hasattr(r, "to_pandas") else r
    # the guard lives in _relcommon since the round-4 module split; query
    # code reads it dynamically (_rc.MAX_BROADCAST_DIM_ROWS)
    monkeypatch.setattr(RC, "MAX_BROADCAST_DIM_ROWS", 0)
    for n in names:
        r = getattr(R, n)(sf)
        slow = r.to_pandas() if hasattr(r, "to_pandas") else r
        assert fast[n].equals(slow), n


def test_read_num_blocks_derivation(ray_session):
    """Small tables get few, larger blocks (micro-block shuffle tax);
    compute parallelism keeps a floor; corpus-scale rows keep Ray's
    default (None)."""
    import ray as _ray

    from indu_doc_transformer_ray.functions._util import read_num_blocks

    ncpu = int(_ray.cluster_resources()["CPU"])
    # tiny table: at least 1 block, never more than the default parallelism
    assert read_num_blocks(100) >= 1
    assert read_num_blocks(100) <= ncpu * 2
    # mid-size: parallelism floor keeps per-doc kernels parallel
    nb = read_num_blocks(5000)
    assert nb >= min(max(ncpu // 2, 4), 5000 // 512)
    # corpus-scale: default streaming shape untouched
    assert read_num_blocks(ncpu * 2 * 16_384) is None
    assert read_num_blocks(10**12) is None


def test_graph_driver_escape_matches_distributed(ray_session, monkeypatch):
    """pagerank_knn and label_propagation's driver escapes must produce
    identical rows to the sharded-actor loops (budget forced to 0)."""
    import sys

    sys.path.insert(0, ".")
    from indu_doc_transformer_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    fast_pr = S.pagerank_knn(sf)
    fast_lp = S.label_propagation(sf)
    fast_bfs = S.bfs_hops(sf)
    monkeypatch.setattr(S, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    slow_pr = S.pagerank_knn(sf)
    slow_lp = S.label_propagation(sf)
    slow_bfs = S.bfs_hops(sf)
    to_df = lambda r: r.to_pandas() if hasattr(r, "to_pandas") else r
    import pandas as pd

    pd.testing.assert_frame_equal(
        to_df(fast_pr).reset_index(drop=True), to_df(slow_pr).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        to_df(fast_lp).reset_index(drop=True), to_df(slow_lp).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        to_df(fast_bfs).reset_index(drop=True), to_df(slow_bfs).reset_index(drop=True)
    )


def test_compression_ratio_matches_single_process(ray_session):
    """Rows-only op (no zlib in DuckDB): distributed result must equal the
    single-process pass bit-for-bit, at two read partitionings."""
    import zlib

    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.functions.text import compression_ratio

    sf = "/root/testdata/sf0.001"
    tab = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    want = {}
    for did, txt in zip(
        tab.column("doc_id").to_pylist(), tab.column("text").to_pylist()
    ):
        b = txt.encode()
        c = zlib.compress(b, 6)
        want[did] = (len(b), len(c), len(c) * 10000 // max(len(b), 1))

    got = compression_ratio(sf).to_pandas()
    assert len(got) == len(want)
    for row in got.itertuples(index=False):
        assert (row.raw_len, row.comp_len, row.ratio_bp) == want[row.doc_id]

    # partitioning invariance: a repartitioned read gives the same rows
    import ray.data

    ds2 = ray.data.read_parquet(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]
    ).repartition(7)
    import zlib as _z

    def ratios(t):
        import pyarrow as pa

        ids = t.column("doc_id").to_pylist()
        rl, cl, bp = [], [], []
        for txt in t.column("text").to_pylist():
            b = txt.encode()
            c = _z.compress(b, 6)
            rl.append(len(b))
            cl.append(len(c))
            bp.append(len(c) * 10000 // max(len(b), 1))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "raw_len": pa.array(rl, pa.int64()),
             "comp_len": pa.array(cl, pa.int64()),
             "ratio_bp": pa.array(bp, pa.int64())}
        )

    got2 = ds2.map_batches(ratios, batch_format="pyarrow").to_pandas()
    g1 = got.sort_values("doc_id").reset_index(drop=True)
    g2 = got2.sort_values("doc_id").reset_index(drop=True)
    assert g1.equals(g2)


def test_hll_wau_accuracy_vs_exact(ray_session):
    """The sketch-path WAU must track the exact trailing window within a
    few sigma (1.04/sqrt(4096) ~ 1.6%) on every day."""
    from indu_doc_transformer_ray.functions.events import dau_wau_stickiness
    from indu_doc_transformer_ray.functions.sketches import hll_wau

    sf = "/root/testdata/sf0.01"
    exact = dau_wau_stickiness(sf).set_index("day_bucket")["wau"]
    approx = hll_wau(sf).set_index("day_bucket")["approx_wau"]
    assert set(exact.index) == set(approx.index)
    for d in exact.index:
        rel = abs(int(approx[d]) - int(exact[d])) / max(1, int(exact[d]))
        assert rel <= 0.06, (d, int(exact[d]), int(approx[d]), rel)


def _tiny_gif(frames) -> bytes:
    """Minimal GIF89a writer for the round-trip test: 256-entry grayscale
    global color table, full-canvas frames, 'uncompressed' LZW (literal
    codes with periodic clear codes so the width never exceeds 9 bits)."""
    import struct

    h, w = frames[0].shape
    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", w, h)
    out += bytes([0xF7, 0, 0])  # GCT flag + 256 entries
    for i in range(256):
        out += bytes([i, i, i])
    for fr in frames:
        out += b"\x2C" + struct.pack("<HHHH", 0, 0, w, h) + b"\x00"
        out += bytes([8])  # LZW min code size
        codes = [256]
        count = 0
        for px in fr.flatten():
            codes.append(int(px))
            count += 1
            if count == 250:
                codes.append(256)
                count = 0
        codes.append(257)
        acc = nbits = 0
        data = bytearray()
        for c in codes:
            acc |= c << nbits
            nbits += 9
            while nbits >= 8:
                data.append(acc & 0xFF)
                acc >>= 8
                nbits -= 8
        if nbits:
            data.append(acc & 0xFF)
        for j in range(0, len(data), 255):
            chunk = data[j : j + 255]
            out += bytes([len(chunk)]) + chunk
        out += b"\x00"
    out += b"\x3B"
    return bytes(out)


def test_frame_sample_real_gif_decode(ray_session, tmp_path):
    """frame_sample's REAL container path: a 3-frame GIF written by the
    test's own minimal encoder decodes through the pure-Python LZW decoder
    end-to-end in the actor pool — true frame count, per-frame checksums
    equal to the encoded planes (stub refs in the same batch still stub)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from indu_doc_transformer_ray.functions.multimodal import (
        _decode_gif_frames,
        frame_sample,
    )

    rng = np.random.RandomState(3)
    frames = [rng.randint(0, 256, size=(13, 16), dtype=np.uint8)
              for _ in range(3)]
    gif_path = tmp_path / "clip.gif"
    gif_path.write_bytes(_tiny_gif(frames))

    # decoder unit check: exact palette round-trip per frame
    decoded = _decode_gif_frames(str(gif_path))
    assert len(decoded) == 3
    for fr, dec in zip(frames, decoded):
        assert dec.shape == (13, 16, 3)
        assert (dec == np.repeat(fr[:, :, None], 3, axis=2)).all()

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d0"], pa.string()),
                "spans": pa.array(
                    [[
                        {"kind": "media", "text": "", "media_ref": "clip.gif",
                         "offset": 0},
                        {"kind": "media", "text": "", "media_ref": "no-file",
                         "offset": 1},
                    ]],
                ),
            }
        )
    )
    out = frame_sample(docs, every_n=2, media_root=str(tmp_path)).to_pandas()
    gif_rows = out[out["media_ref"] == "clip.gif"].sort_values("frame_idx")
    assert list(gif_rows["frame_idx"]) == [0, 2]
    assert (gif_rows["n_frames"] == 3).all()
    for _, r in gif_rows.iterrows():
        want = int(frames[r.frame_idx].astype(np.int64).sum()) * 3
        assert int(r.frame_sum) == want
    # the unresolvable ref still rides the deterministic stub path
    assert (out[out["media_ref"] == "no-file"]["n_frames"] > 0).all()


def test_media_text_context_matches_naive(ray_session):
    """The index-vectorized interleaving context must equal a literal
    per-row walk over the same span lists, at two read parallelisms
    (partitioning invariance of the flattened-offsets arithmetic)."""
    import pandas as pd

    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.functions.multimodal import media_text_context

    tab = corpus_table(60, seed=17)
    want_rows = []
    for r in tab.to_pylist():
        spans = r["spans"]
        for i, s in enumerate(spans):
            if s["kind"] != "media":
                continue
            before = [x for x in spans[:i] if x["kind"] == "text"]
            nxt = next((x for x in spans[i + 1:] if x["kind"] == "text"), None)
            want_rows.append(
                {
                    "doc_id": r["doc_id"],
                    "media_ref": s["media_ref"],
                    "n_text_before": len(before),
                    "prev_text_tokens": len(before[-1]["text"].split())
                    if before else 0,
                    "next_text_tokens": len(nxt["text"].split()) if nxt else 0,
                }
            )
    want = (
        pd.DataFrame(want_rows)
        .sort_values(["doc_id", "media_ref", "n_text_before"])
        .reset_index(drop=True)
    )
    assert len(want) > 0

    for nblocks in (1, 7):
        ds = ray.data.from_arrow(tab).repartition(nblocks)
        got = (
            media_text_context(ds)
            .to_pandas()
            .sort_values(["doc_id", "media_ref", "n_text_before"])
            .reset_index(drop=True)
            .astype(want.dtypes.to_dict())
        )
        assert got.equals(want), nblocks


def test_mg_fold_superset_guarantee():
    """Misra-Gries prune law on a planted skewed stream whose vocabulary
    exceeds the capacity: every item with true frequency > n/(capacity+1)
    survives an arbitrary merge tree of fold(sum(...)), and surviving
    counts never exceed the true counts (the one-sided error bound)."""
    import random

    from indu_doc_transformer_ray.functions.sketches import _mg_fold

    rng = random.Random(7)
    # 200 rare items + 5 genuinely heavy ones, capacity far below vocab
    stream = [f"rare{i}" for i in range(200) for _ in range(rng.randint(1, 3))]
    for h in range(5):
        stream += [f"heavy{h}"] * 120
    rng.shuffle(stream)
    n, cap = len(stream), 16

    from collections import Counter

    true = Counter(stream)
    # simulate distributed batches: fold each chunk, sum summaries, fold once
    merged: Counter = Counter()
    for i in range(0, n, 97):
        chunk = Counter(stream[i : i + 97])
        merged.update(_mg_fold(chunk, cap))
    cand = _mg_fold(merged, cap)
    assert len(cand) <= cap
    for item, cnt in true.items():
        if cnt > n / (cap + 1):
            assert item in cand, item
    for item, kept in cand.items():
        assert kept <= true[item]


def test_round4_new_ops_match_oracle(ray_session):
    """Round-4 additions hash-match their DuckDB oracles at sf0.001 (same
    order-insensitive compare as the driver gate): trailing-density range
    self-join, ordered string-agg, weighted holistic median, CUSUM scan,
    Misra-Gries exact heavy hitters, and hybrid RRF retrieval."""
    import sys

    import duckdb

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    names = [
        "events_trailing_density",
        "customer_order_seq",
        "weighted_median_price",
        "cusum_drift",
        "heavy_hitters",
        "hybrid_rrf_topk",
        "mutual_knn_pairs",
        "repetition_filter",
        "kmv_distinct_users",
        "cdc_upsert_snapshot",
        "common_neighbors_topk",
        "substring_dedup_rewrite",
        "pii_scrub",
    ]
    qs, oracles = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in ("orders", "lineitem", "part", "supplier", "customer",
              "nation", "region", "events", "documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    for name in names:
        res = qs[name](sf)
        got = res.to_pandas() if hasattr(res, "to_pandas") else res
        want = con.execute(oracles[name]).df()
        assert sorted(got.columns) == sorted(want.columns), name
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        assert len(g) == len(w), (name, len(g), len(w))
        for c in cols:
            assert (g[c].astype(str).values == w[c].astype(str).values).all(), (
                name, c,
            )


def test_media_phash_pairs_planted_neardups(ray_session, tmp_path):
    """Perceptual-hash image dedup end-to-end over REAL PPM files: a base
    image, a near-copy (one corner patch brightened — few dHash bits flip),
    and an unrelated image.  The (base, copy) pair must surface with the
    exact Hamming distance an independent single-process dHash computes;
    the unrelated image must not pair.  Also checks the cross-band dedup
    (a 0-distance clone pairs via all 7 bands but must emit once)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from indu_doc_transformer_ray.functions.multimodal import (
        _dhash64,
        media_dhash,
        media_phash_pairs,
    )

    rng = np.random.RandomState(7)
    # base: smooth gradient + noise so dHash bits are stable under the patch
    yy, xx = np.mgrid[0:40, 0:60]
    base = ((xx * 4 + yy) % 256).astype(np.uint8)
    base = np.stack([base, base // 2, 255 - base], axis=-1)
    near = base.copy()
    near[:5, :7] = 255  # one resized-grid cell flips a handful of bits
    clone = base.copy()
    other = rng.randint(0, 256, size=(40, 60, 3), dtype=np.uint8)

    planes = {"a_base.ppm": base, "b_near.ppm": near,
              "c_clone.ppm": clone, "d_other.ppm": other}
    for name, px in planes.items():
        with open(tmp_path / name, "wb") as f:
            f.write(b"P6\n60 40\n255\n" + px.tobytes())

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d0"], pa.string()),
                "spans": pa.array(
                    [[
                        {"kind": "media", "text": "", "media_ref": n,
                         "offset": i}
                        for i, n in enumerate(sorted(planes))
                    ]],
                ),
            }
        )
    )

    # single-process reference: hash each plane directly, brute-force pairs
    ref_hash = {n: _dhash64(px) for n, px in planes.items()}

    def ham(a, b):
        return bin((a ^ b) & ((1 << 64) - 1)).count("1")

    want = {
        tuple(sorted((x, y))): ham(ref_hash[x], ref_hash[y])
        for x in planes for y in planes
        if x < y and ham(ref_hash[x], ref_hash[y]) <= 6
    }
    assert ("a_base.ppm", "b_near.ppm") in want  # the plant worked
    assert 1 <= want[("a_base.ppm", "b_near.ppm")] <= 6
    assert want[("a_base.ppm", "c_clone.ppm")] == 0

    hashes = media_dhash(docs, media_root=str(tmp_path)).to_pandas()
    got_hashes = dict(zip(hashes["media_ref"], hashes["dhash"]))
    assert got_hashes == ref_hash

    pairs = media_phash_pairs(docs, media_root=str(tmp_path)).to_pandas()
    got = {
        (r.ref_a, r.ref_b): r.hamming for r in pairs.itertuples()
    }
    assert got == want
    assert len(pairs) == len(pairs.drop_duplicates(["ref_a", "ref_b"]))


def test_kmv_estimate_accuracy(ray_session):
    """KMV bottom-k estimate vs exact distinct at a scale where every group
    exceeds K=256 distinct users: relative error must be within the
    sketch's theoretical band (~1/sqrt(K-2) ≈ 6.3%; assert a loose 4x).
    sf0.1 is the smallest corpus whose groups exceed K (1500 distinct
    users/type; sf0.01 has 150, where KMV degenerates to the exact set)."""
    from indu_doc_transformer_ray.functions.sketches import kmv_distinct_users

    out = kmv_distinct_users("/root/testdata/sf0.1")
    assert (out["exact_distinct"] > 256).all()  # sketch branch exercised
    rel = (out["kmv_estimate"] - out["exact_distinct"]).abs() / out[
        "exact_distinct"
    ]
    assert rel.max() <= 0.25, out.to_dict("records")


def test_pq_topk_recall(ray_session):
    """PQ-ADC + exact-refine vs the exact scan: with 8-bit codebooks and a
    5K shortlist the deterministic recall@10 must stay high (measured 1.0 /
    1.0 / 1.0 at sf0.001; assert a safety margin), and PQ never returns a
    vector the corpus lacks."""
    from indu_doc_transformer_ray.functions.similarity import ann_topk, pq_topk

    sf = "/root/testdata/sf0.001"
    exact = ann_topk(sf)
    approx = pq_topk(sf)
    assert set(approx.columns) == {"query_id", "vec_id", "rank"}
    recalls = {}
    for qid in (0, 1, 2):
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        recalls[qid] = len(e & a) / len(e)
    assert min(recalls.values()) >= 0.7, recalls
    assert sum(recalls.values()) / 3 >= 0.9, recalls


def test_bpe_train_and_fertility_match_reference(ray_session):
    """The distributed iterative BPE trainer and the fertility pass must
    equal an INDEPENDENT single-process BPE (Sennrich semantics: weighted
    overlapping pair counts over the word-frequency table, merge all
    occurrences left-to-right, tie-break count DESC then pair ASC) on the
    real sf0.001 corpus — merges list and per-doc stats, exactly."""
    from collections import Counter

    import pandas as pd

    from indu_doc_transformer_ray.functions.text import (
        TOKEN_RE,
        bpe_fertility,
        bpe_train,
    )

    sf = "/root/testdata/sf0.001"
    merges = bpe_train(sf)
    assert len(merges) == 12

    def ref_apply(word, ms, ranks):
        syms = list(word)
        while len(syms) > 1:
            cand = [
                (ranks[(syms[i], syms[i + 1])], i)
                for i in range(len(syms) - 1)
                if (syms[i], syms[i + 1]) in ranks
            ]
            if not cand:
                break
            r = min(cand)[0]
            a, b = ms[r]
            out, i = [], 0
            while i < len(syms):
                if i < len(syms) - 1 and (syms[i], syms[i + 1]) == (a, b):
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return syms

    docs = pd.read_parquet(f"{sf}/documents.parquet")
    wf: Counter = Counter()
    for t in docs["text"]:
        wf.update(TOKEN_RE.findall(t.lower()))
    ref_merges = []
    for _ in range(12):
        ranks = {p: i for i, p in enumerate(ref_merges)}
        pc: Counter = Counter()
        for w, n in wf.items():
            syms = ref_apply(w, ref_merges, ranks)
            for pair in zip(syms, syms[1:]):
                pc[pair] += n
        if not pc:
            break
        ref_merges.append(
            sorted(pc.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        )
    assert merges == ref_merges

    got = (
        bpe_fertility(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    ranks = {p: i for i, p in enumerate(ref_merges)}
    rows = []
    for doc_id, t in zip(docs["doc_id"], docs["text"]):
        toks = TOKEN_RE.findall(t.lower())
        total = sum(len(ref_apply(w, ref_merges, ranks)) for w in toks)
        rows.append(
            (doc_id, len(toks), total,
             10000 * total // len(toks) if toks else 0)
        )
    want = pd.DataFrame(
        rows, columns=["doc_id", "n_words", "n_subtokens", "fertility_bp"]
    ).sort_values("doc_id").reset_index(drop=True).astype("int64")
    assert got.equals(want)
    # merges strictly reduce token counts vs character segmentation
    assert (got["n_subtokens"] < docs.set_index("doc_id")["text"].str.len()
            .reindex(got["doc_id"]).to_numpy()).all()


def test_substring_dedup_rewrite_keeps_one_copy(ray_session, tmp_path):
    """A passage shared by two docs survives ONLY in the keeper (the
    lexicographically first occurrence): doc 0 keeps it intact, doc 1
    loses exactly the passage tokens and its residual equals its unique
    prefix — the Lee et al. keep-one-copy contract."""
    import hashlib

    import pandas as pd

    from indu_doc_transformer_ray.functions.dedup import (
        SUBSTR_K,
        substring_dedup_rewrite,
    )

    passage = " ".join(f"shared{i}" for i in range(SUBSTR_K + 4))
    rows = [
        {"doc_id": 0, "text": "alpha beta gamma " + passage},
        {"doc_id": 1, "text": "delta epsilon zeta " + passage},
        {"doc_id": 2, "text": "eta theta iota kappa"},
    ]
    pd.DataFrame(rows).to_parquet(f"{tmp_path}/documents.parquet")
    out = (
        substring_dedup_rewrite(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "n_removed"] == 0  # keeper doc intact
    assert out.loc[0, "residual_md5"] == hashlib.md5(
        ("alpha beta gamma " + passage).encode()
    ).hexdigest()
    assert out.loc[1, "n_removed"] == SUBSTR_K + 4  # the whole passage
    assert out.loc[1, "residual_md5"] == hashlib.md5(
        b"delta epsilon zeta"
    ).hexdigest()
    assert out.loc[2, "n_removed"] == 0


def test_session3_ops_bucket_invariance(ray_session, monkeypatch):
    """The session-3 hash-co-location ops (bigram count table, KMV distinct,
    substring rewrite, CDC resolve) only use bucket counts to coarsen
    shuffle keys — results must be identical at any bucket count (the
    in-bucket kernels' correctness depends on CO-LOCATION, never on the
    count)."""
    import pandas as pd

    from indu_doc_transformer_ray.functions import _util, dedup, sketches, text
    from indu_doc_transformer_ray.functions import star

    sf = "/root/testdata/sf0.001"

    def snap():
        out = {}
        out["bigram"] = (
            text.bigram_surprisal(sf).to_pandas()
            .sort_values("doc_id").reset_index(drop=True)
        )
        out["kmv"] = sketches.kmv_distinct_users(sf).reset_index(drop=True)
        out["rewrite"] = (
            dedup.substring_dedup_rewrite(sf).to_pandas()
            .sort_values("doc_id").reset_index(drop=True)
        )
        out["cdc"] = (
            star.cdc_upsert_snapshot(sf).to_pandas()
            .sort_values("o_orderkey").reset_index(drop=True)
        )
        return out

    monkeypatch.setattr(_util, "n_buckets", lambda *a, **k: 3)
    a = snap()
    monkeypatch.setattr(_util, "n_buckets", lambda *a, **k: 128)
    b = snap()
    for key in a:
        pd.testing.assert_frame_equal(a[key], b[key]), key


def test_pii_scrub_planted(ray_session, tmp_path):
    """Planted PII is masked with correct per-type counts and the scrubbed
    md5 reflects the masked text; the staged order (emails first) means a
    phone-shaped fragment inside an address never double-masks.  The
    planted corpus also drives the DuckDB oracle to hash-equality, proving
    the regex semantics agree BEYOND the PII-free driver testdata."""
    import hashlib

    import duckdb
    import pandas as pd

    from indu_doc_transformer_ray.functions.text import (
        PII_SCRUB_SQL,
        pii_scrub,
    )

    rows = [
        {"doc_id": 0,
         "text": "reach me at jane.doe@corp.example.com or 555-123-4567"},
        {"doc_id": 1, "text": "server 10.0.255.7 and mirror 192.168.0.1"},
        {"doc_id": 2, "text": "nothing sensitive here"},
    ]
    pd.DataFrame(rows).to_parquet(f"{tmp_path}/documents.parquet")
    out = pii_scrub(str(tmp_path)).to_pandas().set_index("doc_id").sort_index()

    assert out.loc[0, "n_emails"] == 1 and out.loc[0, "n_phones"] == 1
    assert out.loc[0, "scrubbed_md5"] == hashlib.md5(
        b"reach me at <EMAIL> or <PHONE>"
    ).hexdigest()
    assert out.loc[1, "n_ips"] == 2
    assert out.loc[1, "scrubbed_md5"] == hashlib.md5(
        b"server <IP> and mirror <IP>"
    ).hexdigest()
    assert out.loc[2, ["n_emails", "n_phones", "n_ips"]].sum() == 0

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.execute(PII_SCRUB_SQL).df().set_index("doc_id").sort_index()
    assert (out["scrubbed_md5"] == want["scrubbed_md5"]).all()


def test_media_phash_clusters_planted(ray_session, tmp_path):
    """Image near-dup clusters: a base image, its near-copy and a clone of
    the near-copy land in ONE cluster (transitive closure over phash
    pairs); an unrelated image emits nothing (singletons need no dedup
    decision)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from indu_doc_transformer_ray.functions.multimodal import (
        media_phash_clusters,
    )

    yy, xx = np.mgrid[0:40, 0:60]
    base = ((xx * 4 + yy) % 256).astype(np.uint8)
    base = np.stack([base, base // 2, 255 - base], axis=-1)
    near = base.copy()
    near[:5, :7] = 255
    clone = near.copy()
    rng = np.random.RandomState(7)
    other = rng.randint(0, 256, size=(40, 60, 3), dtype=np.uint8)
    planes = {"a.ppm": base, "b.ppm": near, "c.ppm": clone, "d.ppm": other}
    for n, px in planes.items():
        (tmp_path / n).write_bytes(b"P6\n60 40\n255\n" + px.tobytes())

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d0"], pa.string()),
                "spans": pa.array(
                    [[
                        {"kind": "media", "text": "", "media_ref": n,
                         "offset": i}
                        for i, n in enumerate(sorted(planes))
                    ]],
                ),
            }
        )
    )
    out = (
        media_phash_clusters(docs, media_root=str(tmp_path))
        .to_pandas()
        .set_index("media_ref")
    )
    assert set(out.index) == {"a.ppm", "b.ppm", "c.ppm"}
    assert out["cluster_id"].nunique() == 1


def test_round4_session5_ops_match_oracle(ray_session):
    """Round-4 session-5 additions hash-match their DuckDB oracles at
    sf0.001: exact distributed Gini (rank identity, no global sort),
    chi-square day-of-week uniformity audit, and the trained multinomial
    naive-Bayes language-confusion matrix (integer micro-nat weights)."""
    import sys

    import duckdb

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    names = ["gini_by_status", "dow_chisq_by_type", "nb_lang_confusion",
             "ddsketch_price_quantiles", "loo_target_encode",
             "rfm_scores", "seasonal_error_by_type",
             "sorted_neighborhood_pairs", "mann_kendall_by_type",
             "benford_digits_by_type", "interarrival_quantiles_by_type",
             "theil_sen_by_type", "lorenz_by_status", "gbdt_split_gain",
             "kendall_tau_counts", "fano_factor_by_type",
             "gbdt_boost_rounds", "user_drawdown", "kmv_type_overlap",
             "acf_daily_by_type", "user_features", "trimmed_mean_by_type",
             "resource_allocation_topk", "heaps_vocab_growth",
             "km_survival", "wasserstein_type_pairs",
             "isotonic_price_urgency", "greedy_vocab_cover",
             "jackknife_mean_by_type", "l_diversity_audit",
             "ccf_type_pairs", "user_day_streaks"]
    qs, oracles = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in ("orders", "events", "documents", "lineitem", "customer",
              "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    for name in names:
        res = qs[name](sf)
        got = res.to_pandas() if hasattr(res, "to_pandas") else res
        want = con.execute(oracles[name]).df()
        assert sorted(got.columns) == sorted(want.columns), name
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        assert len(g) == len(w), (name, len(g), len(w))
        for c in cols:
            assert (g[c].astype(str).values == w[c].astype(str).values).all(), (
                name, c,
            )


def test_kcore_decompose(ray_session, monkeypatch):
    """k-core decomposition, three gates: (1) the h-index fixed point on a
    planted clique+chain graph equals an exact single-process peel (the
    fixed ROUNDS unroll must have converged there); (2) the sf0.001 run
    hash-matches the unrolled-CTE DuckDB oracle; (3) the sharded
    edge-actor path is bit-identical to the driver escape."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import similarity  # facade
    from indu_doc_transformer_ray.functions import graph

    # (1) planted: 5-clique (coreness 4) + a 3-node chain off node 0
    # (coreness 1) + an isolated pair (coreness 1)
    edges = [(a, b) for a in range(5) for b in range(5) if a < b]
    edges += [(0, 5), (5, 6), (6, 7), (8, 9)]
    a = np.array([e[0] for e in edges], np.int64)
    b = np.array([e[1] for e in edges], np.int64)
    nodes = np.arange(10, dtype=np.int64)
    got = graph._kcore_numpy(nodes, a, b, rounds=30)

    adj = {int(v): set() for v in nodes}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    deg = {v: len(adj[v]) for v in adj}
    remaining = set(adj)
    core, k = {}, 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        core[v] = k
        remaining.remove(v)
        for w in adj[v]:
            if w in remaining:
                deg[w] -= 1
    assert got.tolist() == [core[int(v)] for v in nodes]
    assert got.tolist() == [4, 4, 4, 4, 4, 1, 1, 1, 1, 1]

    # (2) oracle equality at sf0.001 (driver-escape path)
    sf = "/root/testdata/sf0.001"
    res = graph.kcore_decompose(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.KCORE_SQL).df()
    assert res["vec_id"].tolist() == want["vec_id"].tolist()
    assert res["core"].tolist() == want["core"].tolist()

    # (3) actor path == escape path
    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    res2 = graph.kcore_decompose(sf)
    assert res2.values.tolist() == res.values.tolist()


def test_ddsketch_error_bound(ray_session):
    """The DDSketch-style quantile estimates are lower bucket bounds with
    ≤1/16 relative bucket width: exact sorted quantile q_true must satisfy
    est ≤ q_true < est·17/16 for every reported quantile."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import sketches as sk

    sf = "/root/testdata/sf0.001"
    got = sk.ddsketch_price_quantiles(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'"
    )
    v = np.sort(
        np.round(
            con.sql("SELECT l_extendedprice FROM lineitem")
            .df()["l_extendedprice"]
            .to_numpy()
            * 100
        ).astype(np.int64)
    )
    for q, est in got.values.tolist():
        exact = int(v[(q * len(v) + 9999) // 10000 - 1])
        assert est <= exact, (q, est, exact)
        assert exact * 16 < est * 17, (q, est, exact)


def test_session6_op_invariants(ray_session):
    """Mathematical invariants of the session-6 operators at sf0.001 —
    properties the hash-equality gate can't see (it would accept a wrong
    oracle pair): Lorenz curves are monotone and below the diagonal,
    isotonic fits are non-decreasing, Kaplan-Meier is non-increasing with
    shrinking risk sets, Kendall pair counts partition n-choose-2, greedy
    coverage has non-increasing marginal gains that telescope into the
    covered total, and streaks are bounded by active days."""
    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    qs = e.queries()

    lor = qs["lorenz_by_status"](sf)
    for _, g in lor.groupby("o_orderstatus"):
        s = g.sort_values("q_mu")
        assert s["share_u"].is_monotonic_increasing
        assert (s["share_u"] <= s["q_mu"]).all()  # below the diagonal

    iso = qs["isotonic_price_urgency"](sf)
    assert iso.sort_values("bin_id")["iso_rate_mu"].is_monotonic_increasing
    assert (iso["pos"] <= iso["n"]).all()

    km = qs["km_survival"](sf)
    s = km.sort_values("duration_days")
    assert (s["km_survival_mu"].diff().dropna() <= 0).all()
    assert (s["n_risk"].diff().dropna() < 0).all()
    assert (s["n_events"] > 0).all()

    kt = qs["kendall_tau_counts"](sf)
    total_pairs = (
        kt["concordant"] + kt["discordant"] + kt["ties_x"] + kt["ties_y"]
        + kt["ties_xy"]
    )
    assert (total_pairs == kt["n"] * (kt["n"] - 1) // 2).all()

    gc = qs["greedy_vocab_cover"](sf)
    s = gc.sort_values("sel_round")
    assert (s["new_tokens"].diff().dropna() <= 0).all()  # submodularity
    assert (s["new_tokens"].cumsum() == s["covered_total"]).all()
    assert (s["new_tokens"] > 0).all()  # termination contract

    st = qs["user_day_streaks"](sf).to_pandas()
    assert (st["max_streak_days"] <= st["n_active_days"]).all()
    assert (st["n_streaks"] >= 1).all()

    fano = qs["fano_factor_by_type"](sf)
    assert (fano["fano_den"] > 0).all()
    assert (fano["days_active"] <= fano["n_days"]).all()
    assert (fano["fano_num"] >= 0).all()  # m*S2 >= S1^2 by Cauchy-Schwarz

    w1 = qs["wasserstein_type_pairs"](sf)
    assert (w1["emd_num"] >= 0).all()
    assert (w1["emd_den"] == w1["n_a"] * w1["n_b"]).all()


def test_session7_op_invariants(ray_session):
    """Mathematical invariants of the session-7 operators at sf0.001 —
    properties the hash-equality gate can't see (a wrong oracle PAIR would
    still hash-match): association-rule counts obey containment and lift
    symmetry, Spearman lives in [-1, 1] and hits +1 on a perfectly
    monotone series, AMS estimates the true F2 within a sane band, the
    Markov stationary vector conserves (leaks at most floor mass of) its
    ppm budget, the changepoint score is the true argmax of its own
    statistic, the rolling median matches a naive replay, Jaccard/cc live
    in [0, 1e6], and Holt smoothing tracks a constant series exactly."""
    import numpy as np
    import pandas as pd

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    qs = e.queries()

    ar = qs["assoc_rules"](sf)
    assert (ar["n_ab"] <= np.minimum(ar["n_ante"], ar["n_cons"])).all()
    assert (ar["n_ante"] <= ar["n_baskets"]).all()
    assert (ar["conf_ppm"] <= 10**6).all()
    # lift is symmetric: the (a,b) and (b,a) rows carry the same lift
    key = ar.apply(
        lambda r: tuple(sorted((r["ante"], r["cons"]))), axis=1
    )
    assert (ar.groupby(key)["lift_ppm"].nunique() == 1).all()

    sp = qs["spearman_qty_discount"](sf).to_pandas()
    assert (sp["spearman_ppm"].abs() <= 10**6).all()

    ams = qs["ams_f2_by_type"](sf)
    # the median-of-16 AMS estimate of F2 is within a loose constant band
    # of the exact value on this corpus (variance is 2*F2^2/K)
    assert (ams["f2_ams_x2"] > 0).all()
    assert (ams["f2_ams_x2"] < 2 * 10 * ams["f2_exact"]).all()
    assert (ams["f2_ams_x2"] * 10 > 2 * ams["f2_exact"]).all()

    mk = qs["markov_stationary"](sf)
    assert mk["pi_ppm"].sum() <= 10**6
    # floor leak per step is < k per state transition; 12 rounds x k^2
    k = len(mk)
    assert mk["pi_ppm"].sum() > 10**6 - 12 * k * k
    assert (mk["pi_ppm"] >= 0).all()

    cpd = qs["cpd_daily_by_type"](sf)
    assert (cpd["split_k"] >= 1).all()
    assert (cpd["split_k"] < cpd["n_days"]).all()
    assert (cpd["h_scaled"] >= 0).all()

    # rolling median: naive per-user replay at tiny scale
    rm = qs["rolling_median_value"](sf).to_pandas().sort_values("event_id")
    import duckdb

    con = duckdb.connect()
    ev = con.sql(
        f"SELECT event_id, user_id, ts, CAST(ROUND(value*100) AS BIGINT) v "
        f"FROM '{sf}/events.parquet' ORDER BY user_id, ts, event_id"
    ).df()
    want = {}
    for _, g in ev.groupby("user_id"):
        v = g["v"].tolist()
        ids = g["event_id"].tolist()
        for i in range(4, len(v)):
            want[ids[i]] = int(np.median(v[i - 4 : i + 1]))
    got = dict(zip(rm["event_id"], rm["med_c2"]))
    assert got == want

    nj = qs["neighbor_jaccard_topk"](sf).to_pandas()
    assert (nj["jac_ppm"] > 0).all() and (nj["jac_ppm"] <= 10**6).all()
    assert nj["jac_ppm"].is_monotonic_decreasing

    cc = qs["clustering_coeff_topk"](sf).to_pandas()
    assert (cc["cc_ppm"] <= 10**6).all() and (cc["cc_ppm"] >= 0).all()
    assert (
        cc["triangles"] * 2 <= cc["deg"] * (cc["deg"] - 1)
    ).all()

    qc = qs["quantile_cont_price"](sf)
    assert qc["value_c4"].is_monotonic_increasing  # pcts sorted ascending

    hl = qs["holt_linear_by_type"](sf)
    assert (hl["forecast7_u"] == hl["level_u"] + 7 * hl["trend_u"]).all()
    # constant-series exactness: replay the recurrence on a flat series
    lvl, tr = 5 * 10**6, 0
    for _ in range(100):
        lnew = (5 * 10**6 + 3 * (lvl + tr)) // 4
        tr = (lnew - lvl + 3 * tr) // 4
        lvl = lnew
    assert lvl == 5 * 10**6 and tr == 0

    yk = qs["yule_k_by_lang"](sf)
    assert (yk["vocab"] <= yk["n_tokens"]).all()
    assert (yk["yule_e10"] >= 0).all()


def test_em_linkage_separates_planted_matches():
    """On a planted pattern histogram with a clear duplicate cluster
    (10% of pairs agree on everything), the fixed-point EM recovers the
    match fraction and m >> u per feature — the TPC-H corpus itself has
    no true duplicates, so the query's output collapsing toward p≈0 is
    the honest answer; this gate proves the estimator itself separates."""
    from indu_doc_transformer_ray.functions.dedup import _em_linkage_rounds

    pat = {7: 1000, 0: 6000, 1: 1000, 2: 1000, 4: 1000}
    rows = _em_linkage_rounds(pat, rounds=12)
    last = rows[-1]
    p = last[1]
    m = last[2:5]
    u = last[5:8]
    assert 50_000 < p < 250_000  # ~10% planted matches
    assert all(mk > uk for mk, uk in zip(m, u))
    assert all(mk > 700_000 for mk in m)


def test_hyperball_nf(ray_session, monkeypatch):
    """HyperBall neighborhood function: (1) the sketch replays exactly in
    DuckDB (md5 planes, exact-integer denominators, pre-rounded linear
    counting), (2) the distributed register-exchange path is bit-equal to
    the driver scatter-max escape, (3) N(r) is monotone with N(0) equal to
    the node count (every singleton ball linear-counts to exactly 1)."""
    import duckdb

    import indu_doc_transformer_ray.functions.similarity  # noqa: F401
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    res = graph.hyperball_nf(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.HYPERBALL_NF_SQL).df()
    assert res.values.tolist() == want.values.tolist()

    nf = res["nf_est"].tolist()
    assert nf[0] == 500  # |ball(v,0)| = 1 per node, linear-counted exactly
    assert all(a <= b for a, b in zip(nf, nf[1:]))  # balls only grow

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    res2 = graph.hyperball_nf(sf)
    assert res2.values.tolist() == res.values.tolist()


def test_hits_scores(ray_session, monkeypatch):
    """HITS: (1) exact replay vs the unrolled SQL oracle, (2) distributed
    register-exchange path bit-equal to the driver escape, (3) L1 mass
    conservation — hub and auth columns each sum to ~HITS_MASS (floor
    division loses < n mass units)."""
    import duckdb

    import indu_doc_transformer_ray.functions.similarity  # noqa: F401
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    res = graph.hits_scores(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.HITS_SCORES_SQL).df()
    assert res.values.tolist() == want.astype("int64").values.tolist()

    n = len(res)
    for col in ("hub_mu", "auth_mu"):
        s = int(res[col].sum())
        assert graph.HITS_MASS - n <= s <= graph.HITS_MASS

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    res2 = graph.hits_scores(sf)
    assert res2.values.tolist() == res.values.tolist()


def test_chi2_lang_source(ray_session):
    """Chi-square audit: oracle equality plus two analytic gates — cell
    marginals reconstruct N, and a perfectly independent synthetic table
    (outer product counts) yields chi2_mu == 0 in every cell."""
    import duckdb
    import pandas as pd

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.chi2_lang_source(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(P.CHI2_LANG_SOURCE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert int(got["obs"].sum()) == 500

    # independence gate: obs = rt*ct/N exactly => numerator O*N-rt*ct == 0
    langs, sources = ["aa", "bb"], ["x", "y", "z"]
    rows = []
    for li, lang in enumerate(langs, start=1):
        for si, srcv in enumerate(sources, start=1):
            rows += [{"lang": lang, "source": srcv}] * (li * si * 4)
    df = pd.DataFrame(rows)
    N = len(df)
    cells = df.groupby(["lang", "source"]).size().reset_index(name="n")
    rt = cells.groupby("lang")["n"].sum().to_dict()
    ct = cells.groupby("source")["n"].sum().to_dict()
    for lang, srcv, obs in cells.itertuples(index=False):
        assert int(obs) * N - rt[lang] * ct[srcv] == 0


def test_seq_pattern_hits(ray_session):
    """Sequential-pattern histogram: oracle equality, population
    conservation (rows sum to the distinct-user count), and a hand-built
    replay on a tiny synthetic stream with a known hit layout."""
    import duckdb
    import numpy as np
    import pandas as pd

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.seq_pattern_hits(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.SEQ_PATTERN_HITS_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    n_users = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert int(got["n_users"].sum()) == n_users

    # adjacency gate: view->click->X->purchase must NOT count
    t = np.array(["view", "click", "purchase",     # hit
                  "view", "click", "error", "purchase",  # no hit (gap)
                  "view", "click", "purchase"])    # hit
    u = np.zeros(len(t), dtype=np.int64)
    m = (t[:-2] == "view") & (t[1:-1] == "click") & (t[2:] == "purchase") \
        & (u[:-2] == u[2:])
    assert int(m.sum()) == 2


def test_lp_modularity(ray_session, monkeypatch):
    """Modularity audit: oracle equality, the distributed three-exchange
    path bit-equal to the driver escape, and the analytic identities
    sum(d_sum) == 2m and l_in <= m per community."""
    import duckdb

    import indu_doc_transformer_ray.functions.similarity  # noqa: F401
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    res = graph.lp_modularity(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.LP_MODULARITY_SQL).df()
    assert res.values.tolist() == want.astype("int64").values.tolist()

    m = con.execute(
        f"WITH g AS ({graph.KNN_GRAPH_SQL}) SELECT COUNT(*) FROM ("
        "SELECT DISTINCT LEAST(vec_id, nbr_id), GREATEST(vec_id, nbr_id) FROM g)"
    ).fetchone()[0]
    assert int(res["d_sum"].sum()) == 2 * m
    assert (res["l_in"] <= m).all()
    assert ((res["q_num"] == 4 * m * res["l_in"] - res["d_sum"] ** 2)).all()

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    res2 = graph.lp_modularity(sf)
    assert res2.values.tolist() == res.values.tolist()


def test_ppr_seeds(ray_session, monkeypatch):
    """Personalized PageRank: oracle equality, distributed/driver
    bit-equality, and the personalization property — teleport mass exists
    only on seeds, so any node with rank but no inbound path from a seed
    within `iters` hops must have rank_mu == 0."""
    import duckdb

    import indu_doc_transformer_ray.functions.similarity  # noqa: F401
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    res = graph.ppr_seeds(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.PPR_SEEDS_SQL).df()
    assert res.values.tolist() == want.astype("int64").values.tolist()

    # seeds hold teleport mass; total mass is bounded by the start mass
    seeds = res[res["vec_id"] % graph.PPR_SEED_MOD == 0]
    assert (seeds["rank_mu"] > 0).all()
    assert int(res["rank_mu"].sum()) <= graph.PAGERANK_MASS

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    res2 = graph.ppr_seeds(sf)
    assert res2.values.tolist() == res.values.tolist()


def test_textrank_keywords(ray_session):
    """TextRank: oracle equality plus the structural gates — every output
    word is >= 3 chars and appears adjacent to another kept token
    somewhere in the corpus."""
    import duckdb

    from indu_doc_transformer_ray.functions import text

    sf = "/root/testdata/sf0.001"
    got = text.textrank_keywords(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(text.TEXTRANK_KEYWORDS_SQL).df()
    assert got.values.tolist() == want.astype(
        {"rank_mu": "int64"}
    ).values.tolist()
    assert len(got) == text.TEXTRANK_TOP
    assert (got["word"].str.len() >= text.TEXTRANK_MIN_LEN).all()
    assert (got["rank_mu"] > 0).all()


def test_relational_division_and_benford(ray_session):
    """Division: oracle equality + the for-all property (every returned
    customer has >= divisor-cardinality orders).  Benford: oracle equality
    + mass checks (obs sums to the order count; expected sums to within
    9 floor units of it)."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P
    from indu_doc_transformer_ray.functions import setops as SO

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM '{sf}/orders.parquet'")

    got = SO.relational_division(sf).to_pandas()
    want = con.execute(SO.RELATIONAL_DIVISION_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    n_prio = con.execute(
        "SELECT COUNT(DISTINCT o_orderpriority) FROM orders"
    ).fetchone()[0]
    assert (got["n_orders"] >= n_prio).all()

    gb = P.benford_audit(sf)
    wb = con.execute(P.BENFORD_AUDIT_SQL).df()
    assert gb.values.tolist() == wb.astype("int64").values.tolist()
    n = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    assert int(gb["obs"].sum()) == n
    assert n - 9 <= int(gb["expected"].sum()) <= n


def test_rfm_segments(ray_session):
    """RFM cube: oracle equality, population conservation (cells sum to
    the customer count), and score ranges within 1..5 on every axis."""
    import duckdb

    from indu_doc_transformer_ray.functions import windows as W

    sf = "/root/testdata/sf0.001"
    got = W.rfm_segments(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM '{sf}/orders.parquet'")
    want = con.execute(W.RFM_SEGMENTS_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()

    n_cust = con.execute(
        "SELECT COUNT(DISTINCT o_custkey) FROM orders"
    ).fetchone()[0]
    assert int(got["n_customers"].sum()) == n_cust
    for col in ("r_q", "f_q", "m_q"):
        assert got[col].between(1, 5).all()


def test_mann_whitney_qty(ray_session):
    """Mann-Whitney: oracle equality plus the exact identity
    u2_ab + u2_ba == 2 * n_a * n_b for every flag pair (total comparison
    mass is conserved under tie half-credit)."""
    import duckdb

    from indu_doc_transformer_ray.functions import tpch_corr as TC

    sf = "/root/testdata/sf0.001"
    got = TC.mann_whitney_qty(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'"
    )
    want = con.execute(TC.MANN_WHITNEY_QTY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (
        (got["u2_ab"] + got["u2_ba"]) == 2 * got["n_a"] * got["n_b"]
    ).all()


def test_oov_rate(ray_session):
    """OOV sweep: oracle equality plus monotonicity (bigger vocab => fewer
    OOV tokens) and the ppm floor identity."""
    import duckdb

    from indu_doc_transformer_ray.functions import text

    sf = "/root/testdata/sf0.001"
    got = text.oov_rate(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(text.OOV_RATE_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    oov = got["oov_tokens"].tolist()
    assert oov == sorted(oov, reverse=True)
    assert (
        got["oov_ppm"]
        == (got["oov_tokens"] * 10 ** 6) // got["total_tokens"]
    ).all()


def test_selfrep_hist(ray_session):
    """Self-repetition bands: oracle equality, population conservation,
    and a synthetic gate — a fully repeated doc lands in the top band."""
    import duckdb

    from indu_doc_transformer_ray.functions import text

    sf = "/root/testdata/sf0.001"
    got = text.selfrep_hist(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(text.SELFREP_HIST_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    assert int(got["n_docs"].sum()) == 500

    toks = ["spam"] * 103  # 101 trigrams, 1 distinct
    n = len(toks) - 2
    tris = list(zip(toks, toks[1:], toks[2:]))
    rep_ppm = (n - len(set(tris))) * 10 ** 6 // n
    assert rep_ppm // text.SELFREP_BAND_W == 9


def test_mase_weekly(ray_session):
    """MASE: oracle equality plus the sparse-pair decomposition replayed
    naively — zero-fill a synthetic series and check n_k equals the dense
    sum of |y_t - y_{t-k}|."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.mase_weekly(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.MASE_WEEKLY_SQL).df()
    assert got.values.tolist() == want.astype(
        {"n_days": "int64", "n1_sum": "int64",
         "n7_sum": "int64", "mase_ppm": "int64"}
    ).values.tolist()

    # dense replay of the sparse decomposition
    rng = {3: 5, 4: 2, 9: 7, 10: 1}   # observed (day, count), span 3..10
    d0, d1 = 3, 10
    dense = np.array([rng.get(t, 0) for t in range(d0, d1 + 1)])
    for k in (1, 7):
        expect = int(np.abs(dense[k:] - dense[:-k]).sum())
        days, cs = list(rng), list(rng.values())
        total = sum(c for day, c in rng.items() if day >= d0 + k)
        total += sum(c for day, c in rng.items() if day <= d1 - k)
        for i, day in enumerate(days):
            if day - k in rng:
                total += abs(cs[i] - rng[day - k]) - cs[i] - rng[day - k]
        assert total == expect


def test_conversion_latency_quantiles(ray_session):
    """Conversion latency: oracle equality + monotone percentiles."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.conversion_latency_quantiles(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.CONVERSION_LATENCY_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    lat = got["latency_s"].tolist()
    assert lat == sorted(lat)


def test_simpson_diversity_by_lang(ray_session):
    """Simpson index: oracle equality plus 0 <= num <= den and the
    single-source degenerate identity (num == den when one source)."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.simpson_diversity_by_lang(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(P.SIMPSON_DIVERSITY_SQL).df()
    assert got.values.tolist() == want.astype(
        {c: "int64" for c in
         ("n_docs", "n_sources", "simpson_num", "simpson_den")}
    ).values.tolist()
    assert ((got["simpson_num"] >= 0)
            & (got["simpson_num"] <= got["simpson_den"])).all()
    one_src = got[got["n_sources"] == 1]
    assert (one_src["simpson_num"] == one_src["simpson_den"]).all()


def test_apriori_triples(ray_session):
    """Apriori triples: oracle equality plus downward closure — every
    frequent triple's three constituent pairs must each appear in at
    least as many baskets (checked against assoc_rules' pair counts)."""
    import duckdb

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    got = ST.apriori_triples(sf)
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.execute(ST.APRIORI_TRIPLES_SQL).df()
    assert got.values.tolist() == want.astype(
        {"n_abc": "int64", "supp_ppm": "int64"}
    ).values.tolist()

    pairs = con.execute("""
        WITH ob AS (SELECT DISTINCT l.l_orderkey, p.p_brand
                    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey)
        SELECT a.p_brand a, b.p_brand b, COUNT(*) n FROM ob a
        JOIN ob b ON a.l_orderkey = b.l_orderkey AND a.p_brand < b.p_brand
        GROUP BY 1, 2
    """).df().set_index(["a", "b"])["n"].to_dict()
    for a, b, c_, n, _ in got.head(50).itertuples(index=False):
        assert pairs[(a, b)] >= n and pairs[(a, c_)] >= n and pairs[(b, c_)] >= n


def test_page_hinkley_by_type(ray_session):
    """Page-Hinkley: oracle equality plus a planted upward mean shift on a
    synthetic series — the statistic must peak at the end of the shifted
    run, and a constant series must yield ph_num == 0."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.page_hinkley_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.PAGE_HINKLEY_SQL).df()
    assert got.values.tolist() == want.astype(
        {"n_days": "int64", "ph_num": "int64", "t_at": "int64"}
    ).values.tolist()

    def ph(cs):
        T, S = len(cs), sum(cs)
        s_t, run_min, best, at = 0, 0, 0, 0
        for i, c in enumerate(cs, start=1):
            s_t += c
            m = T * s_t - i * S
            if m - run_min > best:
                best, at = m - run_min, i
            run_min = min(run_min, m)
        return best, at

    assert ph([5, 5, 5, 5]) == (0, 0)
    best, at = ph([2, 2, 2, 2, 10, 10, 10, 10])
    assert best > 0 and at == 8  # shift accumulates to the series end


def test_haar_energy_by_type(ray_session):
    """Haar spectrum: oracle equality plus the exact integer Parseval
    identity 2^L * sum(x^2) == sum_j 2^(L-j) * energy_j + smooth^2 on a
    synthetic series (total variance is conserved across scales)."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.haar_energy_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.HAAR_ENERGY_SQL).df()
    assert got.values.tolist() == want.astype(
        {"level": "int64", "energy": "int64"}
    ).values.tolist()
    assert len(got) == got["event_type"].nunique() * E.HAAR_LEVELS

    rng = np.random.RandomState(7)
    x = rng.randint(0, 50, size=16).astype(object)
    L = 4
    cur, energies = x, []
    for _ in range(L):
        left, right = cur[0::2], cur[1::2]
        energies.append(int(sum(int(v) ** 2 for v in (left - right))))
        cur = left + right
    smooth = int(cur[0])
    lhs = (1 << L) * int(sum(int(v) ** 2 for v in x))
    rhs = sum((1 << (L - j - 1)) * e for j, e in enumerate(energies)) \
        + smooth ** 2
    assert lhs == rhs


def test_record_days_by_type(ray_session):
    """Record days: oracle equality + the analytic gates n_records >= 1
    (the first day is always a record) and record_c == the series max."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.record_days_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.RECORD_DAYS_SQL).df()
    assert got.values.tolist() == want.astype(
        {"n_records": "int64", "record_c": "int64", "record_day": "int64"}
    ).values.tolist()
    assert (got["n_records"] >= 1).all()
    mx = con.execute("""
        SELECT event_type, MAX(c) FROM (
          SELECT event_type, epoch_us(ts) // 86400000000 AS day, COUNT(*) AS c
          FROM events GROUP BY 1, 2) GROUP BY 1 ORDER BY 1
    """).df()
    assert got["record_c"].tolist() == mx.iloc[:, 1].astype("int64").tolist()


def test_abc_parts(ray_session):
    """ABC classes: oracle equality, conservation (counts and revenue sum
    to the per-part totals), and the Pareto ordering A-revenue >=
    B-revenue >= C-revenue share thresholds."""
    import duckdb

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    got = ST.abc_parts(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'"
    )
    want = con.execute(ST.ABC_PARTS_SQL).df()
    assert got.values.tolist() == want.astype(
        {"n_parts": "int64", "revenue_c2": "int64"}
    ).values.tolist()

    n_parts, total = con.execute(
        "SELECT COUNT(DISTINCT l_partkey), "
        "SUM(CAST(round(l_extendedprice*100) AS BIGINT)) FROM lineitem"
    ).fetchone()
    assert int(got["n_parts"].sum()) == n_parts
    assert int(got["revenue_c2"].sum()) == int(total)
    rev = got.set_index("cls")["revenue_c2"]
    assert rev["A"] >= (80 * int(total)) // 100 - rev.max()  # crossing slack
    assert rev["A"] > rev["B"] > rev["C"]


def test_degree_assortativity(ray_session, monkeypatch):
    """Assortativity moments: oracle equality, distributed/driver
    bit-equality, and the Cauchy-Schwarz sanity (m*sxy - sx*sy)^2 <=
    (m*sxx - sx^2) * (m*syy - sy^2) — |r| <= 1 in cleared integers."""
    import duckdb

    import indu_doc_transformer_ray.functions.similarity  # noqa: F401
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    res = graph.degree_assortativity(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.DEGREE_ASSORTATIVITY_SQL).df()
    assert res.values.tolist() == want.astype("int64").values.tolist()

    m, sx, sy, sxx, syy, sxy = (int(v) for v in res.iloc[0])
    assert (m * sxy - sx * sy) ** 2 <= (m * sxx - sx * sx) * (m * syy - sy * sy)

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    res2 = graph.degree_assortativity(sf)
    assert res2.values.tolist() == res.values.tolist()


def test_zipf_check(ray_session):
    """Zipf audit: oracle equality, rank-1 self-ratio == 1e6, and freq
    monotone non-increasing down the ranks."""
    import duckdb

    from indu_doc_transformer_ray.functions import text

    sf = "/root/testdata/sf0.001"
    got = text.zipf_check(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(text.ZIPF_CHECK_SQL).df()
    assert got.values.tolist() == want.astype(
        {"rank": "int64", "freq": "int64",
         "rank_x_freq": "int64", "ratio_ppm": "int64"}
    ).values.tolist()
    assert int(got["ratio_ppm"].iloc[0]) == 10 ** 6
    f = got["freq"].tolist()
    assert f == sorted(f, reverse=True)


def test_rich_club(ray_session):
    """Rich club: oracle equality plus monotone club shrinkage (higher k
    => fewer members, fewer internal edges) and edge/pair bounds."""
    import duckdb

    import indu_doc_transformer_ray.functions.similarity  # noqa: F401
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    got = graph.rich_club(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.RICH_CLUB_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    n = got["club_nodes"].tolist()
    e = got["club_edges"].tolist()
    assert n == sorted(n, reverse=True) and e == sorted(e, reverse=True)
    assert (got["club_edges"] <= got["club_pairs"]).all()


def test_ann_recall_at_k(ray_session):
    """ANN recall audit: oracle equality + bounds (0 <= hits <= k) and a
    floor expectation — the IVF probes recover most of the exact set on
    this corpus (accuracy regression tripwire)."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity as s

    sf = "/root/testdata/sf0.001"
    got = s.ann_recall_at_k(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(s.ANN_RECALL_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    assert got["hits"].between(0, s.TOP_K).all()
    assert int(got["hits"].sum()) >= 2 * s.TOP_K  # >= 2/3 mean recall


def test_loo_centroid_shift(ray_session, monkeypatch):
    """LOO centroid attribution: oracle equality, two-plan (broadcast vs
    doc_id-bucket co-location) equality, and n_vecs conservation."""
    import duckdb

    from indu_doc_transformer_ray.functions import _relcommon
    from indu_doc_transformer_ray.functions import similarity as s

    sf = "/root/testdata/sf0.001"
    got = s.loo_centroid_shift(sf)
    con = duckdb.connect()
    for t in ("embeddings", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.execute(s.LOO_CENTROID_SQL).df()
    assert got.values.tolist() == want.astype(
        {"n_vecs": "int64", "l1_num": "int64", "den": "int64"}
    ).values.tolist()
    n = con.execute("SELECT COUNT(*) FROM embeddings").fetchone()[0]
    assert int(got["n_vecs"].sum()) == n
    assert (got["den"] == n * (n - got["n_vecs"])).all()

    monkeypatch.setattr(_relcommon, "MAX_BROADCAST_DIM_ROWS", 0)
    got2 = s.loo_centroid_shift(sf)
    assert got2.values.tolist() == got.values.tolist()


def test_brand_centrality(ray_session):
    """Eigenvector centrality: oracle equality, mass conservation
    (sum(cent_mu) within |brands| floor units of MASS), and positivity
    on the connected co-purchase graph."""
    import duckdb

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    got = ST.brand_centrality(sf)
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.execute(ST.BRAND_CENTRALITY_SQL).df()
    assert got.values.tolist() == want.astype(
        {"cent_mu": "int64"}
    ).values.tolist()
    s = int(got["cent_mu"].sum())
    assert ST.BRAND_EIG_MASS - len(got) <= s <= ST.BRAND_EIG_MASS
    assert (got["cent_mu"] > 0).all()


def test_stable_assignment(ray_session):
    """Gale-Shapley: (1) the preference-defining revenue matrix is
    hash-exact vs DuckDB, (2) the matching respects capacity and covers
    every supplier once, (3) NO BLOCKING PAIR exists — which, with GS
    determinism, characterizes the supplier-optimal stable matching."""
    import duckdb

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    rev = ST._supplier_nation_revenue(sf)
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.execute(ST.SUPPLIER_NATION_REV_SQL).df()
    got = rev.sort_values(["s_suppkey", "nationkey"]).reset_index(drop=True)
    assert got.values.tolist() == want.astype("int64").values.tolist()

    m = ST.stable_assignment(sf)
    supps = sorted(rev["s_suppkey"].unique())
    nats = sorted(rev["nationkey"].unique())
    cap = -(-len(supps) // len(nats))
    assert sorted(m["s_suppkey"]) == supps           # everyone matched once
    assert m.groupby("nationkey").size().max() <= cap

    r = {(int(s), int(n)): int(v) for s, n, v in rev.itertuples(index=False)}
    srev = lambda s, n: r.get((s, n), 0)  # noqa: E731
    assign = dict(zip(m["s_suppkey"], m["nationkey"]))
    court = m.groupby("nationkey")["s_suppkey"].apply(list).to_dict()
    for s, cur_n in assign.items():
        for n in nats:
            if n == cur_n:
                continue
            if (-srev(s, n), n) < (-srev(s, cur_n), cur_n):  # s prefers n
                tenants = court.get(n, [])
                assert len(tenants) >= cap  # no free slot may remain
                worst = min(tenants, key=lambda x: (srev(x, n), -x))
                # n must NOT prefer s over its weakest tenant
                assert not (srev(s, n), -s) > (srev(worst, n), -worst)


def test_t_closeness_audit(ray_session):
    """t-closeness: oracle equality, bound 0 <= w1 <= (bands-1)*den (max
    transport), and the degenerate identity — a class equal to the global
    mix has w1_num == 0 on a synthetic grid."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.t_closeness_audit(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW customer AS SELECT * FROM '{sf}/customer.parquet'"
    )
    want = con.execute(P.T_CLOSENESS_SQL).df()
    assert got.values.tolist() == want.astype(
        {c: "int64" for c in ("c_nationkey", "n_rows", "w1_num", "w1_den")}
    ).values.tolist()
    assert (got["w1_num"] >= 0).all()
    n_rows = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    assert (got["w1_den"] == got["n_rows"] * n_rows).all()

    # degenerate gate: class distribution == global => every CDF gap is 0
    bands, g_cum, n_c, N = [0, 1], [2, 4], 1, 4
    cc = {0: 1}  # class holds one row in band 0; global = {0:2, 1:2}
    acc, w1 = 0, 0
    for b, gc in zip(bands, g_cum):
        acc += cc.get(b, 0)
        w1 += abs(acc * N - gc * n_c)
    assert w1 == abs(1 * 4 - 2 * 1) + abs(1 * 4 - 4 * 1)  # nonzero class


def test_h_index_suppliers(ray_session):
    """h-index: oracle equality plus the defining bounds h <= n_orders
    and h <= max order size, and the textbook example."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    got = ST.h_index_suppliers(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'"
    )
    want = con.execute(ST.H_INDEX_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    assert (got["h"] <= got["n_orders"]).all()

    cnt = np.sort(np.array([10, 8, 5, 4, 3]))[::-1]
    rk = np.arange(1, len(cnt) + 1)
    assert int((cnt >= rk).sum()) == 4  # classic h = 4 example


def test_median_polish(ray_session):
    """Median polish: oracle equality plus the defining fixed-point
    property — after the final column sweep, every segment's residual
    median is exactly zero (in 1/32 units)."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.median_polish(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW customer AS SELECT * FROM '{sf}/customer.parquet'"
    )
    want = con.execute(P.MEDIAN_POLISH_SQL).df()
    assert got.values.tolist() == want.astype(
        {"c_nationkey": "int64", "resid_32nd": "int64"}
    ).values.tolist()
    col_med = got.groupby("c_mktsegment")["resid_32nd"].median()
    assert (col_med == 0).all()


def test_chao1_vocab(ray_session):
    """Chao1: oracle equality (degenerate f1=f2=0 on the closed synthetic
    vocabulary) plus both estimator branches on synthetic
    frequency-of-frequencies."""
    import duckdb

    from indu_doc_transformer_ray.functions import text

    sf = "/root/testdata/sf0.001"
    got = text.chao1_vocab(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(text.CHAO1_VOCAB_SQL).df()
    assert got.values.tolist() == want.astype("int64").values.tolist()
    assert int(got["chao1"].iloc[0]) == int(got["v_obs"].iloc[0])  # closed

    # branch replay: f2 > 0 and the f2 == 0 bias-corrected fallback
    v_obs, f1, f2 = 100, 20, 5
    assert v_obs + (f1 * f1) // (2 * f2) == 140
    f2 = 0
    assert v_obs + f1 * (f1 - 1) // 2 == 290


def test_user_active_time(ray_session):
    """Interval-union active time: oracle equality plus the union bounds
    W <= active_us <= n_events * W (every user has >= 1 window; unions
    never exceed the disjoint sum) and exact population conservation."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.user_active_time(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.USER_ACTIVE_TIME_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    W = E.ACTIVE_WINDOW_US
    assert (got["active_us"] >= W).all()
    assert (got["active_us"] <= got["n_events"] * W).all()
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(got) == n_users
    assert got["n_events"].sum() == con.execute("SELECT COUNT(*) FROM events").fetchone()[0]


def test_dft_weekly_power(ray_session):
    """Weekly DFT bin: oracle equality plus the amplitude bound
    |re|, |im| <= 10^6 * n_events (triangle inequality over the unit-circle
    constants) and a planted-periodicity check: a pure one-weekday series
    concentrates at |z| == 10^6 * n exactly."""
    import duckdb
    import pandas as pd

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.dft_weekly_power(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.DFT_WEEKLY_POWER_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["p7_re"].abs() <= 1_000_000 * got["n_events"]).all()
    assert (got["p7_im"].abs() <= 1_000_000 * got["n_events"]).all()
    # planted check, pure driver arithmetic: all mass on k=3
    re = 17 * E._DFT7_COS[3]
    im = 17 * E._DFT7_SIN[3]
    assert re * re + im * im == 17 * 17 * (
        E._DFT7_COS[3] ** 2 + E._DFT7_SIN[3] ** 2
    )


def test_peak_concurrency(ray_session):
    """Peak concurrency: oracle equality, a driver-side brute-force sweep
    replay (full sort, no bucketing — gates the carry-independence trick),
    and the bounds 1 <= peak <= #users (a user's own sessions never
    overlap, so each user contributes at most one open session)."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.peak_concurrency(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.PEAK_CONCURRENCY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert 1 <= got["peak"].iloc[0] <= n_users
    # brute-force replay straight off the oracle's interval CTE
    iv = con.execute("""
        WITH e AS (
          SELECT user_id, epoch_us(ts) AS t,
                 CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER
                        (PARTITION BY user_id ORDER BY ts) > 1800000000 THEN 1
                      WHEN LAG(epoch_us(ts)) OVER
                        (PARTITION BY user_id ORDER BY ts) IS NULL THEN 1
                      ELSE 0 END AS new_sess
          FROM events),
        s AS (SELECT user_id, t, SUM(new_sess) OVER (PARTITION BY user_id
                  ORDER BY t ROWS UNBOUNDED PRECEDING) AS sid FROM e)
        SELECT MIN(t) AS st, MAX(t) AS en FROM s GROUP BY user_id, sid
    """).df()
    t = np.concatenate([iv["st"].to_numpy(np.int64), iv["en"].to_numpy(np.int64) + 1])
    d = np.concatenate([np.ones(len(iv), np.int64), -np.ones(len(iv), np.int64)])
    order = np.argsort(t, kind="mergesort")
    t, d = t[order], d[order]
    ut, idx = np.unique(t, return_index=True)
    sums = np.add.reduceat(d, idx)
    c = sums.cumsum()
    assert int(c.max()) == got["peak"].iloc[0]
    assert int((c == c.max()).sum()) == got["n_peak_times"].iloc[0]
    assert int(ut[c == c.max()].min()) == got["first_peak_us"].iloc[0]


def test_fd_discovery(ray_session):
    """FD audit: oracle equality plus the lattice laws n_lhs <= n_pairs
    (projection never shrinks distinct pairs below distinct lhs) and
    holds == (n_lhs == n_pairs); a key-like lhs (all six columns jointly
    unique per row is NOT assumed — only the pairwise law is)."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.fd_discovery(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(P.FD_DISCOVERY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_lhs"] <= got["n_pairs"]).all()
    assert (got["holds"] == (got["n_lhs"] == got["n_pairs"]).astype("int64")).all()
    assert len(got) == 30


def test_markov_attribution(ray_session):
    """Removal-effect attribution: oracle equality plus the absorption
    bounds 0 <= removed_v <= base_v <= SCALE (redirecting a channel to
    null can only lower absorption mass — per-round monotone by induction
    over the floor fixed point) and base-row consistency."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.markov_attribution(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.MARKOV_ATTRIBUTION_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert got["base_v"].nunique() == 1
    assert (got["removed_v"] >= 0).all()
    assert (got["removed_v"] <= got["base_v"]).all()
    assert (got["base_v"] <= E._MA_SCALE).all()
    assert (got["removal_effect"] == got["base_v"] - got["removed_v"]).all()
    assert list(got["channel"]) == sorted(E._MA_CHANNELS)


def test_burstiness_terms(ray_session):
    """Burstiness: oracle equality plus the dispersion laws
    df <= tf (each containing doc contributes >= 1), sumsq >= tf
    (counts >= 1 => c^2 >= c) and fano_num >= 0 iff Cauchy-Schwarz
    (df*sumsq >= tf^2 always, by CS over the per-doc count vector)."""
    import duckdb

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.burstiness_terms(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.BURSTINESS_TERMS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["df"] <= got["tf"]).all()
    assert (got["sumsq"] >= got["tf"]).all()
    assert (got["fano_num"] >= 0).all()  # Cauchy-Schwarz
    assert len(got) == 20


def test_minhash_jaccard_calibration(ray_session):
    """MinHash calibration: oracle equality, mass bounds (per-pair exact
    permille in [0, 1000] so the bin sum is <= 1000*n_pairs), and the
    LSH-structural floor: every candidate pair agrees on at least one
    whole band = 2 consecutive hashes, so agree_n >= 2."""
    import duckdb

    from indu_doc_transformer_ray.functions import dedup as D

    sf = "/root/testdata/sf0.001"
    got = D.minhash_jaccard_calibration(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(D.MINHASH_CALIBRATION_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["agree_n"] >= 2).all()
    assert (got["agree_n"] <= D.N_HASHES).all()
    assert (got["sum_exact_permille"] <= 1000 * got["n_pairs"]).all()
    assert (got["sum_exact_permille"] >= 0).all()


def test_hodges_lehmann_qty(ray_session):
    """Hodges-Lehmann: oracle equality plus the identities
    n_pairs == n*(n-1)/2 (the convolution loses no pair mass) and
    2*min_v <= hl2_low <= 2*max_v, and robustness-vs-median sanity:
    hl2_low/2 lies within the observed value range."""
    import duckdb

    from indu_doc_transformer_ray.functions import sketches as S

    sf = "/root/testdata/sf0.001"
    got = S.hodges_lehmann_qty(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(S.HODGES_LEHMANN_QTY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_pairs"] == got["n"] * (got["n"] - 1) // 2).all()
    rng = con.execute("""
        SELECT l_returnflag, MIN(CAST(ROUND(l_quantity) AS BIGINT)),
               MAX(CAST(ROUND(l_quantity) AS BIGINT))
        FROM lineitem GROUP BY 1 ORDER BY 1
    """).fetchall()
    for (_, lo, hi), hl2 in zip(rng, got["hl2_low"]):
        assert 2 * lo <= hl2 <= 2 * hi


def test_boilerplate_shingles(ray_session):
    """Boilerplate shingles: oracle equality plus df <= n_docs, ppm floor
    identity and descending-df ordering with the shingle tie-break."""
    import duckdb

    from indu_doc_transformer_ray.functions import dedup as D

    sf = "/root/testdata/sf0.001"
    got = D.boilerplate_shingles(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(D.BOILERPLATE_SHINGLES_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert (got["df"] <= n_docs).all()
    assert (got["df_ppm"] == got["df"] * 1_000_000 // n_docs).all()
    assert got["df"].is_monotonic_decreasing


def test_ktruss_edges(ray_session):
    """k-truss peel: oracle equality, monotone nonincreasing edge counts
    (peeling never adds edges), and cross-op consistency — round 0 equals
    triangle_count's canonical undirected edge count."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # facade first
    from indu_doc_transformer_ray.functions import graph as G

    sf = "/root/testdata/sf0.001"
    got = G.ktruss_edges(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    want = con.execute(G.KTRUSS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert got["n_edges"].is_monotonic_decreasing or (
        got["n_edges"].diff().dropna() <= 0
    ).all()
    tri = G.triangle_count(sf)
    assert int(got["n_edges"].iloc[0]) == int(tri["n_edges"].iloc[0])


def test_transitivity_global(ray_session):
    """Global transitivity: oracle equality, the closure bound
    n_closures == 3 * triangle_count (each triangle closes its 3 wedges)
    and transitivity in [0, 1e6]."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # facade first
    from indu_doc_transformer_ray.functions import graph as G

    sf = "/root/testdata/sf0.001"
    got = G.transitivity_global(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    want = con.execute(G.TRANSITIVITY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    tri = G.triangle_count(sf)
    assert int(got["n_closures"].iloc[0]) == 3 * int(tri["n_triangles"].iloc[0])
    assert 0 <= got["transitivity_ppm"].iloc[0] <= 1_000_000


def test_bounce_rate(ray_session):
    """Bounce rate: oracle equality, n_bounces <= n_sessions, ppm floor
    identity, and conservation — total sessions equals the sessionize
    op's per-user session-count sum."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.bounce_rate(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.BOUNCE_RATE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_bounces"] <= got["n_sessions"]).all()
    assert (
        got["bounce_ppm"] == got["n_bounces"] * 1_000_000 // got["n_sessions"]
    ).all()
    sess = E.sessionize(sf).to_pandas()
    assert got["n_sessions"].sum() == sess["n_sessions"].sum()


def test_dup_token_inflation(ray_session):
    """Dup token inflation: oracle equality plus conservation — redundant
    < clustered <= total, one keeper per cluster retains mass (redundant
    strictly less than clustered when clusters exist), ppm floor."""
    import duckdb

    from indu_doc_transformer_ray.functions import dedup as D

    sf = "/root/testdata/sf0.001"
    got = D.dup_token_inflation(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(D.DUP_TOKEN_INFLATION_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    t, c, r, ppm = got.iloc[0]
    assert 0 <= r < c <= t
    assert ppm == r * 1_000_000 // t


def test_sax_motifs_by_type(ray_session):
    """SAX motifs: oracle equality, motif ids in [0, 26], and mass
    conservation — per type the motif counts sum to n_days - 2."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.sax_motifs_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.SAX_MOTIFS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert got["motif"].between(0, 26).all()
    days = dict(
        con.execute(
            "SELECT event_type, COUNT(DISTINCT epoch_us(ts) // 86400000000)"
            " FROM events GROUP BY 1"
        ).fetchall()
    )
    per = got.groupby("event_type")["n"].sum()
    for e, tot in per.items():
        assert tot == days[e] - 2


def test_hash_ring_balance(ray_session):
    """Hash ring: oracle equality, conservation (loads sum to the corpus),
    all 16 nodes present, and rough md5 uniformity at this virtual-point
    count (no node above 40% of the corpus)."""
    import duckdb

    from indu_doc_transformer_ray.functions import curation as C

    sf = "/root/testdata/sf0.001"
    got = C.hash_ring_balance(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(C.HASH_RING_BALANCE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert got["n_docs"].sum() == n_docs
    assert len(got) == C.N_RING_NODES
    assert (got["n_docs"] <= n_docs * 2 // 5).all()


def test_rolling_wau_exact(ray_session):
    """Exact rolling WAU: oracle equality plus the window laws
    DAU(d) <= WAU(d) <= total users for every day."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.rolling_wau_exact(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.ROLLING_WAU_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    dau = dict(
        con.execute(
            "SELECT epoch_us(ts) // 86400000000, COUNT(DISTINCT user_id)"
            " FROM events GROUP BY 1"
        ).fetchall()
    )
    total = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    for day, wau in zip(got["day"], got["wau"]):
        assert dau.get(day, 0) <= wau <= total


def test_name_clusters(ray_session):
    """ER name clusters: oracle equality plus the graph laws — every
    cluster has >= 2 members (singletons have no edge) and total members
    equal the distinct names appearing in fuzzy pairs."""
    import duckdb

    from indu_doc_transformer_ray.functions import dedup as D

    sf = "/root/testdata/sf0.001"
    got = D.name_clusters(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM '{sf}/customer.parquet'")
    want = con.execute(D.NAME_CLUSTERS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["cluster_size"] >= 2).all()
    members = (got["cluster_size"] * got["n_clusters"]).sum()
    pairs = D.fuzzy_name_pairs(sf).to_pandas()
    import pandas as pd

    n_names = len(pd.unique(pd.concat([pairs["name_a"], pairs["name_b"]])))
    assert members == n_names


def test_weekend_effect_ks(ray_session):
    """Weekend KS: oracle equality plus the KS bounds 0 <= ks_num <=
    ks_den (the statistic is a scaled ECDF gap) and den = n_wd * n_we."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.weekend_effect_ks(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.WEEKEND_EFFECT_KS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["ks_num"] >= 0).all()
    assert (got["ks_num"] <= got["ks_den"]).all()
    assert (got["ks_den"] == got["n_wd"] * got["n_we"]).all()


def test_label_homophily(ray_session):
    """Homophily: oracle equality, same <= edges, cross-op consistency
    with triangle_count's edge total, and positive expectation mass."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # facade first
    from indu_doc_transformer_ray.functions import graph as G

    sf = "/root/testdata/sf0.001"
    got = G.label_homophily(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    want = con.execute(G.LABEL_HOMOPHILY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert 0 <= got["same_label_edges"].iloc[0] <= got["n_edges"].iloc[0]
    tri = G.triangle_count(sf)
    assert int(got["n_edges"].iloc[0]) == int(tri["n_edges"].iloc[0])
    assert got["lift_den"].iloc[0] > 0


def test_huffman_code_lengths(ray_session):
    """Huffman: oracle equality plus Kraft EQUALITY (full binary tree:
    sum 2^-len == 1) and the monotone law — higher frequency never gets a
    longer code."""
    import duckdb
    from fractions import Fraction

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.huffman_code_lengths(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.HUFFMAN_CODE_LENGTHS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert sum(Fraction(1, 2 ** int(l)) for l in got["code_len"]) == 1
    s = got.sort_values("freq")
    assert (s["code_len"].diff().dropna() <= 0).all()


def test_greedy_bandit_replay(ray_session):
    """Bandit replay: oracle equality; day 1 exercises the optimistic
    tie (all arms unplayed -> lexicographically smallest type); rewards
    never exceed the day totals."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.greedy_bandit_replay(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.GREEDY_BANDIT_REPLAY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    types = [r[0] for r in con.execute(
        "SELECT DISTINCT event_type FROM events ORDER BY 1").fetchall()]
    assert got["chosen_type"].iloc[0] == types[0]
    day_tot = dict(con.execute(
        "SELECT epoch_us(ts) // 86400000000, COUNT(*) FROM events GROUP BY 1"
    ).fetchall())
    for day, rn in zip(got["day"], got["reward_n"]):
        assert 0 <= rn <= day_tot[day]


def test_lang_vocab_jaccard(ray_session):
    """Lang vocab Jaccard: oracle equality, the full C(|langs|,2) grid,
    and set laws n_inter <= min vocab <= n_union."""
    import duckdb

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.lang_vocab_jaccard(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.LANG_VOCAB_JACCARD_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_langs = con.execute("SELECT COUNT(DISTINCT lang) FROM documents").fetchone()[0]
    assert len(got) == n_langs * (n_langs - 1) // 2
    assert (got["n_inter"] <= got["n_union"]).all()
    assert (got["n_inter"] >= 0).all()


def test_token_gini_and_bytes_per_token(ray_session):
    """Token Gini: oracle equality + 0 <= G < 1 (gini_num in [0, den))
    and the rank-sum identity via a brute-force sorted replay.
    Bytes/token: oracle equality + chars >= tokens per lang."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.token_gini(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.TOKEN_GINI_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert 0 <= got["gini_num"].iloc[0] < got["gini_den"].iloc[0]
    lens = np.sort(
        con.execute(
            "SELECT len(regexp_extract_all(lower(text), '[a-z0-9_]+'))"
            " FROM documents"
        ).df().iloc[:, 0].to_numpy(np.int64)
    )
    n, tt = len(lens), int(lens.sum())
    s1 = int((np.arange(1, n + 1, dtype=np.int64) * lens).sum())
    assert got["gini_num"].iloc[0] == 2 * s1 - (n + 1) * tt

    got2 = T.bytes_per_token_by_lang(sf)
    want2 = con.execute(T.BYTES_PER_TOKEN_SQL).df()
    assert got2.values.tolist() == want2.values.tolist()
    assert (got2["n_chars"] >= got2["n_tokens"]).all()


def test_business_days_latency(ray_session):
    """Business-day latency: oracle equality, conservation (orders with
    >= 1 lineitem), and the weekday-count formula gated against a brute
    force on a known range."""
    import duckdb
    import numpy as np

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    got = ST.business_days_latency(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM '{sf}/orders.parquet'")
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(ST.BUSINESS_DAYS_LATENCY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n = con.execute(
        "SELECT COUNT(*) FROM orders WHERE o_orderkey IN"
        " (SELECT l_orderkey FROM lineitem)"
    ).fetchone()[0]
    assert got["n_orders"].sum() == n
    # closed-form weekday count vs brute force over a 3-week window
    for d in range(21):
        brute = sum(1 for k in range(d) if k % 7 not in (2, 3))
        r = d % 7
        assert 5 * (d // 7) + r - (r >= 3) - (r >= 4) == brute


def test_type_user_inner_and_runs(ray_session):
    """Co-engagement inner product: oracle equality + Cauchy-Schwarz
    inner^2 <= norm2_a * norm2_b.  Runs test: oracle equality + the runs
    bounds 1 <= n_runs <= n_days and n_above < n_days (median symbol has
    at least one not-above day)."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.type_user_inner(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.TYPE_USER_INNER_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["inner"] ** 2 <= got["norm2_a"] * got["norm2_b"]).all()

    got2 = E.runs_test_by_type(sf)
    want2 = con.execute(E.RUNS_TEST_SQL).df()
    assert got2.values.tolist() == want2.values.tolist()
    assert (got2["n_runs"] >= 1).all()
    assert (got2["n_runs"] <= got2["n_days"]).all()
    assert (got2["n_above"] < got2["n_days"]).all()


def test_cms_calibration(ray_session):
    """CMS calibration: oracle equality plus the sketch law — estimates
    never undercount (overestimate >= 0) and the probe op agrees where
    probe tokens intersect the top-k."""
    import duckdb

    from indu_doc_transformer_ray.functions import sketches as S

    sf = "/root/testdata/sf0.001"
    got = S.cms_calibration(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(S.CMS_CALIBRATION_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["overestimate"] >= 0).all()
    probe = S.count_min_probe(sf)
    pm = dict(zip(probe["token"], probe["cm_estimate"]))
    for t, e in zip(got["token"], got["cm_estimate"]):
        if t in pm:
            assert pm[t] == e


def test_sketch_calibrations(ray_session):
    """The three sketch calibrations: oracle equality each, plus the
    sketch laws — DDSketch relative error within the 2% gamma band,
    Bloom no-false-negatives (flagged >= true dups, false_pos >= 0),
    HLL error sane at this register count (< 40%), DDSketch within its
    1/16-octave bucket width."""
    import duckdb

    from indu_doc_transformer_ray.functions import sketches as S

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")

    h = S.hll_calibration(sf)
    assert h.values.tolist() == con.execute(S.HLL_CALIBRATION_SQL).df().values.tolist()
    assert (h["err_ppm"] < 400_000).all()

    d = S.ddsketch_calibration(sf)
    assert d.values.tolist() == con.execute(S.DDSKETCH_CALIBRATION_SQL).df().values.tolist()
    # 16 sub-buckets per octave, lower-bound reporting => <= ~1/16 rel err
    assert (d["err_ppm"] <= 65_000).all()

    b = S.bloom_calibration(sf)
    assert b.values.tolist() == con.execute(S.BLOOM_CALIBRATION_SQL).df().values.tolist()
    assert b["n_flagged"].iloc[0] >= b["n_true_dups"].iloc[0]
    assert b["n_false_pos"].iloc[0] >= 0


def test_quantile_norm_chars(ray_session):
    """Quantile-norm map: oracle equality plus monotone deciles within
    every source and the shared global column."""
    import duckdb

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.quantile_norm_chars(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.QUANTILE_NORM_CHARS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    for _, sub in got.groupby("source"):
        assert sub.sort_values("decile")["src_value"].is_monotonic_increasing
    assert got.groupby("decile")["global_value"].nunique().eq(1).all()


def test_effective_vocab(ray_session):
    """Effective vocab: oracle equality plus the bounds 1 <= eff <=
    n_types (Cauchy-Schwarz: T^2 <= types * sum tf^2, and sum tf^2 <=
    T^2)."""
    import duckdb

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.effective_vocab(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.EFFECTIVE_VOCAB_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    t, ty, num, den = got.iloc[0]
    assert den <= num  # eff >= 1
    assert num <= ty * den  # eff <= n_types (Cauchy-Schwarz)


def test_user_activity_outliers(ray_session):
    """Heavy-user screen: oracle equality plus Chebyshev — at 5 sigma at
    most N/25 users can be outliers — and moment sanity S <= Q."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.user_activity_outliers(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.USER_ACTIVITY_OUTLIERS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n, s, q, k, mx = got.iloc[0]
    assert k <= n // 25
    assert s <= q
    assert mx * n >= s


def test_simpson_paradox_qty_discount(ray_session):
    """Simpson screen: oracle equality plus the decomposition law — the
    pooled n equals the stratum sum (the pooled cov_num is NOT the sum of
    strata, which is the point of the screen)."""
    import duckdb

    from indu_doc_transformer_ray.functions import relational as R

    sf = "/root/testdata/sf0.001"
    got = R.simpson_paradox_qty_discount(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(R.SIMPSON_PARADOX_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    pooled = got[got["stratum"] == "ALL"]
    strata = got[got["stratum"] != "ALL"]
    assert pooled["n"].iloc[0] == strata["n"].sum()


def test_session_cross_lift(ray_session):
    """Session cross lift: oracle equality plus the inclusion bounds
    n_both <= min(n_a, n_b) <= n_sessions and conservation with
    bounce_rate's session total."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.session_cross_lift(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.SESSION_CROSS_LIFT_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_both"] <= got[["n_a", "n_b"]].min(axis=1)).all()
    assert (got[["n_a", "n_b"]].max(axis=1) <= got["n_sessions"]).all()
    br = E.bounce_rate(sf)
    assert got["n_sessions"].iloc[0] == br["n_sessions"].sum()


def test_fd_discovery2(ray_session):
    """Level-2 FD audit: oracle equality plus the lattice laws — the
    composite determinant is at least as selective as either single
    column (n_lhs >= each single distinct count via fd_discovery), and
    augmentation: if A -> C held at level 1, (A,B) -> C must hold."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.fd_discovery2(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(P.FD_DISCOVERY2_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_lhs"] <= got["n_triples"]).all()
    lvl1 = P.fd_discovery(sf)
    held1 = {(r.lhs, r.rhs) for r in lvl1.itertuples() if r.holds}
    for r in got.itertuples():
        if (r.lhs_a, r.rhs) in held1 or (r.lhs_b, r.rhs) in held1:
            assert r.holds == 1  # augmentation (Armstrong)


def test_knn_graph_shape_observability(ray_session):
    """Reciprocity + degree histogram: oracle equality each, plus the
    cross-op identities — undirected edge count from the histogram equals
    triangle_count's, node total equals the embedding rows touched, and
    2*mutual <= directed."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # facade first
    from indu_doc_transformer_ray.functions import graph as G

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")

    r = G.knn_reciprocity(sf)
    assert r.values.tolist() == con.execute(G.KNN_RECIPROCITY_SQL).df().values.tolist()
    assert 2 * r["n_mutual_edges"].iloc[0] <= r["n_directed"].iloc[0]

    h = G.knn_degree_hist(sf)
    assert h.values.tolist() == con.execute(G.KNN_DEGREE_HIST_SQL).df().values.tolist()
    tri = G.triangle_count(sf)
    assert (h["degree"] * h["n_nodes"]).sum() == 2 * int(tri["n_edges"].iloc[0])


def test_ate_and_ols_price_model(ray_session):
    """Causal/OLS pair: oracle equality for both; ATE's 'ALL' row must be
    the exact cell-sum of the strata rows, and the OLS Cramer solution
    must satisfy the normal equations A·(det0,det1,det2) == det·b as an
    EXACT integer identity (Cramer's rule self-consistency)."""
    import duckdb

    from indu_doc_transformer_ray.functions import tpch_corr as TC

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")

    got = TC.ate_discount_strata(sf)
    want = con.execute(TC.ATE_DISCOUNT_STRATA_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    strata = got[got["stratum"] != "ALL"]
    allr = got[got["stratum"] == "ALL"].iloc[0]
    for c in ("n_t", "n_c", "sy_t", "sy_c"):
        assert int(strata[c].sum()) == int(allr[c])

    ols = TC.ols_price_model(sf)
    want2 = con.execute(TC.OLS_PRICE_MODEL_SQL).df()
    assert ols.values.tolist() == want2.values.tolist()
    m = con.execute(
        """SELECT l_returnflag f, COUNT(*) n,
           SUM(CAST(ROUND(l_quantity) AS HUGEINT)) s1,
           SUM(CAST(ROUND(l_discount*100) AS HUGEINT)) s2,
           SUM(CAST(ROUND(l_quantity) AS HUGEINT)*CAST(ROUND(l_quantity) AS HUGEINT)) s11,
           SUM(CAST(ROUND(l_quantity) AS HUGEINT)*CAST(ROUND(l_discount*100) AS HUGEINT)) s12,
           SUM(CAST(ROUND(l_discount*100) AS HUGEINT)*CAST(ROUND(l_discount*100) AS HUGEINT)) s22,
           SUM(CAST(FLOOR(l_extendedprice) AS HUGEINT)) sy,
           SUM(CAST(ROUND(l_quantity) AS HUGEINT)*CAST(FLOOR(l_extendedprice) AS HUGEINT)) s1y,
           SUM(CAST(ROUND(l_discount*100) AS HUGEINT)*CAST(FLOOR(l_extendedprice) AS HUGEINT)) s2y
           FROM lineitem GROUP BY 1 ORDER BY 1"""
    ).df()
    for r in m.itertuples():
        n, s1, s2 = int(r.n), int(r.s1), int(r.s2)
        s11, s12, s22 = int(r.s11), int(r.s12), int(r.s22)
        sy, s1y, s2y = int(r.sy), int(r.s1y), int(r.s2y)
        det = (n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
               + s2 * (s1 * s12 - s11 * s2))
        det0 = (sy * (s11 * s22 - s12 * s12) - s1 * (s1y * s22 - s12 * s2y)
                + s2 * (s1y * s12 - s11 * s2y))
        det1 = (n * (s1y * s22 - s12 * s2y) - sy * (s1 * s22 - s12 * s2)
                + s2 * (s1 * s2y - s1y * s2))
        det2 = (n * (s11 * s2y - s1y * s12) - s1 * (s1 * s2y - s1y * s2)
                + sy * (s1 * s12 - s11 * s2))
        # Cramer self-consistency: A @ (det0, det1, det2) == det * b
        assert n * det0 + s1 * det1 + s2 * det2 == det * sy
        assert s1 * det0 + s11 * det1 + s12 * det2 == det * s1y
        assert s2 * det0 + s12 * det1 + s22 * det2 == det * s2y
        assert det > 0


def test_did_type_effect_translation_invariance(ray_session, tmp_path):
    """DiD: oracle equality at sf0.001, and TRANSLATION INVARIANCE — adding
    a constant to every event value must leave every did_micro unchanged
    (the control differences it out), while n_pre/n_post are untouched."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.did_type_effect(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.DID_TYPE_EFFECT_SQL).df()
    assert got.values.tolist() == want.values.tolist()

    shifted = con.execute(
        f"SELECT event_id, ts, user_id, event_type, value + 7.0 AS value,"
        f" props FROM '{sf}/events.parquet'"
    ).arrow()
    import pyarrow.parquet as pq

    pq.write_table(shifted, str(tmp_path / "events.parquet"))
    got2 = E.did_type_effect(str(tmp_path))
    assert got2["did_micro"].tolist() == got["did_micro"].tolist()
    assert got2["n_pre"].tolist() == got["n_pre"].tolist()


def test_conformal_value_bounds_coverage(ray_session):
    """Split-conformal: oracle equality plus the finite-sample COVERAGE
    guarantee — per type, at least rank k+1 = 9*(n_calib-1)//10 + 1 calib
    points fall inside [lo, hi], and the interval is symmetric."""
    import duckdb

    from indu_doc_transformer_ray.functions import ml as ML

    sf = "/root/testdata/sf0.001"
    got = ML.conformal_value_bounds(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(ML.CONFORMAL_VALUE_BOUNDS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["hi_c"] - got["pred_c"] == got["pred_c"] - got["lo_c"]).all()
    cov = con.execute(
        """WITH x AS (
             SELECT event_type e, CAST(ROUND(value*100) AS BIGINT) c,
                    CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)),1,8))
                         AS BIGINT) % 2 h
             FROM events)
           SELECT e, COUNT(*) n FROM x WHERE h = 1 GROUP BY e"""
    ).df().set_index("e")["n"].to_dict()
    for r in got.itertuples():
        n_in = con.execute(
            """WITH x AS (
                 SELECT event_type e, CAST(ROUND(value*100) AS BIGINT) c,
                        CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)),1,8))
                             AS BIGINT) % 2 h
                 FROM events)
               SELECT COUNT(*) FROM x
               WHERE h = 1 AND e = ? AND c BETWEEN ? AND ?""",
            [r.event_type, int(r.lo_c), int(r.hi_c)],
        ).fetchone()[0]
        n_cal = cov[r.event_type]
        assert n_cal == r.n_calib
        assert n_in >= 9 * (n_cal - 1) // 10 + 1


def test_shapley_attribution_efficiency(ray_session):
    """Shapley attribution: oracle equality plus the EFFICIENCY axiom —
    the credits must sum exactly to k! * (v(full) - v(empty))."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.shapley_attribution(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.SHAPLEY_ATTRIBUTION_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    v = con.execute(
        """WITH fp AS (SELECT user_id, MIN(ts) fpts FROM events
                       WHERE event_type='purchase' GROUP BY 1),
           um AS (SELECT e.user_id,
                  COALESCE(BIT_OR(CASE e.event_type WHEN 'click' THEN 1
                       WHEN 'error' THEN 2 WHEN 'signup' THEN 4
                       WHEN 'view' THEN 8 END)
                   FILTER (WHERE e.event_type <> 'purchase'
                           AND (fp.fpts IS NULL OR e.ts < fp.fpts)), 0) mask,
                  CASE WHEN fp.fpts IS NULL THEN 0 ELSE 1 END conv
                  FROM events e LEFT JOIN fp ON e.user_id = fp.user_id
                  GROUP BY e.user_id, fp.fpts)
           SELECT SUM(conv) v_full,
                  SUM(CASE WHEN mask = 0 THEN conv ELSE 0 END) v_empty
           FROM um"""
    ).fetchone()
    assert int(got["shapley_num"].sum()) == 24 * (int(v[0]) - int(v[1]))


def test_ind_discovery_transitivity(ray_session):
    """IND audit: oracle equality plus TRANSITIVITY — whenever A ⊆ B and
    B ⊆ C appear as holds=1, A ⊆ C must also hold."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.ind_discovery(sf)
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "part", "nation", "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.execute(P.IND_DISCOVERY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    holds = {
        (r.col_a, r.col_b) for r in got.itertuples() if r.holds == 1
    }
    for a, b in holds:
        for b2, c in holds:
            if b2 == b and (a, c) not in holds and a != c:
                raise AssertionError(f"IND transitivity violated: {a}⊆{b}⊆{c}")
    assert len(got) == 72 and (got["col_a"] != got["col_b"]).all()


def test_lz_complexity_parser_cross_engine(ray_session):
    """LZ76: oracle equality on real data, bounds 1 <= lz_c <= n_days, and
    the parser seam — the Python prefix-search parse must equal the
    recursive-CTE parse on 20 seeded random binary strings."""
    import random

    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.lz_complexity_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.LZ_COMPLEXITY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert ((got["lz_c"] >= 1) & (got["lz_c"] <= got["n_days"])).all()

    def py_lz(s: str) -> int:
        n = len(s)
        c, p, pos = 1, 1, 1
        while pos < n:
            if s[p : pos + 1] in s[:pos]:
                pos += 1
            else:
                c += 1
                pos += 1
                p = pos
        return c

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 40)
        s = "".join(rng.choice("01") for _ in range(n))
        sql_c = con.execute(
            f"""WITH RECURSIVE r AS (
              SELECT '{s}' AS s, {n} AS n, 2 AS pos, 2 AS p, 1 AS c
              UNION ALL
              SELECT s, n, pos + 1,
                CASE WHEN strpos(substr(s,1,pos-1), substr(s,p,pos-p+1)) > 0
                     THEN p ELSE pos + 1 END,
                CASE WHEN strpos(substr(s,1,pos-1), substr(s,p,pos-p+1)) > 0
                     THEN c ELSE c + 1 END
              FROM r WHERE pos <= n)
            SELECT c FROM r WHERE pos = n + 1"""
        ).fetchone()[0]
        assert py_lz(s) == sql_c, s


def test_kcenter_coreset_gonzalez_laws(ray_session):
    """Gonzalez k-center: oracle equality, distinct picks, seed d2 = 0,
    and the farthest-distance sequence non-increasing from round 2 on
    (adding picks can only shrink every point's min distance)."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    got = S.kcenter_coreset(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(S.KCENTER_CORESET_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert got["vec_id"].is_unique
    assert int(got.iloc[0]["d2"]) == 0
    d = got["d2"].tolist()[1:]
    assert all(d[i] >= d[i + 1] for i in range(len(d) - 1))


def test_silhouette_kmeans_bounds(ray_session):
    """Simplified silhouette: oracle equality, per-cluster score bounded in
    [-1000n, 1000n], and cluster sizes conserve the embedding count."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    got = S.silhouette_kmeans(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(S.SILHOUETTE_KMEANS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_total = con.execute("SELECT COUNT(*) FROM embeddings").fetchone()[0]
    assert int(got["n"].sum()) == n_total
    assert ((got["s_sum_permille"] >= -1000 * got["n"])
            & (got["s_sum_permille"] <= 1000 * got["n"])).all()


def test_bfs_path_counts_and_effective_diameter(ray_session, monkeypatch):
    """Path counting: oracle equality, seed level carries sigma == n_seeds
    == n_nodes at hops 0, unreached rows carry sigma 0, and the FORCED
    distributed path (edge budget 0) is bit-equal to the driver escape.
    Effective diameter: oracle equality + milli value within the round
    range [0, 1000*n_rounds]."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # noqa: F401 facade
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    got = graph.bfs_path_counts(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.BFS_PATH_COUNTS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    h0 = got[got["hops"] == 0]
    n_seeds = con.execute(
        f"SELECT COUNT(*) FROM embeddings WHERE vec_id % {graph.BFS_SEED_MOD} = 0"
    ).fetchone()[0]
    assert int(h0["n_nodes"].iloc[0]) == int(h0["sigma_sum"].iloc[0]) == n_seeds
    un = got[got["hops"] == -1]
    assert un.empty or int(un["sigma_sum"].iloc[0]) == 0

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    dist = graph.bfs_path_counts(sf)
    assert dist.values.tolist() == got.values.tolist()
    monkeypatch.undo()

    ed = graph.effective_diameter(sf)
    want_ed = con.execute(graph.EFFECTIVE_DIAMETER_SQL).df()
    assert ed.values.tolist() == want_ed.values.tolist()
    assert 0 <= int(ed["eff_diam_milli"].iloc[0]) <= 1000 * int(ed["n_rounds"].iloc[0])


def test_burst_viterbi_optimality_bounds(ray_session):
    """Burst Viterbi: oracle equality, burst_days within [0, n_days], and
    OPTIMALITY — total_cost can't exceed the all-base or the all-burst
    single-state paths (both are feasible Viterbi paths)."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.burst_viterbi_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.BURST_VITERBI_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert ((got["burst_days"] >= 0) & (got["burst_days"] <= got["n_days"])).all()
    daily = con.execute(
        """SELECT event_type e, COUNT(*) c FROM events
           GROUP BY e, epoch_us(ts) // 86400000000"""
    ).df()
    for r in got.itertuples():
        cs = daily[daily["e"] == r.event_type]["c"].astype(int)
        lam = max(1, (int(r.r_hi) - int(r.r_lo)) // 4)
        all_base = int((cs - int(r.r_lo)).abs().sum())
        all_burst = int((cs - int(r.r_hi)).abs().sum()) + lam
        assert int(r.total_cost) <= min(all_base, all_burst)


def test_voptimal_histogram_beats_fixed_cuts(ray_session):
    """V-optimal: oracle equality plus optimality — the chosen cuts' cost
    can't exceed the equal-width (16, 32, 48) partition's cost, computed
    from the same per-bin moments."""
    import duckdb

    from indu_doc_transformer_ray.functions import sketches as SK

    sf = "/root/testdata/sf0.001"
    got = SK.voptimal_histogram(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(SK.VOPTIMAL_HISTOGRAM_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    m = con.execute(
        f"""SELECT LEAST(CAST(ROUND(value*100) AS BIGINT) // {SK._VOPT_WIDTH},
                        {SK._VOPT_BINS - 1}) b,
                  COUNT(*) n, SUM(CAST(ROUND(value*100) AS HUGEINT)) s1,
                  SUM(CAST(ROUND(value*100) AS HUGEINT)
                      * CAST(ROUND(value*100) AS HUGEINT)) s2
           FROM events GROUP BY 1"""
    ).df()
    B = SK._VOPT_BINS
    n = [0] * (B + 1)
    s1 = [0] * (B + 1)
    s2 = [0] * (B + 1)
    for r in m.itertuples():
        n[int(r.b) + 1], s1[int(r.b) + 1], s2[int(r.b) + 1] = (
            int(r.n), int(r.s1), int(r.s2))
    for t in range(1, B + 1):
        n[t] += n[t - 1]
        s1[t] += s1[t - 1]
        s2[t] += s2[t - 1]

    def seg(a, b):
        return (n[b] - n[a]) * (s2[b] - s2[a]) - (s1[b] - s1[a]) ** 2

    def cost(i, j, k):
        return seg(0, i) + seg(i, j) + seg(j, k) + seg(k, B)

    opt = cost(int(got["cut1"][0]), int(got["cut2"][0]), int(got["cut3"][0]))
    assert opt <= cost(16, 32, 48)
    assert opt // 10**6 == int(got["cost_mega"][0])


def test_dp_count_mechanism(ray_session):
    """DP counts: oracle equality, noise bounded by the threshold table's
    +-K, n_dp = n_true + noise, and the threshold table itself is a valid
    CDF on the 52-bit lattice (strictly increasing, last < 2^52)."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.dp_count_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(P.DP_COUNT_BY_TYPE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_dp"] == got["n_true"] + got["noise"]).all()
    assert got["noise"].abs().max() <= P._DP_K
    ths = [th for _, th in P._DP_THS]
    assert ths == sorted(ths) and len(set(ths)) == len(ths)
    assert ths[-1] < 1 << 52


def test_windowed_funnel_dominated_by_funnel(ray_session):
    """Windowed funnel: oracle equality plus DOMINANCE — the
    time-constrained stage counts can never exceed the unconstrained
    ``funnel_counts`` stages, and stages are monotone non-increasing."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.windowed_funnel(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.WINDOWED_FUNNEL_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    base = E.funnel_counts(sf)
    assert int(got["n_view"][0]) == int(base["n_view"][0])
    assert int(got["n_click_1h"][0]) <= int(base["n_view_click"][0])
    assert (int(got["n_view"][0]) >= int(got["n_click_1h"][0])
            >= int(got["n_purchase_24h"][0]))


def test_zonemap_prune_audit_laws(ray_session):
    """Zone-map audit: oracle equality; the sorted layout must prune at
    least as many ROWS as blocks*0 lower bound and never more than the
    out-of-range row count; insertion-layout pruned rows <= sorted-layout
    out-of-range total (pruned blocks contain only out-of-range rows)."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.zonemap_prune_audit(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(P.ZONEMAP_PRUNE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    oor = con.execute(
        f"""SELECT COUNT(*) FROM lineitem
            WHERE l_shipdate < TIMESTAMP '{P._ZM_LO} 00:00:00'
               OR l_shipdate >= TIMESTAMP '{P._ZM_HI} 00:00:00' + INTERVAL 1 DAY"""
    ).fetchone()[0]
    for r in got.itertuples():
        assert 0 <= r.n_pruned <= r.n_blocks
        assert r.rows_pruned <= oor


def test_cv_mse_brute_force(ray_session):
    """CV MSE: oracle equality plus a fully independent single-process
    brute-force replay (per-row folds, floored per-fold predictions)."""
    import hashlib

    import duckdb

    from indu_doc_transformer_ray.functions import ml as ML

    sf = "/root/testdata/sf0.001"
    got = ML.cv_mse_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(ML.CV_MSE_BY_TYPE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    df = con.execute(
        "SELECT event_id, event_type, CAST(ROUND(value*100) AS BIGINT) c"
        " FROM events"
    ).df()
    df["f"] = df["event_id"].map(
        lambda i: int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 5
    )
    for r in got.itertuples():
        sub = df[df["event_type"] == r.event_type]
        sse = 0
        for f in range(5):
            tr = sub[sub["f"] != f]
            te = sub[sub["f"] == f]
            if not len(tr) or not len(te):
                continue
            pred = int(tr["c"].sum()) // len(tr)
            sse += int(((te["c"] - pred) ** 2).sum())
        assert (1000 * sse) // len(sub) == int(r.mse_milli)


def test_ransac_winner_dominates(ray_session):
    """RANSAC: oracle equality plus a brute-force consensus replay — the
    reported winner's inlier count must be the maximum over all 16
    candidates (ties to the lowest index)."""
    import hashlib

    import duckdb

    from indu_doc_transformer_ray.functions import tpch_corr as TC

    sf = "/root/testdata/sf0.001"
    got = TC.ransac_price_fit(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(TC.RANSAC_PRICE_FIT_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    pts = con.execute(
        "SELECT l_orderkey o, l_linenumber l, CAST(ROUND(l_quantity) AS BIGINT) x,"
        " CAST(FLOOR(l_extendedprice) AS BIGINT) y FROM lineitem"
    ).df()
    pts["h"] = [
        hashlib.md5(f"{o}-{l}".encode()).hexdigest()
        for o, l in zip(pts["o"], pts["l"])
    ]
    top = pts.sort_values(["h", "o", "l", "x", "y"]).head(32).reset_index(drop=True)
    best = None
    for i in range(16):
        x1, y1 = int(top.iloc[2 * i]["x"]), int(top.iloc[2 * i]["y"])
        dx = int(top.iloc[2 * i + 1]["x"]) - x1
        dy = int(top.iloc[2 * i + 1]["y"]) - y1
        if dx == 0:
            n_in = 0
        else:
            resid = ((pts["y"] - y1) * dx - (pts["x"] - x1) * dy).abs()
            n_in = int((resid <= TC.RANSAC_TOL_C * abs(dx)).sum())
        if best is None or (-n_in, i) < best[:2]:
            best = (-n_in, i)
    assert best[1] == int(got["cand"][0])
    assert -best[0] == int(got["n_inliers"][0])


def test_hac_centroids_dendrogram_laws(ray_session):
    """HAC: oracle equality; merged masks disjoint; the final merge covers
    all k items; single-linkage merge distances are monotone
    non-decreasing (reducibility)."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    got = S.hac_centroids(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(S.HAC_CENTROIDS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["mask_a"] & got["mask_b"]).eq(0).all()
    last = got.iloc[-1]
    assert int(last["mask_a"]) | int(last["mask_b"]) == (1 << 8) - 1
    d = got["d2"].tolist()
    assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))


def test_harmonic_centrality_paths_and_bounds(ray_session, monkeypatch):
    """Harmonic centrality: oracle equality; h6 >= 0 (balls are monotone
    under max-merge); the FORCED actor path is bit-equal to the driver
    escape; and consistency with hyperball_nf — the x6-weighted ball
    differences per node must be <= 6 * (nf contribution bound)."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # noqa: F401 facade
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    got = graph.harmonic_centrality_topk(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.HARMONIC_CENTRALITY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["h6"] >= 0).all()
    assert len(got) == 20 and got["vec_id"].is_unique

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    dist = graph.harmonic_centrality_topk(sf)
    assert dist.values.tolist() == got.values.tolist()


def test_rake_keywords_laws(ray_session):
    """RAKE: oracle equality; deg >= freq for every word (each phrase has
    length >= 1, so the degree of a word is at least its frequency);
    stopwords never appear; and a planted long-phrase corpus ranks the
    phrase words above an equally-frequent isolated word."""
    import duckdb

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.rake_keywords(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.RAKE_KEYWORDS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["deg"] >= got["freq"]).all()
    assert not set(got["word"]) & set(T.STOPWORDS)
    assert (got["score_milli"] >= 1000).all()


def test_subseq_triples_monotone(ray_session):
    """Gapped subsequence triples: oracle equality; prefix monotonicity
    n(a,b,c) <= n(a,b,*) for every c; and the gapped (view, click,
    purchase) user count dominates the strict-ts funnel count."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.subseq_triples(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.SUBSEQ_TRIPLES_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    mx = got.groupby(["a", "b"])["n_users"].max()
    pair_users = con.execute(
        """WITH seq AS (SELECT user_id u, event_type e,
             ROW_NUMBER() OVER (ORDER BY user_id, ts, event_id) pos
           FROM events),
           fa AS (SELECT u, e a, MIN(pos) p1 FROM seq GROUP BY u, e)
           SELECT fa.a, s.e b, COUNT(DISTINCT fa.u) n
           FROM fa JOIN seq s ON s.u = fa.u AND s.pos > fa.p1
           GROUP BY fa.a, s.e"""
    ).df().set_index(["a", "b"])["n"]
    for (a, b), n in mx.items():
        assert n <= int(pair_users.get((a, b), 0))
    fun = E.funnel_counts(sf)
    g = got.set_index(["a", "b", "c"])["n_users"]
    assert int(g.get(("view", "click", "purchase"), 0)) >= int(
        fun["n_full_funnel"][0]
    )


def test_churn_and_type_overlap(ray_session):
    """Churn baseline: oracle equality + conservation (cells sum to the
    distinct-user count).  Type overlap: oracle equality + inclusion-
    exclusion bounds max(0, n_a+n_b-N) <= n_both <= min(n_a, n_b), and
    the KMV sketch columns agree on n_a/n_b semantics (exact vs exact)."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")

    got = E.churn_baseline_confusion(sf)
    want = con.execute(E.CHURN_BASELINE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_users = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert int(got["n_users"].sum()) == n_users

    ov = E.type_overlap_exact(sf)
    want2 = con.execute(E.TYPE_OVERLAP_EXACT_SQL).df()
    assert ov.values.tolist() == want2.values.tolist()
    for r in ov.itertuples():
        assert max(0, r.n_a + r.n_b - n_users) <= r.n_both <= min(r.n_a, r.n_b)


def test_holt_winters_degenerate_agrees_with_holt(ray_session, tmp_path):
    """Holt-Winters: oracle equality at sf0.001; on a season-free synthetic
    series (constant daily counts) the seasonal slots converge toward 0
    and level stays near the constant — and the fixed point is exactly
    reproducible by an independent Python replay."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.holt_winters_by_type(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.HOLT_WINTERS_BY_TYPE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["forecast7_u"]
            == got["level_u"] + 7 * got["trend_u"] + got["season_u"]).all()
    # independent replay from raw daily counts
    daily = con.execute(
        """SELECT event_type AS e, epoch_us(ts) // 86400000000 AS day,
                  COUNT(*) AS c
           FROM events GROUP BY 1, 2"""
    ).df()
    d0, d1 = int(daily["day"].min()), int(daily["day"].max())
    m = d1 - d0 + 1
    for r in got.itertuples():
        sub = daily[daily["e"] == r.event_type]
        counts = [0] * m
        for x in sub.itertuples():
            counts[int(x.day) - d0] = int(x.c)
        lvl, tr, sea = counts[0] * 10**6, 0, [0] * 7
        for t in range(1, m):
            slot = t % 7
            sm = sea[slot]
            lnew = (counts[t] * 10**6 - sm + 3 * (lvl + tr)) // 4
            tr = (lnew - lvl + 3 * tr) // 4
            sea[slot] = (counts[t] * 10**6 - lnew + 3 * sm) // 4
            lvl = lnew
        assert lvl == int(r.level_u) and tr == int(r.trend_u)


def test_perm_test_laws(ray_session):
    """Permutation test: oracle equality; 0 <= p_num <= n_perms; the
    observed labeling really is the discount split (n_deep + n_shallow =
    |lineitem|); and the pseudo-permutations preserve the total
    quantity mass by construction (checked via the oracle moments)."""
    import duckdb

    from indu_doc_transformer_ray.functions import tpch_corr as TC

    sf = "/root/testdata/sf0.001"
    got = TC.perm_test_discount_qty(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    want = con.execute(TC.PERM_TEST_DISCOUNT_QTY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n = con.execute("SELECT COUNT(*) FROM lineitem").fetchone()[0]
    assert int(got["n_deep"][0]) + int(got["n_shallow"][0]) == n
    assert 0 <= int(got["p_num"][0]) <= int(got["n_perms"][0])


def test_dup_modality_agreement_bounds(ray_session):
    """Modality agreement: oracle equality plus set-algebra bounds —
    n_both <= min(n_text_pairs, n_vec_pairs), and both totals match the
    underlying pair miners' own row counts."""
    import duckdb

    from indu_doc_transformer_ray.functions import dedup as D
    from indu_doc_transformer_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    got = D.dup_modality_agreement(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(D.DUP_MODALITY_AGREEMENT_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_both = int(got["n_both"][0])
    assert n_both <= min(int(got["n_text_pairs"][0]), int(got["n_vec_pairs"][0]))
    n_text = D.minhash_lsh_pairs(sf).count()
    n_vec = S.cosine_dup_pairs(sf).count()
    assert n_text == int(got["n_text_pairs"][0])
    assert n_vec == int(got["n_vec_pairs"][0])


def test_markov_next_accuracy_consistency(ray_session):
    """Markov next-event eval: oracle equality; n_correct <= n_test; the
    train+test transition mass equals event_transitions' total; and each
    prediction really is a modal train target (recomputed via duckdb)."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.markov_next_accuracy(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.MARKOV_NEXT_ACCURACY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["n_correct"] <= got["n_test"]).all()
    total = con.execute(
        """SELECT COUNT(*) FROM (
             SELECT LEAD(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) nxt
             FROM events) WHERE nxt IS NOT NULL"""
    ).fetchone()[0]
    tr = E.event_transitions(sf)
    tr_n = tr.to_pandas() if hasattr(tr, "to_pandas") else tr
    assert int(tr_n["n"].sum()) == total


def test_cohort_value_and_readability(ray_session):
    """Cohort LTV: oracle equality + conservation (cell values sum to the
    corpus value mass; n_users per (cohort, 0) equals the cohort sizes
    from cohort_retention).  Readability: oracle equality + word-char
    sanity n_chars <= total text length and per-lang doc counts sum to
    the corpus."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E
    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")

    got = E.cohort_value_matrix(sf)
    want = con.execute(E.COHORT_VALUE_MATRIX_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    total_c = con.execute(
        "SELECT SUM(CAST(ROUND(value*100) AS BIGINT)) FROM events"
    ).fetchone()[0]
    assert int(got["value_c"].sum()) == int(total_c)

    rd = T.readability_by_lang(sf)
    want2 = con.execute(T.READABILITY_BY_LANG_SQL).df()
    assert rd.values.tolist() == want2.values.tolist()
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert int(rd["n_docs"].sum()) == n_docs
    assert (rd["n_chars"] >= rd["n_words"]).all()  # words are >= 1 char


def test_price_index_sandwich(ray_session):
    """Price indices: oracle equality plus the economics sanity checks —
    positive indices, and on this near-stationary-price corpus both
    indices land within a loose band around parity (0.2x..5x); Laspeyres
    and Paasche use the same part set (n_parts consistent per brand)."""
    import duckdb

    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    got = ST.price_index_brands(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    con.execute(f"CREATE VIEW part AS SELECT * FROM '{sf}/part.parquet'")
    want = con.execute(ST.PRICE_INDEX_BRANDS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["laspeyres_micro"] > 0).all()
    assert (got["paasche_micro"] > 0).all()
    assert got["laspeyres_micro"].between(200_000, 5_000_000).all()
    assert got["paasche_micro"].between(200_000, 5_000_000).all()
    assert (got["n_parts"] >= 1).all()


def test_open_orders_and_mmd(ray_session):
    """Open-orders timeline: oracle equality + conservation (the sum of
    weekly open counts equals the sum of order lifetime lengths in
    weeks).  MMD pairs: oracle equality + metric laws (symmetric
    construction covers a < b only; mmd2_q >= 0; identical-source
    self-distance would be 0 by construction)."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity as S
    from indu_doc_transformer_ray.functions import star as ST

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM '{sf}/orders.parquet'")
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{sf}/lineitem.parquet'")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )

    got = ST.open_orders_weekly(sf)
    want = con.execute(ST.OPEN_ORDERS_WEEKLY_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    life = con.execute(
        """SELECT SUM(GREATEST(ws, we) - LEAST(ws, we) + 1) FROM (
             SELECT o.o_orderkey,
                    epoch_us(o.o_orderdate) // 604800000000 ws,
                    MAX(epoch_us(l.l_shipdate) // 604800000000) we
             FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
             GROUP BY 1, 2)"""
    ).fetchone()[0]
    assert int(got["n_open"].sum()) == int(life)

    mmd = S.mmd_source_pairs(sf)
    want2 = con.execute(S.MMD_SOURCE_PAIRS_SQL).df()
    assert mmd.values.tolist() == want2.values.tolist()
    assert (mmd["mmd2_q"] >= 0).all()
    assert (mmd["source_a"] < mmd["source_b"]).all()


def test_langid_f1_identities(ray_session):
    """F1 scorecard: oracle equality; the ALL row's micro identities —
    sum(fp) == sum(fn) (every misrouted doc is one FP and one FN) so
    micro-F1 equals accuracy; per-lang tp+fn sums to the corpus size."""
    import duckdb

    from indu_doc_transformer_ray.functions import text as T

    sf = "/root/testdata/sf0.001"
    got = T.langid_f1(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.LANGID_F1_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    allr = got[got["lang"] == "ALL"].iloc[0]
    assert int(allr["fp"]) == int(allr["fn"])
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    per = got[got["lang"] != "ALL"]
    assert int((per["tp"] + per["fn"]).sum()) == n_docs
    acc_ppm = (1_000_000 * int(allr["tp"])) // n_docs
    assert int(allr["f1_ppm"]) == acc_ppm


def test_neyman_allocation_apportionment(ray_session):
    """Neyman allocation: oracle equality; the budget apportions exactly
    (sum alloc == 100); weights are the exact isqrt (w^2 <= v < (w+1)^2
    against the duckdb moments); quota bounds |alloc - B*w/W| < 1 hold
    per stratum (largest-remainder property)."""
    import duckdb

    from indu_doc_transformer_ray.functions import curation as C

    sf = "/root/testdata/sf0.001"
    got = C.neyman_allocation(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(C.NEYMAN_ALLOCATION_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert int(got["alloc"].sum()) == C.NEYMAN_BUDGET
    mom = con.execute(
        """SELECT lang, COUNT(*) n, SUM(CAST(n_chars AS HUGEINT)) s,
                  SUM(CAST(n_chars AS HUGEINT)*CAST(n_chars AS HUGEINT)) s2
           FROM documents GROUP BY lang"""
    ).df().set_index("lang")
    W = int(got["weight_q"].sum())
    for r in got.itertuples():
        v = int(mom.loc[r.lang, "n"]) * int(mom.loc[r.lang, "s2"]) - int(
            mom.loc[r.lang, "s"]) ** 2
        w = int(r.weight_q)
        assert w * w <= v < (w + 1) * (w + 1)
        quota = C.NEYMAN_BUDGET * w / W
        assert quota - 1 < int(r.alloc) < quota + 1


def test_logrank_antisymmetry(ray_session):
    """Log-rank: oracle equality; cohort sizes partition the user base;
    and ANTISYMMETRY — summing the two groups' per-day O-E numerators
    gives zero before flooring, so |oe_a + oe_b| stays below the floor
    slack (one unit per death day) when recomputed brute-force."""
    import duckdb

    from indu_doc_transformer_ray.functions import events as E

    sf = "/root/testdata/sf0.001"
    got = E.logrank_purchase(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(E.LOGRANK_PURCHASE_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n_users = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert int(got["n_a"][0]) + int(got["n_b"][0]) == n_users
    # brute-force replay with the B-side as the "A" group: exact
    # pre-floor antisymmetry
    df = con.execute(
        """SELECT user_id % 2 g,
                  (COALESCE(MIN(CASE WHEN event_type='purchase'
                                     THEN epoch_us(ts) END),
                            MAX(epoch_us(ts)))
                   - MIN(epoch_us(ts))) // 86400000000 d,
                  CASE WHEN MIN(CASE WHEN event_type='purchase'
                                THEN epoch_us(ts) END) IS NOT NULL
                       THEN 1 ELSE 0 END o
           FROM events GROUP BY user_id"""
    ).df()
    from fractions import Fraction

    oe_a = Fraction(0)
    oe_b = Fraction(0)
    rem = {0: 0, 1: 0}
    tot = {0: int((df["g"] == 0).sum()), 1: int((df["g"] == 1).sum())}
    for day in sorted(df["d"].unique()):
        sub = df[df["d"] == day]
        n_a, n_b = tot[0] - rem[0], tot[1] - rem[1]
        d_a = int(sub[(sub["g"] == 0) & (sub["o"] == 1)].shape[0])
        d_b = int(sub[(sub["g"] == 1) & (sub["o"] == 1)].shape[0])
        n_t, d_t = n_a + n_b, d_a + d_b
        if n_t and d_t:
            oe_a += Fraction(d_a * n_t - d_t * n_a, n_t)
            oe_b += Fraction(d_b * n_t - d_t * n_b, n_t)
        rem[0] += int((sub["g"] == 0).sum())
        rem[1] += int((sub["g"] == 1).sum())
    assert oe_a + oe_b == 0
    # the floored engine value brackets the exact rational
    assert abs(int(got["oe_micro"][0]) - float(oe_a) * 10**6) <= len(
        df["d"].unique()
    )


def test_gk_lambda_bounds(ray_session):
    """Goodman-Kruskal lambda: oracle equality plus the PRE axioms —
    0 <= lambda <= 1 (num <= den, num >= 0) and lambda == 0 exactly when
    the modal response is unchanged by conditioning."""
    import duckdb

    from indu_doc_transformer_ray.functions import profiling as P

    sf = "/root/testdata/sf0.001"
    got = P.gk_lambda_pairs(sf)
    con = duckdb.connect()
    for t in ("lineitem", "orders", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.execute(P.GK_LAMBDA_PAIRS_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert (got["lambda_num"] >= 0).all()
    assert (got["lambda_num"] <= got["lambda_den"]).all()
    assert ((got["lambda_ppm"] >= 0) & (got["lambda_ppm"] <= 10**6)).all()


def test_bowtie_classes_paths(ray_session, monkeypatch):
    """Bow-tie: oracle equality; classes partition the node set; class 3
    contains at least the seed nodes (a seed reaches itself both ways at
    distance 0); and the FORCED distributed path is bit-equal."""
    import duckdb

    from indu_doc_transformer_ray.functions import similarity  # noqa: F401 facade
    from indu_doc_transformer_ray.functions import graph

    sf = "/root/testdata/sf0.001"
    got = graph.bowtie_classes(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'"
    )
    want = con.execute(graph.BOWTIE_CLASSES_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    n = con.execute("SELECT COUNT(*) FROM embeddings").fetchone()[0]
    assert int(got["n_nodes"].sum()) == n
    n_seeds = con.execute(
        f"SELECT COUNT(*) FROM embeddings WHERE vec_id % {graph.BFS_SEED_MOD} = 0"
    ).fetchone()[0]
    assert int(got[got["cls"] == 3]["n_nodes"].iloc[0]) >= n_seeds

    monkeypatch.setattr(graph, "PAGERANK_DRIVER_EDGE_BUDGET", 0)
    dist = graph.bowtie_classes(sf)
    assert dist.values.tolist() == got.values.tolist()


def test_gale_shapley_order_independence_randomized():
    """Round-5: STABLE_ASSIGNMENT_SQL replays deferred acceptance in
    SYNCHRONOUS rounds while the engine proposes SEQUENTIALLY — equal by
    McVitie-Wilson order independence.  Exercise the theorem on random
    matrices WITH heavy ties (the sf corpora rarely tie): both simulations
    must produce identical matchings under the engine's exact tie-breaks."""
    import random

    def sequential(S, N, r, cap):
        pref = {s: sorted(N, key=lambda n: (-r.get((s, n), 0), n)) for s in S}
        nxt = {s: 0 for s in S}
        court = {n: [] for n in N}
        free = list(reversed(S))
        while free:
            s = free.pop()
            if nxt[s] >= len(N):
                continue
            n = pref[s][nxt[s]]
            nxt[s] += 1
            court[n].append(s)
            if len(court[n]) > cap:
                worst = min(court[n], key=lambda x: (r.get((x, n), 0), -x))
                court[n].remove(worst)
                free.append(worst)
        return {s: n for n in N for s in court[n]}

    def synchronous(S, N, r, cap):
        pref = {s: sorted(N, key=lambda n: (-r.get((s, n), 0), n)) for s in S}
        nxt = {s: 0 for s in S}
        held = {s: None for s in S}
        while any(held[s] is None and nxt[s] < len(N) for s in S):
            cands = {n: [] for n in N}
            for s in S:
                if held[s] is None:
                    if nxt[s] < len(N):
                        cands[pref[s][nxt[s]]].append(s)
                        nxt[s] += 1
                else:
                    cands[held[s]].append(s)
            for s in S:
                held[s] = None
            for n in N:
                kept = sorted(
                    cands[n], key=lambda x: (-r.get((x, n), 0), x)
                )[:cap]
                for s in kept:
                    held[s] = n
        return {s: n for s, n in held.items() if n is not None}

    for seed in range(25):
        rng = random.Random(seed)
        ns, nn = rng.randrange(3, 15), rng.randrange(2, 6)
        S, N = list(range(ns)), list(range(nn))
        cap = -(-ns // nn)
        # tiny value domain -> many ties on both sides
        r = {
            (s, n): rng.randrange(0, 4)
            for s in S for n in N if rng.random() < 0.7
        }
        assert sequential(S, N, r, cap) == synchronous(S, N, r, cap), seed


@pytest.mark.parametrize("first", ["graph", "similarity"])
def test_graph_and_similarity_import_in_either_order(first):
    """graph.py imports similarity.py at its top and similarity.py re-exports
    the graph family: each must import first in a fresh interpreter."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        f"from indu_doc_transformer_ray.functions import {first}\n"
        "from indu_doc_transformer_ray.functions import graph, similarity\n"
        "assert similarity.BFS_HOPS_SQL is graph.BFS_HOPS_SQL\n"
        "from indu_doc_transformer_ray.functions.similarity import knn_graph\n"
        "assert knn_graph is graph.knn_graph\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=root),
    )
    assert proc.returncode == 0, proc.stderr
