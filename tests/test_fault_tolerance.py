"""Worker-loss resilience: on a real cluster nodes die mid-job, so every
stage must survive a worker process vanishing and still produce the exact
result.  These tests kill a worker ONCE (os._exit from inside a running
task/actor) and assert Ray's retry machinery completes the job with
output identical to the undisturbed run — the single-node stand-in for
"a 256-node run loses a node and nobody notices"."""

import os

import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def test_task_stage_survives_worker_death(ray_session, tmp_path):
    flag = str(tmp_path / "died_once")

    def poisoned(t: pa.Table) -> pa.Table:
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(1)  # hard worker kill: no exception, no cleanup
        # inline (a module-level helper would pickle by reference, which a
        # freshly restarted worker cannot import from the tests dir)
        return pa.table({"x": t["x"], "y": pc.multiply(t["x"], t["x"])})

    ds = ray.data.range(1000).map_batches(
        lambda t: pa.table({"x": t["id"]}), batch_format="pyarrow"
    )
    got = (
        ds.map_batches(poisoned, batch_format="pyarrow")
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    assert os.path.exists(flag)  # the kill really happened
    assert len(got) == 1000
    assert (got["y"] == got["x"] ** 2).all()


def test_actor_pool_stage_survives_actor_death(ray_session, tmp_path):
    flag = str(tmp_path / "actor_died_once")

    class Poisoned:
        def __init__(self):
            self.state = 41  # per-actor setup must rebuild on restart

        def __call__(self, t: pa.Table) -> pa.Table:
            if not os.path.exists(flag):
                open(flag, "w").close()
                os._exit(1)
            assert self.state == 41
            return pa.table({"x": t["x"], "y": pc.multiply(t["x"], t["x"])})

    ds = ray.data.range(1000).map_batches(
        lambda t: pa.table({"x": t["id"]}), batch_format="pyarrow"
    )
    got = (
        ds.map_batches(Poisoned, batch_format="pyarrow", concurrency=2)
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    assert os.path.exists(flag)
    assert len(got) == 1000
    assert (got["y"] == got["x"] ** 2).all()


def test_extraction_shard_survives_worker_death(ray_session, tmp_path):
    """The headline pipeline end-to-end through a worker loss: one
    extractor actor dies right after construction; the restarted actor
    must finish the shard and the output must equal the undisturbed run
    (the run_job resume tests cover DRIVER loss; this covers WORKER loss).
    Chaos is injected via a locally-defined subclass (pickled by value) —
    monkeypatching the module would never reach workers (driver-side
    module mutations do not ship; see pipelines/extract.py actor-state
    contract)."""
    import indu_doc_transformer_ray.pipelines.extract as ex
    from indu_doc_transformer_ray.core import default_config
    from indu_doc_transformer_ray.fixtures import corpus_table

    flag = str(tmp_path / "extractor_died_once")

    class ChaosExtractor(ex.DocumentExtractor):
        def __init__(self, records, psj, progress):
            super().__init__(records, psj, progress)
            if not os.path.exists(flag):
                open(flag, "w").close()
                os._exit(1)  # actor dies post-init, pre-first-batch

    corpus = corpus_table(20, seed=33)
    baseline = (
        ex.extract_documents(ray.data.from_arrow(corpus).repartition(4))
        .select_columns(["doc_id", "n_page_objects"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = (
        ray.data.from_arrow(corpus)
        .repartition(4)
        .map_batches(
            ChaosExtractor,
            batch_format="pyarrow",
            batch_size=32,
            fn_constructor_args=(default_config.to_records(), None, None),
            concurrency=2,
        )
        .select_columns(["doc_id", "n_page_objects"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert os.path.exists(flag)  # the kill really happened
    assert got.equals(baseline)


def test_merge_fold_survives_mid_fold_kill(ray_session, tmp_path):
    """Round-5 verdict #7: kill DURING the merge *fold* phase.  The fold
    writes per-bucket object files into ``objects.tmp`` and commits via
    one atomic rename, so every crash point leaves one of three on-disk
    states; re-running ``run_merge`` from each must yield BYTE-identical
    merged objects:

      (a) tmp partially written — including one torn parquet file;
      (b) rename done but the merge manifest never written;
      (c) a shard's 2a bucket dir lost mid-write (partial ``.tmp`` left).
    """
    import shutil

    import pyarrow.dataset as pads

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.runner import (
        run_extraction,
        run_merge,
    )

    corpus_dir = str(tmp_path / "corpus")
    out_dir = str(tmp_path / "out")
    ray.data.from_arrow(corpus_table(24, seed=55)).repartition(4).write_parquet(
        corpus_dir
    )
    run_extraction(corpus_dir, out_dir, shards=2)
    run_merge(out_dir)

    obj_dir = os.path.join(out_dir, "objects")
    man = os.path.join(out_dir, "manifests", "merge.json")

    def snapshot():
        t = pads.dataset(obj_dir).to_table()
        cols = sorted(t.column_names)
        rows = sorted(
            zip(*[t.column(c).to_pylist() for c in cols])
        )
        return cols, rows

    reference = snapshot()
    ref_files = {
        f: open(os.path.join(obj_dir, f), "rb").read()
        for f in os.listdir(obj_dir)
    }

    # -- (a) killed mid-fold: partial tmp with a torn file ----------------
    os.remove(man)
    tmp_dir = obj_dir + ".tmp"
    os.makedirs(tmp_dir)
    names = sorted(ref_files)
    for f in names[: len(names) // 2]:
        with open(os.path.join(tmp_dir, f), "wb") as w:
            w.write(ref_files[f])
    torn = names[len(names) // 2]
    with open(os.path.join(tmp_dir, torn), "wb") as w:
        w.write(ref_files[torn][: len(ref_files[torn]) // 2])  # torn write
    shutil.rmtree(obj_dir)
    run_merge(out_dir)
    assert snapshot() == reference
    assert not os.path.exists(tmp_dir)

    # -- (b) killed between rename and manifest write ---------------------
    os.remove(man)
    run_merge(out_dir)
    assert snapshot() == reference

    # -- (c) killed mid-2a: one shard's bucket dir gone, partial .tmp -----
    os.remove(man)
    shutil.rmtree(obj_dir)
    import json

    from indu_doc_transformer_ray.pipelines.runner import _shard_bucket_dir

    chars = json.load(open(os.path.join(
        out_dir, "manifests", "shard-00001.json")))["bucket_chars"]
    bdir = _shard_bucket_dir(out_dir, 1, chars)
    btmp = bdir + ".tmp"
    os.rename(bdir, btmp)  # simulate: rename never happened
    # and drop half the partial's bucket dirs (write was mid-flight)
    buckets = sorted(os.listdir(btmp))
    for b in buckets[: len(buckets) // 2]:
        shutil.rmtree(os.path.join(btmp, b))
    run_merge(out_dir)
    assert snapshot() == reference
    # the rebuilt shard's buckets and the surviving shard's share one
    # width, so no mkey lands in two objects files
    mkeys = pads.dataset(obj_dir).to_table(columns=["mkey"]).column("mkey")
    assert len(mkeys) == len(pc.unique(mkeys))


def test_merge_width_change_rebuilds_stale_buckets(
    ray_session, tmp_path, monkeypatch
):
    """Crash-matrix case for the corpus-derived bucket width: a corpus that
    crosses a ``bucket_chars`` boundary re-extracts only its changed shard,
    so the skipped shard's bucket dir was written at the OLD width.  The
    merge must rebuild it at the new width — folding it next to the new
    width's dirs would put one mkey in two buckets — and equal a clean
    run at the new width."""
    import pyarrow.dataset as pads

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines import extract
    from indu_doc_transformer_ray.pipelines.runner import (
        run_extraction,
        run_merge,
    )

    corpus_dir = str(tmp_path / "corpus")
    out_dir = str(tmp_path / "out")
    ray.data.from_arrow(corpus_table(30, seed=77)).repartition(4).write_parquet(
        corpus_dir
    )
    run_extraction(corpus_dir, out_dir, shards=2)
    assert run_merge(out_dir)["bucket_chars"] == 1

    # past the boundary (30 docs > 16 buckets x 1): shard 0 re-extracts at
    # width 2, shard 1 is skipped with its width-1 bucket dir
    monkeypatch.setattr(extract, "DOCS_PER_BUCKET", 1)
    os.remove(os.path.join(out_dir, "manifests", "shard-00000.json"))
    results = run_extraction(corpus_dir, out_dir, shards=2)
    assert {r.shard: r.skipped for r in results} == {0: False, 1: True}
    m = run_merge(out_dir)
    assert m["bucket_chars"] == 2
    buckets = os.path.join(out_dir, "delta_buckets")
    assert os.listdir(buckets) == ["chars=2"]
    assert sorted(os.listdir(os.path.join(buckets, "chars=2"))) == [
        "shard=00000", "shard=00001"
    ]

    clean_dir = str(tmp_path / "clean")
    run_extraction(corpus_dir, clean_dir, shards=2)
    clean = run_merge(clean_dir)

    def rows(out):
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["mkey", "payload"]
        )
        return sorted(zip(t.column("mkey").to_pylist(),
                          t.column("payload").to_pylist()))

    got = rows(out_dir)
    assert len({k for k, _p in got}) == len(got)  # one row per mkey
    assert got == rows(clean_dir)
    assert m["n_objects"] == clean["n_objects"]
