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
    """The headline pipeline end-to-end through a worker loss: the
    production stage function (``extract.extract_batch``, warm state and
    all) runs in a task whose worker dies once, right after extracting its
    batch; Ray's task retry must finish the work on another process and
    the output must equal the undisturbed run (the run_job resume tests
    cover DRIVER loss; this covers WORKER loss).  The kill is injected by a
    locally-defined wrapper (pickled by value) — monkeypatching the module
    would never reach workers."""
    import indu_doc_transformer_ray.pipelines.extract as ex
    from indu_doc_transformer_ray.core import default_config
    from indu_doc_transformer_ray.fixtures import corpus_table

    flag = str(tmp_path / "extractor_died_once")
    records = default_config.to_records()

    def dies_once(batch: pa.Table) -> pa.Table:
        out = ex.extract_batch(batch, records, None, None)
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(1)  # the worker dies holding a finished batch
        return out

    def rows(ds):
        out = ds.take_all()
        for r in out:  # a doc's delta order follows its process's str hash
            r["deltas"].sort(key=lambda d: (d["mkey"], d["payload"]))
        return sorted(out, key=lambda r: r["doc_id"])

    corpus = corpus_table(20, seed=33)
    baseline = rows(
        ex.extract_documents(ray.data.from_arrow(corpus).repartition(4))
    )
    got = rows(
        ray.data.from_arrow(corpus)
        .repartition(4)
        .map_batches(dies_once, batch_format="pyarrow",
                     batch_size=ex.BATCH_SIZE)
    )
    assert os.path.exists(flag)  # the kill really happened
    assert len(got) == 20
    assert got == baseline


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
    from indu_doc_transformer_ray.pipelines.runner import _shard_bucket_dir

    bdir = _shard_bucket_dir(out_dir, 1)
    btmp = bdir + ".tmp"
    os.rename(bdir, btmp)  # simulate: rename never happened
    # and drop half the partial's part files (write was mid-flight)
    parts = sorted(os.listdir(btmp))
    for f in parts[: max(1, len(parts) // 2)]:
        os.remove(os.path.join(btmp, f))
    run_merge(out_dir)
    assert snapshot() == reference
    assert not os.path.exists(btmp)
    # the rebuilt shard's delta files and the surviving shard's are folded
    # in the same ranges, so no mkey lands in two objects files
    mkeys = pads.dataset(obj_dir).to_table(columns=["mkey"]).column("mkey")
    assert len(mkeys) == len(pc.unique(mkeys))


def test_merge_drops_width_dir_layout(ray_session, tmp_path):
    """An output dir written by the older width-in-path layout still holds
    ``delta_buckets/chars=C/shard=K/bucket=B/`` trees.  The merge must
    never fold them and must remove them; here the leftover tree holds
    every real mkey with a payload that would win the max fold, so
    folding it would show in the objects.  The merge equals a clean run."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.runner import (
        run_extraction,
        run_merge,
    )

    corpus_dir = str(tmp_path / "corpus")
    ray.data.from_arrow(corpus_table(30, seed=77)).repartition(4).write_parquet(
        corpus_dir
    )

    def rows(out):
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["table_name", "mkey", "payload"]
        )
        return sorted(zip(*[c.to_pylist() for c in t.columns]))

    clean_dir = str(tmp_path / "clean")
    run_extraction(corpus_dir, clean_dir, shards=2)
    clean = run_merge(clean_dir)

    out_dir = str(tmp_path / "out")
    run_extraction(corpus_dir, out_dir, shards=2)
    mkeys = [mkey for _t, mkey, _p in rows(clean_dir)]
    stale = os.path.join(out_dir, "delta_buckets", "chars=1", "shard=00000",
                         "bucket=0")
    os.makedirs(stale)
    pq.write_table(
        pa.table({"mkey": mkeys, "payload": ["~stale"] * len(mkeys)}),
        os.path.join(stale, "part-0000.parquet"),
    )
    m = run_merge(out_dir)
    assert sorted(os.listdir(os.path.join(out_dir, "delta_buckets"))) == [
        "shard=00000", "shard=00001"
    ]
    got = rows(out_dir)
    assert len({mkey for _t, mkey, _p in got}) == len(got)  # one per mkey
    assert got == rows(clean_dir)
    assert m["n_objects"] == clean["n_objects"]
