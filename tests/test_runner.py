"""Checkpoint/resume semantics of the sharded runner."""

import json
import os
import shutil

import pytest

import ray.data

from indu_doc_transformer_ray.fixtures import corpus_table
from indu_doc_transformer_ray.pipelines.runner import (
    object_table,
    run_extraction,
    run_merge,
    spans_output,
)


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    ds = ray.data.from_arrow(corpus_table(40, seed=11)).repartition(8)
    ds.write_parquet(d)
    return d


def test_run_and_resume(corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out")
    results = run_extraction(corpus_dir, out_dir, shards=4)
    assert len(results) == 4
    assert all(not r.skipped for r in results)
    assert sum(r.n_docs for r in results) == 40
    merge1 = run_merge(out_dir)
    assert merge1["n_objects"] > 0

    spans1 = {
        r["doc_id"]: r["spans"]
        for r in spans_output(out_dir).take_all()
    }

    # simulate a crash: lose shard 2 (data + manifest) and the merge output
    shutil.rmtree(os.path.join(out_dir, "extracted", "shard=00002"))
    os.remove(os.path.join(out_dir, "manifests", "shard-00002.json"))
    os.remove(os.path.join(out_dir, "manifests", "merge.json"))
    shutil.rmtree(os.path.join(out_dir, "objects"))

    results2 = run_extraction(corpus_dir, out_dir, shards=4)
    skipped = {r.shard: r.skipped for r in results2}
    assert skipped == {0: True, 1: True, 2: False, 3: True}
    merge2 = run_merge(out_dir)
    assert merge2["n_objects"] == merge1["n_objects"]

    spans2 = {
        r["doc_id"]: r["spans"]
        for r in spans_output(out_dir).take_all()
    }
    assert spans1.keys() == spans2.keys()
    for d in spans1:
        assert spans1[d] == spans2[d]


def test_manifest_contents(corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out2")
    run_extraction(corpus_dir, out_dir, shards=2)
    m = json.load(open(os.path.join(out_dir, "manifests", "shard-00000.json")))
    assert m["complete"] is True
    assert m["n_docs"] > 0 and m["n_pages"] > 0 and m["n_spans_in"] > 0
    assert m["wall_s"] > 0
    assert all(os.path.exists(f) for f in m["input_files"])  # lineage


def test_object_table_read(corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out3")
    run_extraction(corpus_dir, out_dir, shards=2)
    run_merge(out_dir)
    xt = object_table(out_dir, "xtargets").to_pandas()
    assert set(xt.columns) == {"guid", "tag_str", "target_type"}
    assert len(xt) > 0
    assert xt["guid"].is_unique


def test_run_extraction_progress_events(ray_session, tmp_path):
    """The on_event surface mirrors the reference's plugin event emitter
    (plugins/events.py:32-127): started -> per-shard completion -> completed."""
    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.runner import run_extraction

    src = tmp_path / "corpus"
    ray.data.from_arrow(corpus_table(12, seed=3)).repartition(2).write_parquet(
        str(src)
    )
    events = []
    results = run_extraction(
        str(src), str(tmp_path / "out"), shards=2, on_event=events.append
    )
    kinds = [e["type"] for e in events]
    assert kinds[0] == "processing_started"
    assert kinds[-1] == "processing_completed"
    assert kinds.count("shard_completed") == 2
    assert events[-1]["n_docs"] == sum(r.n_docs for r in results) == 12
    # page-granular progress: the final drained snapshot accounts every doc
    # and page (monotone cumulative counts, pct vs the metadata doc total)
    prog = [e for e in events if e["type"] == "progress"]
    assert prog, "no progress events emitted"
    docs_seq = [p["docs_done"] for p in prog]
    assert docs_seq == sorted(docs_seq)
    assert prog[-1]["docs_done"] == 12
    assert prog[-1]["total_docs"] == 12
    assert prog[-1]["pct"] == 100.0
    assert prog[-1]["pages_done"] == sum(r.n_pages for r in results)


def test_incremental_ingest_invalidates_stale_state(ray_session, tmp_path):
    """Growing the input corpus between runs must recompute affected shards
    AND the merge — a stale manifest may only skip work for the exact file
    list it covered."""
    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.runner import (
        run_extraction,
        run_merge,
    )

    src = tmp_path / "corpus"
    ray.data.from_arrow(corpus_table(10, seed=5)).repartition(2).write_parquet(
        str(src)
    )
    out = str(tmp_path / "out")
    r1 = run_extraction(str(src), out, shards=2)
    m1 = run_merge(out)
    assert sum(r.n_docs for r in r1) == 10

    # incremental ingest: 6 new documents arrive as a new file
    extra = corpus_table(16, seed=5).slice(10, 6)
    import pyarrow.parquet as pq

    pq.write_table(extra, str(src / "zz_new.parquet"))

    r2 = run_extraction(str(src), out, shards=2)
    m2 = run_merge(out)
    assert sum(r.n_docs for r in r2) == 16
    assert not all(r.skipped for r in r2)  # changed shards recomputed
    assert m2["n_objects"] > m1["n_objects"]  # merge re-folded, not skipped

    # from-scratch run over the grown corpus gives the identical result
    out2 = str(tmp_path / "out2")
    run_extraction(str(src), out2, shards=2)
    m3 = run_merge(out2)
    assert m3["n_objects"] == m2["n_objects"]


def test_shard_count_invariance(corpus_dir, tmp_path):
    """The WHOLE job is a pure function of the input, not the partitioning:
    different shard counts must yield byte-identical span sequences and the
    identical merged object set (the 256-node-vs-8-node contract)."""
    import pyarrow.dataset as pads

    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_extraction(corpus_dir, out_a, shards=3)
    run_extraction(corpus_dir, out_b, shards=8)
    ma = run_merge(out_a)
    mb = run_merge(out_b)
    assert ma["n_objects"] == mb["n_objects"]

    sa = {r["doc_id"]: r["spans"] for r in spans_output(out_a).take_all()}
    sb = {r["doc_id"]: r["spans"] for r in spans_output(out_b).take_all()}
    assert sa == sb

    def merged_rows(out):
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["table_name", "mkey", "payload"]
        )
        return sorted(zip(*[t.column(c).to_pylist()
                            for c in ("table_name", "mkey", "payload")]))

    assert merged_rows(out_a) == merged_rows(out_b)

    # the per-shard bucket-file merge and the in-memory Dataset merge are
    # two execution shapes of one fold: they must produce the same objects
    from indu_doc_transformer_ray.pipelines.extract import (
        extract_documents,
        merge_deltas,
    )

    in_memory = merge_deltas(
        extract_documents(ray.data.read_parquet(corpus_dir))
    ).take_all()
    assert sorted((m, p) for _t, m, p in merged_rows(out_a)) == sorted(
        (r["mkey"], r["payload"]) for r in in_memory
    )


def test_run_extraction_runs_on_one_cpu(tmp_path):
    """The extraction stage is a task that holds a CPU only while it runs,
    so a 1-CPU session finishes a two-shard job and its merge, with the
    same merged objects as a 2-CPU session.  Each session runs in its own
    process group, killed after 180 s."""
    import signal
    import subprocess
    import sys
    import textwrap

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    inp = tmp_path / "in"
    inp.mkdir()
    for i in range(2):
        pq.write_table(corpus_table(6, seed=3 + i), str(inp / f"{i}.parquet"))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)

    def job(num_cpus: int) -> tuple[str, int]:
        out = str(tmp_path / f"out{num_cpus}")
        script = textwrap.dedent(f"""
            import ray
            from indu_doc_transformer_ray.pipelines.runner import (
                run_extraction, run_merge)
            ray.init(address="local", num_cpus={num_cpus},
                     include_dashboard=False, logging_level="ERROR")
            run_extraction({str(inp)!r}, {out!r}, shards=2)
            print("MERGED", run_merge({out!r})["n_objects"])
            ray.shutdown()
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=root,
            start_new_session=True,
        )
        try:
            stdout, err = proc.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, err = proc.communicate()
        line = next(
            (ln for ln in stdout.splitlines() if ln.startswith("MERGED")), ""
        )
        assert line, f"{num_cpus} CPU(s): " + stdout + err
        return out, int(line.split()[1])

    def objects(out: str) -> list[tuple[str, str]]:
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["mkey", "payload"]
        )
        return sorted(zip(t["mkey"].to_pylist(), t["payload"].to_pylist()))

    out1, n1 = job(1)
    out2, n2 = job(2)
    assert n1 == n2 > 0
    assert objects(out1) == objects(out2)
    assert len(os.listdir(os.path.join(out1, "manifests"))) == 3


def test_finished_job_releases_every_cpu(tmp_path):
    """A finished run_extraction must hand back its actor pool's CPUs at
    once, not when the driver's cyclic garbage collector next runs: a held
    CPU starves the next shard and run_merge's fold tasks.  The automatic
    collector is off in the job's driver, so only an explicit release frees
    the pool.  Runs in its own 4-CPU Ray session."""
    import signal
    import subprocess
    import sys
    import textwrap

    import pyarrow.parquet as pq

    inp = str(tmp_path / "docs.parquet")
    pq.write_table(corpus_table(8, seed=3), inp)
    script = textwrap.dedent(f"""
        import gc
        import time
        import ray
        from indu_doc_transformer_ray.pipelines.runner import run_extraction
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        total = ray.cluster_resources()["CPU"]
        gc.disable()
        run_extraction({inp!r}, {str(tmp_path / "out")!r}, shards=1)
        t0 = time.monotonic()
        while (ray.available_resources().get("CPU", 0) < total
               and time.monotonic() - t0 < 3.0):
            time.sleep(0.05)
        print("FREE", ray.available_resources().get("CPU", 0), total)
        ray.shutdown()
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    # own process group: a hang is killed together with its Ray processes
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=root,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    line = next((ln for ln in out.splitlines() if ln.startswith("FREE")), "")
    assert line, out + err
    free, total = map(float, line.split()[1:])
    assert free == total, f"{total - free} of {total} CPUs still held"


def test_bucket_chars_from_doc_count():
    """16 buckets up to 2,048 documents, 256 up to 32,768: the sf0.1
    headline (20,000 documents) keeps its 256-bucket layout."""
    from indu_doc_transformer_ray.pipelines.extract import bucket_chars

    assert [bucket_chars(n) for n in (0, 1, 40, 160, 300, 2048)] == [1] * 6
    assert bucket_chars(2049) == 2
    assert bucket_chars(20000) == 2
    assert bucket_chars(32768) == 2
    assert bucket_chars(32769) == 3


@pytest.fixture(scope="module")
def two_widths(corpus_dir, tmp_path_factory):
    """The 40-document corpus merged at its derived width (1 char) and,
    with the driver-side ``DOCS_PER_BUCKET`` lowered, at 2 chars.  The
    width reaches the bucket tasks as an argument, so the driver patch
    is the whole override."""
    from indu_doc_transformer_ray.pipelines import extract

    outs = {}
    for chars, per_bucket in ((1, extract.DOCS_PER_BUCKET), (2, 2)):
        out = str(tmp_path_factory.mktemp(f"width{chars}"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extract, "DOCS_PER_BUCKET", per_bucket)
            run_extraction(corpus_dir, out, shards=2)
            run_merge(out)
        outs[chars] = out
    return outs


def _merge_manifest(out):
    return json.load(open(os.path.join(out, "manifests", "merge.json")))


def test_merge_equal_across_widths(two_widths):
    import pyarrow.dataset as pads

    def rows(out):
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["mkey", "payload"]
        )
        return sorted(zip(t.column("mkey").to_pylist(),
                          t.column("payload").to_pylist()))

    m1, m2 = _merge_manifest(two_widths[1]), _merge_manifest(two_widths[2])
    assert (m1["bucket_chars"], m2["bucket_chars"]) == (1, 2)
    assert m1["n_buckets"] == 16 and m2["n_buckets"] > 16
    assert m1["n_objects"] == m2["n_objects"]
    r1 = rows(two_widths[1])
    assert r1 == rows(two_widths[2])
    assert len({m for m, _p in r1}) == len(r1)  # one row per mkey
    for chars, out in two_widths.items():
        # each shard manifest records the width its buckets were written at
        for k in (0, 1):
            shard_m = json.load(open(
                os.path.join(out, "manifests", f"shard-{k:05d}.json")))
            assert shard_m["bucket_chars"] == chars
        assert os.listdir(os.path.join(out, "delta_buckets")) == [
            f"chars={chars}"
        ]


def test_merge_manifest_per_bucket_rows(two_widths):
    """merge.json's per-bucket object rows describe the objects/ files:
    they sum to the objects/ row count, and max/median are the files'."""
    import statistics

    import pyarrow.parquet as pq

    for out in two_widths.values():
        m = _merge_manifest(out)
        obj_dir = os.path.join(out, "objects")
        per_file = [
            pq.read_metadata(os.path.join(obj_dir, f)).num_rows
            for f in os.listdir(obj_dir)
        ]
        local = 0
        for k in (0, 1):
            shard_m = json.load(open(
                os.path.join(out, "manifests", f"shard-{k:05d}.json")))
            local += shard_m["n_errors"] + shard_m["n_page_objects"]
        assert m["n_buckets"] == len(per_file)
        assert m["n_objects"] - local == sum(per_file)
        assert m["bucket_rows_max"] == max(per_file)
        assert m["bucket_rows_median"] == statistics.median(per_file)
