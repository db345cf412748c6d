"""Benchmark harness.

Headline: the flagship extraction pipeline (synthesize-once corpus ->
read parquet -> actor-pool extraction -> checkpoint write -> delta merge ->
object tables) over the corpus derived from ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1), plus a set of representative operator pipelines.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N, ...}

``--scaling`` runs the headline job in FRESH processes at two parallelism
levels (default N=4 vs 4N=16 — chosen where an inline hardware probe shows
linear vCPU scaling on this guest; see BASELINE.md) and reports both
throughputs, the scaling efficiency, and the probe's hardware ceiling.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SEED = 42


def corpus_docs_for(sf_dir: str) -> int:
    # 4x the documents-table rows: long enough that fixed pipeline startup
    # amortizes and the scaling measurement reflects throughput, not setup
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return max(100, 4 * n)


def ensure_corpus(sf_dir: str) -> str:
    """Materialize the deterministic span corpus once (untimed); reused by
    every bench run so both scaling levels read identical warm input."""
    n_docs = corpus_docs_for(sf_dir)
    path = f"/tmp/idtr_bench/corpus_n{n_docs}_s{SEED}"
    marker = os.path.join(path, "_COMPLETE")
    if not os.path.exists(marker):
        from indu_doc_transformer_ray.pipelines.corpus import materialize_corpus

        shutil.rmtree(path, ignore_errors=True)
        materialize_corpus(n_docs, path, seed=SEED)
        open(marker, "w").write("ok")
    # warm the page cache so we measure compute, not first disk read
    for root, _d, files in os.walk(path):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass
    return path


def bench_headline(corpus_path: str) -> dict:
    """Timed: read -> extract -> checkpoint -> merge -> object write."""
    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.pipelines.runner import (
        run_extraction,
        run_merge,
    )

    out_dir = f"/tmp/idtr_bench/out_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    shard_results = run_extraction(corpus_path, out_dir, shards=8)
    t_extract = time.time() - t0
    t1 = time.time()
    merge_manifest = run_merge(out_dir)
    t_merge = time.time() - t1
    n_docs = sum(r.n_docs for r in shard_results)
    n_pages = sum(r.n_pages for r in shard_results)
    total = t_extract + t_merge
    return {
        "extract_sec": round(t_extract, 3),
        "merge_sec": round(t_merge, 3),
        "total_sec": round(total, 3),
        "n_docs": n_docs,
        "n_pages": n_pages,
        "docs_per_sec": round(n_docs / total, 2),
        "pages_per_sec": round(n_pages / total, 2),
        "n_objects": merge_manifest["n_objects"],
    }


def _query_fns() -> dict:
    """The registry IS `__ray_entry__.queries()` — bench loads it directly
    so the benched set can never drift from what the driver checks (a
    hand-maintained copy here missed session additions like
    heavy_hitters)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(os.path.dirname(__file__), "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.queries()


#: Query-phase chunks: each chunk runs in its OWN fresh Ray session (the
#: local analogue of one ``ray job submit`` per pipeline group) so a
#: join/actor-heavy query's worker churn can't inflate queries that happen
#: to run after it (measured: q7 31.9s as query #29 of one long session vs
#: 9.3s in a fresh session — pure dispatch residue, remote compute
#: unchanged).  Queries that share a session-memoized sub-DAG (the IVF
#: k-NN graph family; the MinHash CC labels) are kept IN the same chunk so
#: the memo reuse the timings rely on is preserved.
QUERY_CHUNKS = [
    ["q1_pricing_summary", "q3_top_orders", "q18_large_orders",
     "events_hourly", "token_stats", "dedup_exact", "ann_topk",
     "minhash_lsh_pairs"],
    ["cosine_dup_pairs", "label_centroid_sims", "vocab_topk",
     "repetition_stats", "chunk_documents", "pack_bins",
     "curation_pipeline", "hll_users_per_type"],
    ["decontaminate", "shard_assign", "lsh_bucket_topk", "bm25_topk",
     "weighted_sample", "count_min_probe", "dedup_clusters",
     "running_total_per_customer"],
    ["knn_graph", "pagerank_knn", "triangle_count", "label_propagation",
     "hard_negatives", "whiten_embeddings", "source_overlap",
     "exact_price_quantiles"],
    ["q7_nation_pairs", "lang_top_terms", "q21_sole_returner",
     "q2_min_cost_supplier", "q9_nation_profit", "q16_supplier_counts",
     "median_price_per_status", "customers_1997_except_1998"],
    ["html_main_content", "html_spans", "q8_market_share",
     "q17_small_qty_revenue", "q5_nation_revenue", "q10_returned_items"],
    ["gopher_rules", "dsir_weights", "rolling_window_orders",
     "price_decile", "first_touch_attribution", "corpus_diff",
     "late_event_rates", "simhash_pairs", "substring_dup_coverage"],
    # session-4 additions; bfs/cluster_cap/pca share the kmeans/knn memo
    ["customers_both_years", "stopword_scrub", "lang_adaptive_filter",
     "source_drift_ks", "constraint_check", "ewma_user_value",
     "scd2_intervals", "langid_confusion"],
    ["pareto_frontier", "fuzzy_name_pairs", "session_overlap",
     "cumulative_unique_users", "events_hourly_dense", "top_paths",
     "mad_outliers", "leakage_safe_split", "compression_ratio",
     "user_modal_event", "value_histogram", "dau_wau_stickiness",
     "k_anonymity_audit", "event_state_lookup", "global_price_rank",
     "orders_wide", "join_size_estimate", "zorder_parts",
     "item_similarity_topk", "skew_report", "incremental_hourly_counts",
     "hll_wau", "value_trend_per_type", "daily_value_median"],
    ["cluster_cap_sample", "bfs_hops", "pca_project", "knn_label_accuracy"],
    ["events_trailing_density", "customer_order_seq", "weighted_median_price",
     "cusum_drift", "heavy_hitters", "hybrid_rrf_topk", "mutual_knn_pairs"],
    # session-3 additions (line_dedup rides the documents scan; media ops
    # ride the span corpus; pq shares no memo with the ivf family)
    ["line_dedup", "bigram_surprisal", "repetition_filter",
     "kmv_distinct_users", "pq_topk", "bpe_fertility",
     "media_dhash", "media_phash_pairs", "media_phash_clusters"],
    ["substring_dedup_rewrite", "cdc_upsert_snapshot",
     "common_neighbors_topk", "pii_scrub"],
    # session-4 ml family (logreg is 6 sequential IRLS passes by design;
    # calibration_bins rides the memoized fit)
    ["auc_by_type", "logreg_train", "calibration_bins",
     "bt_supplier_strengths", "als_factorize"],
    # session-5 additions (kcore rides the knn-graph memo chunk rules but
    # builds its own here; gini/dow/ddsketch/loo are single-exchange scans)
    ["gini_by_status", "dow_chisq_by_type", "nb_lang_confusion",
     "kcore_decompose", "ddsketch_price_quantiles", "loo_target_encode",
     "rfm_scores", "seasonal_error_by_type", "sorted_neighborhood_pairs",
     "mann_kendall_by_type", "benford_digits_by_type",
     "interarrival_quantiles_by_type", "theil_sen_by_type",
     "lorenz_by_status", "gbdt_split_gain", "kendall_tau_counts",
     "fano_factor_by_type", "gbdt_boost_rounds", "user_drawdown",
     "kmv_type_overlap", "acf_daily_by_type", "user_features",
     "trimmed_mean_by_type", "resource_allocation_topk",
     "heaps_vocab_growth", "km_survival", "wasserstein_type_pairs",
     "isotonic_price_urgency", "greedy_vocab_cover",
     "jackknife_mean_by_type", "l_diversity_audit", "ccf_type_pairs",
     "user_day_streaks"],
    # session-7 additions (single- or two-exchange folds + the PLSA EM job)
    ["assoc_rules", "spearman_qty_discount", "ams_f2_by_type",
     "markov_stationary", "cpd_daily_by_type", "holt_linear_by_type",
     "yule_k_by_lang", "rolling_median_value", "quantile_cont_price",
     "plsa_topics"],
    # session-7 graph trio shares the knn-graph memo
    ["neighbor_jaccard_topk", "clustering_coeff_topk", "wl_colors",
     "hyperball_nf", "hits_scores", "chi2_lang_source",
     "seq_pattern_hits", "lp_modularity", "ppr_seeds", "textrank_keywords",
     "relational_division", "benford_audit", "rfm_segments",
     "mann_whitney_qty", "oov_rate", "selfrep_hist", "mase_weekly",
     "conversion_latency_quantiles", "simpson_diversity_by_lang",
     "apriori_triples", "page_hinkley_by_type", "haar_energy_by_type",
     "record_days_by_type", "abc_parts", "degree_assortativity",
     "zipf_check", "rich_club", "ann_recall_at_k", "loo_centroid_shift",
     "brand_centrality", "stable_assignment", "t_closeness_audit",
     "h_index_suppliers", "median_polish", "chao1_vocab"],
    # session-9 additions (single-/two-exchange folds, the 5-scenario
    # attribution unroll, the sweep-line + convolution ops; the minhash
    # calibration and the inflation KPI share the LSH/CC machinery)
    ["user_active_time", "dft_weekly_power", "peak_concurrency",
     "fd_discovery", "markov_attribution", "burstiness_terms",
     "minhash_jaccard_calibration", "hodges_lehmann_qty",
     "boilerplate_shingles", "dup_token_inflation", "name_clusters",
     "bounce_rate", "sax_motifs_by_type", "hash_ring_balance",
     "rolling_wau_exact", "weekend_effect_ks", "huffman_code_lengths",
     "greedy_bandit_replay", "lang_vocab_jaccard", "token_gini",
     "bytes_per_token_by_lang", "business_days_latency",
     "type_user_inner", "runs_test_by_type", "cms_calibration",
     "hll_calibration", "ddsketch_calibration", "bloom_calibration",
     "quantile_norm_chars", "effective_vocab", "user_activity_outliers",
     "simpson_paradox_qty_discount", "session_cross_lift",
     "fd_discovery2"],
    # session-9 graph additions share the knn-graph memo
    ["ktruss_edges", "transitivity_global", "label_homophily"],
    # session-10 additions (causal/uncertainty moment folds; the coreset
    # and silhouette ride the Lloyd memo, the graph pair the knn memo)
    ["ate_discount_strata", "ols_price_model", "did_type_effect",
     "conformal_value_bounds", "shapley_attribution", "ind_discovery",
     "lz_complexity_by_type", "kcenter_coreset", "silhouette_kmeans",
     "effective_diameter", "bfs_path_counts",
     "burst_viterbi_by_type", "voptimal_histogram",
     "dp_count_by_type", "windowed_funnel", "zonemap_prune_audit",
     "cv_mse_by_type", "ransac_price_fit", "hac_centroids",
     "harmonic_centrality_topk", "rake_keywords", "subseq_triples",
     "churn_baseline_confusion", "type_overlap_exact",
     "holt_winters_by_type", "perm_test_discount_qty"],
    # shares the MinHash machinery chunk-wise with nothing above
    ["dup_modality_agreement", "markov_next_accuracy",
     "cohort_value_matrix", "readability_by_lang", "price_index_brands",
     "open_orders_weekly", "mmd_source_pairs", "langid_f1",
     "neyman_allocation", "logrank_purchase", "gk_lambda_pairs"],
    # rides the knn memo
    ["bowtie_classes"],
]


def _auto_chunks() -> list:
    """Round-5 verdict #2: the hand-curated chunks above had drifted to
    269 of the registry — every registry query NOT explicitly chunked is
    auto-chunked here so the benched set == ``queries()`` by construction
    (the session-3 'never hand-maintain a second query map' rule, now
    enforced structurally).  Leftovers group by implementing module, which
    co-locates the session-memo families (extraction corpus, knn/ivf
    memos, dhash signatures) in one Ray session, then split at 24 per
    chunk like the curated ones."""
    listed = {n for c in QUERY_CHUNKS for n in c}
    by_mod: dict = {}
    for name, fn in _query_fns().items():
        if name not in listed:
            by_mod.setdefault(getattr(fn, "__module__", "?"), []).append(name)
    chunks = []
    for _mod, names in sorted(by_mod.items()):
        chunks.extend(names[i : i + 24] for i in range(0, len(names), 24))
    return chunks


def bench_queries(sf_dir: str, names: list | None = None) -> dict:
    fns = _query_fns()
    out = {}
    for name in (names if names is not None else list(fns)):
        fn = fns[name]
        t0 = time.time()
        res = fn(sf_dir)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        out[name] = round(time.time() - t0, 3)
    return out


def _init_session() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def run_once() -> dict:
    """Each phase (corpus materialization, headline job, query set) owns a
    FRESH Ray session — the local-mode analogue of one ``ray job submit``
    per pipeline.  Measured motivation: a heavy job degrades later
    scheduling in the same session (~2x on q3-class join queries, decaying
    over repeats; worker/actor churn, not compute — remote wall totals stay
    <1s), so in-session timings would charge query N for job N-1's residue."""
    import ray

    _init_session()
    corpus_path = ensure_corpus(SF_DIR)
    ray.shutdown()

    _init_session()
    headline = bench_headline(corpus_path)
    ray.shutdown()

    queries = {}
    if os.environ.get("BENCH_SKIP_QUERIES") != "1":
        import ray.data as _rd

        for chunk in QUERY_CHUNKS + _auto_chunks():
            _init_session()
            # untimed warmup per session: spawn the full task-worker pool
            # (one parallel pass) and one tiny hash join for the shuffle-
            # aggregator actor path, so the first timed query isn't
            # charged first-spawn costs
            _rd.range(NUM_CPUS * 1000, override_num_blocks=NUM_CPUS).map_batches(
                lambda b: b
            ).count()
            _rd.range(64).join(
                _rd.range(64), join_type="inner", num_partitions=2, on=("id",)
            ).count()
            queries.update(bench_queries(SF_DIR, chunk))
            ray.shutdown()
    return {
        "host_calibration": host_calibration(),
        "metric": "extraction pipeline wall time (read->extract->checkpoint->merge)",
        "value": headline["total_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **headline,
    }


def host_calibration() -> dict:
    """Absolute single-core reference numbers emitted with every bench JSON:
    the guest's delivered CPU swings >2x between rounds (shared host), so
    cross-round comparisons must normalize by these, not by wall clock.
    ``calib_v1_s`` = seconds for one pass of ``perfbench.calib.calibrate_v1``,
    a frozen pure-Python str/dict/md5 loop that imports nothing from the
    engine, so it moves only with the host, never with the code under
    test."""
    import time as _t

    from perfbench.calib import calibrate_v1

    n = 0
    t0 = _t.time()
    while _t.time() - t0 < 2.0:
        n += 1
    busy_m_iters_per_s = round(n / 2.0 / 1e6, 2)
    calib_v1_s = round(calibrate_v1(), 4)
    # multi-core delivery: a calm single-core probe can coexist with
    # throttled MULTI-core delivery (measured 2026-08-18: q7 38 s vs 9.5 s
    # same-day at near-identical single-core figures); the 8-process
    # aggregate exposes that mode.  parallel8_of_serial ~8x
    # busy_m_iters_per_s when the host delivers; <<8x flags a starved window.
    agg8 = cpu_probe(8, seconds=2.0)
    return {
        "busy_m_iters_per_s": busy_m_iters_per_s,
        "calib_v1_s": calib_v1_s,
        "parallel8_of_serial": round(agg8 / max(busy_m_iters_per_s, 1e-9), 2),
    }


def cpu_probe(procs: int, seconds: float = 4.0) -> float:
    """Aggregate busy-loop throughput of N concurrent processes — measures
    what the (virtualized) machine actually delivers at that parallelism,
    independent of Ray or this pipeline."""
    code = (
        "import time\nn=0\nt0=time.time()\n"
        f"while time.time()-t0<{seconds}: n+=1\nprint(n)"
    )
    ps = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
        for _ in range(procs)
    ]
    return sum(int(p.communicate()[0]) for p in ps) / 1e6


def run_scaling() -> dict:
    """Fresh process per parallelism level; same warmed input.

    Levels default to N=4 vs 4N=16 (override with BENCH_SCALE_LO/HI): a raw
    busy-loop probe on this guest shows the host oversubscribes above ~16
    vCPUs (32 concurrent processes deliver only ~2.6x the aggregate of 8 —
    a 0.66 HARDWARE ceiling for 8→32), while 4→16 is linear hardware.  The
    probe runs inline and its ceiling is reported next to the pipeline's
    efficiency so the two are never conflated.  Each level runs twice and
    the faster run counts (host-contention noise is ±30% run-to-run)."""

    def run(ncpu: int) -> dict:
        # scaling grades the HEADLINE pipeline; skip the query set so each
        # level measures one job, not job + 15 unrelated pipelines
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_SKIP_QUERIES="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = int(os.environ.get("BENCH_SCALE_LO", "4"))
    hi = int(os.environ.get("BENCH_SCALE_HI", "16"))
    probe_lo, probe_hi = cpu_probe(lo), cpu_probe(hi)
    hw_ceiling = (probe_hi / probe_lo) / (hi / lo)

    repeats = int(os.environ.get("BENCH_SCALE_REPEATS", "2"))
    runs = {lo: [], hi: []}
    for _ in range(repeats):
        for level in (lo, hi):
            runs[level].append(run(level))
    best_lo = min(runs[lo], key=lambda r: r["value"])
    best_hi = min(runs[hi], key=lambda r: r["value"])
    eff = (best_lo["value"] / best_hi["value"]) / (hi / lo)
    return {
        "metric": "scaling efficiency (fresh processes, same input, best of repeats)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": best_lo["value"],
        "sec_hi": best_hi["value"],
        "raw_sec_lo": [r["value"] for r in runs[lo]],
        "raw_sec_hi": [r["value"] for r in runs[hi]],
        "docs_per_sec_lo": best_lo["docs_per_sec"],
        "docs_per_sec_hi": best_hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "hardware_ceiling_efficiency": round(hw_ceiling, 3),
        "pass": eff >= 0.8,
        "sf": SF_DIR,
    }


def run_stats() -> None:
    """Print ds.stats() for the headline extraction pipeline — the
    measure-don't-guess loop used while tuning batch/pool sizes."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from indu_doc_transformer_ray.pipelines.extract import extract_documents

    corpus_path = ensure_corpus(SF_DIR)
    ds = rd.read_parquet(corpus_path)
    extracted = extract_documents(ds)
    # materialize() keeps the executed plan so .stats() reports it
    # (count() collapses to an AggregateNumRows plan with no map stats)
    mat = extracted.materialize()
    print(f"# docs={mat.count()}", file=sys.stderr)
    print(mat.stats(), file=sys.stderr)
    ray.shutdown()


def emit_record(rec: dict) -> None:
    """Print ONE compact final JSON line (<~1500 chars) and write the full
    per-query timing map to a side file.

    The driver that records ``BENCH_r{N}.json`` keeps only the TAIL of
    stdout; inlining all ~180 per-query timings pushed ``host_calibration``
    (serialized first) past the capture window and left the official round
    record unparseable (round-3 finding).  The final line therefore carries
    headline + calibration + a top-slowest digest only; the complete map
    goes to ``BENCH_QUERIES.json`` next to this script."""
    queries = rec.pop("queries", {})
    full = dict(rec, queries=queries)
    side = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_QUERIES.json")
    if queries:  # a BENCH_SKIP_QUERIES headline run (the scaling
        # subprocesses) must not clobber the full per-query map
        try:
            with open(side, "w") as f:
                json.dump(full, f, indent=1, sort_keys=True)
        except OSError:
            print(json.dumps(full), file=sys.stderr)
    slowest = sorted(queries.items(), key=lambda kv: -kv[1])[:5]
    rec["queries"] = dict(slowest)
    rec["queries_n"] = len(queries)
    rec["queries_total_sec"] = round(sum(queries.values()), 2)
    rec["queries_file"] = "BENCH_QUERIES.json"
    print(json.dumps(rec))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--stats" in sys.argv:
        run_stats()
    else:
        emit_record(run_once())
