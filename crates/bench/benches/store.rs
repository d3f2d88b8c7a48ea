//! Experiment E11 — the persistent store: cold re-parse vs warm in-memory
//! evaluation vs index-pruned evaluation over a static DocBook corpus.
//!
//! Three ways to answer the same corpus query:
//!
//! * **cold** — no store at all: every query re-parses the XML sources
//!   (through `parse_flat`, the single-pass ingest `hxq FILE` uses) and
//!   evaluates (the "grep a directory" baseline);
//! * **warm** — documents pre-parsed into [`FlatHedge`]s, plain two-pass
//!   evaluation over every node of every document;
//! * **indexed** — a [`DocumentStore`]: per-document postings answer the
//!   required-symbol check in O(1), and the two-pass traversal visits only
//!   the ancestors-closure of candidate ranges.
//!
//! The indexed rows come in two engines: `indexed_*` run the path's
//! universal PHR embedding as a [`Plan`] (the general machinery), and
//! `indexed_path_*` run the path on its [`CompiledPath`] — Section 8's
//! top-down DFA, the engine `hxq --store --path` uses. The
//! `compile_store_path` / `compile_store_path_as_phr` pair prices the two
//! compiles over the store's alphabet: the per-request cost that decides
//! `hxq --store --path` latency.
//!
//! On the *broad* query (figures inside sections — most documents match)
//! the index can't skip much and indexed ≈ warm: the point of that row is
//! that pruning never costs. The headline is the *selective* query: 5% of
//! the corpus carries a `sidebar` element, so the index proves 95% of the
//! documents matchless without touching a node, and inside the rare
//! documents the candidate range excludes every `article` subtree. The
//! group report carries a measured `pruned_vs_warm` pair on that query
//! (acceptance floor: ≥ 2×), plus the store's load throughput and its
//! image size per node.

use std::time::Instant;

use hedgex_testkit::{Bench, Json, Throughput};

use hedgex_bench::sidebar_corpus;
use hedgex_core::{parse_path, CompiledPath, EvalScratch, PathExpr, Plan, PlanFacts, Query};
use hedgex_hedge::{Alphabet, FlatHedge};
use hedgex_store::{DocumentStore, StoreQuery};
use hedgex_stream::parse_flat;
use hedgex_xml::{write_xml, HedgeConfig};

/// Median wall time of `k` runs of `f`, in nanoseconds.
fn median_ns(k: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u128> = (0..k)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(&mut f)();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[k / 2] as f64
}

/// Compile a path query through the general machinery: universal PHR
/// embedding for evaluation, structural required-symbol facts for the
/// postings quick-reject.
fn store_plan(path: &PathExpr, ab: &mut Alphabet) -> Plan {
    let facts = PlanFacts {
        known_empty: false,
        why_empty: None,
        required_syms: path.required_syms().expect("bench paths are nonempty"),
    };
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("bench-universal");
    Plan::compile(&path.to_phr(&syms, &vars, z)).with_facts(facts)
}

fn warm_count(plan: &Plan, docs: &[FlatHedge], scratch: &mut EvalScratch) -> u64 {
    docs.iter().map(|d| plan.count_into(d, scratch)).sum()
}

fn indexed_count<Q: Query>(query: &StoreQuery<'_, Q>) -> u64 {
    query.count_corpus(1).iter().sum()
}

fn main() {
    let mut c = Bench::from_env();
    let smoke = c.smoke();
    let (num_docs, nodes_per_doc) = if smoke { (24, 400) } else { (120, 2_000) };

    let (mut ab, named, rare_docs) = sidebar_corpus(num_docs, nodes_per_doc, 0xE11);
    let store = DocumentStore::build(ab.clone(), named.clone());
    let bytes = store.to_bytes();
    let docs: Vec<FlatHedge> = named.iter().map(|(_, h)| h.clone()).collect();
    let sources: Vec<String> = docs.iter().map(|d| write_xml(d, &ab, None)).collect();
    let total_nodes = store.total_nodes();

    let broad_path = parse_path("article section* figure", &mut ab).expect("bench path parses");
    let selective_path = parse_path("sidebar", &mut ab).expect("bench path parses");
    // The store's alphabet, as `hxq --store` parses against it.
    let store_ab = ab.clone();
    let broad = store_plan(&broad_path, &mut ab);
    let selective = store_plan(&selective_path, &mut ab);
    let broad_q = StoreQuery::new(&store, &broad);
    let selective_q = StoreQuery::new(&store, &selective);
    let broad_dfa = CompiledPath::compile(&broad_path, &store_ab);
    let selective_dfa = CompiledPath::compile(&selective_path, &store_ab);
    let broad_path_q = StoreQuery::new(&store, &broad_dfa);
    let selective_path_q = StoreQuery::new(&store, &selective_dfa);

    // Correctness before time: every route must agree, and the selective
    // query must really be selective (one sidebar per rare doc).
    let mut scratch = EvalScratch::new();
    let broad_want = warm_count(&broad, &docs, &mut scratch);
    assert!(broad_want > 0, "broad query must match the corpus");
    assert_eq!(indexed_count(&broad_q), broad_want);
    assert_eq!(indexed_count(&broad_path_q), broad_want);
    let direct: usize = docs.iter().map(|d| broad_path.locate(d).len()).sum();
    assert_eq!(direct as u64, broad_want);
    assert_eq!(indexed_count(&selective_q), rare_docs as u64);
    assert_eq!(indexed_count(&selective_path_q), rare_docs as u64);
    assert_eq!(
        warm_count(&selective, &docs, &mut scratch),
        rare_docs as u64
    );
    let reloaded = DocumentStore::from_bytes(&bytes).expect("store round-trips");
    assert_eq!(reloaded.len(), docs.len());

    let mut group = c.benchmark_group("E11_store");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_nodes));

    // The no-store baseline: every query re-parses the corpus.
    let cfg = HedgeConfig {
        keep_text: true,
        keep_attrs: false,
    };
    let mut cold_ab = ab.clone();
    group.bench_function("cold_parse_count_broad", |b| {
        b.iter(|| {
            let mut scratch = EvalScratch::new();
            let total: u64 = sources
                .iter()
                .map(|src| {
                    let flat = parse_flat(src, &mut cold_ab, cfg).expect("round-trip parses");
                    broad.count_into(&flat, &mut scratch)
                })
                .sum();
            std::hint::black_box(total)
        })
    });
    group.bench_function("warm_count_broad", |b| {
        b.iter(|| std::hint::black_box(warm_count(&broad, &docs, &mut scratch)))
    });
    group.bench_function("indexed_count_broad", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&broad_q)))
    });
    group.bench_function("warm_count_selective", |b| {
        b.iter(|| std::hint::black_box(warm_count(&selective, &docs, &mut scratch)))
    });
    group.bench_function("indexed_count_selective", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&selective_q)))
    });
    group.bench_function("indexed_path_count_broad", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&broad_path_q)))
    });
    group.bench_function("indexed_path_count_selective", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&selective_path_q)))
    });
    group.bench_function("compile_store_path", |b| {
        b.iter(|| std::hint::black_box(CompiledPath::compile(&broad_path, &store_ab)))
    });
    group.bench_function("compile_store_path_as_phr", |b| {
        b.iter(|| std::hint::black_box(store_plan(&broad_path, &mut store_ab.clone())))
    });
    group.bench_function("load_store", |b| {
        b.iter(|| std::hint::black_box(DocumentStore::from_bytes(&bytes).expect("loads").len()))
    });

    // Direct speedup evidence for the acceptance floor (indexed ≥ 2× over
    // warm on the selective query): medians of a measured pair.
    let k = if smoke { 3 } else { 11 };
    let warm_ns = median_ns(k, || {
        std::hint::black_box(warm_count(&selective, &docs, &mut scratch));
    });
    let indexed_ns = median_ns(k, || {
        std::hint::black_box(indexed_count(&selective_q));
    });
    let speedup = warm_ns / indexed_ns.max(1.0);
    group.attach_extra(
        "pruned_vs_warm",
        Json::obj([
            ("docs", Json::Num(docs.len() as f64)),
            ("rare_docs", Json::Num(rare_docs as f64)),
            ("total_nodes", Json::Num(total_nodes as f64)),
            ("warm_median_ns", Json::Num(warm_ns)),
            ("indexed_median_ns", Json::Num(indexed_ns)),
            ("speedup", Json::Num(speedup)),
        ]),
    );
    group.attach_extra(
        "image",
        Json::obj([
            ("bytes", Json::Num(bytes.len() as f64)),
            (
                "bytes_per_node",
                Json::Num(bytes.len() as f64 / total_nodes as f64),
            ),
        ]),
    );
    assert!(
        speedup >= 2.0,
        "indexed evaluation must beat warm in-memory by >= 2x on the \
         selective query, got {speedup:.2}x ({warm_ns:.0} ns vs {indexed_ns:.0} ns)"
    );
    group.finish();
}
