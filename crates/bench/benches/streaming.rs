//! Experiment E9 — streaming evaluation: answering a query straight off
//! the parser's event stream vs the materialized pipeline (`parse_flat` →
//! `locate`, the route `hxq FILE` takes), on the same bytes.
//!
//! Two claims are on trial. Throughput: streaming skips tree construction
//! and flattening entirely, so its bytes/sec should beat the materialized
//! pipeline on both query classes. Memory: the streaming evaluators'
//! transient working set (the `live_high_water` node count recorded in the
//! group extras) is bounded by document *depth* — on a wide DocBook
//! document it sits orders of magnitude below the node count, and on a
//! pathological element chain it tracks the depth exactly. The `exists`
//! row shows the third win: the parse aborts at the first match, so the
//! measured "whole document" cost collapses to a prefix.
//!
//! The `ingest_tree` / `ingest_events` pair times materialized ingest
//! alone, on the same documents: the reference tree route (`parse_xml` →
//! `to_hedge` → `FlatHedge::from_hedge`) against the one-pass event route
//! (`parse_flat`), after checking that both build the same hedge.

use hedgex_testkit::{Bench, BenchmarkId, Json, Throughput};

use hedgex_bench::{doc_workload, figure_before_table_phr};
use hedgex_core::path_expr::parse_path;
use hedgex_core::phr::parse_phr;
use hedgex_core::two_pass;
use hedgex_core::CompiledPhr;
use hedgex_hedge::FlatHedge;
use hedgex_stream::{parse_flat, stream_xml, PathStream, PhrStream, StreamStats};
use hedgex_xml::{parse_xml, to_hedge, write_xml, HedgeConfig};

const PATH_QUERY: &str = "article section* figure";

fn main() {
    let mut c = Bench::from_env();
    let smoke = c.smoke();
    let sizes: &[usize] = if smoke { &[1_000] } else { &[4_000, 32_000] };
    let cfg = HedgeConfig::default();

    let mut group = c.benchmark_group("E9_streaming");
    group.sample_size(if smoke { 10 } else { 15 });
    let mut extras: Vec<Json> = Vec::new();

    for &n in sizes {
        let mut w = doc_workload(n, 0xE9);
        let src = write_xml(&w.doc, &w.ab, None);
        let path = parse_path(PATH_QUERY, &mut w.ab).expect("path parses");
        let phr = figure_before_table_phr(&mut w.ab);
        let compiled = CompiledPhr::compile(&phr);
        // `w.ab` already holds every symbol the document uses, so interning
        // during streaming is read-only lookup and ids match `w.doc`'s.
        let mut ab = w.ab;

        // Correctness before time: streamed == materialized on both query
        // classes, or the throughput numbers mean nothing.
        let flat_mat = parse_flat(&src, &mut ab, cfg).expect("well-formed");
        assert_eq!(
            flat_mat,
            FlatHedge::from_hedge(&to_hedge(&parse_xml(&src).unwrap(), &mut ab, cfg)),
            "ingest: event route != tree route"
        );
        let (path_hits, path_stats) = {
            let mut sink = PathStream::new(&path, &ab);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            (sink.finish().to_vec(), sink.stats())
        };
        assert_eq!(
            path_hits,
            path.locate(&flat_mat),
            "path: streamed != materialized"
        );
        let (phr_hits, phr_stats) = {
            let mut sink = PhrStream::new(&compiled);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            (sink.finish().to_vec(), sink.stats())
        };
        assert_eq!(
            phr_hits,
            two_pass::locate(&compiled, &flat_mat),
            "phr: streamed != materialized"
        );
        drop(flat_mat);

        group.throughput(Throughput::Bytes(src.len() as u64));
        group.bench_with_input(BenchmarkId::new("ingest_tree", w.nodes), &src, |b, src| {
            b.iter(|| {
                let flat = FlatHedge::from_hedge(&to_hedge(&parse_xml(src).unwrap(), &mut ab, cfg));
                std::hint::black_box(flat.num_nodes())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("ingest_events", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let flat = parse_flat(src, &mut ab, cfg).expect("well-formed");
                    std::hint::black_box(flat.num_nodes())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("materialized_path", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let flat = parse_flat(src, &mut ab, cfg).expect("well-formed");
                    std::hint::black_box(path.locate(&flat).len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streamed_path", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let mut sink = PathStream::new(&path, &ab);
                    stream_xml(src, &mut ab, cfg, &mut sink).expect("well-formed");
                    std::hint::black_box(sink.finish().len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("materialized_phr", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let flat = parse_flat(src, &mut ab, cfg).expect("well-formed");
                    std::hint::black_box(two_pass::locate(&compiled, &flat).len())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("streamed_phr", w.nodes), &src, |b, src| {
            b.iter(|| {
                let mut sink = PhrStream::new(&compiled);
                stream_xml(src, &mut ab, cfg, &mut sink).expect("well-formed");
                std::hint::black_box(sink.finish().len())
            })
        });
        // The early-exit row: stop at the first figure instead of reading
        // the whole document.
        group.bench_with_input(
            BenchmarkId::new("streamed_path_exists", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let mut sink = PathStream::new(&path, &ab).exists(true);
                    stream_xml(src, &mut ab, cfg, &mut sink).expect("well-formed");
                    std::hint::black_box(sink.finish().len())
                })
            },
        );

        let exists_stats = {
            let mut sink = PathStream::new(&path, &ab).exists(true);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            sink.finish();
            sink.stats()
        };
        extras.push(stats_json(
            "docbook",
            w.nodes,
            src.len(),
            &path_stats,
            &phr_stats,
            Some(&exists_stats),
        ));
    }

    // The depth-is-the-bound worst case: an element chain where every node
    // is an ancestor of the last. The wide DocBook rows above show
    // live_high_water ≪ nodes; this row shows it tracking depth exactly.
    {
        let depth = if smoke { 2_000 } else { 50_000 };
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let mut ab = hedgex_hedge::Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]*", &mut ab).expect("phr parses");
        let compiled = CompiledPhr::compile(&phr);
        let path = parse_path("a* a", &mut ab).expect("path parses");
        let phr_stats = {
            let mut sink = PhrStream::new(&compiled);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            assert_eq!(sink.finish().len(), depth);
            sink.stats()
        };
        let path_stats = {
            let mut sink = PathStream::new(&path, &ab);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            sink.finish();
            sink.stats()
        };
        assert_eq!(path_stats.live_high_water, depth, "path hw is the depth");
        extras.push(stats_json(
            "chain",
            depth,
            src.len(),
            &path_stats,
            &phr_stats,
            None,
        ));
    }

    group.attach_extra("memory_proxy", Json::Arr(extras));
    group.finish();
}

/// One memory-proxy record: the retained-table size (`nodes`) against the
/// transient high-waters that streaming claims are depth-bounded.
fn stats_json(
    shape: &str,
    nodes: usize,
    bytes: usize,
    path: &StreamStats,
    phr: &StreamStats,
    exists: Option<&StreamStats>,
) -> Json {
    let mut fields = vec![
        ("shape", Json::Str(shape.to_string())),
        ("nodes", Json::Num(nodes as f64)),
        ("bytes", Json::Num(bytes as f64)),
        ("depth_high_water", Json::Num(path.depth_high_water as f64)),
        (
            "path_live_high_water",
            Json::Num(path.live_high_water as f64),
        ),
        ("phr_live_high_water", Json::Num(phr.live_high_water as f64)),
        (
            "phr_live_over_nodes",
            Json::Num(phr.live_high_water as f64 / nodes as f64),
        ),
        ("events", Json::Num(phr.events as f64)),
    ];
    if let Some(e) = exists {
        fields.push(("exists_events", Json::Num(e.events as f64)));
        fields.push(("exists_early_exit", Json::Bool(e.early_exit)));
    }
    Json::obj(fields)
}
