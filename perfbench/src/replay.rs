//! The traced run: each workload's requests replayed in-process through
//! the layers' public functions, along the route `hxq` takes for them,
//! with a span around every call. Nothing inside the program is
//! instrumented for this; the spans live in the benchmark.

use std::fs::File;
use std::io::{LineWriter, Write};
use std::path::Path;

use hedgex::prelude::*;
use hedgex::xml::{parse_xml_stream, Flow, StreamSink, XmlNode};

use crate::inputs::{Call, Request};
use crate::stats::{median, residual_ms};
use crate::trace::Tracer;

/// `hxq`'s document mapping (no `--attrs`).
const CFG: HedgeConfig = HedgeConfig {
    keep_text: true,
    keep_attrs: false,
};

/// The layers, in route order. Each reports `<layer>.ms` and
/// `<layer>.share`; a layer a workload's route does not call reports 0.
pub const LAYERS: [&str; 16] = [
    "io.read",
    "xml.parse",
    "xml.scan",
    "xml.to_hedge",
    "hedge.flatten",
    "core.parse",
    "core.embed",
    "core.compile",
    "core.eval",
    "stream.eval",
    "store.load",
    "store.query",
    "store.build",
    "store.save",
    "output.format",
    "teardown",
];

/// Replay one request under a `request` span; what it would print goes to
/// `stdout_file`, written line by line as `hxq`'s stdout is.
pub fn replay(req: &Request, t: &mut Tracer, stdout_file: &Path) -> Result<(), String> {
    let file = File::create(stdout_file).map_err(|e| format!("{}: {e}", stdout_file.display()))?;
    let mut out = LineWriter::new(file);
    match &req.call {
        Call::Phr { file, phr } => t.span("request", |t| {
            let src = read_to_string(t, file)?;
            let doc = t
                .span("xml.parse", |_| parse_xml(&src))
                .map_err(|e| e.to_string())?;
            t.count("xml.parse.bytes", src.len());
            let mut ab = Alphabet::new();
            let (hedge, flat) = build_hedge(t, &doc, &mut ab);
            let phr = t
                .span("core.parse", |_| parse_phr(phr, &mut ab))
                .map_err(|e| e.to_string())?;
            let compiled = t.span("core.compile", |_| CompiledPhr::compile(&phr));
            let hits = t.span("core.eval", |_| two_pass::locate(&compiled, &flat));
            t.count("core.eval.nodes", flat.num_nodes());
            t.count("core.eval.hits", hits.len());
            t.span("output.format", |_| {
                for &n in &hits {
                    let dewey: Vec<String> = flat.dewey(n).iter().map(u32::to_string).collect();
                    writeln!(out, "/{}", dewey.join("/"))?;
                }
                out.flush()
            })
            .map_err(|e| e.to_string())?;
            t.count("output.format.lines", hits.len());
            t.span("teardown", move |_| {
                drop((src, doc, hedge, flat, ab, phr, compiled, hits))
            });
            Ok(())
        }),
        Call::StreamCount { file, path } => {
            let src = t.span("request", |t| {
                let src = read_to_string(t, file)?;
                let mut ab = Alphabet::new();
                let path = t
                    .span("core.parse", |_| parse_path(path, &mut ab))
                    .map_err(|e| e.to_string())?;
                let mut sink = t.span("core.compile", |_| {
                    PathStream::new(&path, &ab)
                        .exists(false)
                        .count_only(true)
                        .collect_deweys(false)
                });
                t.span("stream.xml", |_| {
                    let outcome = stream_xml(&src, &mut ab, CFG, &mut sink);
                    sink.finish();
                    outcome
                })
                .map_err(|e| e.to_string())?;
                t.count("stream.eval.nodes", req.nodes as usize);
                t.span("output.format", |_| {
                    writeln!(out, "{}", sink.count()).and_then(|()| out.flush())
                })
                .map_err(|e| e.to_string())?;
                t.count("output.format.lines", 1);
                t.span("teardown", move |_| drop((ab, path, sink)));
                Ok::<_, String>(src)
            })?;
            // Not on the route: the same scan with a sink that does
            // nothing, so `stream.eval` can be reported without it.
            t.span("xml.scan", |_| parse_xml_stream(&src, &mut NoopSink))
                .map_err(|e| e.to_string())?;
            t.count("xml.scan.bytes", src.len());
            Ok(())
        }
        Call::StoreCount { store, path } => t.span("request", |t| {
            let bytes = t
                .span("io.read", |_| std::fs::read(store))
                .map_err(|e| e.to_string())?;
            t.count("io.read.bytes", bytes.len());
            let store = t
                .span("store.load", |_| DocumentStore::from_bytes(&bytes))
                .map_err(|e| e.to_string())?;
            t.count("store.load.bytes", bytes.len());
            let (mut ab, path) = t
                .span("core.parse", |_| {
                    let mut ab = store.alphabet().clone();
                    parse_path(path, &mut ab).map(|p| (ab, p))
                })
                .map_err(|e| e.to_string())?;
            let (phr, facts) = t.span("core.embed", |_| {
                let facts = match path.required_syms() {
                    Some(required_syms) => PlanFacts {
                        known_empty: false,
                        why_empty: None,
                        required_syms,
                    },
                    None => PlanFacts {
                        known_empty: true,
                        why_empty: Some("path expression denotes no paths".into()),
                        required_syms: Vec::new(),
                    },
                };
                let syms: Vec<_> = ab.syms().collect();
                let vars: Vec<_> = ab.vars().collect();
                let z = ab.sub("hxq-universal");
                (path.to_phr(&syms, &vars, z), facts)
            });
            let plan = t.span("core.compile", |_| Plan::compile(&phr).with_facts(facts));
            let counts = t.span("store.query", |_| {
                StoreQuery::new(&store, &plan).count_corpus(1)
            });
            t.count("store.query.docs", counts.len());
            t.count(
                "store.query.docs_hit",
                counts.iter().filter(|&&c| c > 0).count(),
            );
            t.span("output.format", |_| {
                writeln!(out, "{}", counts.iter().sum::<u64>()).and_then(|()| out.flush())
            })
            .map_err(|e| e.to_string())?;
            t.count("output.format.lines", 1);
            t.span("teardown", move |_| {
                drop((bytes, store, ab, phr, plan, counts))
            });
            Ok(())
        }),
        Call::Index {
            dir,
            out: store_path,
        } => t.span("request", |t| {
            let mut files = t
                .span("io.read", |_| {
                    std::fs::read_dir(dir)?
                        .map(|entry| {
                            entry.map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
                        })
                        .collect::<std::io::Result<Vec<_>>>()
                })
                .map_err(|e| e.to_string())?;
            files.retain(|(_, p)| p.extension().and_then(|e| e.to_str()) == Some("xml"));
            files.sort();
            let mut ab = Alphabet::new();
            let mut docs = Vec::with_capacity(files.len());
            for (name, path) in files {
                let src = read_to_string(t, &path)?;
                let doc = t
                    .span("xml.parse", |_| parse_xml(&src))
                    .map_err(|e| e.to_string())?;
                t.count("xml.parse.bytes", src.len());
                let (hedge, flat) = build_hedge(t, &doc, &mut ab);
                docs.push((name, flat));
                t.span("teardown", move |_| drop((src, doc, hedge)));
            }
            let store = t.span("store.build", |_| DocumentStore::build(ab, docs));
            t.count("store.build.nodes", store.total_nodes() as usize);
            t.span("store.save", |_| store.save(store_path))
                .map_err(|e| e.to_string())?;
            t.count(
                "store.save.bytes",
                crate::inputs::file_len(store_path)? as usize,
            );
            t.span("output.format", |_| {
                writeln!(
                    out,
                    "indexed {} documents ({} nodes) into {}",
                    store.len(),
                    store.total_nodes(),
                    store_path.display()
                )
                .and_then(|()| out.flush())
            })
            .map_err(|e| e.to_string())?;
            t.count("output.format.lines", 1);
            t.span("teardown", move |_| drop(store));
            Ok(())
        }),
    }
}

fn read_to_string(t: &mut Tracer, file: &Path) -> Result<String, String> {
    let src = t
        .span("io.read", |_| std::fs::read_to_string(file))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    t.count("io.read.bytes", src.len());
    Ok(src)
}

/// `hxq`'s mapping of a parsed XML tree to a hedge, then to the flat
/// encoding the evaluators take.
fn build_hedge(t: &mut Tracer, doc: &[XmlNode], ab: &mut Alphabet) -> (Hedge, FlatHedge) {
    let hedge = t.span("xml.to_hedge", |_| to_hedge(doc, ab, CFG));
    let flat = t.span("hedge.flatten", |_| FlatHedge::from_hedge(&hedge));
    t.count("xml.to_hedge.nodes", flat.num_nodes());
    t.count("hedge.flatten.nodes", flat.num_nodes());
    (hedge, flat)
}

struct NoopSink;

impl StreamSink for NoopSink {
    fn open_element(&mut self, _: &str, _: &[(String, String)]) -> Flow {
        Flow::Continue
    }
    fn text(&mut self, _: &str) -> Flow {
        Flow::Continue
    }
    fn close_element(&mut self) -> Flow {
        Flow::Continue
    }
}

/// What the untraced requests of a traced run measured.
pub struct Untraced {
    /// Median latency.
    pub p50_ms: f64,
    /// Median minor page faults of an `hxq` process.
    pub minor_faults: f64,
}

/// The per-layer metrics of a traced run, by name, with units.
pub fn layer_metrics(
    t: &Tracer,
    requests: u64,
    untraced: &Untraced,
    store_bytes_per_node: f64,
) -> Vec<(String, f64, &'static str)> {
    let own = t.self_times();
    // Per-request self time of `name`, in ms; 0 where a request has none.
    let per_request = |name: &str| -> Vec<f64> {
        (0..requests)
            .map(|r| own.get(&(r, name)).copied().unwrap_or(0) as f64 / 1e6)
            .collect()
    };
    let request_ms: Vec<f64> = (0..requests)
        .map(|r| {
            t.spans()
                .iter()
                .filter(|s| s.request == r && s.name == "request")
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .sum()
        })
        .collect();
    let traced_ms = median(&request_ms);
    let layer_samples: Vec<Vec<f64>> = LAYERS
        .iter()
        .map(|&layer| match layer {
            // `stream.xml` is the streaming parse plus the evaluator;
            // `xml.scan` is the parse alone.
            "stream.eval" => per_request("stream.xml")
                .iter()
                .zip(per_request("xml.scan"))
                .map(|(all, scan)| all - scan)
                .collect(),
            _ => per_request(layer),
        })
        .collect();

    let mut out = Vec::new();
    let mut layer_ms = Vec::new();
    for (layer, samples) in LAYERS.iter().zip(&layer_samples) {
        let ms = median(samples);
        layer_ms.push(ms);
        out.push((format!("{layer}.ms"), ms, "ms"));
        out.push((format!("{layer}.share"), ms / traced_ms, "fraction"));
    }
    let residual = residual_ms(untraced.p50_ms, &layer_ms);
    out.push(("residual.ms".into(), residual, "ms"));
    out.push((
        "residual.share".into(),
        residual / untraced.p50_ms,
        "fraction",
    ));
    out.push((
        "process.minor_faults".into(),
        untraced.minor_faults,
        "count",
    ));

    // Rates: work over self time, both summed over the traced requests.
    let busy_ns = |layer: &str| {
        let i = LAYERS.iter().position(|&l| l == layer).expect("a layer");
        layer_samples[i].iter().sum::<f64>() * 1e6
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |name: String| t.counter(&name) as f64;
    let mb_s = |layer: &str| ratio(count(format!("{layer}.bytes")) * 1e3, busy_ns(layer));
    let ns_node = |layer: &str| ratio(busy_ns(layer), count(format!("{layer}.nodes")));
    let per_req = |name: &str| count(name.to_string()) / requests as f64;
    let rates: [(&str, f64, &'static str); 14] = [
        ("io.read.mb_s", mb_s("io.read"), "MB/s"),
        ("xml.parse.mb_s", mb_s("xml.parse"), "MB/s"),
        ("xml.scan.mb_s", mb_s("xml.scan"), "MB/s"),
        ("xml.to_hedge.ns_node", ns_node("xml.to_hedge"), "ns/node"),
        ("hedge.flatten.ns_node", ns_node("hedge.flatten"), "ns/node"),
        ("core.eval.ns_node", ns_node("core.eval"), "ns/node"),
        ("core.eval.hits", per_req("core.eval.hits"), "count"),
        ("stream.eval.ns_node", ns_node("stream.eval"), "ns/node"),
        ("store.load.mb_s", mb_s("store.load"), "MB/s"),
        (
            "store.query.docs_hit_ratio",
            ratio(
                count("store.query.docs_hit".into()),
                count("store.query.docs".into()),
            ),
            "fraction",
        ),
        ("store.build.ns_node", ns_node("store.build"), "ns/node"),
        ("store.save.mb_s", mb_s("store.save"), "MB/s"),
        ("store.bytes_per_node", store_bytes_per_node, "B/node"),
        (
            "output.format.lines",
            per_req("output.format.lines"),
            "count",
        ),
    ];
    out.extend(rates.map(|(name, value, unit)| (name.to_string(), value, unit)));
    out
}
