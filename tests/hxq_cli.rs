//! End-to-end tests for the `hxq` binary: exit-code contract, `--explain`
//! and `--metrics-json` output, and agreement between the CLI's match set
//! and the library pipeline.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use hedgex::prelude::*;
use hedgex_bench::doc_workload;
use hedgex_testkit::Json;

fn hxq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(args)
        .output()
        .expect("hxq runs")
}

/// Run hxq with `input` piped to stdin (for the `-` file argument).
fn hxq_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hxq spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_bytes())
        .expect("write to hxq stdin");
    child.wait_with_output().expect("hxq runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hxq-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn usage_errors_exit_2_with_one_line_diagnostics() {
    for (args, needle) in [
        (&["--bogus", "x.xml"][..], "unknown option '--bogus'"),
        (&["--path"][..], "needs a value"),
        (&["x.xml"][..], "one of --path or --phr"),
        (
            &["--path", "a", "--phr", "b", "x.xml"][..],
            "mutually exclusive",
        ),
        (&["--path", "a"][..], "no input file"),
        (
            &["--path", "a", "--repeat", "0", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--repeat", "three", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--jobs", "0", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--jobs", "many", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--stream", "--mark", "x.xml"][..],
            "'--stream' is incompatible with '--mark'",
        ),
        (
            &["--path", "a", "--stream", "--explain", "x.xml"][..],
            "'--stream' is incompatible with '--explain'",
        ),
        (
            &["--path", "a", "--stream", "--repeat", "2", "x.xml"][..],
            "'--stream' is incompatible with '--repeat'",
        ),
        (
            &["--path", "a", "--stream", "--jobs", "2", "x.xml"][..],
            "'--stream' is incompatible with '--jobs'",
        ),
        (
            &["--path", "a", "--exists", "--mark", "x.xml"][..],
            "'--exists' is incompatible with '--mark'",
        ),
        (
            &["--path", "a", "--count", "--exists", "x.xml"][..],
            "'--count' is incompatible with '--exists'",
        ),
        (
            &["--path", "a", "--count", "--mark", "x.xml"][..],
            "'--count' is incompatible with '--mark'",
        ),
    ] {
        let out = hxq(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
        assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn help_exits_0_and_documents_the_flags() {
    let out = hxq(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--path",
        "--phr",
        "--subhedge",
        "--mark",
        "--explain",
        "--metrics-json",
        "--trace",
        "--repeat",
        "--jobs",
        "--stream",
        "--exists",
        "--count",
    ] {
        assert!(text.contains(flag), "help should document {flag}");
    }
}

#[test]
fn malformed_queries_are_usage_errors_in_every_mode() {
    // The exit-code contract pins 2 for bad queries whether the document
    // was readable or not: a query error is the user's, not the input's.
    let xml = scratch("bad-query.xml");
    std::fs::write(&xml, "<a><b/></a>").unwrap();
    for extra in [
        &[][..],
        &["--stream"][..],
        &["--exists"][..],
        &["--count"][..],
    ] {
        for query in [&["--path", "a (("][..], &["--phr", "[ε ; a"][..]] {
            let out = hxq(&[query, extra, &[xml.to_str().unwrap()]].concat());
            assert_eq!(
                out.status.code(),
                Some(2),
                "bad query must exit 2 ({query:?} {extra:?})"
            );
            assert!(out.stdout.is_empty());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
            assert!(err.contains("query:"), "{err:?} should name the query");
        }
    }
    // A bad subhedge too.
    let out = hxq(&["--path", "a b", "--subhedge", "((", xml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("subhedge:"));
    std::fs::remove_file(&xml).ok();
}

#[test]
fn trace_json_on_docbook_is_valid_chrome_trace() {
    // The acceptance scenario: a DocBook run with --trace must produce a
    // Chrome trace-event array (ph "X" complete events, or "B"/"E" pairs)
    // with the ts/dur/tid/pid fields the viewers require.
    let w = doc_workload(300, 5);
    let xml = scratch("trace-doc.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let trace_path = scratch("trace.json");

    let out = hxq(&[
        "--path",
        "article section* figure",
        "--trace",
        trace_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Matches still print — tracing never changes the answer.
    assert!(String::from_utf8_lossy(&out.stdout)
        .lines()
        .any(|l| l.starts_with('/')));

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = Json::parse(&text).expect("trace JSON parses");
    let events = trace.as_arr().expect("trace is a JSON array");
    if hedgex::obs::is_enabled() {
        assert!(!events.is_empty(), "an instrumented run records spans");
    }
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph present");
        assert!(
            matches!(ph, "X" | "B" | "E"),
            "unexpected trace phase {ph:?}"
        );
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts present");
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).is_some());
        }
    }

    // The same run streaming: --trace works there too.
    let out = hxq(&[
        "--path",
        "article section* figure",
        "--stream",
        "--trace",
        trace_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&trace_path).unwrap();
    Json::parse(&text)
        .expect("streaming trace parses")
        .as_arr()
        .expect("streaming trace is an array");

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&trace_path).ok();
}

/// The names of the spans in a Chrome trace written by `--trace`.
fn trace_span_names(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    Json::parse(&text)
        .expect("trace JSON parses")
        .as_arr()
        .expect("trace is a JSON array")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("event name")
                .to_string()
        })
        .collect()
}

/// `hxq FILE` and `hxq index` ingest through one named phase: one
/// `xml.ingest` span per document, and no tree-parser span.
#[test]
fn trace_shows_ingest_as_one_phase_on_file_and_index_routes() {
    let dir = scratch("ingest-trace");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, doc) in ["<r><a/></r>", "<r><a><b/></a></r>"].iter().enumerate() {
        std::fs::write(dir.join(format!("d{i}.xml")), doc).unwrap();
    }
    let trace = scratch("ingest-trace.json");
    let file = dir.join("d1.xml");
    let store = scratch("ingest-trace.hxst");
    for (args, docs) in [
        (vec!["--count", "--path", "r a", file.to_str().unwrap()], 1),
        (
            vec![
                "index",
                dir.to_str().unwrap(),
                "--out",
                store.to_str().unwrap(),
            ],
            2,
        ),
    ] {
        let mut args = args;
        args.extend(["--trace", trace.to_str().unwrap()]);
        let out = hxq(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let names = trace_span_names(&trace);
        assert!(!names.iter().any(|n| n == "xml.parse"), "{names:?}");
        if hedgex::obs::is_enabled() {
            let ingests = names.iter().filter(|n| *n == "xml.ingest").count();
            assert_eq!(ingests, docs, "{args:?}: {names:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&store).ok();
}

/// A 200 000-deep element chain: every route ingests and evaluates it
/// without recursing per level, so none overflows the main thread's stack,
/// and all count the same nodes.
#[test]
fn deep_chain_counts_on_file_stream_index_and_store_routes() {
    const DEPTH: usize = 200_000;
    let dir = scratch("deep-chain");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("chain.xml");
    std::fs::write(
        &file,
        format!("{}{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH)),
    )
    .unwrap();
    let file = file.to_str().unwrap();
    let store = scratch("deep-chain.hxst");
    let store = store.to_str().unwrap();
    let expected = format!("{DEPTH}\n");

    let streamed = hxq(&["--stream", "--count", "--path", "a* a", file]);
    assert_eq!(streamed.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&streamed.stdout), expected);

    let materialized = hxq(&["--count", "--path", "a* a", file]);
    assert_eq!(
        materialized.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&materialized.stderr)
    );
    assert_eq!(materialized.stdout, streamed.stdout);

    let indexed = hxq(&["index", dir.to_str().unwrap(), "--out", store]);
    assert_eq!(
        indexed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&indexed.stderr)
    );
    let from_store = hxq(&["--store", store, "--count", "--path", "a* a"]);
    assert_eq!(
        from_store.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&from_store.stderr)
    );
    assert_eq!(from_store.stdout, streamed.stdout);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(store).ok();
}

/// A DocBook-style header — byte-order mark, XML declaration, and a
/// DOCTYPE with an internal subset — is skipped on every route, which then
/// answers as on the bare document. A DOCTYPE inside an element is still
/// an error.
#[test]
fn docbook_prolog_is_accepted_on_every_route() {
    let header = "\u{FEFF}<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
        <!DOCTYPE article PUBLIC \"-//OASIS//DTD DocBook XML V4.5//EN\"\n  \
        \"http://www.oasis-open.org/docbook/xml/4.5/docbookx.dtd\" [\n  \
        <!ENTITY version \"4.5 > 4.4\">\n  <!ENTITY % local SYSTEM \"local.ent\">\n]>\n";
    let body = "<article><section><figure/><table/></section><figure/></article>";
    let dir = scratch("prolog");
    std::fs::create_dir_all(&dir).unwrap();
    let bare = dir.join("bare.xml");
    let full = dir.join("full.xml");
    std::fs::write(&bare, body).unwrap();
    std::fs::write(&full, format!("{header}{body}")).unwrap();
    let (bare, full) = (bare.to_str().unwrap(), full.to_str().unwrap());

    for flags in [
        &["--path", "article section* figure"][..],
        &["--stream", "--count", "--path", "article section* figure"][..],
    ] {
        let want = hxq(&[flags, &[bare]].concat());
        let got = hxq(&[flags, &[full]].concat());
        assert_eq!(
            got.status.code(),
            Some(0),
            "{flags:?}: {}",
            String::from_utf8_lossy(&got.stderr)
        );
        assert_eq!(got.stdout, want.stdout, "{flags:?}");
    }
    let store = scratch("prolog.hxst");
    let out = hxq(&[
        "index",
        dir.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hxq(&[
        "--store",
        store.to_str().unwrap(),
        "--count",
        "--path",
        "article section* figure",
    ]);
    // Both documents, two figures each.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "4\n");

    let inner = dir.join("inner.xml");
    std::fs::write(&inner, "<a><!DOCTYPE a></a>").unwrap();
    let out = hxq(&["--count", "--path", "a", inner.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("XML error at byte 3: DTD declarations are not supported"));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();
}

#[test]
fn stream_metrics_json_reports_the_streaming_run() {
    // PR 8 lifted the PR 7 restriction: --stream + --metrics-json now
    // emits a streaming-specific report instead of exit 2.
    let w = doc_workload(200, 3);
    let xml = scratch("stream-metrics.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let json_path = scratch("stream-metrics.json");

    for query in [
        &["--path", "article section* figure"][..],
        &["--phr", "[\u{3b5} ; figure ; \u{3b5}]"][..],
    ] {
        let out = hxq(&[
            query,
            &[
                "--stream",
                "--metrics-json",
                json_path.to_str().unwrap(),
                xml.to_str().unwrap(),
            ],
        ]
        .concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let printed = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with('/'))
            .count();

        let text = std::fs::read_to_string(&json_path).unwrap();
        let report = Json::parse(&text).expect("streaming metrics JSON parses");
        assert_eq!(report.get("mode").and_then(Json::as_str), Some("stream"));
        let phases = report.get("phases").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = phases
            .iter()
            .filter_map(|p| p.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["compile", "stream", "finish"], "{query:?}");
        assert!(report.get("events").and_then(Json::as_u64).unwrap() > 0);
        assert!(
            report
                .get("depth_high_water")
                .and_then(Json::as_u64)
                .unwrap()
                >= 1
        );
        assert_eq!(report.get("early_exit"), Some(&Json::Bool(false)));
        assert_eq!(
            report.get("located").and_then(Json::as_u64),
            Some(printed as u64),
            "{query:?}"
        );
        assert!(report.get("metrics").is_some());
    }

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn unreadable_file_exits_1() {
    let out = hxq(&["--path", "a", "/nonexistent/really-not-here.xml"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
    assert!(err.contains("really-not-here.xml"));
}

#[test]
fn explain_metrics_json_on_docbook_is_valid_and_consistent() {
    // The acceptance scenario: a generated DocBook document, the paper's
    // standard ancestor query, --explain + --metrics-json.
    let w = doc_workload(300, 5);
    let xml = scratch("docbook.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let json_path = scratch("metrics.json");

    let out = hxq(&[
        "--path",
        "article section* figure",
        "--explain",
        "--metrics-json",
        json_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout: one Dewey address per located node.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = stdout.lines().filter(|l| l.starts_with('/')).count();
    assert!(printed > 0, "workload should contain figures");

    // stderr: the human-readable report.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("explain:"));
    assert!(stderr.contains("compile"));
    assert!(stderr.contains("located"));
    // The path's embedding puts the universal hedge in every sibling
    // position: all components are one HRE, compiled once.
    assert!(
        stderr.contains("(1 distinct, NHA states"),
        "stderr: {stderr}"
    );

    // The JSON file parses and its fields are mutually consistent.
    let text = std::fs::read_to_string(&json_path).unwrap();
    let report = Json::parse(&text).expect("metrics JSON parses");
    let nha = report.get("nha_states").and_then(Json::as_u64).unwrap();
    let dha = report.get("dha_states").and_then(Json::as_u64).unwrap();
    assert!(nha > 0);
    let blowup = report.get("blowup_ratio").and_then(Json::as_f64).unwrap();
    assert!((blowup - dha as f64 / nha as f64).abs() < 1e-9);
    assert_eq!(
        report.get("distinct_components").and_then(Json::as_u64),
        Some(1)
    );
    for c in report.get("components").and_then(Json::as_arr).unwrap() {
        let n = c.get("nha_states").and_then(Json::as_u64).unwrap();
        let d = c.get("dha_states").and_then(Json::as_u64).unwrap();
        if n < 32 {
            assert!(d <= 1 << n, "subset-construction bound violated");
        }
    }
    assert!(report.get("eq_classes").and_then(Json::as_u64).unwrap() > 0);

    // Located count == printed lines == library answer.
    let located = report.get("located").and_then(Json::as_u64).unwrap();
    assert_eq!(located as usize, printed);
    let mut ab = w.ab;
    let path = parse_path("article section* figure", &mut ab).unwrap();
    assert_eq!(located as usize, path.locate(&w.doc).len());

    // Phase timings exist and are non-negative numbers.
    let phases = report.get("phases").and_then(Json::as_arr).unwrap();
    assert!(phases
        .iter()
        .any(|p| p.get("name").and_then(Json::as_str) == Some("compile")));
    for p in phases {
        assert!(p.get("wall_ns").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn phr_and_path_agree_through_the_cli() {
    let (xml_src, expected) = {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a><b/><c/><b/></a>").unwrap();
        let hedge = to_hedge(
            &doc,
            &mut ab,
            HedgeConfig {
                keep_text: true,
                keep_attrs: false,
            },
        );
        let flat = FlatHedge::from_hedge(&hedge);
        let path = parse_path("a b", &mut ab).unwrap();
        let hits = path.locate(&flat);
        (String::from("<a><b/><c/><b/></a>"), hits.len())
    };
    let xml = scratch("small.xml");
    std::fs::write(&xml, xml_src).unwrap();

    let out = hxq(&["--path", "a b", xml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let lines = String::from_utf8_lossy(&out.stdout).lines().count();
    assert_eq!(lines, expected);

    // Same query with --explain must print the same matches.
    let out2 = hxq(&["--path", "a b", "--explain", xml.to_str().unwrap()]);
    assert_eq!(out2.status.code(), Some(0));
    assert_eq!(out.stdout, out2.stdout);

    std::fs::remove_file(&xml).ok();
}

#[test]
fn repeat_reuses_one_plan_and_reports_aggregate_time() {
    let w = doc_workload(150, 7);
    let xml = scratch("repeat.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();

    // One warm run must print exactly what a single cold run prints.
    let once = hxq(&["--path", "article section* figure", xml.to_str().unwrap()]);
    assert_eq!(once.status.code(), Some(0));
    let repeated = hxq(&[
        "--path",
        "article section* figure",
        "--repeat",
        "5",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        repeated.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&repeated.stderr)
    );
    assert_eq!(once.stdout, repeated.stdout, "hits must not depend on N");

    // stderr carries the one-line aggregate summary.
    let err = String::from_utf8_lossy(&repeated.stderr);
    assert!(
        err.contains("repeat: 5 runs in"),
        "summary line missing: {err}"
    );
    assert!(err.contains("ms/run"), "per-run time missing: {err}");
    assert!(err.contains("nodes/s"), "throughput missing: {err}");

    // --repeat composes with --subhedge (warm SelectScratch path) and with
    // --phr (warm Plan path on an explicit PHR).
    let sub = hxq(&[
        "--path",
        "article section* figure",
        "--subhedge",
        "ε",
        "--repeat",
        "3",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(sub.status.code(), Some(0));
    let sub_cold = hxq(&[
        "--path",
        "article section* figure",
        "--subhedge",
        "ε",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(sub.stdout, sub_cold.stdout);
    assert!(String::from_utf8_lossy(&sub.stderr).contains("repeat: 3 runs in"));

    std::fs::remove_file(&xml).ok();
}

#[test]
fn jobs_matches_sequential_output_byte_for_byte() {
    let w = doc_workload(200, 11);
    let xml = scratch("jobs.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let query = ["--path", "article section* figure"];

    let seq = hxq(&[&query[..], &["--repeat", "4", xml.to_str().unwrap()]].concat());
    assert_eq!(
        seq.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&seq.stderr)
    );
    assert!(!seq.stdout.is_empty(), "workload should contain figures");

    // --jobs 1 takes the exact sequential code path: stdout byte-for-byte,
    // and the summary line does not advertise a worker pool.
    let one = hxq(&[
        &query[..],
        &["--repeat", "4", "--jobs", "1", xml.to_str().unwrap()],
    ]
    .concat());
    assert_eq!(one.status.code(), Some(0));
    assert_eq!(seq.stdout, one.stdout, "--jobs 1 must equal sequential");
    assert!(!String::from_utf8_lossy(&one.stderr).contains("workers"));

    // --jobs 3 goes through the pool but locates the same nodes, and the
    // summary says so.
    let three = hxq(&[
        &query[..],
        &["--repeat", "4", "--jobs", "3", xml.to_str().unwrap()],
    ]
    .concat());
    assert_eq!(
        three.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&three.stderr)
    );
    assert_eq!(seq.stdout, three.stdout, "--jobs 3 must equal sequential");
    let err = String::from_utf8_lossy(&three.stderr);
    assert!(err.contains("repeat: 4 runs in"), "summary missing: {err}");
    assert!(err.contains("3 workers"), "worker count missing: {err}");

    // --jobs without --repeat: a single run on the pool, no summary line.
    let plain = hxq(&[&query[..], &[xml.to_str().unwrap()]].concat());
    let pooled = hxq(&[&query[..], &["--jobs", "2", xml.to_str().unwrap()]].concat());
    assert_eq!(pooled.status.code(), Some(0));
    assert_eq!(plain.stdout, pooled.stdout);
    assert!(pooled.stderr.is_empty(), "no --repeat, no summary");

    // --jobs composes with --subhedge (one SelectScratch per worker).
    let sub_seq = hxq(&[&query[..], &["--subhedge", "ε", xml.to_str().unwrap()]].concat());
    let sub_par = hxq(&[
        &query[..],
        &[
            "--subhedge",
            "ε",
            "--repeat",
            "3",
            "--jobs",
            "2",
            xml.to_str().unwrap(),
        ],
    ]
    .concat());
    assert_eq!(sub_par.status.code(), Some(0));
    assert_eq!(sub_seq.stdout, sub_par.stdout);
    assert!(String::from_utf8_lossy(&sub_par.stderr).contains("2 workers"));

    std::fs::remove_file(&xml).ok();
}

#[test]
fn stream_matches_materialized_byte_for_byte() {
    let w = doc_workload(300, 13);
    let src = write_xml(&w.doc, &w.ab, None);
    let xml = scratch("stream.xml");
    std::fs::write(&xml, &src).unwrap();

    for query in [
        &["--path", "article section* figure"][..],
        &["--phr", "[ε ; article ; ε]"][..],
    ] {
        let plain = hxq(&[query, &[xml.to_str().unwrap()]].concat());
        assert_eq!(
            plain.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&plain.stderr)
        );
        let streamed = hxq(&[query, &["--stream", xml.to_str().unwrap()]].concat());
        assert_eq!(streamed.status.code(), Some(0));
        assert_eq!(
            plain.stdout, streamed.stdout,
            "--stream must print the same Dewey lines ({query:?})"
        );

        // `-` reads stdin; streaming it must print exactly the same.
        let piped = hxq_stdin(&[query, &["--stream", "-"]].concat(), &src);
        assert_eq!(piped.status.code(), Some(0));
        assert_eq!(plain.stdout, piped.stdout, "stdin must equal file input");
    }
    std::fs::remove_file(&xml).ok();
}

#[test]
fn truncated_stdin_exits_1_in_both_modes() {
    // The classic dropped-connection input: an element never closed.
    for extra in [&[][..], &["--stream"][..]] {
        for query in [&["--path", "a b"][..], &["--phr", "[ε ; a ; ε]"][..]] {
            let out = hxq_stdin(&[query, extra, &["-"]].concat(), "<a><b>");
            assert_eq!(
                out.status.code(),
                Some(1),
                "truncated stdin must be a runtime error ({query:?} {extra:?})"
            );
            assert!(out.stdout.is_empty(), "no matches may be printed");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
            assert!(
                err.contains("XML error at byte"),
                "position must be reported: {err}"
            );
        }
    }
}

#[test]
fn exists_exit_codes_with_and_without_stream() {
    let xml = scratch("exists.xml");
    std::fs::write(&xml, "<a><b/><c/></a>").unwrap();
    for extra in [&[][..], &["--stream"][..]] {
        let hit = hxq(&[
            &["--path", "a b", "--exists"][..],
            extra,
            &[xml.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(hit.status.code(), Some(0), "a match means exit 0 {extra:?}");
        assert!(hit.stdout.is_empty(), "grep -q semantics: no output");

        let miss = hxq(&[
            &["--path", "a d", "--exists"][..],
            extra,
            &[xml.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(
            miss.status.code(),
            Some(1),
            "no match means exit 1 {extra:?}"
        );
        assert!(miss.stdout.is_empty());
        assert!(miss.stderr.is_empty(), "a miss is not an error");
    }
    std::fs::remove_file(&xml).ok();
}

#[test]
fn count_agrees_with_located_lines_in_every_mode() {
    let w = doc_workload(300, 5);
    let src = write_xml(&w.doc, &w.ab, None);
    let xml = scratch("count.xml");
    std::fs::write(&xml, &src).unwrap();

    for query in [
        &["--path", "article section* figure"][..],
        &["--phr", "[ε ; article ; ε]"][..],
    ] {
        // Ground truth: the plain run's printed Dewey lines.
        let plain = hxq(&[query, &[xml.to_str().unwrap()]].concat());
        assert_eq!(plain.status.code(), Some(0));
        let expected = String::from_utf8_lossy(&plain.stdout).lines().count();
        assert!(expected > 0, "workload should contain figures");

        // Materialized --count prints exactly that number, nothing else.
        let counted = hxq(&[query, &["--count", xml.to_str().unwrap()]].concat());
        assert_eq!(
            counted.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&counted.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&counted.stdout).trim(),
            expected.to_string(),
            "{query:?}"
        );

        // Streaming --count: same number, from a file and from stdin.
        let streamed = hxq(&[query, &["--stream", "--count", xml.to_str().unwrap()]].concat());
        assert_eq!(streamed.status.code(), Some(0));
        assert_eq!(counted.stdout, streamed.stdout, "{query:?} --stream");
        let piped = hxq_stdin(&[query, &["--stream", "--count", "-"]].concat(), &src);
        assert_eq!(piped.status.code(), Some(0));
        assert_eq!(counted.stdout, piped.stdout, "{query:?} --stream via stdin");
    }

    // --count composes with --repeat/--jobs (the mode-generic warm path)
    // and the summary line still lands on stderr.
    let pooled = hxq(&[
        "--phr",
        "[ε ; article ; ε]",
        "--count",
        "--repeat",
        "3",
        "--jobs",
        "2",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(pooled.status.code(), Some(0));
    let single = hxq(&[
        "--phr",
        "[ε ; article ; ε]",
        "--count",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(single.stdout, pooled.stdout, "count must not depend on N/J");
    assert!(String::from_utf8_lossy(&pooled.stderr).contains("repeat: 3 runs in"));

    // A count of zero is an answer: "0" on stdout, exit 0, in both modes.
    for extra in [&[][..], &["--stream"][..]] {
        let zero = hxq(&[
            &["--path", "article nosuch", "--count"][..],
            extra,
            &[xml.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(zero.status.code(), Some(0), "{extra:?}");
        assert_eq!(String::from_utf8_lossy(&zero.stdout).trim(), "0");
        assert!(zero.stderr.is_empty());
    }
    std::fs::remove_file(&xml).ok();
}

#[test]
fn graded_bounds_run_through_the_cli_and_the_cap_exits_2() {
    let xml = scratch("graded.xml");
    std::fs::write(&xml, "<r><x/><x/><b/><x/></r>").unwrap();

    // b with at least two elder x siblings: the document's b qualifies.
    // (Triplet sequences read node-to-root: the b triplet comes first.)
    let hit = hxq(&[
        "--phr",
        "[x{>=2} ; b ; x{<=1}][ε ; r ; ε]",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        hit.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&hit.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&hit.stdout).trim(), "/1/3");

    // Demanding three elder x's must miss; --count says 0 and exits 0.
    let miss = hxq(&[
        "--phr",
        "[x{>=3} ; b ; x*][ε ; r ; ε]",
        "--count",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(miss.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&miss.stdout).trim(), "0");

    // A bound past the expansion cap is rejected as a usage error with a
    // one-line diagnostic naming the cap — no document is evaluated.
    let over = hxq(&["--phr", "[x{>=100000} ; b ; ε]", xml.to_str().unwrap()]);
    assert_eq!(over.status.code(), Some(2), "cap violation must exit 2");
    assert!(over.stdout.is_empty());
    let err = String::from_utf8_lossy(&over.stderr);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    assert!(err.contains("over the cap"), "{err:?} should name the cap");

    std::fs::remove_file(&xml).ok();
}

#[test]
fn check_satisfiable_exits_0_with_witness_and_required_symbols() {
    let out = hxq(&["check", "[ε ; a ; b]"]);
    assert_eq!(out.status.code(), Some(0));
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("check: satisfiable"), "{txt}");
    assert!(txt.contains("witness:"), "{txt}");
    assert!(txt.contains("required symbols:"), "{txt}");
}

#[test]
fn check_schema_unsat_exits_1_with_analysis_only_metrics() {
    let json_path = scratch("check-unsat.json");
    let out = hxq(&[
        "check",
        "[ε ; c ; ε]",
        "--schema",
        "(a<%z>|b<%z>)*^z",
        "--metrics-json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "provably empty must exit 1");
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("check: empty"), "{txt}");
    assert!(
        txt.contains("schema"),
        "reason must mention the schema: {txt}"
    );

    // Zero evaluation work: the metrics record only parse + analyze —
    // no first_pass/second_pass ever ran.
    let raw = std::fs::read_to_string(&json_path).expect("metrics written");
    assert!(!raw.contains("first_pass"), "{raw}");
    assert!(!raw.contains("second_pass"), "{raw}");
    let json = Json::parse(&raw).expect("valid JSON");
    let phases: Vec<String> = json
        .get("phases")
        .and_then(Json::as_arr)
        .expect("phases array")
        .iter()
        .map(|p| {
            p.get("name")
                .and_then(Json::as_str)
                .expect("phase name")
                .to_string()
        })
        .collect();
    assert_eq!(phases, ["parse", "analyze"]);
    assert!(matches!(json.get("satisfiable"), Some(Json::Bool(false))));
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn check_containment_verdicts_and_counterexamples() {
    // Narrow (no siblings allowed) is strictly contained in wide.
    let wide = "[(a<%z>|b<%z>)*^z ; a ; (a<%z>|b<%z>)*^z]";
    let out = hxq(&["check", "[ε ; a ; ε]", "--against", wide]);
    assert_eq!(out.status.code(), Some(0));
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("strictly contained in"), "{txt}");
    assert!(txt.contains("counterexample (against \\ query):"), "{txt}");

    // Equivalence of a query with itself.
    let out = hxq(&["check", wide, "--against", wide]);
    assert_eq!(out.status.code(), Some(0));
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("equivalent"), "{txt}");
}

/// Build a small corpus directory and index it; returns (dir, store path).
fn indexed_corpus(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch(&format!("corpus-{tag}"));
    std::fs::create_dir_all(&dir).expect("corpus dir");
    for (name, xml) in [
        ("a.xml", "<r><a><b/></a><c/></r>"),
        ("b.xml", "<r><c/><a><b/><b/></a></r>"),
        ("c.xml", "<r><c/><c/></r>"),
        ("notes.txt", "not xml, must be ignored"),
    ] {
        std::fs::write(dir.join(name), xml).unwrap();
    }
    let store = scratch(&format!("corpus-{tag}.hxst"));
    let out = hxq(&[
        "index",
        dir.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(
        txt.contains("indexed 3 documents"),
        "the .txt file must not be indexed: {txt}"
    );
    (dir, store)
}

#[test]
fn store_queries_answer_like_grep_over_the_corpus() {
    let (dir, store) = indexed_corpus("roundtrip");
    let store_s = store.to_str().unwrap();

    // Locate prints `name:/dewey` lines, documents in name order.
    let out = hxq(&["--store", store_s, "--path", "r a b"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines, ["a.xml:/1/1/1", "b.xml:/1/2/1", "b.xml:/1/2/2"]);

    // --count agrees with the number of located lines; --exists with their
    // existence (exit 0 on a hit, 1 on a miss, grep -q style).
    let counted = hxq(&["--store", store_s, "--path", "r a b", "--count"]);
    assert_eq!(counted.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&counted.stdout).trim(),
        lines.len().to_string()
    );
    let hit = hxq(&["--store", store_s, "--path", "r a b", "--exists"]);
    assert_eq!(hit.status.code(), Some(0));
    assert!(hit.stdout.is_empty(), "grep -q semantics: no output");
    let miss = hxq(&["--store", store_s, "--path", "r nosuch", "--exists"]);
    assert_eq!(miss.status.code(), Some(1));
    assert!(miss.stderr.is_empty(), "a miss is not an error");

    // A symbol absent from every document prunes the whole corpus but is
    // still an answer, not an error.
    let zero = hxq(&["--store", store_s, "--path", "zzz", "--count"]);
    assert_eq!(zero.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&zero.stdout).trim(), "0");

    // --phr takes the same store path as --path: "a b anywhere" spelled
    // as an explicit PHR must count every b under an a (all three).
    let u = "(r<%z>|a<%z>|b<%z>|c<%z>)*^z";
    let any_b = format!("[{u} ; b ; {u}]([{u} ; a ; {u}]|[{u} ; r ; {u}])*");
    let phr = hxq(&["--store", store_s, "--phr", &any_b, "--count"]);
    assert_eq!(
        phr.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&phr.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&phr.stdout).trim(), "3");

    // --repeat/--jobs compose: same stdout, summary on stderr.
    let pooled = hxq(&[
        "--store", store_s, "--path", "r a b", "--repeat", "3", "--jobs", "2",
    ]);
    assert_eq!(pooled.status.code(), Some(0));
    assert_eq!(out.stdout, pooled.stdout, "hits must not depend on N/J");
    let err = String::from_utf8_lossy(&pooled.stderr);
    assert!(err.contains("repeat: 3 runs in"), "summary missing: {err}");
    assert!(err.contains("2 workers"), "worker count missing: {err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();
}

/// The store route pinned to the file route: over one indexed corpus,
/// `hxq --store S --path Q` prints byte for byte the `NAME:/dewey` lines
/// that `hxq --path Q FILE` prints file by file, and its `--count` and
/// `--exists` answer the same. The file route is itself pinned to the
/// path's PHR embedding run by two-pass in the library — an engine
/// neither route uses — with Dewey paths from `FlatHedge::dewey`.
#[test]
fn store_path_answers_equal_file_by_file_answers() {
    let dir = scratch("corpus-paths");
    std::fs::create_dir_all(&dir).unwrap();
    let names = ["d0.xml", "d1.xml", "d2.xml"];
    for (seed, name) in names.iter().enumerate() {
        let w = doc_workload(300, 40 + seed as u64);
        std::fs::write(dir.join(name), write_xml(&w.doc, &w.ab, None)).unwrap();
    }
    let store = scratch("corpus-paths.hxst");
    let store_s = store.to_str().unwrap();
    let out = hxq(&["index", dir.to_str().unwrap(), "--out", store_s]);
    assert_eq!(out.status.code(), Some(0));
    let text = |o: &Output| String::from_utf8_lossy(&o.stdout).into_owned();

    // `nosuch` is in no document: count 0, exists exit 1.
    for q in [
        "article section* figure",
        "(article|section)* table",
        "article section para?",
        "nosuch",
    ] {
        let (mut lines, mut total) = (String::new(), 0usize);
        for name in names {
            let file = dir.join(name);
            let file_s = file.to_str().unwrap();
            let mut ab = Alphabet::new();
            let doc = parse_xml(&std::fs::read_to_string(&file).unwrap()).unwrap();
            let cfg = HedgeConfig {
                keep_text: true,
                keep_attrs: false,
            };
            let flat = FlatHedge::from_hedge(&to_hedge(&doc, &mut ab, cfg));
            let path = parse_path(q, &mut ab).unwrap();
            let syms: Vec<_> = ab.syms().collect();
            let vars: Vec<_> = ab.vars().collect();
            let z = ab.sub("reference-universal");
            let hits =
                two_pass::locate(&CompiledPhr::compile(&path.to_phr(&syms, &vars, z)), &flat);
            let want: String = hits
                .iter()
                .map(|&n| {
                    let d: Vec<String> = flat.dewey(n).iter().map(u32::to_string).collect();
                    format!("/{}\n", d.join("/"))
                })
                .collect();
            assert_eq!(text(&hxq(&["--path", q, file_s])), want, "{q} on {name}");
            let counted = hxq(&["--path", q, "--count", file_s]);
            assert_eq!(counted.status.code(), Some(0));
            assert_eq!(text(&counted), format!("{}\n", hits.len()), "{q} on {name}");
            let exists = hxq(&["--path", q, "--exists", file_s]);
            assert_eq!(exists.status.code(), Some(hits.is_empty() as i32), "{q}");
            for line in want.lines() {
                lines.push_str(&format!("{name}:{line}\n"));
            }
            total += hits.len();
        }
        assert_eq!(q == "nosuch", total == 0, "{q}: total {total}");

        let located = hxq(&["--store", store_s, "--path", q]);
        assert_eq!(located.status.code(), Some(0));
        assert_eq!(text(&located), lines, "{q}: store locate");
        let counted = hxq(&["--store", store_s, "--path", q, "--count"]);
        assert_eq!(counted.status.code(), Some(0));
        assert_eq!(text(&counted), format!("{total}\n"), "{q}: store count");
        let exists = hxq(&["--store", store_s, "--path", q, "--exists"]);
        assert_eq!(exists.status.code(), Some((total == 0) as i32), "{q}");
        assert!(exists.stdout.is_empty());
        let pooled = hxq(&[
            "--store", store_s, "--path", q, "--repeat", "3", "--jobs", "2",
        ]);
        assert_eq!(pooled.status.code(), Some(0));
        assert_eq!(text(&pooled), lines, "{q}: --repeat 3 --jobs 2");
        let pooled = hxq(&[
            "--store", store_s, "--path", q, "--count", "--repeat", "3", "--jobs", "2",
        ]);
        assert_eq!(text(&pooled), format!("{total}\n"), "{q}: pooled count");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();
}

/// The route guard: a `--store --path` count compiles the path to its
/// top-down DFA (`core.path.compile`) and never embeds it as a PHR, so the
/// trace has no PHR compile, no hedge-automaton determinization and no HRE
/// compile span. With obs compiled out the trace is empty and only the
/// absence half holds.
#[test]
fn store_path_count_trace_has_no_phr_compile() {
    let (dir, store) = indexed_corpus("trace-route");
    let trace = scratch("store-route-trace.json");
    let out = hxq(&[
        "--store",
        store.to_str().unwrap(),
        "--path",
        "r a b",
        "--count",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "3\n");
    let text = std::fs::read_to_string(&trace).unwrap();
    let events = Json::parse(&text).expect("trace JSON parses");
    let names: Vec<&str> = events
        .as_arr()
        .expect("trace is a JSON array")
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("event name"))
        .collect();
    for banned in ["core.phr_compile", "ha.determinize", "core.compile"] {
        assert!(!names.contains(&banned), "{banned} span in {names:?}");
    }
    if hedgex::obs::is_enabled() {
        for expected in ["store.load", "core.path.compile", "store.query.doc"] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn store_runtime_errors_exit_1_with_one_line_diagnostics() {
    // A missing store file is a runtime error naming the path.
    let out = hxq(&["--store", "/nonexistent/nosuch.hxst", "--path", "a"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
    assert!(err.contains("nosuch.hxst"), "{err:?} should name the store");

    // A corrupted store reports the typed loader error, positioned.
    let bad = scratch("corrupt.hxst");
    std::fs::write(&bad, b"HXSTgarbage").unwrap();
    let out = hxq(&["--store", bad.to_str().unwrap(), "--path", "a"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    assert!(err.contains("byte"), "loader position missing: {err}");

    // A store written by an older format version is rejected, and the
    // diagnostic says how to get a readable one.
    let (dir, store) = indexed_corpus("v1");
    let mut image = std::fs::read(&store).unwrap();
    image[4..8].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&store, &image).unwrap();
    let out = hxq(&["--store", store.to_str().unwrap(), "--path", "r a b"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    assert!(
        err.contains("unsupported store version 1 at byte 4"),
        "{err}"
    );
    assert!(err.contains("rebuild the store with `hxq index`"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();

    // `index` over a directory with no *.xml files is a runtime error.
    let empty = scratch("empty-corpus");
    std::fs::create_dir_all(&empty).unwrap();
    let out = hxq(&[
        "index",
        empty.to_str().unwrap(),
        "--out",
        scratch("never.hxst").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no *.xml files"));

    std::fs::remove_file(&bad).ok();
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn store_usage_errors_exit_2() {
    for (args, needle) in [
        (
            &["--store", "-", "--path", "a"][..],
            "cannot read from stdin",
        ),
        (
            &["--store", "s.hxst", "--path", "a", "doc.xml"][..],
            "takes no FILE argument",
        ),
        (
            &["--store", "s.hxst", "--path", "a", "--stream"][..],
            "'--store' is incompatible with '--stream'",
        ),
        (
            &["--store", "s.hxst", "--path", "a", "--mark"][..],
            "'--store' is incompatible with '--mark'",
        ),
        (
            &["--store", "s.hxst", "--path", "a", "--explain"][..],
            "'--store' is incompatible with '--explain'",
        ),
        (&["--store", "s.hxst"][..], "one of --path or --phr"),
        (&["index"][..], "needs a directory"),
        (&["index", "somedir"][..], "needs '--out STORE'"),
        (&["index", "somedir", "--out"][..], "needs a value"),
        (
            &["index", "somedir", "--out", "s.hxst", "--bogus"][..],
            "unknown",
        ),
    ] {
        let out = hxq(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn check_usage_errors_exit_2() {
    for (args, needle) in [
        (&["check"][..], "needs a query"),
        (&["check", "[ε ; a ; ε]", "--schema"][..], "needs a value"),
        (&["check", "not a phr"][..], "query:"),
        (&["check", "[ε ; a ; ε]", "--bogus"][..], "unknown option"),
        (
            &["check", "[ε ; a ; ε]", "--against-subhedge", "ε"][..],
            "needs '--against'",
        ),
    ] {
        let out = hxq(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{err:?} should mention {needle:?}");
    }
}
