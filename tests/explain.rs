//! Acceptance tests for `hedgex::explain`: the structured report must be
//! internally consistent, agree with the plain pipeline's answers, and
//! round-trip through the JSON layer unchanged.

use hedgex::core::two_pass;
use hedgex::core::CompiledPhr;
use hedgex::explain;
use hedgex_bench::{doc_workload, figure_before_table_phr, figure_content_hre};
use hedgex_testkit::Json;

#[test]
fn docbook_report_is_consistent() {
    let mut w = doc_workload(400, 1);
    let phr = figure_before_table_phr(&mut w.ab);
    let report = explain(&phr, None, &w.doc);

    // Phases: cold compile + both traversals + the warm re-run + the
    // timeline export, in execution order.
    let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        ["compile", "first_pass", "second_pass", "warm_run", "trace"]
    );
    assert!(
        report.phases[0].wall_ns > 0,
        "compile cannot take zero time"
    );

    // Four triplets, eight components, two distinct HREs: the universal
    // hedge (seven times) and the younger `table<u> (u)`.
    assert_eq!(report.components.len(), 8);
    assert_eq!(report.distinct_components, 2);

    // Theorem 1 bound, per component: |DHA| ≤ 2^|NHA| (and nothing empty).
    for c in &report.components {
        assert!(c.nha_states > 0);
        assert!(c.dha_states > 0);
        if c.nha_states < 32 {
            assert!(
                u64::from(c.dha_states) <= 1u64 << c.nha_states,
                "determinization exceeded the subset bound: {} vs 2^{}",
                c.dha_states,
                c.nha_states
            );
        }
    }
    let nha: u64 = report
        .components
        .iter()
        .map(|c| u64::from(c.nha_states))
        .sum();
    let dha: u64 = report
        .components
        .iter()
        .map(|c| u64::from(c.dha_states))
        .sum();
    assert_eq!(report.nha_states, nha);
    assert_eq!(report.dha_states, dha);
    assert!((report.blowup_ratio - dha as f64 / nha as f64).abs() < 1e-12);

    // Class usage cannot exceed the class table, nor states the product.
    assert!(report.m_states > 0);
    assert!(report.eq_classes > 0);
    assert!(report.elder_classes_used <= report.eq_classes);
    assert!(report.younger_classes_used <= report.eq_classes);
    assert!(report.n_states > 0);

    // The match set is exactly what the plain pipeline computes.
    assert_eq!(report.nodes, w.doc.num_nodes());
    let compiled = CompiledPhr::compile(&phr);
    let plain = two_pass::locate(&compiled, &w.doc);
    assert_eq!(report.hits, plain);
    assert_eq!(report.located, plain.len());
    assert!(report.located > 0, "workload should contain matches");
}

#[test]
fn subhedge_filter_matches_manual_marking() {
    let mut w = doc_workload(400, 1);
    let phr = figure_before_table_phr(&mut w.ab);
    let e1 = figure_content_hre(&mut w.ab);
    let report = explain(&phr, Some(&e1), &w.doc);

    let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        [
            "compile",
            "subhedge_compile",
            "subhedge_mark",
            "first_pass",
            "second_pass",
            "warm_run",
            "trace"
        ]
    );

    let compiled = CompiledPhr::compile(&phr);
    let mut expected = two_pass::locate(&compiled, &w.doc);
    let dha = hedgex::core::mark_down::compile_to_dha(&e1);
    let marks = hedgex::core::mark_run(&dha, &w.doc);
    expected.retain(|&n| marks[n as usize]);
    assert_eq!(report.hits, expected);
    assert_eq!(report.located, expected.len());
}

#[test]
fn report_json_round_trips() {
    let mut w = doc_workload(200, 3);
    let phr = figure_before_table_phr(&mut w.ab);
    let report = explain(&phr, None, &w.doc);

    let json = report.to_json();
    let reparsed = Json::parse(&json.to_string()).expect("report JSON parses");
    assert_eq!(reparsed, json, "JSON text must round-trip losslessly");

    // The fields the acceptance criteria pin down.
    for key in [
        "phases",
        "components",
        "distinct_components",
        "nha_states",
        "dha_states",
        "blowup_ratio",
        "m_states",
        "eq_classes",
        "n_states",
        "nodes",
        "located",
        "hits",
        "metrics",
        "trace",
    ] {
        assert!(json.get(key).is_some(), "missing report field '{key}'");
    }
    assert_eq!(
        json.get("located").and_then(Json::as_u64),
        Some(report.located as u64)
    );
    assert_eq!(
        json.get("distinct_components").and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        json.get("hits").and_then(Json::as_arr).map(<[Json]>::len),
        Some(report.located)
    );

    // The metrics section reflects whether instrumentation is compiled in.
    let enabled = json.get("metrics").and_then(|m| m.get("enabled"));
    assert_eq!(enabled, Some(&Json::Bool(hedgex::obs::is_enabled())));

    // The trace is a Chrome trace-event array: empty when obs is compiled
    // out, else complete events with the fields the viewers require.
    let trace = json
        .get("trace")
        .and_then(Json::as_arr)
        .expect("trace is an array");
    if hedgex::obs::is_enabled() {
        assert!(!trace.is_empty(), "an instrumented run records spans");
        for e in trace {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "trace event missing '{key}'");
            }
        }
    } else {
        assert!(trace.is_empty());
    }
}
