//! Runs one workload of the `hxq` benchmark and prints its metrics.
//!
//! ```text
//! perfbench --hxq PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See README.md for the workloads and what each metric means.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hedgex_testkit::Json;

use perfbench::client::{ClosedLoop, LoopResult};
use perfbench::inputs::{self, Call, Inputs, Request, Workload};
use perfbench::replay;
use perfbench::stats::{error_rate, median, percentile, throughput_mnodes_s};
use perfbench::trace::Tracer;

/// Timed set-ups per run (see [`measure`]); `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed requests an untraced run needs for its p90 (see `stats`).
const MIN_REQUESTS: usize = 100;
/// Timed requests a traced run needs for its medians.
const MIN_TRACED_REQUESTS: usize = 20;

struct Args {
    hxq: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut hxq = None;
    let mut work = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("'{flag}' needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("'{flag}' needs a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--hxq" => hxq = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("'--trace' takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    let missing = |name: &str| format!("'{name}' is required");
    Ok(Args {
        hxq: hxq.ok_or_else(|| missing("--hxq"))?,
        work: work.ok_or_else(|| missing("--work"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

type Metric = (String, f64, &'static str);

fn run(args: &Args) -> Result<Json, String> {
    let name = args.workload.name();
    let dir = args.work.join(name);
    let (inputs, first_setup_s) = timed_setup(args, &dir)?;
    println!(
        "inputs: {name} seed {}: {} files, {} bytes, fnv1a64 {:016x}",
        args.seed, inputs.files, inputs.bytes, inputs.hash
    );

    // The traced replay of each request runs right after `hxq` answers it,
    // so both see the machine in the same state.
    let mut tracer = args.trace.then(Tracer::default);
    let mut traced = 0u64;
    let mut replay_ok = true;
    let replay_stdout = dir.join("replay-stdout.txt");
    let mut after = |req: &Request| -> Result<(), String> {
        let Some(t) = tracer.as_mut() else {
            return Ok(());
        };
        t.set_request(traced);
        replay::replay(req, t, &replay_stdout)?;
        if std::fs::read(&replay_stdout).map_err(|e| format!("{}: {e}", replay_stdout.display()))?
            != req.expected_stdout.as_bytes()
        {
            println!("traced request {traced} printed a different answer from hxq's");
            replay_ok = false;
        }
        traced += 1;
        Ok(())
    };
    let (result, setup_times) = measure(args, &inputs, &dir, first_setup_s, &mut after)?;

    let latencies: Vec<f64> = result
        .samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    let p50 = percentile(&latencies, 50).expect("the loop runs enough requests for a median");
    println!(
        "requests: {} attempted, {} failed, error_rate {}",
        result.attempted,
        result.failed,
        error_rate(result.failed, result.attempted)
    );
    if let Some(e) = &result.first_error {
        println!("first failure: {e}");
    }

    let metrics = match &tracer {
        Some(t) => {
            let trace_file = dir.join("trace.json");
            std::fs::write(&trace_file, format!("{}\n", t.chrome_json()))
                .map_err(|e| format!("{}: {e}", trace_file.display()))?;
            println!(
                "trace: {} spans over {traced} requests in {}",
                t.spans().len(),
                trace_file.display()
            );
            let bytes_per_node = store_image_bytes(args.workload, &inputs)?
                .map_or(0.0, |bytes| bytes as f64 / inputs.requests[0].nodes as f64);
            let faults: Vec<f64> = result
                .samples
                .iter()
                .map(|s| s.minor_faults as f64)
                .collect();
            let untraced = replay::Untraced {
                p50_ms: p50,
                minor_faults: median(&faults),
            };
            replay::layer_metrics(t, traced, &untraced, bytes_per_node)
        }
        None => end_to_end(&result, &latencies, p50, median(&setup_times)),
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = result.failed == 0 && replay_ok;
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(result.attempted as f64)),
        ("failed".into(), Json::Num(result.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::obj([
                                ("value", Json::Num(value)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// The closed loop, with the set-up repeated at evenly spaced points of
/// the run so that `setup_s` samples the machine over the whole run, as
/// the latencies do. Every repeat must reproduce `inputs` byte for byte.
/// Returns the loop's result and every set-up time, `first_setup_s` first.
fn measure(
    args: &Args,
    inputs: &Inputs,
    dir: &Path,
    first_setup_s: f64,
    after: &mut dyn FnMut(&Request) -> Result<(), String>,
) -> Result<(LoopResult, Vec<f64>), String> {
    let mut setup_times = vec![first_setup_s];
    let spawner = std::env::current_exe()
        .map_err(|e| format!("locating the spawner: {e}"))?
        .with_file_name("spawner");
    let mut lp = ClosedLoop::start(&spawner, &args.hxq, &inputs.requests, dir)?;
    let start = Instant::now();
    let probe_dir = args.work.join(format!("{}-setup", args.workload.name()));
    for k in 1..SETUPS {
        let until = start + Duration::from_secs_f64(args.seconds * k as f64 / (SETUPS - 1) as f64);
        lp.run(until, 0, after)?;
        let (again, secs) = timed_setup(args, &probe_dir)?;
        if again.hash != inputs.hash {
            return Err(format!(
                "seed {} gave different inputs on two set-ups ({:016x}, {:016x})",
                args.seed, inputs.hash, again.hash
            ));
        }
        setup_times.push(secs);
    }
    std::fs::remove_dir_all(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;
    let min_samples = if args.trace {
        MIN_TRACED_REQUESTS
    } else {
        MIN_REQUESTS
    };
    lp.run(Instant::now(), min_samples, after)?;
    Ok((lp.result, setup_times))
}

/// Generate the inputs into `dir`, emptied first; returns them with the
/// time taken.
fn timed_setup(args: &Args, dir: &Path) -> Result<(Inputs, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    inputs::mkdir(dir)?;
    let t = Instant::now();
    let inputs = inputs::setup(args.workload, args.seed, dir, &args.hxq)?;
    Ok((inputs, t.elapsed().as_secs_f64()))
}

fn end_to_end(result: &LoopResult, latencies: &[f64], p50: f64, setup_s: f64) -> Vec<Metric> {
    let p90 = percentile(latencies, 90).expect("the loop runs enough requests for a p90");
    let nodes: u64 = result.samples.iter().map(|s| s.nodes).sum();
    let busy_ns: u64 = result.samples.iter().map(|s| s.latency_ns).sum();
    let peak_kb = result
        .samples
        .iter()
        .map(|s| s.peak_rss_kb)
        .max()
        .unwrap_or(0);
    vec![
        ("latency_p50_ms".into(), p50, "ms"),
        ("latency_p90_ms".into(), p90, "ms"),
        (
            "throughput_mnodes_s".into(),
            throughput_mnodes_s(nodes, busy_ns),
            "Mnodes/s",
        ),
        ("peak_rss_mb".into(), peak_kb as f64 / 1024.0, "MB"),
        ("setup_s".into(), setup_s, "s"),
    ]
}

/// The size of the store image the workload's `hxq` runs read or wrote.
fn store_image_bytes(workload: Workload, inputs: &Inputs) -> Result<Option<u64>, String> {
    match (workload, &inputs.requests[0].call) {
        (Workload::StoreCount, _) => Ok(inputs.store_image_bytes),
        (Workload::StoreIndex, Call::Index { out, .. }) => inputs::file_len(out).map(Some),
        _ => Ok(None),
    }
}
