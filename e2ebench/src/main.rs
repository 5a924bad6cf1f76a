//! `ggrid-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs whole iterations (set-up, fixed-rate drain, overload drain) until
//! the next one would overrun `--seconds`, checks every answer of the first
//! iteration, and prints a report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ggrid_e2ebench::host::{self, peak_rss_mb};
use ggrid_e2ebench::layers::{self, percentile, Metric};
use ggrid_e2ebench::run::{self, Iteration};
use ggrid_e2ebench::spec::{self, Spec};

/// Medians need at least this many iterations, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::ALL.iter().map(|s| s.name).collect();
    format!(
        "usage: ggrid-e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What is kept of an iteration once its query records are dropped, so
/// memory does not grow with the number of iterations.
struct Summary {
    traced: bool,
    setup_s: f64,
    setup_wall_s: f64,
    lat_p50_ms: f64,
    lat_p99_ms: f64,
    capacity_qps: f64,
    host_us_per_q: f64,
    host_us_per_q_raw: f64,
    drain_cpu_s: f64,
    drain_wall_s: f64,
    ref_loop_ms: f64,
    /// Per-layer metrics and failed checks, when traced.
    layers: Option<(Vec<Metric>, Vec<String>)>,
}

impl Summary {
    fn new(spec: &Spec, it: &Iteration, traced: bool) -> Self {
        let latencies = it.fixed.sorted_latencies_ns();
        Self {
            traced,
            setup_s: it.setup_cpu_s,
            setup_wall_s: it.setup_wall_s,
            lat_p50_ms: percentile(&latencies, 0.5) as f64 * 1e-6,
            lat_p99_ms: percentile(&latencies, 0.99) as f64 * 1e-6,
            capacity_qps: it.overload.report.throughput_qps(),
            host_us_per_q: it.fixed.host_us_per_q_normalized(),
            host_us_per_q_raw: it.fixed.host_us_per_q(),
            drain_cpu_s: it.fixed.cpu_s,
            drain_wall_s: it.fixed.wall_s,
            ref_loop_ms: it.fixed.ref_loop_ms(),
            layers: traced.then(|| layers::measure(spec, it)),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut verdict = None;
    let mut runs: Vec<Summary> = Vec::new();
    loop {
        // With --trace 1, every other iteration runs untraced so the
        // tracing overhead can be measured.
        let traced = args.trace && runs.len().is_multiple_of(2);
        // Each iteration draws its own inputs, so medians over iterations
        // also average over schedules.
        let seed = args
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(runs.len() as u64);
        let it = run::iteration(&spec, seed, traced, runs.is_empty());
        verdict = verdict.or(it.verdict);
        runs.push(Summary::new(&spec, &it, traced));
        drop(it);
        let per = start.elapsed() / runs.len() as u32;
        if runs.len() >= MIN_ITERATIONS && start.elapsed() + per > budget {
            break;
        }
    }
    let verdict = verdict.expect("the first iteration is checked");
    let med = |f: fn(&Summary) -> f64| median(runs.iter().map(f).collect());

    println!(
        "workload {} seed {}: {} iterations in {:.1} s wall",
        spec.name,
        args.seed,
        runs.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "  graph NY/{}, {} devices, fleet {}, k {}, {} subscriptions, epoch every {} requests",
        spec.graph_scale,
        spec.devices,
        spec.fleet,
        spec::K,
        spec.subscriptions,
        spec.epoch_requests
    );
    println!(
        "  open loop, one pre-enqueueing client: fixed phase {} q/s + {} waves/s x {} updates, {} queries",
        spec.query_rate_hz, spec.wave_rate_hz, spec.wave, spec.queries
    );
    println!(
        "  overload phase: every rate x{}, shedding off, {} queries",
        spec.overload_factor, spec.overload_queries
    );
    println!(
        "  arrivals are stamps on the modeled clock, so the generator is never late: lateness 0 ns"
    );
    println!(
        "  latency samples: {} answered queries per iteration",
        spec.queries
    );
    println!("  clocks: modeled = simulated kernels and PCIe plus measured host refinement; host = process on-CPU time");
    println!(
        "  wall beside on-CPU: set-up {:.3} s wall; drain {:.3} s wall, {:.3} s on-CPU; reference loop {:.2} ms on-CPU",
        med(|r| r.setup_wall_s),
        med(|r| r.drain_wall_s),
        med(|r| r.drain_cpu_s),
        med(|r| r.ref_loop_ms)
    );
    println!(
        "  host_us_per_q is normalized to a {} ms reference loop; raw on-CPU {:.3} us per query",
        host::REFERENCE_LOOP_MS,
        med(|r| r.host_us_per_q_raw)
    );
    println!(
        "  answer check: attempted {} failed {} (wrong {}, of which the known equal-stamp ingest defect explains {}; shed {})",
        verdict.attempted,
        verdict.failed(),
        verdict.wrong,
        verdict.known_defect,
        verdict.shed
    );

    let mut correct = verdict.unexplained() == 0;
    let metrics = if args.trace {
        let traced: Vec<&(Vec<Metric>, Vec<String>)> =
            runs.iter().filter_map(|r| r.layers.as_ref()).collect();
        let failures: Vec<&String> = traced.iter().flat_map(|(_, f)| f).collect();
        for f in &failures {
            println!("  CHECK FAILED: {f}");
        }
        if failures.is_empty() {
            println!("  closure and coverage checks: pass");
        }
        correct &= failures.is_empty();
        let mut metrics: Vec<Metric> = traced[0]
            .0
            .iter()
            .enumerate()
            .map(|(i, m)| Metric {
                value: median(traced.iter().map(|(ms, _)| ms[i].value).collect()),
                ..m.clone()
            })
            .collect();
        let host = |t: bool| {
            median(
                runs.iter()
                    .filter(|r| r.traced == t)
                    .map(|r| r.host_us_per_q)
                    .collect(),
            )
        };
        metrics.push(Metric {
            name: "trace.overhead_us_per_q",
            value: host(true) - host(false),
            unit: "us",
        });
        metrics
    } else {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", med(|r| r.setup_s), "s"),
            m("lat_p50_ms", med(|r| r.lat_p50_ms), "ms"),
            m("lat_p99_ms", med(|r| r.lat_p99_ms), "ms"),
            m("capacity_qps", med(|r| r.capacity_qps), "1/s"),
            m("host_us_per_q", med(|r| r.host_us_per_q), "us"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        json(correct, verdict.attempted, verdict.failed(), &metrics)
    );
    ExitCode::SUCCESS
}
