//! Per-layer metrics of a traced iteration, and the checks that the layers
//! add up and that the workload still loads the layer it exists for.
//!
//! Sources are deltas of the public `GGridServer::counters()` around the
//! fixed-rate drain, its `ServeReport` and query records, and the
//! benchmark's own set-up spans. The library books host time with wall
//! clocks on the thread that did the work; the drain is measured on-CPU
//! for the whole process, which is the sum of those threads' time when
//! nothing preempts them.

use ggrid::stats::ServerCounters;

use crate::run::{Drain, Iteration};
use crate::spec::{Layer, Spec};

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `num / den`, 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Answered queries per modeled second the overload phase offered.
fn offered_qps(d: &Drain) -> f64 {
    let first = d.report.first_arrival_ns;
    let last = d
        .records
        .iter()
        .map(|r| r.arrival_ns)
        .max()
        .unwrap_or(first);
    ratio(
        d.records.len() as f64 * 1e9,
        last.saturating_sub(first) as f64,
    )
}

/// The metrics of one traced iteration plus every failed check, as text.
pub fn measure(spec: &Spec, it: &Iteration) -> (Vec<Metric>, Vec<String>) {
    let drain = &it.fixed;
    let [a, b] = drain.counters.as_ref().expect("layers need a traced drain");
    let d = |f: fn(&ServerCounters) -> u64| f(b).saturating_sub(f(a)) as f64;
    let report = &drain.report;
    let queries = report.queries as f64;
    let answered: Vec<_> = drain.records.iter().filter(|r| !r.shed).collect();
    let mut failures = Vec::new();

    // Modeled closure: each record's parts sum to its latency, and every
    // member of a batch completes at the batch's one completion instant.
    let mut service_ns = 0u64;
    let mut i = 0;
    while i < answered.len() {
        let size = answered[i].batch_size.max(1);
        let batch = &answered[i..(i + size).min(answered.len())];
        service_ns += batch[0].service_ns;
        let done = batch[0].arrival_ns + batch[0].latency_ns();
        for r in batch {
            if r.queue_wait_ns + r.batch_wait_ns + r.service_ns != r.latency_ns()
                || r.arrival_ns + r.latency_ns() != done
            {
                failures.push(format!(
                    "modeled closure: query seq {} does not complete with its batch",
                    r.seq
                ));
            }
        }
        i += size;
    }
    if answered.len() as u64 != report.queries {
        failures.push("modeled closure: answered records differ from the report".into());
    }

    // Host closure: the drain's on-CPU span splits into the library's host
    // layers plus the serve loop's own time, which cannot be negative.
    let emu_s = d(|c| c.emulation_ns) * 1e-9;
    let query_s = d(|c| c.query_cpu_ns) * 1e-9;
    let ingest_s = d(|c| c.ingest_busy_ns) * 1e-9;
    let subs_s = d(|c| c.subs_cpu_ns) * 1e-9;
    let self_s = drain.cpu_s - (emu_s + query_s + ingest_s + subs_s);
    if self_s < 0.0 {
        failures.push(format!(
            "host closure: layers sum to {:.4} s, more than the {:.4} s drain",
            emu_s + query_s + ingest_s + subs_s,
            drain.cpu_s
        ));
    }

    // Coverage: the workload still loads the layer it exists for.
    let cross_rounds = d(|c| c.cross_shard_rounds);
    let loaded = match spec.loads {
        Layer::Residency => d(|c| c.evictions) + d(|c| c.topo_misses) > 0.0,
        Layer::Ingest => ingest_s > query_s.max(subs_s).max(self_s),
        Layer::Shard => cross_rounds > 0.0,
    };
    if !loaded {
        failures.push(format!(
            "coverage: {} no longer loads {:?}",
            spec.name, spec.loads
        ));
    }
    if spec.loads != Layer::Shard && cross_rounds > 0.0 {
        failures.push(format!("coverage: {} runs cross-shard rounds", spec.name));
    }
    let capacity = it.overload.report.throughput_qps();
    let offered = offered_qps(&it.overload);
    if capacity > 0.9 * offered {
        failures.push(format!(
            "coverage: overload phase answered {capacity:.0} of {offered:.0} q/s offered, not saturated"
        ));
    }

    let mut waits: Vec<u64> = answered.iter().map(|r| r.queue_wait_ns).collect();
    waits.sort_unstable();
    let mut batch_waits: Vec<u64> = answered.iter().map(|r| r.batch_wait_ns).collect();
    batch_waits.sort_unstable();
    let busy: Vec<f64> = (0..spec.devices)
        .map(|s| b.shard_busy_ns[s].saturating_sub(a.shard_busy_ns[s]) as f64)
        .collect();
    let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let busy_max = busy.iter().cloned().fold(0.0, f64::max);
    let clean_hits = d(|c| c.clean_skip_hits);
    let clean_misses = d(|c| c.clean_skip_misses);
    let topo_hits = d(|c| c.topo_hits);
    let subs_skipped = d(|c| c.subs_skipped);
    let subs_invalidated = d(|c| c.subs_invalidated);
    let gpu_ns = d(|c| c.gpu_time.0);
    let ms = 1e-6;
    let mb = 1e-6;

    let m = |name, value, unit| Metric { name, value, unit };
    let s = &it.steps;
    let metrics = vec![
        m("setup.graph_s", s.graph_s, "s"),
        m("setup.server_s", s.server_s, "s"),
        m("setup.fleet_s", s.fleet_s, "s"),
        m("setup.subs_s", s.subs_s, "s"),
        m("setup.warm_s", s.warm_s, "s"),
        m(
            "serve.queue_wait_p99_ms",
            percentile(&waits, 0.99) as f64 * ms,
            "ms",
        ),
        m(
            "serve.batch_wait_p50_ms",
            percentile(&batch_waits, 0.5) as f64 * ms,
            "ms",
        ),
        m(
            "serve.batch_mean",
            ratio(queries, report.batches as f64),
            "count",
        ),
        m("serve.fill_closes", report.fill_closes as f64, "count"),
        m(
            "serve.deadline_closes",
            report.deadline_closes as f64,
            "count",
        ),
        m("serve.shed", report.shed as f64, "count"),
        m("serve.host_self_s", self_s, "s"),
        m("batch.shared_cells", d(|c| c.batch_shared_cells), "count"),
        m(
            "batch.service_us_per_q",
            ratio(service_ns as f64 * 1e-3, queries),
            "us",
        ),
        m("ingest.updates", d(|c| c.updates_ingested), "count"),
        m("ingest.flushes", d(|c| c.ingest_flushes), "count"),
        m("ingest.cell_locks", d(|c| c.ingest_cell_locks), "count"),
        m(
            "ingest.modeled_ms",
            report.ingest_modeled_ns as f64 * ms,
            "ms",
        ),
        m("ingest.host_s", ingest_s, "s"),
        m("clean.cells", clean_misses, "count"),
        m(
            "clean.skip_ratio",
            ratio(clean_hits, clean_hits + clean_misses),
            "ratio",
        ),
        m("clean.messages", d(|c| c.messages_cleaned), "count"),
        m("clean.h2d_delta_mb", d(|c| c.h2d_delta_bytes) * mb, "MB"),
        m("clean.h2d_full_mb", d(|c| c.h2d_full_bytes) * mb, "MB"),
        m(
            "residency.list_hit_ratio",
            ratio(d(|c| c.resident_hits), clean_misses),
            "ratio",
        ),
        m("residency.evictions", d(|c| c.evictions), "count"),
        m(
            "residency.topo_hit_ratio",
            ratio(topo_hits, topo_hits + d(|c| c.topo_misses)),
            "ratio",
        ),
        m("residency.h2d_topo_mb", d(|c| c.h2d_topo_bytes) * mb, "MB"),
        m(
            "sdist.rounds_per_q",
            ratio(d(|c| c.sdist_rounds), queries),
            "count",
        ),
        m(
            "sdist.frontier_per_q",
            ratio(d(|c| c.sdist_frontier_sum), queries),
            "count",
        ),
        m(
            "sdist.pruned_ratio",
            ratio(d(|c| c.sdist_pruned), d(|c| c.sdist_vertices)),
            "ratio",
        ),
        m("sdist.modeled_ms", d(|c| c.sdist_time.0) * ms, "ms"),
        m("refine.settled", d(|c| c.refine_settled), "count"),
        m("refine.host_ms", d(|c| c.refine_ns) * ms, "ms"),
        m("query.host_s", query_s, "s"),
        m("emu.host_s", emu_s, "s"),
        m(
            "emu.host_ns_per_modeled_ns",
            ratio(emu_s * 1e9, gpu_ns),
            "ratio",
        ),
        m("emu.launches", d(|c| c.kernel_launches), "count"),
        m("gpu.modeled_ms", gpu_ns * ms, "ms"),
        m("xfer.modeled_ms", d(|c| c.transfer_time.0) * ms, "ms"),
        m("subs.ticks", d(|c| c.subs_ticks), "count"),
        m("subs.invalidated", subs_invalidated, "count"),
        m(
            "subs.avoided_ratio",
            ratio(subs_skipped, subs_skipped + subs_invalidated),
            "ratio",
        ),
        m("subs.repaired_full", d(|c| c.subs_repaired_full), "count"),
        m("subs.host_s", subs_s, "s"),
        m(
            "subs.modeled_ms",
            (d(|c| c.subs_cpu_ns) + d(|c| c.subs_gpu_time.0)) * ms,
            "ms",
        ),
        m("shard.cross_rounds", cross_rounds, "count"),
        m("shard.replica_hits", d(|c| c.replica_hits), "count"),
        m(
            "shard.replica_invalidations",
            d(|c| c.replica_invalidations),
            "count",
        ),
        m("shard.cells_migrated", d(|c| c.cells_migrated), "count"),
        m("shard.busy_skew", ratio(busy_max, busy_mean), "ratio"),
        m("host.drain_cpu_s", drain.cpu_s, "s"),
        m("host.drain_wall_s", drain.wall_s, "s"),
        m(
            "host.ref_loop_ms",
            (drain.ref_ms[0] + drain.ref_ms[1]) / 2.0,
            "ms",
        ),
        m("overload.offered_qps", offered, "1/s"),
    ];
    (metrics, failures)
}
