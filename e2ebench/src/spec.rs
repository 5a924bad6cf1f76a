//! The three workloads: their constants, set-up and arrival schedules.
//!
//! Every rate below is a fixed constant sized once from trial runs on a
//! 2-core x86-64 box; nothing is recalibrated from timings at run time, so
//! a faster server shows up as lower latency and higher capacity instead of
//! as a harder schedule.

use std::sync::Arc;

use ggrid::prelude::*;
use ggrid::serve::ServeConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::gen::{self, Dataset};
use workload::{poisson_arrivals, random_position, Arrival, CellWindowSampler, OpenLoopConfig};

use crate::host::CpuClock;

/// k of every query and subscription.
pub const K: usize = 8;
/// Graph generator seed: the road network is the fixed dataset, only the
/// fleet and the schedule follow `--seed`.
pub const GRAPH_SEED: u64 = 42;
/// Timestamp of the initial fleet (one timestamp unit = one `NOW_QUANTUM_NS`).
const FLEET_STAMP: u64 = 900;
/// Timestamp of the warm-up queries and the subscriptions.
const WARM_STAMP: u64 = 950;
/// First timestamp of the fixed-rate phase.
const BASE_STAMP: u64 = 1_000;
/// Arrivals within one quantum share a query timestamp and so may share a
/// device batch.
pub const NOW_QUANTUM_NS: u64 = 10_000_000;
/// Warm-up queries run through `knn_batch` at the end of set-up.
const WARM_QUERIES: usize = 64;

/// Queries and writes confined to a window of z-order cells around a shard
/// boundary.
#[derive(Clone, Copy, Debug)]
pub struct Hotspot {
    /// Share of queries drawn inside the window; the rest are uniform.
    pub query_share: f64,
    /// Window width as a share of all grid cells, centred on the boundary
    /// between shard 0 and shard 1.
    pub width: f64,
}

/// One workload's constants.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// The graph is the NY dataset with its vertex count divided by this.
    pub graph_scale: u32,
    /// Simulated devices (shards).
    pub devices: usize,
    /// Objects in the fleet.
    pub fleet: u64,
    /// Fixed offered query rate, queries per modeled second.
    pub query_rate_hz: f64,
    /// Update waves per modeled second.
    pub wave_rate_hz: f64,
    /// Updates per wave.
    pub wave: usize,
    /// Queries in the fixed-rate phase.
    pub queries: usize,
    /// Queries in the overload phase.
    pub overload_queries: usize,
    /// The overload phase offers every rate times this, well above what
    /// the server can answer.
    pub overload_factor: f64,
    /// Standing kNN subscriptions registered at set-up.
    pub subscriptions: usize,
    /// Released requests per maintenance epoch (0 = none).
    pub epoch_requests: u64,
    /// Device-memory budget; `None` keeps the server default.
    pub device_budget_bytes: Option<u64>,
    pub hotspot: Option<Hotspot>,
    /// The layer this workload exists to load; the traced run fails if it
    /// stops doing so.
    pub loads: Layer,
}

/// Layers a workload can be built to load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Device residency under a budget smaller than the working set.
    Residency,
    /// Buffered ingest.
    Ingest,
    /// Cross-shard execution.
    Shard,
}

pub const SERVE_READ: Spec = Spec {
    name: "serve_read",
    graph_scale: 3,
    devices: 1,
    fleet: 50_000,
    query_rate_hz: 5_400.0,
    wave_rate_hz: 200.0,
    wave: 32,
    queries: 1_000,
    overload_queries: 200,
    overload_factor: 4.0,
    subscriptions: 0,
    epoch_requests: 0,
    device_budget_bytes: Some(2 << 20),
    hotspot: None,
    loads: Layer::Residency,
};

pub const INGEST_STORM: Spec = Spec {
    name: "ingest_storm",
    graph_scale: 12,
    devices: 1,
    fleet: 100_000,
    query_rate_hz: 1_000.0,
    wave_rate_hz: 400.0,
    wave: 256,
    queries: 1_200,
    overload_queries: 1_200,
    overload_factor: 32.0,
    subscriptions: 1_024,
    epoch_requests: 256,
    device_budget_bytes: None,
    hotspot: None,
    loads: Layer::Ingest,
};

pub const SHARD_HOTSPOT: Spec = Spec {
    name: "shard_hotspot",
    graph_scale: 12,
    devices: 4,
    fleet: 20_000,
    query_rate_hz: 33_000.0,
    wave_rate_hz: 200.0,
    wave: 16,
    queries: 4_000,
    overload_queries: 4_000,
    overload_factor: 4.0,
    subscriptions: 0,
    epoch_requests: 512,
    device_budget_bytes: None,
    hotspot: Some(Hotspot {
        query_share: 0.7,
        width: 1.0 / 16.0,
    }),
    loads: Layer::Shard,
};

pub const ALL: [Spec; 3] = [SERVE_READ, INGEST_STORM, SHARD_HOTSPOT];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        ALL.into_iter().find(|s| s.name == name)
    }

    /// The same workload shrunk for tests: a smaller graph, fleet and
    /// schedule, every mechanism still switched on.
    pub fn tiny(self) -> Spec {
        Spec {
            graph_scale: 400,
            fleet: 2_000,
            queries: 120,
            overload_queries: 60,
            subscriptions: self.subscriptions.min(32),
            epoch_requests: self.epoch_requests.min(64),
            ..self
        }
    }

    pub fn server_config(&self) -> GGridConfig {
        let mut cfg = GGridConfig {
            refine_workers: 1,
            ingest_workers: 1,
            num_devices: self.devices,
            t_delta_ms: 1 << 40,
            ..Default::default()
        };
        if let Some(b) = self.device_budget_bytes {
            cfg.device_budget_bytes = b;
        }
        cfg
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            shed_wait_ns: u64::MAX,
            client_queue_bound: 0,
            epoch_requests: self.epoch_requests,
            ..Default::default()
        }
    }

    fn openloop(&self, seed: u64, queries: usize, rate: f64, base_stamp: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            seed,
            queries,
            query_rate_hz: self.query_rate_hz * rate,
            ingest_rate_hz: self.wave_rate_hz * rate,
            ingest_wave: self.wave,
            objects: self.fleet,
            k: K,
            now_quantum_ns: NOW_QUANTUM_NS,
            base_ms: base_stamp,
        }
    }
}

/// On-CPU seconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSteps {
    pub graph_s: f64,
    pub server_s: f64,
    pub fleet_s: f64,
    pub subs_s: f64,
    pub warm_s: f64,
}

/// A server ready for its first request, plus what the schedule and the
/// answer check need to know about how it was built.
pub struct Setup {
    pub server: GGridServer,
    pub fleet: Vec<(ObjectId, EdgePosition, Timestamp)>,
    pub subscriptions: Vec<(SubscriptionId, EdgePosition)>,
    pub hot_window: Option<std::ops::Range<u32>>,
    pub steps: SetupSteps,
}

/// Everything from graph generation to the warm-up queries.
pub fn setup(spec: &Spec, seed: u64) -> Setup {
    let mut steps = SetupSteps::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf1ee7);

    let t = CpuClock::start();
    let graph = gen::dataset(Dataset::NY, spec.graph_scale, GRAPH_SEED);
    steps.graph_s = t.seconds();

    let t = CpuClock::start();
    let mut server = GGridServer::new(graph, spec.server_config());
    steps.server_s = t.seconds();

    let t = CpuClock::start();
    let graph = Arc::clone(server.graph());
    let fleet: Vec<_> = (0..spec.fleet)
        .map(|o| {
            let p = random_position(&graph, &mut rng);
            (ObjectId(o), p, Timestamp(FLEET_STAMP))
        })
        .collect();
    server.ingest_batch(&fleet);
    steps.fleet_s = t.seconds();

    let t = CpuClock::start();
    let subscriptions = (0..spec.subscriptions)
        .map(|_| {
            let q = random_position(&graph, &mut rng);
            (server.subscribe_knn(q, K, Timestamp(WARM_STAMP)), q)
        })
        .collect();
    steps.subs_s = t.seconds();

    let t = CpuClock::start();
    let warm: Vec<(EdgePosition, usize)> = (0..WARM_QUERIES)
        .map(|_| (random_position(&graph, &mut rng), K))
        .collect();
    server.knn_batch(&warm, Timestamp(WARM_STAMP));
    steps.warm_s = t.seconds();

    let hot_window = spec.hotspot.map(|h| hot_window(&server, h));
    Setup {
        server,
        fleet,
        subscriptions,
        hot_window,
        steps,
    }
}

/// Cells `[b − w/2, b + w/2)` around the first shard boundary `b`.
fn hot_window(server: &GGridServer, h: Hotspot) -> std::ops::Range<u32> {
    let ranges = server.shard_ranges();
    assert!(
        ranges.len() >= 2,
        "a hotspot workload needs at least two shards"
    );
    let boundary = ranges[0].end;
    let half = ((server.grid().num_cells() as f64 * h.width) / 2.0).ceil() as u32;
    boundary.saturating_sub(half)..boundary + half
}

/// The two phases' arrival schedules.
pub struct Schedules {
    pub fixed: Vec<Arrival>,
    pub overload: Vec<Arrival>,
}

/// The fixed-rate schedule and the overload schedule (same mix, every rate
/// times `overload_factor`, timestamps after the fixed phase's).
pub fn schedules(spec: &Spec, seed: u64, setup: &Setup) -> Schedules {
    let graph = setup.server.graph();
    let fixed = shape(
        spec,
        seed,
        setup,
        poisson_arrivals(graph, &spec.openloop(seed, spec.queries, 1.0, BASE_STAMP)),
    );
    let next_stamp = fixed.iter().map(stamp).max().unwrap_or(BASE_STAMP) + 1;
    let overload_seed = seed ^ 0x0e7e_10ad;
    let overload = shape(
        spec,
        overload_seed,
        setup,
        poisson_arrivals(
            graph,
            &spec.openloop(
                overload_seed,
                spec.overload_queries,
                spec.overload_factor,
                next_stamp,
            ),
        ),
    );
    Schedules { fixed, overload }
}

/// The timestamp an arrival carries.
pub fn stamp(a: &Arrival) -> u64 {
    match a {
        Arrival::Query { now, .. } => now.0,
        Arrival::Ingest { updates, .. } => updates.iter().map(|u| u.2 .0).max().unwrap_or(0),
    }
}

/// Confine a schedule to the hot window: every update and a share of the
/// queries move to a position inside it. Objects, stamps and arrival times
/// stay as generated.
fn shape(spec: &Spec, seed: u64, setup: &Setup, mut arrivals: Vec<Arrival>) -> Vec<Arrival> {
    let (Some(h), Some(window)) = (spec.hotspot, setup.hot_window.clone()) else {
        return arrivals;
    };
    let mut hot = CellWindowSampler::new(setup.server.grid(), window, seed ^ 0x4075);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ba7e);
    for a in &mut arrivals {
        match a {
            Arrival::Query { q, .. } => {
                if rng.gen_bool(h.query_share) {
                    *q = hot.position();
                }
            }
            Arrival::Ingest { updates, .. } => {
                for u in updates.iter_mut() {
                    u.1 = hot.position();
                }
            }
        }
    }
    arrivals
}
