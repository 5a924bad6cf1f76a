//! One measured iteration: set up, drain the fixed-rate schedule, drain the
//! overload schedule, and (on request) check every answer.

use std::collections::HashMap;

use ggrid::prelude::*;
use ggrid::serve::{QueryRecord, ServeReport};
use ggrid::stats::ServerCounters;
use workload::Arrival;

use crate::check::{Answer, Reference};
use crate::host::{reference_loop_ms, CpuClock, REFERENCE_LOOP_MS};
use crate::spec::{self, Schedules, Setup, SetupSteps, Spec, K};

/// One `serve` drain of a pre-enqueued schedule.
pub struct Drain {
    pub records: Vec<QueryRecord>,
    pub report: ServeReport,
    /// On-CPU seconds of the process across `serve`.
    pub cpu_s: f64,
    /// Wall seconds across `serve`, for diagnosis.
    pub wall_s: f64,
    /// Reference-loop milliseconds just before and just after the drain.
    pub ref_ms: [f64; 2],
    /// Server counters around the drain, when traced.
    pub counters: Option<[ServerCounters; 2]>,
}

impl Drain {
    /// Modeled latency of every answered query, sorted ascending.
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|r| !r.shed)
            .map(|r| r.latency_ns())
            .collect();
        v.sort_unstable();
        v
    }

    /// On-CPU µs per answered query.
    pub fn host_us_per_q(&self) -> f64 {
        self.cpu_s * 1e6 / self.report.queries.max(1) as f64
    }

    /// Mean reference-loop time around the drain.
    pub fn ref_loop_ms(&self) -> f64 {
        (self.ref_ms[0] + self.ref_ms[1]) / 2.0
    }

    /// [`Self::host_us_per_q`] scaled to a machine on which the reference
    /// loop takes [`REFERENCE_LOOP_MS`].
    pub fn host_us_per_q_normalized(&self) -> f64 {
        self.host_us_per_q() * REFERENCE_LOOP_MS / self.ref_loop_ms()
    }
}

/// Result of the answer check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Queries sent plus subscriptions checked.
    pub attempted: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// The part of `wrong` that the known ingest defect explains.
    pub known_defect: u64,
    /// Queries shed unanswered.
    pub shed: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.wrong + self.shed
    }

    /// Wrong answers nothing known explains.
    pub fn unexplained(&self) -> u64 {
        self.wrong - self.known_defect
    }

    fn grade(&mut self, answer: Answer) {
        self.attempted += 1;
        match answer {
            Answer::Right => {}
            Answer::KnownDefect => {
                self.wrong += 1;
                self.known_defect += 1;
            }
            Answer::Wrong => self.wrong += 1,
        }
    }
}

/// Everything one iteration measured.
pub struct Iteration {
    /// On-CPU seconds of the process across set-up.
    pub setup_cpu_s: f64,
    pub setup_wall_s: f64,
    pub steps: SetupSteps,
    pub fixed: Drain,
    pub overload: Drain,
    pub verdict: Option<Verdict>,
}

/// Pre-enqueue `schedule` on one client (no in-flight bound, so the whole
/// schedule is queued before the loop starts), then serve it on this
/// thread.
pub fn drain(server: &mut GGridServer, spec: &Spec, schedule: &[Arrival], traced: bool) -> Drain {
    let cfg = spec.serve_config();
    let mut queue = ServeQueue::new(&cfg);
    let mut client = queue.client();
    for a in schedule {
        match a.clone() {
            Arrival::Query { at_ns, q, k, now } => client.query(q, k, now, at_ns),
            Arrival::Ingest { at_ns, updates } => client.ingest(updates, at_ns),
        }
    }
    drop(client);

    let ref_before = reference_loop_ms();
    let before = traced.then(|| server.counters());
    let clock = CpuClock::start();
    let outcome = serve(server, &cfg, queue);
    let (cpu_s, wall_s) = (clock.seconds(), clock.wall_seconds());
    let counters = before.map(|b| [b, server.counters()]);
    let ref_after = reference_loop_ms();
    Drain {
        records: outcome.records,
        report: outcome.report,
        cpu_s,
        wall_s,
        ref_ms: [ref_before, ref_after],
        counters,
    }
}

/// One iteration. `check` runs the answer check after both drains.
pub fn iteration(spec: &Spec, seed: u64, traced: bool, check: bool) -> Iteration {
    let clock = CpuClock::start();
    let mut setup = spec::setup(spec, seed);
    let (setup_cpu_s, setup_wall_s) = (clock.seconds(), clock.wall_seconds());

    let schedules = spec::schedules(spec, seed, &setup);
    let fixed = drain(&mut setup.server, spec, &schedules.fixed, traced);
    let overload = drain(&mut setup.server, spec, &schedules.overload, traced);
    let verdict = check.then(|| verify(&mut setup, &schedules, [&fixed, &overload]));
    Iteration {
        setup_cpu_s,
        setup_wall_s,
        steps: setup.steps,
        fixed,
        overload,
        verdict,
    }
}

/// Compare every served answer, and every subscription after a final tick,
/// with the reference. Runs after the drains, outside every timed span.
pub fn verify(setup: &mut Setup, schedules: &Schedules, drains: [&Drain; 2]) -> Verdict {
    let phases = [&schedules.fixed, &schedules.overload];
    let last_now = phases.iter().flat_map(|s| s.iter()).map(spec::stamp).max();
    let mut standing = Vec::new();
    if !setup.subscriptions.is_empty() {
        setup
            .server
            .tick_subscriptions(Timestamp(last_now.unwrap_or(0)));
        for &(id, q) in &setup.subscriptions {
            let served = setup.server.subscription_result(id).unwrap_or(&[]);
            standing.push((q, served.to_vec()));
        }
    }

    let mut reference = Reference::new(setup.server.graph());
    for &(o, p, t) in &setup.fleet {
        reference.update(o, p, t);
    }
    let mut verdict = Verdict::default();
    for (schedule, drain) in phases.into_iter().zip(drains) {
        // One client: a record's `seq` is its index in the schedule.
        let by_seq: HashMap<u64, &QueryRecord> = drain.records.iter().map(|r| (r.seq, r)).collect();
        for (seq, a) in schedule.iter().enumerate() {
            match a {
                Arrival::Ingest { updates, .. } => {
                    for &(o, p, t) in updates {
                        reference.update(o, p, t);
                    }
                }
                Arrival::Query { q, k, .. } => match by_seq.get(&(seq as u64)) {
                    Some(r) if !r.shed => verdict.grade(reference.grade(*q, *k, &r.answer)),
                    _ => {
                        verdict.attempted += 1;
                        verdict.shed += 1;
                    }
                },
            }
        }
    }
    for (q, served) in &standing {
        verdict.grade(reference.grade(*q, K, served));
    }
    verdict
}
