//! The benchmark's own tests, on shrunken workloads: the same seed gives
//! the same inputs and the same modeled device work, and a whole iteration
//! runs with its answer check and its closure checks passing.

use ggrid::stats::ServerCounters;
use ggrid_e2ebench::layers;
use ggrid_e2ebench::run;
use ggrid_e2ebench::spec::{self, Spec};

/// Counters of modeled device work, which must not depend on host timing.
fn modeled(c: &ServerCounters) -> [u64; 8] {
    [
        c.updates_ingested,
        c.kernel_launches,
        c.gpu_time.0,
        c.h2d_bytes,
        c.messages_cleaned,
        c.sdist_rounds,
        c.topo_misses,
        c.subs_ticks,
    ]
}

#[test]
fn same_seed_same_schedule_and_modeled_counters() {
    for s in spec::ALL {
        let tiny = s.tiny();
        let run = || {
            let mut setup = spec::setup(&tiny, 5);
            let schedules = spec::schedules(&tiny, 5, &setup);
            let after_setup = modeled(&setup.server.counters());
            let drain = run::drain(&mut setup.server, &tiny, &schedules.fixed, true);
            let answers: Vec<_> = drain.records.iter().map(|r| r.answer.clone()).collect();
            let c = drain.counters.expect("traced");
            (
                format!("{:?}{:?}", schedules.fixed, schedules.overload),
                after_setup,
                modeled(&c[1]),
                answers,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0, b.0, "{}: schedule differs", s.name);
        assert_eq!(a.1, b.1, "{}: set-up counters differ", s.name);
        assert_eq!(a.2, b.2, "{}: drain counters differ", s.name);
        assert_eq!(a.3, b.3, "{}: answers differ", s.name);
    }
}

#[test]
fn other_seed_other_schedule() {
    let tiny = spec::SERVE_READ.tiny();
    let schedule = |seed| {
        let setup = spec::setup(&tiny, seed);
        format!("{:?}", spec::schedules(&tiny, seed, &setup).fixed)
    };
    assert_ne!(schedule(1), schedule(2));
}

#[test]
fn smoke_iteration_checks_pass() {
    for s in spec::ALL {
        let tiny = s.tiny();
        let it = run::iteration(&tiny, 3, true, true);
        let verdict = it.verdict.expect("checked");
        assert_eq!(
            verdict.attempted as usize,
            tiny.queries + tiny.overload_queries + tiny.subscriptions
        );
        assert_eq!(verdict.unexplained(), 0, "{}: {verdict:?}", s.name);
        assert_eq!(it.fixed.report.queries as usize, tiny.queries);
        let (metrics, failures) = layers::measure(&tiny, &it);
        let closure: Vec<_> = failures.iter().filter(|f| f.contains("closure")).collect();
        assert!(closure.is_empty(), "{}: {closure:?}", s.name);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn workloads_are_named_once() {
    for s in spec::ALL {
        assert_eq!(Spec::by_name(s.name).map(|x| x.name), Some(s.name));
    }
    assert!(Spec::by_name("nope").is_none());
}
