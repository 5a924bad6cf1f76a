//! Integration tests for device-resident cell state: the delta-merge path
//! and the memory-budgeted eviction must never change answers. A server
//! with residency enabled (any budget, any forced-eviction pattern) returns
//! kNN results byte-identical to a residency-disabled reference.

use std::collections::HashMap;

use ggrid::grid::CellId;
use ggrid::prelude::*;
use ggrid::residency::{ResidentCellStore, StagedTopo, TopologyStore};
use ggrid::CachedMessage;
use gpu_sim::{BufferId, BufferTag, Device, DeviceSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::{gen, EdgeId};

const EDGES: u32 = 160; // gen::toy edge count

fn config(device_budget_bytes: u64) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        device_budget_bytes,
        ..Default::default()
    }
}

/// Deterministically scatter a fleet over the toy graph.
fn seeded_server(seed: u64, budget: u64) -> GGridServer {
    let graph = gen::toy(seed);
    let s = GGridServer::new(graph, config(budget));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    for round in 0..4u64 {
        for o in 0..30u64 {
            let e = EdgeId(rng.gen_range(0..EDGES));
            s.handle_update(
                ObjectId(o),
                EdgePosition::at_source(e),
                Timestamp(100 + round),
            );
        }
    }
    s
}

#[test]
fn residency_ablation_answers_identical() {
    // Residency only removes simulated bus traffic — never changes answers.
    for seed in [5u64, 42] {
        let mut resident = seeded_server(seed, 64 << 20);
        let mut disabled = seeded_server(seed, 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = 900u64;
        for round in 0..6 {
            let q = EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES)));
            assert_eq!(
                resident.knn(q, 5, Timestamp(t)),
                disabled.knn(q, 5, Timestamp(t)),
                "seed {seed}, round {round}"
            );
            // Dirty a few cells so later cleans exercise the delta path.
            for o in 0..5u64 {
                t += 1;
                let e = EdgeId(rng.gen_range(0..EDGES));
                let p = EdgePosition::at_source(e);
                resident.handle_update(ObjectId(o), p, Timestamp(t));
                disabled.handle_update(ObjectId(o), p, Timestamp(t));
            }
        }
        assert!(resident.resident_cells() > 0);
        assert!(
            resident.counters().resident_hits > 0,
            "delta path never hit"
        );
        assert_eq!(disabled.counters().resident_hits, 0);
        assert_eq!(disabled.resident_cells(), 0);
    }
}

#[test]
fn delta_path_saves_h2d_bytes() {
    // A repeated-query workload with updates in between: the resident
    // server re-ships only deltas, the disabled server re-ships everything.
    let mut resident = seeded_server(11, 64 << 20);
    let mut disabled = seeded_server(11, 0);
    let q = EdgePosition::at_source(EdgeId(13));
    let mut t = 900u64;
    for _ in 0..8 {
        assert_eq!(
            resident.knn(q, 6, Timestamp(t)),
            disabled.knn(q, 6, Timestamp(t))
        );
        for o in 0..4u64 {
            t += 1;
            let p = EdgePosition::at_source(EdgeId(13 + (o as u32 % 3)));
            resident.handle_update(ObjectId(o), p, Timestamp(t));
            disabled.handle_update(ObjectId(o), p, Timestamp(t));
        }
    }
    let with = resident.counters();
    let without = disabled.counters();
    assert!(with.h2d_delta_bytes > 0);
    assert!(
        with.h2d_bytes < without.h2d_bytes,
        "residency must shrink total H2D traffic: {} vs {}",
        with.h2d_bytes,
        without.h2d_bytes
    );
}

#[test]
fn evicted_cell_falls_back_and_repromotes() {
    let mut s = seeded_server(7, 64 << 20);
    let edge = EdgeId(13);
    let q = EdgePosition::at_source(edge);
    s.knn(q, 4, Timestamp(900));
    assert!(s.is_resident(edge), "queried cell must be promoted");

    // Evict, dirty, re-query: the clean takes the full-upload path (no
    // resident hit, full bytes grow) and the answer is still correct.
    assert!(s.evict_resident(edge));
    assert!(!s.is_resident(edge));
    s.handle_update(ObjectId(0), EdgePosition::at_source(edge), Timestamp(950));
    let full_before = s.counters().h2d_full_bytes;
    let hits_before = s.counters().resident_hits;
    let got = s.knn(q, 4, Timestamp(1000));
    assert!(s.counters().h2d_full_bytes > full_before);
    assert_eq!(s.counters().resident_hits, hits_before);
    assert!(got.iter().any(|&(o, _)| o == ObjectId(0)));
    // ... and the cell is device-resident again.
    assert!(s.is_resident(edge), "full clean must re-promote");
    assert!(s.counters().evictions >= 1);
}

#[test]
fn tiny_budget_churns_but_stays_correct() {
    // A budget that fits roughly one cell forces constant LRU eviction;
    // answers still match the unconstrained server.
    let mut tiny = seeded_server(3, 256);
    let mut big = seeded_server(3, 64 << 20);
    let mut rng = SmallRng::seed_from_u64(99);
    let mut t = 900u64;
    for _ in 0..10 {
        t += 1;
        let q = EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES)));
        assert_eq!(tiny.knn(q, 4, Timestamp(t)), big.knn(q, 4, Timestamp(t)));
    }
    assert!(tiny.resident_bytes() <= 256);
    assert!(tiny.resident_bytes() <= tiny.device().residency().resident_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of appends, cleans, queries, and forced evictions
    /// gives byte-identical answers to a residency-disabled reference.
    /// `kind`: 0 = update, 1 = query, 2 = explicit clean, 3 = force-evict
    /// the cell, 4 = evict everything.
    #[test]
    fn residency_never_changes_answers(
        seed in 0u64..1000,
        budget_sel in 0usize..3,
        ops in prop::collection::vec((0u64..12, 0u32..160, 0u32..5), 4..40),
    ) {
        let budget = [512u64, 4096, 64 << 20][budget_sel];
        let graph = gen::toy(7);
        let mut resident = GGridServer::new(graph.clone(), config(budget));
        let mut reference = GGridServer::new(graph, config(0));
        let mut t = 100u64;
        for &(obj, edge, kind) in &ops {
            t += 1;
            let e = EdgeId(edge % EDGES);
            match kind {
                0 => {
                    let p = EdgePosition::at_source(e);
                    resident.handle_update(ObjectId(obj ^ seed), p, Timestamp(t));
                    reference.handle_update(ObjectId(obj ^ seed), p, Timestamp(t));
                }
                1 => {
                    let q = EdgePosition::at_source(e);
                    let got = resident.knn(q, 3, Timestamp(t));
                    let want = reference.knn(q, 3, Timestamp(t));
                    prop_assert_eq!(got, want, "divergence after {} ops", ops.len());
                }
                2 => {
                    resident.clean_cell_of_edge(e, Timestamp(t));
                    reference.clean_cell_of_edge(e, Timestamp(t));
                }
                3 => {
                    // Eviction is resident-only: the reference has nothing
                    // to evict, which is exactly the point.
                    resident.evict_resident(e);
                }
                _ => resident.evict_all_resident(),
            }
            let violations = resident.validate(Timestamp(t));
            prop_assert!(violations.is_empty(), "after op {:?}: {:?}", (obj, edge, kind), violations);
        }
        // Closing full-coverage query: every object's final position.
        let q = EdgePosition::at_source(EdgeId(seed as u32 % EDGES));
        prop_assert_eq!(
            resident.knn(q, 12, Timestamp(t + 1)),
            reference.knn(q, 12, Timestamp(t + 1))
        );
        // The budget is an invariant, not a hint.
        prop_assert!(resident.resident_bytes() <= budget);
    }
}

/// The stores' LRU as first written, kept as the reference model for the
/// indexed core: the victim is the minimum `(last_used, cell)` found by
/// scanning every entry, and the resident bytes are re-summed on demand.
struct NaiveLru {
    budget: u64,
    entries: HashMap<CellId, NaiveEntry>,
    tick: u64,
    evictions: u64,
}

struct NaiveEntry {
    buffer: BufferId,
    bytes: u64,
    last_used: u64,
    epoch: u64,
    mirror: Vec<CachedMessage>,
    tag: BufferTag,
}

impl NaiveLru {
    fn new(budget: u64) -> Self {
        Self {
            budget,
            entries: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    fn bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    fn remove(&mut self, d: &mut Device, c: CellId) -> u64 {
        self.entries
            .remove(&c)
            .map_or(0, |e| d.free_buffer(e.buffer))
    }

    fn evict(&mut self, d: &mut Device, c: CellId) -> bool {
        let was = self.remove(d, c) > 0;
        self.evictions += u64::from(was);
        was
    }

    fn evict_lru(&mut self, d: &mut Device) -> Option<CellId> {
        let (&victim, _) = self
            .entries
            .iter()
            .min_by_key(|(c, e)| (e.last_used, c.0))?;
        self.evict(d, victim);
        Some(victim)
    }

    fn touch(&mut self, c: CellId) -> bool {
        let Some(e) = self.entries.get_mut(&c) else {
            return false;
        };
        self.tick += 1;
        e.last_used = self.tick;
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        d: &mut Device,
        c: CellId,
        bytes: u64,
        pressure: u64,
        tag: BufferTag,
        epoch: u64,
        mirror: &[CachedMessage],
    ) -> bool {
        while self.bytes() + pressure + bytes > self.budget {
            if self.evict_lru(d).is_none() {
                return false;
            }
        }
        let buffer = loop {
            match d.alloc_buffer_tagged(bytes, tag) {
                Ok(b) => break b,
                Err(_) => {
                    if self.evict_lru(d).is_none() {
                        return false;
                    }
                }
            }
        };
        self.tick += 1;
        let last_used = self.tick;
        let mirror = mirror.to_vec();
        self.entries.insert(
            c,
            NaiveEntry {
                buffer,
                bytes,
                last_used,
                epoch,
                mirror,
                tag,
            },
        );
        true
    }
}

/// Reference [`ResidentCellStore`] + [`TopologyStore`] pair over one device.
struct NaiveStores {
    cells: NaiveLru,
    external: u64,
    topo: NaiveLru,
    hits: u64,
    misses: u64,
}

impl NaiveStores {
    fn install(
        &mut self,
        d: &mut Device,
        c: CellId,
        epoch: u64,
        m: &[CachedMessage],
        tag: BufferTag,
    ) -> bool {
        let bytes = m.len() as u64 * CachedMessage::WIRE_BYTES;
        self.cells.remove(d, c);
        if self.cells.budget == 0 || m.is_empty() || bytes > self.cells.budget {
            return false;
        }
        self.cells.insert(d, c, bytes, self.external, tag, epoch, m)
    }

    fn lookup(
        &mut self,
        d: &mut Device,
        c: CellId,
        cleaned: Option<u64>,
    ) -> Option<Vec<CachedMessage>> {
        let epoch = self.cells.entries.get(&c)?.epoch;
        if cleaned != Some(epoch) {
            self.cells.evict(d, c);
            return None;
        }
        self.cells.touch(c);
        Some(self.cells.entries[&c].mirror.clone())
    }

    fn reserve_external(&mut self, d: &mut Device, bytes: u64) {
        if self.cells.budget == 0 || bytes == 0 {
            return;
        }
        while self.cells.bytes() + self.external + bytes > self.cells.budget {
            if self.cells.evict_lru(d).is_none() {
                break;
            }
        }
        self.external += bytes;
    }

    fn ensure(&mut self, d: &mut Device, c: CellId, bytes: u64) -> bool {
        if self.topo.touch(c) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.topo.budget > 0 && bytes > 0 && bytes <= self.topo.budget {
            self.topo
                .insert(d, c, bytes, 0, BufferTag::Topology, 0, &[]);
        }
        false
    }

    fn stage(&mut self, d: &mut Device, cells: &[(CellId, u64)]) -> StagedTopo {
        let mut out = StagedTopo::default();
        for &(c, bytes) in cells {
            if self.ensure(d, c, bytes) {
                out.hits += 1;
            } else {
                out.misses += 1;
                out.bytes += bytes;
            }
        }
        out.time = d.h2d_staged(out.misses as usize, out.bytes);
        out.transactions_saved = out.misses.saturating_sub(1);
        out
    }
}

const LRU_CELLS: u32 = 10;

fn wire_msgs(n: u64, stamp: u64) -> Vec<CachedMessage> {
    (0..n)
        .map(|o| {
            CachedMessage::update(
                ObjectId(o),
                EdgePosition::at_source(EdgeId(0)),
                Timestamp(stamp + o),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both residency stores, driven by one random operation sequence on a
    /// shared card, behave step for step like the min-scan reference: same
    /// return values, same resident sets (hence the same victims), same
    /// counters, same bytes on the device under every tag.
    #[test]
    fn lru_core_matches_min_scan_reference(
        budget_sel in 0usize..4,
        ops in prop::collection::vec((0u32..16, 0u32..LRU_CELLS, 0u64..6, 0u64..4), 1..80),
    ) {
        // (store budget, bytes of the card left free): small budgets, a
        // disabled pair, and a budget larger than the card so the
        // out-of-memory retry loop evicts.
        let (budget, card_free) = [(320, 1 << 20), (0, 1 << 20), (1 << 30, 1500), (900, 1200)][budget_sel];
        let mut dr = Device::new(DeviceSpec::test_tiny());
        let mut dm = Device::new(DeviceSpec::test_tiny());
        dr.alloc((1 << 20) - card_free).unwrap();
        dm.alloc((1 << 20) - card_free).unwrap();
        let mut cells = ResidentCellStore::new(budget);
        let mut topo = TopologyStore::new(budget);
        let mut model = NaiveStores {
            cells: NaiveLru::new(budget),
            external: 0,
            topo: NaiveLru::new(budget),
            hits: 0,
            misses: 0,
        };
        for (step, &(kind, cell, size, epoch)) in ops.iter().enumerate() {
            let c = CellId(cell);
            let m = wire_msgs(size, 100 + step as u64);
            let topo_bytes = size * 100;
            match kind {
                0 | 1 => prop_assert_eq!(
                    topo.ensure(&mut dr, c, topo_bytes),
                    model.ensure(&mut dm, c, topo_bytes)
                ),
                2 => {
                    let round = [
                        (c, topo_bytes),
                        (CellId((cell + 1) % LRU_CELLS), 150),
                        (CellId((cell + 3) % LRU_CELLS), topo_bytes + 50),
                    ];
                    prop_assert_eq!(topo.stage(&mut dr, round), model.stage(&mut dm, &round));
                }
                3 | 4 => prop_assert_eq!(
                    cells.install(&mut dr, c, epoch, &m),
                    model.install(&mut dm, c, epoch, &m, BufferTag::General)
                ),
                5 => prop_assert_eq!(
                    cells.install_replica(&mut dr, c, epoch, &m),
                    model.install(&mut dm, c, epoch, &m, BufferTag::Replica)
                ),
                6 | 7 => {
                    // Epoch 3 is never installed: a stale lookup, as is `None`.
                    let cleaned = (size > 0).then_some(epoch);
                    prop_assert_eq!(
                        cells.lookup(&mut dr, c, cleaned).map(<[_]>::to_vec),
                        model.lookup(&mut dm, c, cleaned)
                    );
                }
                8 => prop_assert_eq!(cells.force_evict(&mut dr, c), model.cells.evict(&mut dm, c)),
                9 => prop_assert_eq!(topo.force_evict(&mut dr, c), model.topo.evict(&mut dm, c)),
                10 => {
                    cells.reserve_external(&mut dr, size * 40);
                    model.reserve_external(&mut dm, size * 40);
                }
                11 => {
                    cells.release_external(size * 40);
                    model.external = model.external.saturating_sub(size * 40);
                }
                12 => prop_assert_eq!(cells.evict_lru(&mut dr), model.cells.evict_lru(&mut dm)),
                13 => prop_assert_eq!(topo.evict_lru(&mut dr), model.topo.evict_lru(&mut dm)),
                14 => {
                    cells.clear(&mut dr);
                    for c in model.cells.entries.keys().copied().collect::<Vec<_>>() {
                        model.cells.remove(&mut dm, c);
                    }
                }
                _ => {
                    topo.clear(&mut dr);
                    for c in model.topo.entries.keys().copied().collect::<Vec<_>>() {
                        model.topo.evict(&mut dm, c);
                    }
                }
            }

            let ctx = format!("step {step}: op {:?}", ops[step]);
            for c in (0..LRU_CELLS).map(CellId) {
                prop_assert_eq!(cells.contains(c), model.cells.entries.contains_key(&c), "{}", ctx);
                prop_assert_eq!(topo.contains(c), model.topo.entries.contains_key(&c), "{}", ctx);
                prop_assert_eq!(
                    cells.is_replica(c),
                    model.cells.entries.get(&c).is_some_and(|e| e.tag == BufferTag::Replica),
                    "{}", ctx
                );
            }
            prop_assert_eq!(cells.evictions(), model.cells.evictions, "{}", ctx);
            prop_assert_eq!(topo.evictions(), model.topo.evictions, "{}", ctx);
            prop_assert_eq!((topo.hits(), topo.misses()), (model.hits, model.misses), "{}", ctx);
            prop_assert_eq!(cells.resident_bytes(), model.cells.bytes(), "{}", ctx);
            prop_assert_eq!(topo.resident_bytes(), model.topo.bytes(), "{}", ctx);
            prop_assert_eq!(cells.external_bytes(), model.external, "{}", ctx);
            for tag in [BufferTag::General, BufferTag::Replica, BufferTag::Topology] {
                prop_assert_eq!(dr.resident_bytes_tagged(tag), dm.resident_bytes_tagged(tag), "{}", ctx);
            }
            prop_assert_eq!(
                cells.resident_bytes(),
                dr.resident_bytes_tagged(BufferTag::General) + dr.resident_bytes_tagged(BufferTag::Replica),
                "{}", ctx
            );
            prop_assert_eq!(topo.resident_bytes(), dr.resident_bytes_tagged(BufferTag::Topology), "{}", ctx);
            prop_assert_eq!(dr.residency(), dm.residency(), "{}", ctx);
            prop_assert_eq!(dr.ledger(), dm.ledger(), "{}", ctx);
            prop_assert!(cells.resident_bytes() <= budget && topo.resident_bytes() <= budget, "{}", ctx);
        }
    }
}
