//! The answer check: an independent reference replays every update in
//! release order and answers kNN with a plain Dijkstra from `roadnet`.
//!
//! The server has one known ingest defect: same-object updates that share
//! a timestamp (or arrive late) are ordered differently by the object
//! table, tombstone placement and cleaning, so the object can vanish from
//! answers or show at one of its earlier positions. Updates are checked as
//! generated, so the defect shows as wrong answers. Each wrong answer is
//! then graded again: if every difference from the reference involves an
//! object with such an update, at a position it was sent to, the answer
//! counts as the known defect, otherwise as unexplained.

use std::collections::HashMap;

use ggrid::prelude::*;
use roadnet::{DijkstraEngine, Graph, SearchBounds, VertexId, INFINITY};

/// One object's newest update, plus the positions the known defect may
/// show it at.
struct Newest {
    pos: EdgePosition,
    time: Timestamp,
    /// Until the object's first same-stamp or late update: its newest
    /// position alone. From then on: every position it was ever sent, from
    /// the one before that update on, since a message the defect leaves
    /// behind is never cleaned away by later, newer updates.
    ambiguous: Vec<EdgePosition>,
}

impl Newest {
    /// The object has had a same-stamp or late update.
    fn hit(&self) -> bool {
        self.ambiguous.len() > 1
    }
}

/// Each object's newest update, newest by `(timestamp, arrival order)`,
/// indexed by the source vertex of its edge.
pub struct Reference<'g> {
    graph: &'g Graph,
    newest: HashMap<u64, Newest>,
    /// source vertex → objects whose newest position is on its out-edges.
    at_source: Vec<Vec<(u64, EdgePosition)>>,
    engine: DijkstraEngine<'g>,
}

/// How a served answer compares with the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Right,
    /// Wrong only in objects the known ingest defect has hit.
    KnownDefect,
    Wrong,
}

impl<'g> Reference<'g> {
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            newest: HashMap::new(),
            at_source: vec![Vec::new(); graph.num_vertices()],
            engine: DijkstraEngine::new(graph),
        }
    }

    fn source(&self, p: EdgePosition) -> usize {
        self.graph.edge(p.edge).source.index()
    }

    /// Apply one update; a later call wins over an equal timestamp and an
    /// older timestamp loses.
    pub fn update(&mut self, o: ObjectId, p: EdgePosition, t: Timestamp) {
        let Some(old) = self.newest.get_mut(&o.0) else {
            self.newest.insert(
                o.0,
                Newest {
                    pos: p,
                    time: t,
                    ambiguous: vec![p],
                },
            );
            self.at_source[self.graph.edge(p.edge).source.index()].push((o.0, p));
            return;
        };
        if t > old.time && !old.hit() {
            old.ambiguous.clear();
        }
        old.ambiguous.push(p);
        if t < old.time {
            return;
        }
        let (from, to) = (old.pos, p);
        old.pos = p;
        old.time = t;
        let list = &mut self.at_source[self.graph.edge(from.edge).source.index()];
        let i = list
            .iter()
            .position(|&(id, _)| id == o.0)
            .expect("indexed object");
        list.swap_remove(i);
        let s = self.source(to);
        self.at_source[s].push((o.0, to));
    }

    /// Every object within `radius` of `q` (at its newest position),
    /// sorted by (distance, id). Leaves the search state for `radius`.
    fn within(&mut self, q: EdgePosition, radius: Distance) -> Vec<(ObjectId, Distance)> {
        let bounds = if radius >= INFINITY / 4 {
            SearchBounds::UNBOUNDED
        } else {
            SearchBounds::radius(radius)
        };
        self.engine.run_from_position(q, bounds);
        // Objects ahead of `q` on its own edge are reached without leaving
        // the edge, so they are scanned whether or not the search settles
        // the edge's source.
        let q_source = VertexId(self.source(q) as u32);
        let mut found: Vec<(ObjectId, Distance)> = self
            .engine
            .settled()
            .iter()
            .chain(std::iter::once(&q_source))
            .flat_map(|v| self.at_source[v.index()].iter())
            .map(|&(o, p)| (ObjectId(o), self.engine.position_distance(q, p)))
            .filter(|&(_, d)| d <= bounds.max_dist && d < INFINITY)
            .collect();
        found.sort_unstable_by_key(|&(o, d)| (d, o));
        found.dedup();
        found
    }

    /// The exact k nearest objects to `q`, sorted by (distance, id).
    pub fn knn(&mut self, q: EdgePosition, k: usize) -> Vec<(ObjectId, Distance)> {
        let mut radius: Distance = 4_096;
        loop {
            let mut found = self.within(q, radius);
            if found.len() >= k || radius >= INFINITY / 4 {
                found.truncate(k);
                return found;
            }
            radius = radius.saturating_mul(4);
        }
    }

    /// Grade a served answer to a kNN query at `q`.
    pub fn grade(&mut self, q: EdgePosition, k: usize, served: &[(ObjectId, Distance)]) -> Answer {
        if served == self.knn(q, k) {
            Answer::Right
        } else if self.explained_by_defect(q, k, served) {
            Answer::KnownDefect
        } else {
            Answer::Wrong
        }
    }

    /// True, for an answer that differs from the reference, when every
    /// served object is at its newest position (or, for a hit object, at
    /// one of its ambiguous positions) and a hit object is served or left
    /// out. A hit object can be missing or shown at a stale position, and
    /// its stale copy also counts as a second candidate in the server's
    /// search, which can cut the search radius short and drop an untouched
    /// object just outside it.
    fn explained_by_defect(
        &mut self,
        q: EdgePosition,
        k: usize,
        served: &[(ObjectId, Distance)],
    ) -> bool {
        let sorted = served
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0));
        if !sorted || served.len() > k {
            return false;
        }
        let last = served.last().copied();
        let radius = match last {
            Some((_, d)) if served.len() == k => d,
            _ => INFINITY,
        };
        let near = self.within(q, radius);
        let placed = served.iter().all(|&(o, d)| {
            self.newest.get(&o.0).is_some_and(|n| {
                let candidates = if n.hit() {
                    &n.ambiguous[..]
                } else {
                    std::slice::from_ref(&n.pos)
                };
                candidates
                    .iter()
                    .any(|&p| self.engine.position_distance(q, p) == d)
            })
        });
        let cutoff = last.filter(|_| served.len() == k).map(|(o, d)| (d, o));
        let left_out = near
            .iter()
            .filter(|&&(o, d)| cutoff.is_none_or(|c| (d, o) < c))
            .filter(|(o, _)| !served.iter().any(|(s, _)| s == o));
        let hit = |o: &ObjectId| self.newest[&o.0].hit();
        let touched = served.iter().chain(left_out).any(|(o, _)| hit(o));
        placed && touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::{gen, EdgeId};

    fn at(e: u32) -> EdgePosition {
        EdgePosition::at_source(EdgeId(e))
    }

    #[test]
    fn grades_against_the_newest_update() {
        let g = gen::toy(42);
        let mut r = Reference::new(&g);
        for o in 0..6u64 {
            r.update(ObjectId(o), at(o as u32 * 20), Timestamp(1));
        }
        let q = at(3);
        let exact = r.knn(q, 3);
        assert_eq!(exact.len(), 3);
        assert_eq!(r.grade(q, 3, &exact), Answer::Right);

        // With no ambiguous update anywhere, a missing object or a wrong
        // distance is wrong.
        let mut missing = exact.clone();
        missing.remove(0);
        assert_eq!(r.grade(q, 3, &missing), Answer::Wrong);
        let mut bent = exact.clone();
        bent[2].1 += 1;
        assert_eq!(r.grade(q, 3, &bent), Answer::Wrong);

        // Object `o` moves twice within one timestamp: the later call
        // wins, and the defect may show it at either position or drop it.
        let o = exact[0].0;
        let (first, last) = (at(7), at(150));
        r.update(o, first, Timestamp(2));
        r.update(o, last, Timestamp(2));
        let exact = r.knn(q, 3);
        assert_eq!(r.grade(q, 3, &exact), Answer::Right);
        let mut without: Vec<_> = r.knn(q, 6).into_iter().filter(|&(x, _)| x != o).collect();
        without.truncate(3);
        if without != exact {
            assert_eq!(r.grade(q, 3, &without), Answer::KnownDefect);
        }
        r.engine.run_from_position(q, SearchBounds::UNBOUNDED);
        let ghost = (o, r.engine.position_distance(q, first));
        let mut shown: Vec<_> = without.iter().copied().chain([ghost]).collect();
        shown.sort_by_key(|&(x, d)| (d, x));
        shown.truncate(3);
        if shown != exact {
            assert_eq!(r.grade(q, 3, &shown), Answer::KnownDefect);
        }

        // An object never sent to a position is wrong even then.
        let mut foreign = exact.clone();
        foreign[0].1 += 1;
        foreign.sort_by_key(|&(x, d)| (d, x));
        assert_eq!(r.grade(q, 3, &foreign), Answer::Wrong);
    }

    #[test]
    fn older_update_loses() {
        let g = gen::toy(42);
        let mut r = Reference::new(&g);
        r.update(ObjectId(1), at(10), Timestamp(5));
        r.update(ObjectId(1), at(90), Timestamp(4));
        let q = at(10);
        assert_eq!(r.knn(q, 1), vec![(ObjectId(1), 0)]);
    }
}
