//! The serve workloads' event source and group-commit admission.
//!
//! [`EventGen`] reproduces `cbtc serve`'s default single-stream
//! generator: the same RNG, seed derivation, move/join/death rule and
//! position shadow, so the benchmark drives the engine with the stream
//! `cbtc serve --seed <n>` would serve. The sequence depends on the seed
//! alone, never on how [`Admission`] cuts it into commits.

use cbtc_core::reconfig::NodeEvent;
use cbtc_geom::Point2;
use cbtc_graph::{Layout, NodeId};
use cbtc_workloads::ServiceConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `cbtc serve`'s deterministic churn generator.
pub struct EventGen {
    rng: StdRng,
    active_ids: Vec<NodeId>,
    standby_ids: Vec<NodeId>,
    positions: Vec<Point2>,
    min_active: usize,
    death_cut: u32,
    join_cut: u32,
    width: f64,
    height: f64,
    max_step: f64,
}

/// The initial membership of a served stream: the last
/// `standby_fraction` of the slots start in the standby pool.
pub fn initial_active(config: &ServiceConfig) -> Vec<bool> {
    let first_standby = first_standby(config);
    (0..config.nodes).map(|i| i < first_standby).collect()
}

fn first_standby(config: &ServiceConfig) -> usize {
    let standby = ((config.nodes as f64 * config.standby_fraction) as usize).min(config.nodes - 2);
    config.nodes - standby
}

impl EventGen {
    pub fn new(config: &ServiceConfig, layout: &Layout, seed: u64) -> Self {
        let first_standby = first_standby(config);
        EventGen {
            rng: StdRng::seed_from_u64(seed ^ 0x5E7C_E0D5),
            active_ids: (0..first_standby as u32).map(NodeId::new).collect(),
            standby_ids: (first_standby as u32..config.nodes as u32)
                .map(NodeId::new)
                .collect(),
            positions: layout.node_ids().map(|u| layout.position(u)).collect(),
            min_active: config.nodes / 2,
            death_cut: config.death_per_mille,
            join_cut: config.death_per_mille + config.join_per_mille,
            width: config.width,
            height: config.height,
            max_step: config.max_step,
        }
    }

    pub fn next_event(&mut self) -> NodeEvent {
        let roll: u32 = self.rng.gen_range(0..1000);
        if roll < self.death_cut && self.active_ids.len() > self.min_active {
            let victim = self
                .active_ids
                .swap_remove(self.rng.gen_range(0..self.active_ids.len()));
            self.standby_ids.push(victim);
            NodeEvent::Death(victim)
        } else if roll < self.join_cut && !self.standby_ids.is_empty() {
            let joiner = self
                .standby_ids
                .swap_remove(self.rng.gen_range(0..self.standby_ids.len()));
            self.active_ids.push(joiner);
            let p = Point2::new(
                self.rng.gen_range(0.0..self.width),
                self.rng.gen_range(0.0..self.height),
            );
            self.positions[joiner.index()] = p;
            NodeEvent::Join(joiner, p)
        } else {
            let mover = self.active_ids[self.rng.gen_range(0..self.active_ids.len())];
            let p = self.positions[mover.index()];
            let p = Point2::new(
                (p.x + self.rng.gen_range(-self.max_step..self.max_step)).clamp(0.0, self.width),
                (p.y + self.rng.gen_range(-self.max_step..self.max_step)).clamp(0.0, self.height),
            );
            self.positions[mover.index()] = p;
            NodeEvent::Move(mover, p)
        }
    }
}

/// Group-commit admission for a closed loop that is always backlogged:
/// a commit takes events until it holds `cap` of them or the next event
/// concerns a node already aboard; that conflicting event opens the
/// next commit.
pub struct Admission {
    cap: usize,
    pending: Option<NodeEvent>,
    /// Commits cut early by a node conflict.
    pub conflict_cuts: u64,
}

impl Admission {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a commit holds at least one event");
        Admission {
            cap,
            pending: None,
            conflict_cuts: 0,
        }
    }

    /// Fills `commit` (cleared first) with the next commit's events.
    pub fn next_commit(&mut self, gen: &mut EventGen, commit: &mut Vec<NodeEvent>) {
        commit.clear();
        if let Some(event) = self.pending.take() {
            commit.push(event);
        }
        while commit.len() < self.cap {
            let event = gen.next_event();
            if commit.iter().any(|e| e.node() == event.node()) {
                self.pending = Some(event);
                self.conflict_cuts += 1;
                return;
            }
            commit.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_workloads::RandomPlacement;

    fn setup(seed: u64) -> (ServiceConfig, Layout) {
        let config = ServiceConfig::sized(60, 0);
        let layout = RandomPlacement::new(config.nodes, config.width, config.height, 500.0)
            .generate_layout(seed);
        (config, layout)
    }

    fn commits(seed: u64, cap: usize, events: usize) -> (Vec<Vec<NodeEvent>>, u64) {
        let (config, layout) = setup(seed);
        let mut gen = EventGen::new(&config, &layout, seed);
        let mut admission = Admission::new(cap);
        let mut out = Vec::new();
        let mut total = 0;
        while total < events {
            let mut commit = Vec::new();
            admission.next_commit(&mut gen, &mut commit);
            total += commit.len();
            out.push(commit);
        }
        (out, admission.conflict_cuts)
    }

    #[test]
    fn same_seed_same_sequence_whatever_the_cap() {
        let flat = |c: Vec<Vec<NodeEvent>>| c.into_iter().flatten().take(2000).collect::<Vec<_>>();
        let one = flat(commits(7, 1, 2000).0);
        assert_eq!(one.len(), 2000);
        for cap in [2, 16, 64] {
            assert_eq!(flat(commits(7, cap, 2000).0), one, "cap {cap}");
        }
        assert_ne!(flat(commits(8, 1, 2000).0), one);
    }

    #[test]
    fn admission_never_repeats_a_node_and_conflicts_open_the_next_commit() {
        // 60 slots and cap 16: conflicts are frequent.
        let (commits, cuts) = commits(3, 16, 5000);
        assert!(cuts > 0);
        let mut seen_cuts = 0;
        for pair in commits.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            for (i, e) in a.iter().enumerate() {
                assert!(
                    a[..i].iter().all(|x| x.node() != e.node()),
                    "node twice in a commit"
                );
            }
            assert!(!a.is_empty() && a.len() <= 16);
            if a.len() < 16 {
                // Cut early: the next commit starts with the conflicting event.
                assert!(a.iter().any(|x| x.node() == b[0].node()));
                seen_cuts += 1;
            }
        }
        assert!(seen_cuts > 0);
    }

    /// Driving the engine with this generator ends where `cbtc serve`
    /// ends on the same seed: same event mix, same final topology.
    #[test]
    fn reproduces_cbtc_serve_stream() {
        use cbtc_core::reconfig::{DeltaTopology, GeometricMetric};
        use cbtc_core::CbtcConfig;
        use cbtc_workloads::run_service;

        let config = ServiceConfig::sized(300, 1500);
        let seed = 9;
        let served = run_service(&config, seed);
        let layout = RandomPlacement::new(config.nodes, config.width, config.height, 500.0)
            .generate_layout(seed);
        let mut gen = EventGen::new(&config, &layout, seed);
        let mut topo = DeltaTopology::new(
            layout,
            initial_active(&config),
            500.0,
            CbtcConfig::new(config.alpha),
            false,
            GeometricMetric,
        );
        let (mut moves, mut joins, mut deaths) = (0, 0, 0);
        for _ in 0..config.events {
            let event = gen.next_event();
            match event {
                NodeEvent::Move(..) => moves += 1,
                NodeEvent::Join(..) => joins += 1,
                NodeEvent::Death(_) => deaths += 1,
            }
            topo.apply(&[event]);
        }
        assert_eq!(
            (moves, joins, deaths),
            (served.moves, served.joins, served.deaths)
        );
        assert_eq!(topo.graph().edge_count() as u64, served.final_edges);
        let active = topo.active().iter().filter(|a| **a).count();
        assert_eq!(active as u32, served.final_active);
    }

    #[test]
    fn churn_mix_is_mostly_moves() {
        let (commits, _) = commits(5, 1, 4000);
        let moves = commits
            .iter()
            .flatten()
            .filter(|e| matches!(e, NodeEvent::Move(..)))
            .count();
        assert!((3400..3800).contains(&moves), "{moves} moves of 4000");
    }
}
