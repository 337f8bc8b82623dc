//! `construct`: from-scratch `CBTC(5π/6)` with op1 (shrink-back) and op3
//! (pairwise removal), repeated on one uniform 100k-node layout at the
//! paper's density (100 nodes per 1500 × 1500, `R = 500`).
//!
//! An item is a node. The timed runs call only `run_centralized`; the
//! traced run calls its phases one by one and checks that the composed
//! result equals `run_centralized`'s graph.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cbtc_core::parallel::par_map_with;
use cbtc_core::reconfig::GeometricMetric;
use cbtc_core::{
    construction_cell, grow_node_metric_scratch, opt, run_centralized, BasicOutcome, CbtcConfig,
    GrowScratch, Network, PAR_MIN_CHUNK,
};
use cbtc_geom::Alpha;
use cbtc_graph::{NodeId, SpatialGrid, UndirectedGraph};
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_workloads::RandomPlacement;

use crate::report::{median_setup, Outcome, Slice, Window};
use crate::spans::Tracer;
use crate::traced::{par_layer, pinned, write_spans, Mode, Rounds};
use crate::{verify, Args};

const NODES: usize = 100_000;

fn config() -> CbtcConfig {
    CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)
}

/// The seeded layout at the paper's density.
fn network(seed: u64) -> Network {
    let side = 1500.0 * (NODES as f64 / 100.0).sqrt();
    let model = PowerLaw::paper_default();
    let layout = RandomPlacement::new(NODES, side, side, model.max_range()).generate_layout(seed);
    Network::new(layout, model)
}

/// Set-up: the seeded layout and the warm-up construction, whose graph
/// every later one must equal. `setup_s` is the median build time. The
/// layout alone takes about 1 ms, too short to time steadily.
fn prepare(args: &Args, out: &mut Outcome) -> (f64, Network, UndirectedGraph) {
    let (setup_s, (net, reference)) = median_setup(|| {
        let net = network(args.seed);
        let reference = run_centralized(&net, &config()).into_final_graph();
        (net, reference)
    });
    out.info.push(("nodes", NODES.to_string()));
    (setup_s, net, reference)
}

/// One timed `run_centralized`, checked untimed against `reference`; a
/// mismatch or a panic fails the construction's nodes.
fn timed_construction(net: &Network, reference: &UndirectedGraph, out: &mut Outcome) -> Slice {
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| run_centralized(net, &config())));
    let dt = t.elapsed().as_secs_f64();
    let ok = run.is_ok_and(|r| r.final_graph() == reference);
    out.count(NODES as u64, !ok);
    Slice::new(NODES as u64, dt, vec![dt * 1e6 / NODES as f64])
}

/// The once-per-run untimed checks of the reference graph: it equals
/// the graph built on one thread, and keeps the max-power graph's
/// connectivity (Theorem 2.1).
fn check_reference(net: &Network, reference: &UndirectedGraph, out: &mut Outcome) -> bool {
    let single = pinned(|| run_centralized(net, &config()).into_final_graph());
    let same_on_one_thread = single == *reference;
    let connected = verify::keeps_connectivity(reference, &net.max_power_graph());
    out.info
        .push(("same_on_one_thread", same_on_one_thread.to_string()));
    out.info.push(("theorem_2_1", connected.to_string()));
    same_on_one_thread && connected
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, net, reference) = prepare(args, &mut out);
    let mut window = Window::default();
    while window.slices.is_empty() || window.wall_s() < args.seconds {
        let slice = timed_construction(&net, &reference, &mut out);
        window.slices.push(slice);
    }
    if !check_reference(&net, &reference, &mut out) {
        out.failed = out.attempted;
    }
    out.end_to_end(setup_s, &window);
    out
}

/// The phases of one construction, called one by one.
struct Phases {
    basic: BasicOutcome,
    shrunk: BasicOutcome,
    closure: UndirectedGraph,
    pairwise: opt::PairwiseOutcome,
}

/// One construction, phase by phase, each phase in its own span under a
/// `construct` span.
fn composed(net: &Network, tracer: &mut Tracer) -> Phases {
    let config = config();
    let (layout, r, alpha) = (net.layout(), net.max_range(), config.alpha());
    tracer.next_run();
    let outer = tracer.enter("construct");
    let grid = tracer.span("spatial.grid_build", || {
        SpatialGrid::from_layout(layout, construction_cell(layout, r, layout.len()))
    });
    let ids: Vec<NodeId> = layout.node_ids().collect();
    let views = tracer.span("grow", || {
        par_map_with(&ids, PAR_MIN_CHUNK, GrowScratch::new, |scratch, &u| {
            grow_node_metric_scratch(layout, &grid, &GeometricMetric, u, alpha, r, scratch)
        })
    });
    let basic = BasicOutcome::new(alpha, views);
    let shrunk = tracer.span("shrink_back", || opt::shrink_back(&basic));
    let closure = tracer.span("closure", || shrunk.symmetric_closure());
    let pairwise = tracer.span("pairwise", || {
        opt::pairwise_removal(&closure, layout, opt::PairwisePolicy::PowerReducing)
    });
    tracer.exit(outer);
    Phases {
        basic,
        shrunk,
        closure,
        pairwise,
    }
}

fn discoveries(o: &BasicOutcome) -> usize {
    o.views().iter().map(|v| v.discoveries.len()).sum()
}

pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (_, net, reference) = prepare(args, &mut out);
    let mut tracer = Tracer::new();
    let mut composed_ok = true;
    let mut last = None;
    let rounds = Rounds::measure(args.seconds, |mode| {
        if mode != Mode::Traced {
            return timed_construction(&net, &reference, &mut out);
        }
        let t = Instant::now();
        let phases = composed(&net, &mut tracer);
        let dt = t.elapsed().as_secs_f64();
        let ok = phases.pairwise.graph == reference;
        composed_ok &= ok;
        out.count(NODES as u64, !ok);
        last = Some(phases);
        Slice::new(NODES as u64, dt, vec![dt * 1e6 / NODES as f64])
    });
    out.info
        .push(("composed_equals_run_centralized", composed_ok.to_string()));
    if !check_reference(&net, &reference, &mut out) {
        out.failed = out.attempted;
    }

    let p = last.expect("at least one traced construction");
    let n = NODES as f64;
    let runs = rounds.traced.slices.len() as f64;
    let per_run = |name| tracer.total_ms(name) / runs;
    let m = &mut out.metrics;
    m.insert("spatial.grid_build_ms", per_run("spatial.grid_build"));
    m.insert("grow.ms", per_run("grow"));
    m.insert(
        "grow.discoveries_per_node",
        discoveries(&p.basic) as f64 / n,
    );
    let boundary = p.basic.views().iter().filter(|v| v.boundary).count();
    m.insert("grow.boundary_share", boundary as f64 / n);
    m.insert("shrink_back.ms", per_run("shrink_back"));
    let dropped = discoveries(&p.basic) - discoveries(&p.shrunk);
    m.insert("shrink_back.dropped_per_node", dropped as f64 / n);
    m.insert("closure.ms", per_run("closure"));
    m.insert("closure.edges", p.closure.edge_count() as f64);
    m.insert("pairwise.ms", per_run("pairwise"));
    m.insert(
        "pairwise.removed_share",
        p.pairwise.removed.len() as f64 / p.closure.edge_count().max(1) as f64,
    );
    let grow_wall_s = tracer.total_ms("grow") / 1e3;
    par_layer(&mut out, &rounds.par, rounds.traced.items(), grow_wall_s);
    rounds.compare(&mut out);
    write_spans(&tracer, args, "construct");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timed construction that differs from the reference fails all of
    /// its nodes.
    #[test]
    fn timed_construction_fails_against_a_wrong_reference() {
        let net = RandomPlacement::new(80, 1200.0, 1200.0, 500.0).generate(3);
        let good = run_centralized(&net, &config()).into_final_graph();
        let mut out = Outcome::default();
        timed_construction(&net, &good, &mut out);
        assert_eq!((out.attempted, out.failed), (NODES as u64, 0));

        let mut wrong = good.clone();
        let (a, b) = good.edges().next().expect("the test network has edges");
        wrong.remove_edge(a, b);
        timed_construction(&net, &wrong, &mut out);
        assert_eq!(
            (out.attempted, out.failed),
            (2 * NODES as u64, NODES as u64)
        );
    }
}
