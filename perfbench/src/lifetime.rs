//! `lifetime`: `LifetimeSim` at the paper's density (100 nodes per
//! 1500 × 1500, `R = 500`) under `all_applicable(5π/6)`, uniform traffic
//! of one packet per node per epoch, the paper-default energy model and
//! battery.
//!
//! An item is an epoch (`LifetimeSim::step`). One simulation runs a
//! fixed window of epochs from full batteries, long enough to include
//! the first deaths and the partition; a run simulates layouts with
//! successive sub-seeds until `--seconds` of stepping are measured.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cbtc_core::{CbtcConfig, Network};
use cbtc_energy::{LifetimeConfig, LifetimeSim, TopologyPolicy};
use cbtc_geom::Alpha;
use cbtc_metrics::{MetricsRegistry, MetricsSnapshot};
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_workloads::RandomPlacement;

use crate::report::{median_setup, Outcome, Slice, Window};
use crate::spans::Tracer;
use crate::traced::{par_layer, write_spans, Mode, Rounds};
use crate::{verify, Args};

const NODES: usize = 300;
/// Epochs per simulation, from full batteries.
const EPOCHS: u32 = 1000;
/// Epochs stepped on a throwaway copy at the end of each set-up build.
const WARMUP_EPOCHS: u32 = 100;

fn config() -> CbtcConfig {
    CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)
}

/// Layout and simulation `i` of a run, on a decorrelated sub-seed
/// (simulation 0 uses the run's seed itself).
fn build(seed: u64, i: u64) -> (Network, LifetimeSim) {
    let seed = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let side = 1500.0 * (NODES as f64 / 100.0).sqrt();
    let model = PowerLaw::paper_default();
    let layout = RandomPlacement::new(NODES, side, side, model.max_range()).generate_layout(seed);
    let network = Network::new(layout, model);
    let life = LifetimeConfig {
        packets_per_epoch: NODES as u32,
        max_epochs: EPOCHS,
        ..LifetimeConfig::paper_default()
    };
    let sim = LifetimeSim::new(network.clone(), TopologyPolicy::Cbtc(config()), life, seed);
    (network, sim)
}

struct Prepared {
    seed: u64,
    first: (Network, LifetimeSim),
}

fn prepare(args: &Args, out: &mut Outcome) -> (f64, Prepared) {
    // A build is simulation 0 and its warm-up on a throwaway copy, so
    // the timed window still starts from full batteries.
    let (setup_s, first) = median_setup(|| {
        let first = build(args.seed, 0);
        let mut warm = first.1.clone();
        for _ in 0..WARMUP_EPOCHS {
            warm.step();
        }
        first
    });
    out.info.push(("nodes", NODES.to_string()));
    out.info.push(("epochs_per_sim", EPOCHS.to_string()));
    (
        setup_s,
        Prepared {
            seed: args.seed,
            first,
        },
    )
}

impl Prepared {
    /// Layout and simulation `i` of the run, before its first epoch.
    fn sim(&self, i: u64) -> (Network, LifetimeSim) {
        if i == 0 {
            self.first.clone()
        } else {
            build(self.seed, i)
        }
    }
}

/// Steps a simulation epoch by epoch (each epoch timed, and a span when
/// traced) and checks it at the end of its window against a from-scratch
/// masked construction over the survivors. A mismatch or a panic fails
/// the simulation's epochs. Epochs with at least one death are counted
/// into `death_epochs`.
fn sim_slice(
    (network, mut sim): (Network, LifetimeSim),
    mut tracer: Option<&mut Tracer>,
    registry: &MetricsRegistry,
    death_epochs: &mut u64,
    out: &mut Outcome,
) -> Slice {
    sim.set_metrics(registry);
    let (mut wall_s, mut latency_us) = (0.0, Vec::with_capacity(EPOCHS as usize));
    let stepped = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..EPOCHS {
            let alive = sim.alive_count();
            let open = tracer.as_deref_mut().map(|t| {
                t.next_run();
                t.enter("epoch")
            });
            let t = Instant::now();
            sim.step();
            let dt = t.elapsed().as_secs_f64();
            if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
                t.exit(open);
            }
            wall_s += dt;
            latency_us.push(dt * 1e6);
            *death_epochs += u64::from(sim.alive_count() < alive);
        }
    }));
    let ok = stepped.is_ok() && {
        let alive: Vec<bool> = sim.batteries().iter().map(|b| b.is_alive()).collect();
        verify::matches_scratch(sim.topology(), network.layout(), &alive, &config())
    };
    out.count(u64::from(EPOCHS), !ok);
    Slice::new(u64::from(EPOCHS), wall_s, latency_us)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, prepared) = prepare(args, &mut out);
    let off = MetricsRegistry::disabled();
    let mut window = Window::default();
    for i in 0.. {
        if !window.slices.is_empty() && window.wall_s() >= args.seconds {
            break;
        }
        let slice = sim_slice(prepared.sim(i), None, &off, &mut 0, &mut out);
        window.slices.push(slice);
    }
    out.info.push(("sims", window.slices.len().to_string()));
    out.end_to_end(setup_s, &window);
    out
}

fn nanos_ms(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6)
}

pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (_, prepared) = prepare(args, &mut out);
    let off = MetricsRegistry::disabled();
    let mut tracer = Tracer::new();
    let registry = MetricsRegistry::enabled();
    let mut death_epochs = 0;
    // Each round runs one simulation three times: untraced, traced and
    // pinned. It is built before its untraced slice, so the traced
    // slice's fan-out series see only the epochs.
    let mut next = 0;
    let mut round_sim = None;
    let rounds = Rounds::measure(args.seconds, |mode| {
        if mode == Mode::Untraced {
            round_sim = Some(prepared.sim(next));
            next += 1;
        }
        let start = round_sim
            .clone()
            .expect("the untraced slice builds the round's simulation");
        match mode {
            Mode::Traced => sim_slice(
                start,
                Some(&mut tracer),
                &registry,
                &mut death_epochs,
                &mut out,
            ),
            Mode::Untraced | Mode::Pinned => sim_slice(start, None, &off, &mut 0, &mut out),
        }
    });

    let life = registry.snapshot();
    let epochs = rounds.traced.items().max(1) as f64;
    let m = &mut out.metrics;
    for (metric, series) in [
        ("lifetime.traffic_ms", "lifetime.nanos.traffic"),
        ("lifetime.standby_ms", "lifetime.nanos.standby"),
        ("lifetime.reconfig_ms", "lifetime.nanos.reconfig"),
        ("lifetime.partition_ms", "lifetime.nanos.partition"),
    ] {
        m.insert(metric, nanos_ms(&life, series) / epochs);
    }
    m.insert("lifetime.death_epoch_share", death_epochs as f64 / epochs);
    let delivered = life.counter("lifetime.delivered").unwrap_or(0);
    let dropped = life.counter("lifetime.dropped").unwrap_or(0);
    m.insert(
        "lifetime.dropped_share",
        dropped as f64 / (delivered + dropped).max(1) as f64,
    );
    let epoch_wall_s = tracer.total_ms("epoch") / 1e3;
    par_layer(&mut out, &rounds.par, rounds.traced.items(), epoch_wall_s);
    rounds.compare(&mut out);
    write_spans(&tracer, args, "lifetime");
    out
}
