//! Property tests of the construction pipeline: the grid-backed growing
//! phase must match the all-pairs oracle *exactly* — same discoveries,
//! same boundary flags, same grow radii — on one thread and on many, on
//! layouts engineered to stress every tie-breaking and cell-boundary
//! path; and on the unit disk the pairwise connectivity guard must never
//! fire (Theorem 3.6).

use cbtc_core::parallel::set_thread_cap;
use cbtc_core::reconfig::GeometricMetric;
use cbtc_core::{
    construct, grow_node_metric_scratch, run_basic, run_basic_brute, run_centralized,
    run_centralized_masked, CbtcConfig, GrowScratch, Network,
};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::{Layout, NodeId, SpatialGrid, UndirectedGraph};
use proptest::prelude::*;

fn alphas() -> [Alpha; 2] {
    [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS]
}

fn configs() -> [CbtcConfig; 3] {
    [
        CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
        CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS),
        CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
    ]
}

/// A deterministic pseudo-random alive mask from a seed.
fn mask(n: usize, mask_seed: u64) -> Vec<bool> {
    (0..n)
        .map(|i| (mask_seed >> (i % 64)) & 1 == 0 || i % 5 == 0)
        .collect()
}

/// Random layouts with no two nodes exactly coincident (directions are
/// undefined between coincident nodes, in every engine alike).
fn layouts() -> impl Strategy<Value = Layout> {
    (2usize..50, 200.0f64..1600.0).prop_flat_map(|(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::with_capacity(pts.len());
            for (x, y) in pts {
                let mut p = Point2::new(x, y);
                while points.contains(&p) {
                    p = Point2::new(p.x + 0.125, p.y);
                }
                points.push(p);
            }
            Layout::new(points)
        })
    })
}

/// Layouts engineered to stress the shell scan: points snapped onto a
/// lattice of the given pitch, producing exact equidistant ties (lattice
/// symmetry) and points exactly on grid-cell boundaries.
fn lattice_layouts(pitch: f64) -> impl Strategy<Value = Layout> {
    (3usize..40, 3i32..12).prop_flat_map(move |(n, cells)| {
        proptest::collection::vec((0..cells, 0..cells), n).prop_map(move |pts| {
            let mut points: Vec<Point2> = Vec::new();
            for (i, j) in pts {
                let p = Point2::new(i as f64 * pitch, j as f64 * pitch);
                if !points.contains(&p) {
                    points.push(p);
                }
            }
            if points.len() < 2 {
                points.push(Point2::new(-pitch, -pitch));
            }
            Layout::new(points)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The all-pairs oracle, the grid engine pinned to one thread and the
    /// grid engine with no thread cap agree on random layouts.
    #[test]
    fn engines_agree_on_random_layouts(layout in layouts()) {
        let network = Network::with_paper_radio(layout);
        for alpha in alphas() {
            let brute = run_basic_brute(&network, alpha);
            set_thread_cap(Some(1));
            let grid = run_basic(&network, alpha);
            set_thread_cap(None);
            let par = run_basic(&network, alpha);
            prop_assert_eq!(&brute, &grid, "grid != brute");
            prop_assert_eq!(&grid, &par, "parallel != grid");
        }
    }

    /// Lattice layouts force exact distance ties (whole groups must be
    /// discovered atomically) and nodes exactly on cell boundaries; the
    /// agreement must survive any cell size, including pathological ones.
    #[test]
    fn engines_agree_on_lattice_layouts(layout in lattice_layouts(125.0)) {
        let network = Network::with_paper_radio(layout.clone());
        let r = network.max_range();
        for alpha in alphas() {
            let brute = run_basic_brute(&network, alpha);
            let default = run_basic(&network, alpha);
            prop_assert_eq!(&brute, &default, "default cell");
            // Cell exactly the lattice pitch (every node on a cell
            // corner), much smaller, and larger than the max range.
            for cell in [125.0, 30.0, 800.0] {
                let grid = SpatialGrid::from_layout(&layout, cell);
                let mut scratch = GrowScratch::new();
                for u in layout.node_ids() {
                    let view = grow_node_metric_scratch(
                        &layout, &grid, &GeometricMetric, u, alpha, r, &mut scratch,
                    );
                    prop_assert_eq!(
                        &view,
                        brute.view(u),
                        "node {} at cell {}", u, cell
                    );
                }
            }
        }
    }

    /// The masked run equals the historical extract-and-remap oracle: a
    /// fresh sub-network of the survivors, a full run, IDs mapped back.
    #[test]
    fn masked_run_equals_subnetwork_oracle(
        layout in layouts(),
        mask_seed in 0u64..u64::MAX,
    ) {
        let network = Network::with_paper_radio(layout);
        let n = network.len();
        let alive = mask(n, mask_seed);
        for alpha in alphas() {
            for config in [CbtcConfig::new(alpha), CbtcConfig::all_applicable(alpha)] {
                let masked = run_centralized_masked(&network, &config, &alive);

                let survivors: Vec<NodeId> = network
                    .layout()
                    .node_ids()
                    .filter(|u| alive[u.index()])
                    .collect();
                let mut oracle = UndirectedGraph::new(n);
                if survivors.len() >= 2 {
                    let points: Vec<Point2> = survivors
                        .iter()
                        .map(|u| network.layout().position(*u))
                        .collect();
                    let sub = Network::new(Layout::new(points), *network.model());
                    let sub_run = run_centralized(&sub, &config);
                    for (a, b) in sub_run.final_graph().edges() {
                        oracle.add_edge(survivors[a.index()], survivors[b.index()]);
                    }
                }
                prop_assert_eq!(
                    masked.final_graph(),
                    &oracle,
                    "config {:?}",
                    config
                );
            }
        }
    }

    /// Masking nothing changes nothing.
    #[test]
    fn all_alive_mask_is_identity(layout in layouts()) {
        let network = Network::with_paper_radio(layout);
        let alive = vec![true; network.len()];
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let masked = run_centralized_masked(&network, &config, &alive);
        let full = run_centralized(&network, &config);
        prop_assert_eq!(masked.final_graph(), full.final_graph());
        prop_assert_eq!(masked.basic(), full.basic());
    }

    /// Theorem 3.6 on the unit disk: the connectivity guard behind
    /// pairwise removal restores nothing, full or masked, at every
    /// optimization level — so running it unconditionally changes no
    /// geometric construction.
    #[test]
    fn geometric_guard_never_restores(layout in layouts(), mask_seed in 0u64..u64::MAX) {
        let network = Network::with_paper_radio(layout);
        let alive = mask(network.len(), mask_seed);
        for config in configs() {
            for alive in [None, Some(alive.as_slice())] {
                let run = construct(&network, &GeometricMetric, &config, alive);
                prop_assert!(
                    run.pairwise_restored().is_empty(),
                    "config {:?}, masked {}: restored {:?}",
                    config,
                    alive.is_some(),
                    run.pairwise_restored()
                );
            }
        }
    }
}
