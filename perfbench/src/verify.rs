//! Output checks. Each returns `false` for a wrong graph; the unit tests
//! below feed every check a corrupted graph and watch it fail.

use cbtc_core::{run_centralized_masked, CbtcConfig, Network};
use cbtc_graph::connectivity::preserves_connectivity;
use cbtc_graph::{Layout, UndirectedGraph};
use cbtc_radio::PowerLaw;

/// Theorem 2.1: the topology is a subgraph of the max-power graph `full`
/// and connects every pair `full` connects.
pub fn keeps_connectivity(graph: &UndirectedGraph, full: &UndirectedGraph) -> bool {
    graph.is_subgraph_of(full) && preserves_connectivity(graph, full)
}

/// The from-scratch oracle of the maintained workloads: `graph` must be
/// bit-identical to a masked `CBTC(α)` construction over the current
/// positions and membership.
pub fn matches_scratch(
    graph: &UndirectedGraph,
    layout: &Layout,
    active: &[bool],
    config: &CbtcConfig,
) -> bool {
    let network = Network::new(layout.clone(), PowerLaw::paper_default());
    *graph == run_centralized_masked(&network, config, active).into_final_graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_core::run_centralized;
    use cbtc_geom::Alpha;
    use cbtc_graph::NodeId;
    use cbtc_workloads::RandomPlacement;

    fn network() -> Network {
        RandomPlacement::new(80, 1200.0, 1200.0, 500.0).generate(11)
    }

    fn first_edge(g: &UndirectedGraph) -> (NodeId, NodeId) {
        g.edges()
            .next()
            .expect("a connected test network has edges")
    }

    #[test]
    fn connectivity_check_rejects_a_cut_and_a_foreign_edge() {
        let net = network();
        let full = net.max_power_graph();
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let good = run_centralized(&net, &config).into_final_graph();
        assert!(keeps_connectivity(&good, &full));

        // Isolating a node disconnects it from its max-power neighbours.
        let mut cut = good.clone();
        let u = NodeId::new(0);
        for v in good.neighbors(u).collect::<Vec<_>>() {
            cut.remove_edge(u, v);
        }
        assert!(!keeps_connectivity(&cut, &full));

        // An edge longer than the max range is not in the max-power graph.
        let far = (0..80)
            .map(NodeId::new)
            .find(|&v| net.layout().distance(u, v) > net.max_range())
            .expect("field wider than R");
        let mut foreign = good.clone();
        foreign.add_edge(u, far);
        assert!(!keeps_connectivity(&foreign, &full));
    }

    #[test]
    fn scratch_oracle_rejects_a_missing_edge_and_a_stale_membership() {
        let net = network();
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let mut alive = vec![true; 80];
        alive[5] = false;
        let good = run_centralized_masked(&net, &config, &alive).into_final_graph();
        assert!(matches_scratch(&good, net.layout(), &alive, &config));

        let mut wrong = good.clone();
        let (a, b) = first_edge(&good);
        wrong.remove_edge(a, b);
        assert!(!matches_scratch(&wrong, net.layout(), &alive, &config));

        // The graph of the full membership is wrong for the masked one.
        let full_membership = run_centralized(&net, &config).into_final_graph();
        assert!(!matches_scratch(
            &full_membership,
            net.layout(),
            &alive,
            &config
        ));
    }
}
