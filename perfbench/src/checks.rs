//! Output checks computed apart from the program: fanout recounts from the CSR, balance from
//! the raw assignment, and a seeded random placement as the floor a partitioner must beat.

use crate::inputs::mix;
use shp_core::PartitionOutcome;
use shp_hypergraph::BipartiteGraph;

/// Average query fanout of `assignment`, counted directly from the graph's pins.
pub fn recount_fanout(graph: &BipartiteGraph, assignment: &[u32], k: u32) -> f64 {
    if graph.num_queries() == 0 {
        return 0.0;
    }
    let mut stamp = vec![u32::MAX; k as usize];
    let mut total: u64 = 0;
    for q in graph.queries() {
        for &v in graph.query_neighbors(q) {
            let b = assignment[v as usize] as usize;
            if stamp[b] != q {
                stamp[b] = q;
                total += 1;
            }
        }
    }
    total as f64 / graph.num_queries() as f64
}

/// Fanout of a seeded uniform-hash placement of the data vertices into `k` buckets.
pub fn random_fanout(graph: &BipartiteGraph, k: u32, seed: u64) -> f64 {
    let assignment: Vec<u32> = (0..graph.num_data() as u64)
        .map(|v| (mix(seed ^ mix(v)) % k as u64) as u32)
        .collect();
    recount_fanout(graph, &assignment, k)
}

/// Checks one partition outcome: coverage, bucket range, the `(1 + ε)` balance bound, the
/// reported fanout against a recount, and a fanout below the random placement's.
pub fn check_partition(
    graph: &BipartiteGraph,
    outcome: &PartitionOutcome,
    k: u32,
    epsilon: f64,
    random_fanout: f64,
) -> Result<(), String> {
    let assignment = outcome.partition.assignment();
    if assignment.len() != graph.num_data() {
        return Err(format!(
            "{} of {} data vertices assigned",
            assignment.len(),
            graph.num_data()
        ));
    }
    if let Some(v) = assignment.iter().position(|&b| b >= k) {
        return Err(format!("vertex {v} in bucket {} >= k={k}", assignment[v]));
    }
    let mut weight = vec![0u64; k as usize];
    let mut total = 0u64;
    for (v, &b) in assignment.iter().enumerate() {
        let w = graph.data_weight(v as u32) as u64;
        weight[b as usize] += w;
        total += w;
    }
    let ideal = (total as f64 / k as f64).ceil();
    let cap = (1.0 + epsilon) * ideal;
    if let Some(b) = weight.iter().position(|&w| w as f64 > cap) {
        return Err(format!(
            "bucket {b} weighs {} > (1+{epsilon}) x ideal {ideal}",
            weight[b]
        ));
    }
    let recount = recount_fanout(graph, assignment, k);
    if recount != outcome.fanout {
        return Err(format!(
            "reported fanout {} != recount {recount}",
            outcome.fanout
        ));
    }
    if recount >= random_fanout {
        return Err(format!(
            "fanout {recount} not below the random placement's {random_fanout}"
        ));
    }
    Ok(())
}
