//! The traced run's per-layer measurements: the benchmark replays a workload's work through
//! each layer's public functions and times those calls itself. The end-to-end calls are
//! never instrumented; these replays run beside them, outside their timed windows.

use crate::alloc;
use crate::report::median;
use crate::serve::CLIENTS;
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_controller::{AccessTraceCollector, ControllerConfig, EpochOutcome};
use shp_core::histogram::GainHistogramSet;
use shp_core::refinement::unit_hash;
use shp_core::{
    gains::compute_proposals, partition_incremental, IncrementalConfig, NeighborData, Objective,
    PartitionMode, PartitionSpec, Refiner, ShpConfig, ShpResult, SwapStrategy, TargetConstraint,
};
use shp_hypergraph::{BipartiteGraph, Partition};
use shp_serving::{
    PartitionDelta, RoutePlan, ServingEngine, ServingMetrics, ShardRouter, ShardSet,
};
use shp_sharding_sim::LatencyModel;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Refinement-layer figures from one replayed refinement.
#[derive(Debug, Default)]
pub struct RefineLayers {
    pub nd_build_s: f64,
    pub apply_move_ns: f64,
    pub iteration_ms: Vec<f64>,
    pub dirty_vertices: u64,
    pub moved: u64,
    pub candidates: u64,
    pub proposals_s_w1: f64,
    pub proposals_s_w2: f64,
    pub match_s: f64,
    /// `fanout_after` of every replayed iteration, to compare with the registry run's events.
    pub iteration_fanouts: Vec<f64>,
    /// Whether replaying the first iteration's moves one by one on a copy of the neighbor
    /// data reproduced the refiner's own update.
    pub apply_move_agrees: bool,
}

/// Replays one refinement run from `partition`: neighbor-data build, one full gain sweep at 1
/// and 2 workers, one histogram build and match, then the refiner's iterations one call at a
/// time, as `Refiner::run` would make them.
#[allow(clippy::too_many_arguments)]
fn replay_refinement(
    graph: &BipartiteGraph,
    config: &ShpConfig,
    objective: Objective,
    constraint: TargetConstraint,
    epsilon: f64,
    seed: u64,
    partition: &mut Partition,
) -> RefineLayers {
    let workers = config.workers;
    let mut out = RefineLayers::default();
    let refiner = Refiner::new(
        graph,
        objective,
        constraint.clone(),
        config.swap_strategy,
        config.balance_mode,
        config.allow_imbalanced_moves,
        epsilon,
        seed,
    )
    .with_workers(workers);

    let t = Instant::now();
    let mut nd = NeighborData::build_with_workers(graph, partition, workers);
    out.nd_build_s = secs(t);

    let include_nonpositive = config.swap_strategy == SwapStrategy::Histogram;
    let sweep = |w: usize| {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let proposals = compute_proposals(
                    &objective,
                    graph,
                    partition,
                    &nd,
                    &constraint,
                    include_nonpositive,
                    w,
                );
                let s = secs(t);
                black_box(proposals);
                s
            })
            .collect();
        median(&times)
    };
    out.proposals_s_w1 = sweep(1);
    out.proposals_s_w2 = sweep(2);
    let proposals = compute_proposals(
        &objective,
        graph,
        partition,
        &nd,
        &constraint,
        include_nonpositive,
        workers,
    );
    let t = Instant::now();
    let set = GainHistogramSet::from_proposals_with_workers(&proposals, workers);
    black_box(set.match_bins());
    out.match_s = secs(t);
    drop(proposals);

    let mut active = refiner.new_active_set();
    for iteration in 0..config.max_iterations {
        out.dirty_vertices += active.num_dirty() as u64;
        let before = (iteration == 0).then(|| (partition.assignment().to_vec(), nd.clone()));
        let t = Instant::now();
        let stats = refiner.run_iteration_with(&mut active, partition, &mut nd, iteration);
        out.iteration_ms.push(secs(t) * 1e3);
        out.moved += stats.moved as u64;
        out.candidates += stats.candidates as u64;
        out.iteration_fanouts.push(stats.fanout_after);
        if let Some((assignment, mut copy)) = before {
            let moves: Vec<(u32, u32, u32)> = assignment
                .iter()
                .enumerate()
                .filter(|&(v, &from)| partition.bucket_of(v as u32) != from)
                .map(|(v, &from)| (v as u32, from, partition.bucket_of(v as u32)))
                .collect();
            let t = Instant::now();
            for &(v, from, to) in &moves {
                copy.apply_move(graph, v, from, to);
            }
            out.apply_move_ns = t.elapsed().as_nanos() as f64 / moves.len().max(1) as f64;
            out.apply_move_agrees = copy == nd;
        }
        if stats.moved_fraction < config.convergence_threshold {
            break;
        }
    }
    out
}

/// Replays SHP-k (`shpk`) exactly: the same random start, refiner and iterations. Returns the
/// layer figures and the final partition after the same balance repair the registry applies.
pub fn replay_direct(graph: &BipartiteGraph, spec: &PartitionSpec) -> (RefineLayers, Partition) {
    let config = spec.shp_config(PartitionMode::Direct);
    let mut partition = Partition::new_random(
        graph,
        config.num_buckets,
        &mut Pcg64::seed_from_u64(config.seed),
    )
    .expect("k >= 1");
    let layers = replay_refinement(
        graph,
        &config,
        Objective::from_kind(config.objective),
        TargetConstraint::all(config.num_buckets),
        config.epsilon,
        config.seed,
        &mut partition,
    );
    shp_core::api::enforce_balance(&mut partition, spec.epsilon);
    (layers, partition)
}

/// Replays the first level of SHP-2 (`shp2`): the hash split of the whole graph into two
/// halves and its refinement under the sibling constraint, as `partition_recursive` runs it.
pub fn replay_first_bisection(graph: &BipartiteGraph, spec: &PartitionSpec) -> RefineLayers {
    let config = spec.shp_config(PartitionMode::recursive_bisection());
    let k = config.num_buckets;
    let first_share = k.div_ceil(2);
    let seed = config.seed;
    let assignment: Vec<u32> = (0..graph.num_data() as u64)
        .map(|v| u32::from(unit_hash(seed, 0x5EED, v) * k as f64 >= first_share as f64))
        .collect();
    let mut partition = Partition::from_assignment(graph, 2, assignment).expect("two buckets");
    let total_levels = (k as f64).log2().ceil().max(1.0);
    let epsilon = if config.scale_epsilon_by_level {
        config.epsilon / total_levels
    } else {
        config.epsilon
    };
    let mut objective = Objective::from_kind(config.objective);
    if config.optimize_final_p_fanout {
        objective = objective.for_final_splits(first_share);
    }
    replay_refinement(
        graph,
        &config,
        objective,
        TargetConstraint::sibling_groups(&[vec![0, 1]]),
        epsilon,
        seed,
        &mut partition,
    )
}

/// Median wall time of one recursion level, from the level reports of a direct
/// `partition_recursive` call with the workload's spec.
pub fn recursive_level_s(graph: &BipartiteGraph, spec: &PartitionSpec) -> f64 {
    let config = spec.shp_config(PartitionMode::recursive_bisection());
    match shp_core::partition_recursive(graph, &config) {
        Ok(result) => median(
            &result
                .report
                .levels
                .iter()
                .map(|l| l.elapsed.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        Err(_) => f64::NAN,
    }
}

/// Step timings of one controller epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct EpochSteps {
    pub observed_graph_ms: f64,
    pub incremental_ms: f64,
    pub install_delta_ms: f64,
}

/// One controller epoch made step by step with the calls `RepartitionController::run_epoch`
/// makes, in its order (observe, incremental partition under the budget, delta install),
/// timing each step. It runs on a twin of the live engine and leaves the trace as it is, so
/// the real `run_epoch` can follow on the live engine from the same trace; the caller checks
/// that both reach the same outcome and placement.
pub fn stepped_epoch(
    engine: &ServingEngine,
    collector: &AccessTraceCollector,
    config: &ControllerConfig,
    steps: &mut EpochSteps,
) -> ShpResult<Option<EpochOutcome>> {
    let t = Instant::now();
    let observed = collector.observed_graph(engine.num_keys())?;
    steps.observed_graph_ms = secs(t) * 1e3;
    let Some(graph) = observed else {
        return Ok(None);
    };
    let snapshot = engine.current_snapshot();
    let live = Partition::from_assignment(&graph, snapshot.num_shards(), snapshot.assignment())?;
    let fanout_before = shp_hypergraph::average_fanout(&graph, &live);
    let mut shp = ShpConfig::direct(snapshot.num_shards())
        .with_seed(config.seed ^ snapshot.epoch())
        .with_max_iterations(config.max_iterations);
    shp.epsilon = config.epsilon;
    let incremental = IncrementalConfig {
        movement_penalty: config.movement_penalty,
        max_moved_fraction: 1.0,
        max_moves: Some(config.migration_budget),
    };
    let t = Instant::now();
    let result = partition_incremental(&graph, &shp, &incremental, &live)?;
    steps.incremental_ms = secs(t) * 1e3;
    let fanout_after = shp_hypergraph::average_fanout(&graph, &result.partition);
    let delta = PartitionDelta::between(&snapshot, &result.partition)?;
    let t = Instant::now();
    let epoch = engine.install_delta(&delta)?;
    steps.install_delta_ms = secs(t) * 1e3;
    Ok(Some(EpochOutcome {
        epoch,
        moved_keys: delta.len(),
        observed_queries: graph.num_queries(),
        fanout_before,
        fanout_after,
    }))
}

/// Serving-layer figures, in nanoseconds per call unless named otherwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    pub epoch_read_ns: f64,
    pub route_ns: f64,
    pub execute_ns: f64,
    pub record_ns: f64,
    pub observe_ns: f64,
    pub allocs_per_mget: f64,
}

/// Replays `requests` (one list per client) through each serving layer's public calls, both
/// clients at once, on the engine's live placement. Each layer is timed over batches of
/// calls, so the clock's own cost stays out of the per-call figures. The engine's own
/// multigets are counted for allocations only.
pub fn serving_layers(
    engine: &ServingEngine,
    graph: &BipartiteGraph,
    requests: &[Vec<u32>],
) -> ServeLayers {
    const BATCH: usize = 512;
    let snapshot = engine.current_snapshot();
    let shards = ShardSet::build(&snapshot, LatencyModel::default(), 0x5047);
    let router = ShardRouter::new();
    let metrics = ServingMetrics::new();
    let collector = AccessTraceCollector::new(4096, 0x7EACE);
    let num_shards = snapshot.num_shards();
    let epoch = snapshot.epoch();
    let barrier = Barrier::new(requests.len().min(CLIENTS));
    // Per client: [epoch_read, route, execute, record, observe] nanoseconds, calls, allocs.
    let per_client: Vec<([f64; 5], u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .take(CLIENTS)
            .map(|reqs| {
                let (snapshot, shards, router, metrics, collector, barrier) =
                    (&snapshot, &shards, &router, &metrics, &collector, &barrier);
                scope.spawn(move || {
                    let mut ns = [0f64; 5];
                    let mut plans: Vec<RoutePlan> = Vec::with_capacity(BATCH);
                    barrier.wait();
                    let t = Instant::now();
                    for _ in reqs {
                        black_box(engine.current_epoch());
                    }
                    ns[0] += t.elapsed().as_nanos() as f64;
                    for batch in reqs.chunks(BATCH) {
                        let t = Instant::now();
                        for &q in batch {
                            plans.push(
                                router
                                    .route(snapshot, graph.query_neighbors(q))
                                    .expect("keys in range"),
                            );
                        }
                        ns[1] += t.elapsed().as_nanos() as f64;
                        let t = Instant::now();
                        for plan in &plans {
                            black_box(shards.execute(plan).expect("plan matches shards"));
                        }
                        ns[2] += t.elapsed().as_nanos() as f64;
                        let t = Instant::now();
                        for plan in &plans {
                            metrics.record(
                                plan.fanout(),
                                num_shards,
                                plan.batches.iter().map(|b| b.shard),
                                1.0,
                                epoch,
                            );
                        }
                        ns[3] += t.elapsed().as_nanos() as f64;
                        let t = Instant::now();
                        for &q in batch {
                            collector.record(graph.query_neighbors(q));
                        }
                        ns[4] += t.elapsed().as_nanos() as f64;
                        plans.clear();
                    }
                    barrier.wait();
                    let before = alloc::thread_calls();
                    for &q in reqs {
                        black_box(engine.multiget(graph.query_neighbors(q)).ok());
                    }
                    let allocs = alloc::thread_calls() - before;
                    (ns, reqs.len() as u64, allocs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("layer client panicked"))
            .collect()
    });
    let calls: u64 = per_client.iter().map(|c| c.1).sum::<u64>().max(1);
    let total = |i: usize| per_client.iter().map(|c| c.0[i]).sum::<f64>() / calls as f64;
    ServeLayers {
        epoch_read_ns: total(0),
        route_ns: total(1),
        execute_ns: total(2),
        record_ns: total(3),
        observe_ns: total(4),
        allocs_per_mget: per_client.iter().map(|c| c.2).sum::<u64>() as f64 / calls as f64,
    }
}
