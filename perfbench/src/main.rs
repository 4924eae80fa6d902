//! End-to-end benchmark of the SHP workspace. See README.md in this directory.
//!
//! ```text
//! shp-perfbench --workload <kway-w2|bisect-text|serve-drift> --seed <n> --seconds <s>
//!               --trace <0|1> [--size full|tiny]
//! ```
//!
//! Every run repeats whole rounds of one workload's pipeline (graph load, one partition, a
//! serving engine on the partition, closed-loop serving phases, a controller epoch after
//! each phase) until `--seconds` have passed, checks every output outside the timed
//! windows, and prints one JSON result line last. `--trace 1` adds the per-layer replays.

mod alloc;
mod checks;
mod host;
mod inputs;
mod layers;
mod report;
mod serve;

use inputs::{Format, InputSpec, Meta};
use report::{median, metric, quantile_u32, Kind, Ledger, Metric};
use serve::Traffic;
use shp_controller::{AccessTraceCollector, ControllerConfig, RepartitionController};
use shp_core::{AlgorithmRegistry, NoopObserver, PartitionSpec, ProgressObserver, TraceObserver};
use shp_hypergraph::BipartiteGraph;
use shp_serving::{EngineConfig, ServingEngine};
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One workload: its input, its partition, and the traffic served on the result.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    format: Format,
    scale: f64,
    algorithm: &'static str,
    k: u32,
    workers: usize,
    /// Refinement iteration cap (per split level for `shp2`).
    iterations: usize,
    traffic: Traffic,
    cache_capacity: usize,
}

/// Reservoir slots of the access-trace collector.
const TRACE_SLOTS: usize = 4096;
/// Keys a controller epoch may move.
const MIGRATION_BUDGET: usize = 256;

fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let pick = |full: f64, small: f64| if tiny { small } else { full };
    let pick_n = |full: usize, small: usize| if tiny { small } else { full };
    let w = match name {
        "kway-w2" => Workload {
            name: "kway-w2",
            format: Format::Shpb,
            scale: pick(0.2, 0.01),
            algorithm: "shpk",
            k: 64,
            workers: 2,
            iterations: 6,
            traffic: Traffic::Pass,
            cache_capacity: 4096,
        },
        "bisect-text" => Workload {
            name: "bisect-text",
            format: Format::Hmetis,
            scale: pick(0.44, 0.02),
            algorithm: "shp2",
            k: 64,
            workers: 1,
            iterations: 2,
            traffic: Traffic::Pass,
            cache_capacity: 4096,
        },
        "serve-drift" => Workload {
            name: "serve-drift",
            format: Format::Shpb,
            scale: pick(0.2, 0.01),
            algorithm: "shpk",
            k: 16,
            workers: 2,
            iterations: 3,
            traffic: Traffic::Drift {
                phases: 4,
                per_phase: pick_n(80_000, 4_000),
            },
            cache_capacity: 8192,
        },
        _ => return None,
    };
    Some(w)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--size" => args.tiny = value == "tiny",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--generate") => std::process::exit(generate(&raw[1..])),
        Some("--probe") => {
            let p = host::probe();
            println!("{} {}", p.alu_ms, p.dram_ms);
            return;
        }
        _ => {}
    }
    let code = match parse_args(&raw) {
        Ok(args) => match workload(&args.workload, args.tiny) {
            Some(w) => run(&w, &args),
            None => {
                eprintln!(
                    "unknown workload {:?}: kway-w2, bisect-text, serve-drift",
                    args.workload
                );
                2
            }
        },
        Err(e) => {
            eprintln!("{e}");
            2
        }
    };
    std::process::exit(code);
}

/// Child-process entry point: `--generate <shpb|hmetis> <scale> <seed>`.
fn generate(raw: &[String]) -> i32 {
    let spec = match raw {
        [format, scale, seed] => {
            let format = if format == "shpb" {
                Format::Shpb
            } else {
                Format::Hmetis
            };
            match (scale.parse(), seed.parse()) {
                (Ok(scale), Ok(seed)) => InputSpec {
                    format,
                    scale,
                    seed,
                },
                _ => return 2,
            }
        }
        _ => return 2,
    };
    match spec.generate() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Per-round figures a run accumulates.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    partition_s: Vec<f64>,
    partition_fanout: Vec<f64>,
    mgets_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    epoch_s: Vec<f64>,
    moved_keys: Vec<f64>,
    served: u64,
    served_fanout: u64,
    samples_per_round: usize,
}

/// Per-layer figures the traced run collects in its first round.
#[derive(Default)]
struct Traced {
    iterations: usize,
    iteration_fanouts: Vec<f64>,
    sampled_per_recorded: f64,
    cache_hit_rate: f64,
    steps: layers::EpochSteps,
    serve: layers::ServeLayers,
}

fn run(w: &Workload, args: &Args) -> i32 {
    let input = InputSpec {
        format: w.format,
        scale: w.scale,
        seed: args.seed,
    };
    let meta = match input.ensure() {
        Ok(meta) => meta,
        Err(e) => {
            eprintln!("input generation failed: {e}");
            return 2;
        }
    };
    println!(
        "# workload {} seed {} trace {} on {} hardware threads, input {} ({} queries, {} data, {} pins)",
        w.name,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        input.graph_path().display(),
        meta.queries,
        meta.data,
        meta.pins
    );
    alloc::set_counting(args.trace);

    let order = serve::query_order(meta.queries as usize, args.seed);
    let requests: Vec<Vec<Vec<u32>>> = (0..w.traffic.phases())
        .map(|p| serve::phase_requests(&order, w.traffic, args.seed, p))
        .collect();
    drop(order);
    let spec = PartitionSpec::new(w.k)
        .with_seed(args.seed)
        .with_max_iterations(w.iterations)
        .with_workers(w.workers);
    let controller_config = ControllerConfig {
        migration_budget: MIGRATION_BUDGET,
        seed: args.seed ^ 0xC0_11EC,
        ..ControllerConfig::default()
    };

    let mut ledger = Ledger::default();
    let mut rounds = Rounds::default();
    let mut traced = Traced::default();
    let mut layer_metrics: Vec<Metric> = Vec::new();
    let mut latencies: Vec<u32> = Vec::new();
    let mut random_fanout = f64::NAN;
    let mut peak_rss_mb = f64::NAN;

    let probe_before = host::probe_in_child();
    let jiffies_before = host::cpu_jiffies();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let first_traced = args.trace && round == 0;
        let r = run_round(
            w,
            &input,
            &meta,
            &spec,
            &controller_config,
            &requests,
            first_traced,
            &mut random_fanout,
            &mut rounds,
            &mut traced,
            &mut latencies,
            &mut ledger,
        );
        if round == 0 {
            // One round in a fresh process: later rounds only add allocator reuse and
            // fragmentation, whose amount would depend on how many rounds fit in the run.
            peak_rss_mb = host::peak_rss_mb();
        }
        match r {
            Ok(extra) => layer_metrics.extend(extra),
            Err(e) => {
                ledger.check(&e, false);
                break;
            }
        }
        round += 1;
    }
    let steal = host::steal_share(jiffies_before, host::cpu_jiffies());
    let probe_after = host::probe_in_child();

    let fanout = match w.traffic {
        Traffic::Pass => median(&rounds.partition_fanout),
        Traffic::Drift { .. } => rounds.served_fanout as f64 / rounds.served.max(1) as f64,
    };
    let e2e = vec![
        metric("setup_s", "s", median(&rounds.setup_s)),
        metric("partition_s", "s", median(&rounds.partition_s)),
        metric("fanout", "shards/query", fanout),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("mgets_per_s", "1/s", median(&rounds.mgets_per_s)),
        metric("mget_p50_us", "us", median(&rounds.p50_us)),
        metric("mget_p99_us", "us", median(&rounds.p99_us)),
        metric("epoch_s", "s", median(&rounds.epoch_s)),
    ];
    let host_metrics = vec![
        metric(
            "host.alu_ms",
            "ms",
            (probe_before.alu_ms + probe_after.alu_ms) / 2.0,
        ),
        metric(
            "host.dram_ms",
            "ms",
            (probe_before.dram_ms + probe_after.dram_ms) / 2.0,
        ),
    ];

    let show = |name: &str, ops: report::Ops| format!("{name} {}/{}", ops.attempted, ops.failed);
    println!(
        "# ops attempted/failed: {}, {}, {}",
        show("partitions", ledger.partitions),
        show("multigets", ledger.multigets),
        show("epochs", ledger.epochs)
    );
    println!(
        "# rounds {round}, {} multiget latency samples per round, {} epochs, random-placement fanout {random_fanout}, peak RSS after the last round {:.1} MB",
        rounds.samples_per_round,
        rounds.epoch_s.len(),
        host::peak_rss_mb()
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# per round: partition_s {}", list(&rounds.partition_s));
    println!("# per round: mgets_per_s {}", list(&rounds.mgets_per_s));
    println!(
        "# host probe before: alu {:.1} ms, dram {:.1} ms; after: alu {:.1} ms, dram {:.1} ms; steal {:.1}% of CPU time during the rounds",
        probe_before.alu_ms,
        probe_before.dram_ms,
        probe_after.alu_ms,
        probe_after.dram_ms,
        steal * 100.0
    );
    for failure in &ledger.failures {
        println!("# FAILED {failure}");
    }
    let correct = ledger.all_passed();
    let metrics = if args.trace {
        println!("# end-to-end (traced) {}", report::metrics_json(&e2e));
        let mut all = layer_metrics;
        all.push(metric(
            "refine.iterations",
            "count",
            traced.iterations as f64,
        ));
        all.extend([
            metric("serve.epoch_read_ns", "ns", traced.serve.epoch_read_ns),
            metric("serve.route_ns", "ns", traced.serve.route_ns),
            metric("serve.execute_ns", "ns", traced.serve.execute_ns),
            metric("serve.cache_hit_rate", "ratio", traced.cache_hit_rate),
            metric("serve.record_ns", "ns", traced.serve.record_ns),
            metric(
                "serve.allocs_per_mget",
                "count",
                traced.serve.allocs_per_mget,
            ),
            metric("trace.observe_ns", "ns", traced.serve.observe_ns),
            metric(
                "trace.sampled_per_recorded",
                "ratio",
                traced.sampled_per_recorded,
            ),
            metric(
                "ctl.observed_graph_ms",
                "ms",
                traced.steps.observed_graph_ms,
            ),
            metric("ctl.incremental_ms", "ms", traced.steps.incremental_ms),
            metric("ctl.install_delta_ms", "ms", traced.steps.install_delta_ms),
            metric("ctl.moved_keys", "count/epoch", median(&rounds.moved_keys)),
        ]);
        all.extend(host_metrics);
        all
    } else {
        println!("# host {}", report::metrics_json(&host_metrics));
        e2e
    };
    println!("{}", report::result_line(correct, &ledger, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// One round of the workload's pipeline. Errors are fatal to the run (the round cannot go
/// on); failed checks are recorded in the ledger and the round continues.
#[allow(clippy::too_many_arguments)]
fn run_round(
    w: &Workload,
    input: &InputSpec,
    meta: &Meta,
    spec: &PartitionSpec,
    controller_config: &ControllerConfig,
    requests: &[Vec<Vec<u32>>],
    first_traced: bool,
    random_fanout: &mut f64,
    rounds: &mut Rounds,
    traced: &mut Traced,
    latencies: &mut Vec<u32>,
    ledger: &mut Ledger,
) -> Result<Vec<Metric>, String> {
    let t = Instant::now();
    let graph = input.load()?;
    let mut setup_s = t.elapsed().as_secs_f64();
    ledger.check(
        "the loaded graph matches the generator's counts and pin checksum",
        inputs::graph_meta(&graph) == *meta,
    );
    if random_fanout.is_nan() {
        *random_fanout = checks::random_fanout(&graph, w.k, input.seed);
    }

    let registry = AlgorithmRegistry::core();
    let mut trace_obs = TraceObserver::default();
    let mut noop = NoopObserver;
    let obs: &mut dyn ProgressObserver = if first_traced {
        &mut trace_obs
    } else {
        &mut noop
    };
    let t = Instant::now();
    let outcome = registry.run(w.algorithm, &graph, spec, obs);
    rounds.partition_s.push(t.elapsed().as_secs_f64());
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            ledger.record(Kind::Partition, Err(e.to_string()));
            return Err(format!("partition failed: {e}"));
        }
    };
    ledger.record(
        Kind::Partition,
        checks::check_partition(&graph, &outcome, w.k, spec.epsilon, *random_fanout),
    );
    rounds.partition_fanout.push(outcome.fanout);

    let engine_config = EngineConfig {
        cache_capacity: w.cache_capacity,
        seed: input.seed,
        ..EngineConfig::default()
    };
    let collector = Arc::new(AccessTraceCollector::new(TRACE_SLOTS, input.seed));
    let t = Instant::now();
    let engine = ServingEngine::new(&outcome.partition, engine_config.clone())
        .map_err(|e| format!("engine build: {e}"))?
        .with_access_observer(collector.clone());
    // Serving is the workload of `serve-drift`, so making the engine ready is set-up there.
    if matches!(w.traffic, Traffic::Drift { .. }) {
        setup_s += t.elapsed().as_secs_f64();
    }
    rounds.setup_s.push(setup_s);
    let mut controller = RepartitionController::new(collector.clone(), controller_config.clone());

    latencies.clear();
    // Per client: multigets sent and seconds spent sending them, over the round's phases.
    let mut clients = [(0u64, 0f64); serve::CLIENTS];
    for (phase, reqs) in requests.iter().enumerate() {
        let o = serve::serve_phase(&engine, &graph, reqs, latencies, ledger);
        for (total, (n, secs)) in clients.iter_mut().zip(&o.clients) {
            total.0 += n;
            total.1 += secs;
        }
        rounds.served += o.multigets;
        rounds.served_fanout += o.fanout_sum;

        let epoch = if first_traced && phase == 0 {
            let stats = collector.stats();
            traced.sampled_per_recorded = stats.sampled as f64 / stats.recorded.max(1) as f64;
            // The epoch's steps, timed one by one on a twin of the engine (same partition,
            // same epoch), then the real epoch on the engine from the same trace.
            let twin = ServingEngine::new(&outcome.partition, engine_config.clone())
                .map_err(|e| format!("twin engine build: {e}"))?;
            let stepped =
                layers::stepped_epoch(&twin, &collector, controller_config, &mut traced.steps);
            let epoch = serve::checked_epoch(&engine, MIGRATION_BUDGET, ledger, || {
                controller.run_epoch(&engine)
            });
            ledger.check(
                "the stepped epoch on a twin engine matches RepartitionController::run_epoch",
                matches!((&stepped, &epoch), (Ok(Some(s)), Some((_, o))) if s == o)
                    && twin.current_snapshot().assignment()
                        == engine.current_snapshot().assignment(),
            );
            epoch
        } else {
            serve::checked_epoch(&engine, MIGRATION_BUDGET, ledger, || {
                controller.run_epoch(&engine)
            })
        };
        if let Some((secs, o)) = epoch {
            rounds.epoch_s.push(secs);
            rounds.moved_keys.push(o.moved_keys as f64);
        }
    }
    // Each closed-loop client's completion rate, summed: a client held up by the host does
    // not hold the other's rate down with it.
    rounds
        .mgets_per_s
        .push(clients.iter().map(|&(n, secs)| n as f64 / secs).sum());
    rounds.samples_per_round = latencies.len();
    rounds.p50_us.push(quantile_u32(latencies, 0.50) / 1e3);
    rounds.p99_us.push(quantile_u32(latencies, 0.99) / 1e3);

    if !first_traced {
        return Ok(Vec::new());
    }
    traced.iterations = trace_obs.iterations.len();
    traced.iteration_fanouts = trace_obs.iterations.iter().map(|e| e.fanout).collect();
    traced.cache_hit_rate = engine.report().cache.hit_rate();
    traced.serve = layers::serving_layers(&engine, &graph, &requests[0]);
    drop(engine);
    Ok(layer_replays(
        w, input, spec, &graph, &outcome, traced, ledger,
    ))
}

/// The traced run's graph-load, refinement and recursion replays, with the checks that tie
/// each replay to the run it mirrors.
fn layer_replays(
    w: &Workload,
    input: &InputSpec,
    spec: &PartitionSpec,
    graph: &BipartiteGraph,
    outcome: &shp_core::PartitionOutcome,
    traced: &Traced,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    // Graph load through the format's io call, with allocator calls counted.
    let mut load_s = Vec::new();
    let mut load_allocs = 0u64;
    for _ in 0..3 {
        let before = alloc::thread_calls();
        let t = Instant::now();
        let loaded = input.load();
        load_s.push(t.elapsed().as_secs_f64());
        load_allocs = alloc::thread_calls() - before;
        ledger.check("graph reload", loaded.is_ok());
    }

    let (refine, level_s) = if w.algorithm == "shpk" {
        let (refine, replayed) = layers::replay_direct(graph, spec);
        ledger.check(
            "the SHP-k replay reproduces the registry's partition",
            replayed.assignment() == outcome.partition.assignment(),
        );
        ledger.check(
            "the SHP-k replay's iterations match the registry's events",
            refine.iteration_fanouts == traced.iteration_fanouts,
        );
        if w.workers > 1 {
            let w1 = AlgorithmRegistry::core().run(
                w.algorithm,
                graph,
                &spec.clone().with_workers(1),
                &mut NoopObserver,
            );
            ledger.check(
                "the workers=2 assignment equals the workers=1 run",
                w1.is_ok_and(|o| o.partition.assignment() == outcome.partition.assignment()),
            );
        }
        (refine, 0.0)
    } else {
        let refine = layers::replay_first_bisection(graph, spec);
        ledger.check(
            "the first-bisection replay matches the registry's first-level events",
            traced
                .iteration_fanouts
                .starts_with(&refine.iteration_fanouts),
        );
        (refine, layers::recursive_level_s(graph, spec))
    };
    ledger.check(
        "replaying an iteration's moves with NeighborData::apply_move matches the refiner",
        refine.apply_move_agrees,
    );
    let iteration_max = refine.iteration_ms.iter().copied().fold(0.0, f64::max);
    vec![
        metric("io.load_s", "s", median(&load_s)),
        metric("io.load_allocs", "count", load_allocs as f64),
        metric("nd.build_s", "s", refine.nd_build_s),
        metric("nd.apply_move_ns", "ns", refine.apply_move_ns),
        metric(
            "refine.iteration_ms_p50",
            "ms",
            median(&refine.iteration_ms),
        ),
        metric("refine.iteration_ms_max", "ms", iteration_max),
        metric(
            "refine.dirty_vertices",
            "count",
            refine.dirty_vertices as f64,
        ),
        metric(
            "refine.moved_per_candidate",
            "ratio",
            refine.moved as f64 / refine.candidates.max(1) as f64,
        ),
        metric("gains.proposals_s_w1", "s", refine.proposals_s_w1),
        metric("gains.proposals_s_w2", "s", refine.proposals_s_w2),
        metric(
            "gains.speedup_w2",
            "ratio",
            refine.proposals_s_w1 / refine.proposals_s_w2,
        ),
        metric("histogram.match_s", "s", refine.match_s),
        metric("recursive.level_s", "s", level_s),
    ]
}
