//! Closed-loop serving phases and controller epochs, with their output checks.

use crate::report::{Kind, Ledger};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_controller::EpochOutcome;
use shp_core::ShpResult;
use shp_hypergraph::BipartiteGraph;
use shp_serving::{open_loop_schedule, value_of, MultigetResult, ServingEngine, WorkloadConfig};
use std::sync::Barrier;
use std::time::Instant;

/// Concurrent closed-loop clients: each waits for its reply before sending the next request.
pub const CLIENTS: usize = 2;

/// The traffic a serving phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// One phase in which every hyperedge is requested once, in a seeded order.
    Pass,
    /// `phases` phases of about `per_phase` multigets each, drawn the way the serving tier's
    /// own load generator draws them (`open_loop_schedule` with the default `WorkloadConfig`:
    /// a hot set of 5% of the hyperedges gets 30% of the requests, the rest is uniform). Each
    /// phase draws from its own seed, so the hot set moves every phase. The arrival times are
    /// dropped: the clients are closed-loop, and the requests are dealt to them in turn.
    Drift { phases: usize, per_phase: usize },
}

impl Traffic {
    pub fn phases(&self) -> usize {
        match *self {
            Traffic::Pass => 1,
            Traffic::Drift { phases, .. } => phases,
        }
    }
}

/// A seeded permutation of the query ids.
pub fn query_order(num_queries: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..num_queries as u32).collect();
    order.shuffle(&mut Pcg64::seed_from_u64(seed ^ 0x0DE5));
    order
}

/// The query ids each client sends in `phase`.
pub fn phase_requests(order: &[u32], traffic: Traffic, seed: u64, phase: usize) -> Vec<Vec<u32>> {
    match traffic {
        Traffic::Pass => {
            let half = order.len().div_ceil(CLIENTS);
            order.chunks(half.max(1)).map(|c| c.to_vec()).collect()
        }
        Traffic::Drift { per_phase, .. } => {
            let config = WorkloadConfig {
                arrival_rate: per_phase as f64,
                duration: 1.0,
                seed: seed ^ ((phase as u64 + 1) << 48),
                ..WorkloadConfig::default()
            };
            let mut clients: Vec<Vec<u32>> = vec![Vec::new(); CLIENTS];
            for (i, event) in open_loop_schedule(order.len(), &config)
                .into_iter()
                .enumerate()
            {
                clients[i % CLIENTS].push(event.query);
            }
            clients
        }
    }
}

/// What one serving phase produced.
pub struct PhaseOutcome {
    /// Per client: multigets sent and the wall time spent sending them.
    pub clients: Vec<(u64, f64)>,
    pub multigets: u64,
    pub fanout_sum: u64,
}

/// Requests a client sends between two checks: bounds the results held for checking.
const CHUNK: usize = 2048;

/// Runs one phase: every client sends its requests back to back, and the wall time of each
/// `multiget` call is appended to `latencies_ns`.
///
/// The clients serve in lock-stepped chunks: both serve a chunk, meet at a barrier, then
/// check the chunk's results against the placement the phase runs under. Each client times
/// only its own serving loop, so the checks and the barrier waits stay outside every timed
/// window, and the memory the checks need is bounded by the chunk size.
pub fn serve_phase(
    engine: &ServingEngine,
    graph: &BipartiteGraph,
    requests: &[Vec<u32>],
    latencies_ns: &mut Vec<u32>,
    ledger: &mut Ledger,
) -> PhaseOutcome {
    let snapshot = engine.current_snapshot();
    let assignment = snapshot.assignment();
    let epoch = snapshot.epoch();
    let num_shards = snapshot.num_shards() as usize;
    let chunks = requests
        .iter()
        .map(|r| r.len().div_ceil(CHUNK))
        .max()
        .unwrap_or(0);
    let barrier = Barrier::new(requests.len());
    struct Client {
        wall_s: f64,
        lat: Vec<u32>,
        served: u64,
        failures: Vec<String>,
        fanout_sum: u64,
    }
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|reqs| {
                let (barrier, assignment) = (&barrier, &assignment);
                scope.spawn(move || {
                    let mut me = Client {
                        wall_s: 0.0,
                        lat: Vec::with_capacity(reqs.len()),
                        served: 0,
                        failures: Vec::new(),
                        fanout_sum: 0,
                    };
                    let mut results = Vec::with_capacity(CHUNK);
                    let mut stamp = vec![u32::MAX; num_shards];
                    let mut tick = 0u32;
                    for c in 0..chunks {
                        let chunk = reqs.get(c * CHUNK..).unwrap_or(&[]);
                        let chunk = &chunk[..chunk.len().min(CHUNK)];
                        barrier.wait();
                        let start = Instant::now();
                        for &q in chunk {
                            let keys = graph.query_neighbors(q);
                            let t = Instant::now();
                            let r = engine.multiget(keys);
                            me.lat
                                .push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                            results.push((q, r));
                        }
                        me.wall_s += start.elapsed().as_secs_f64();
                        barrier.wait();
                        for (q, r) in results.drain(..) {
                            tick += 1;
                            let keys = graph.query_neighbors(q);
                            me.served += 1;
                            let checked = match r {
                                Ok(r) => {
                                    me.fanout_sum += r.fanout as u64;
                                    check_multiget(keys, &r, assignment, epoch, &mut stamp, tick)
                                }
                                Err(e) => Err(format!("multiget of query {q}: {e}")),
                            };
                            if let Err(why) = checked {
                                me.failures.push(why);
                            }
                        }
                    }
                    me
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut outcome = PhaseOutcome {
        clients: clients.iter().map(|c| (c.served, c.wall_s)).collect(),
        multigets: 0,
        fanout_sum: 0,
    };
    for client in clients {
        latencies_ns.extend_from_slice(&client.lat);
        outcome.fanout_sum += client.fanout_sum;
        outcome.multigets += client.served;
        ledger.record_many(Kind::Multiget, client.served, client.failures);
    }
    outcome
}

/// A multiget must return exactly its distinct keys, ascending, each with the record the store
/// was loaded with, miss nothing, be served under the phase's epoch, and contact exactly the
/// shards owning its keys (a cache hit can only remove shards from that set).
fn check_multiget(
    keys: &[u32],
    r: &MultigetResult,
    assignment: &[u32],
    epoch: u64,
    stamp: &mut [u32],
    tick: u32,
) -> Result<(), String> {
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if r.values.len() != distinct.len()
        || r.values
            .iter()
            .zip(&distinct)
            .any(|(&(k, v), &want)| k != want || v != value_of(want))
    {
        return Err(format!("wrong values for keys {distinct:?}"));
    }
    if !r.missing_keys.is_empty() {
        return Err(format!("missing keys {:?}", r.missing_keys));
    }
    if r.epoch != epoch {
        return Err(format!("served at epoch {} under epoch {epoch}", r.epoch));
    }
    let mut owners = 0u32;
    for &k in &distinct {
        let s = assignment[k as usize] as usize;
        if stamp[s] != tick {
            stamp[s] = tick;
            owners += 1;
        }
    }
    let fanout_ok = if r.cache_hits == 0 {
        r.fanout == owners
    } else if r.cache_hits == distinct.len() {
        r.fanout == 0
    } else {
        r.fanout >= 1 && r.fanout <= owners
    };
    if !fanout_ok {
        return Err(format!(
            "fanout {} with {} cache hits, {owners} owning shards",
            r.fanout, r.cache_hits
        ));
    }
    Ok(())
}

/// Runs one controller epoch through `epoch` and checks it: the epoch id strictly increases,
/// at most `budget` keys move, and the diff of the placements before and after has exactly
/// `moved_keys` entries. Returns the epoch's wall time and outcome when it ran.
pub fn checked_epoch(
    engine: &ServingEngine,
    budget: usize,
    ledger: &mut Ledger,
    epoch: impl FnOnce() -> ShpResult<Option<EpochOutcome>>,
) -> Option<(f64, EpochOutcome)> {
    let before = engine.current_snapshot();
    let start = Instant::now();
    let result = epoch();
    let secs = start.elapsed().as_secs_f64();
    let checked = match &result {
        Ok(Some(o)) => {
            let after = engine.current_snapshot();
            let diff = before
                .assignment()
                .iter()
                .zip(after.assignment())
                .filter(|(a, b)| *a != b)
                .count();
            if o.epoch <= before.epoch() || after.epoch() != o.epoch {
                Err(format!(
                    "epoch {} after {} (live {})",
                    o.epoch,
                    before.epoch(),
                    after.epoch()
                ))
            } else if o.moved_keys > budget {
                Err(format!("moved {} keys over budget {budget}", o.moved_keys))
            } else if diff != o.moved_keys {
                Err(format!(
                    "placement diff {diff} != moved_keys {}",
                    o.moved_keys
                ))
            } else {
                Ok(())
            }
        }
        Ok(None) => Err("epoch skipped: no co-access samples".into()),
        Err(e) => Err(format!("epoch failed: {e}")),
    };
    let ok = checked.is_ok();
    ledger.record(Kind::Epoch, checked);
    match result {
        Ok(Some(o)) if ok => Some((secs, o)),
        _ => None,
    }
}
