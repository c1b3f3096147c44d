//! Guarded serves and the correctness gate applied to every one.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use aaod_core::{ClusterResult, ClusterStats, DispatchStats, Engine, EngineResult, FaultStats};
use aaod_mcu::OsStats;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::SimTime;
use aaod_workload::Workload;

use crate::guard::{self, Outcome};
use crate::workloads::{Setup, Target};

/// Longest a single serve may take before it counts as hung.
pub const SERVE_TIMEOUT: Duration = Duration::from_secs(60);

/// What one serve returned.
#[allow(clippy::large_enum_variant)] // one value per serve
pub enum Served {
    Engine(EngineResult),
    Cluster(ClusterResult),
}

/// Serves `workload` through `engine` on a guarded thread.
pub fn engine(engine: &Arc<Engine>, workload: &Arc<Workload>) -> Outcome<EngineResult> {
    let (engine, workload) = (Arc::clone(engine), Arc::clone(workload));
    guard::run(SERVE_TIMEOUT, move || engine.serve(&workload))
}

/// Serves the whole workload through `target` on a guarded thread.
pub fn target(target: &Target, setup: &Setup) -> Outcome<Served> {
    let workload = Arc::clone(&setup.workload);
    match target {
        Target::Engine(e) => {
            let e = Arc::clone(e);
            guard::run(SERVE_TIMEOUT, move || {
                e.serve(&workload).map(Served::Engine)
            })
        }
        Target::Cluster(c) => {
            let (c, bank) = (Arc::clone(c), Arc::clone(&setup.bank));
            guard::run(SERVE_TIMEOUT, move || {
                c.serve(&workload, &bank).map(Served::Cluster)
            })
        }
    }
}

/// Checks collected outputs: a slot is empty exactly when its request
/// is in `missing`, and every other slot equals the oracle's bytes.
pub fn outputs<'a>(
    outputs: Option<&Vec<Vec<u8>>>,
    missing: &BTreeSet<usize>,
    expected: impl Fn(usize) -> &'a [u8],
    n: usize,
) -> Result<(), String> {
    let outputs = outputs.ok_or("outputs were not collected")?;
    if outputs.len() != n {
        return Err(format!("{} outputs for {n} requests", outputs.len()));
    }
    for (i, out) in outputs.iter().enumerate() {
        if missing.contains(&i) {
            if !out.is_empty() {
                return Err(format!(
                    "request {i} has no result but a filled output slot"
                ));
            }
        } else if out.is_empty() {
            return Err(format!("request {i} completed with an empty output slot"));
        } else if out.as_slice() != expected(i) {
            return Err(format!("request {i} differs from the software oracle"));
        }
    }
    Ok(())
}

/// The requests of an engine serve that produced no output.
pub fn engine_missing(r: &EngineResult) -> BTreeSet<usize> {
    r.failed
        .keys()
        .chain(r.shed.keys())
        .chain(r.deadline_missed.keys())
        .chain(r.quota_exceeded.keys())
        .copied()
        .collect()
}

/// The requests of a fleet serve that produced no output.
pub fn cluster_missing(r: &ClusterResult) -> BTreeSet<usize> {
    r.failed
        .keys()
        .chain(r.shed.keys())
        .chain(r.deadline_missed.keys())
        .copied()
        .collect()
}

/// Applies the correctness gate to a whole-workload serve and returns
/// the requests completed in time.
pub fn check(served: &Served, setup: &Setup, reference: &[Vec<u8>]) -> Result<usize, String> {
    let n = setup.workload.len();
    let expected = |i: usize| reference[i].as_slice();
    match served {
        Served::Engine(r) => {
            if r.input_bytes != setup.input_bytes {
                return Err(format!(
                    "engine saw {} input bytes, the workload has {}",
                    r.input_bytes, setup.input_bytes
                ));
            }
            let missing = engine_missing(r);
            outputs(r.outputs.as_ref(), &missing, expected, n)?;
            Ok(n - missing.len())
        }
        Served::Cluster(r) => {
            if !r.stats.accounted() {
                return Err(format!("fleet ledger out of balance: {:?}", r.stats));
            }
            if !r.stats.reconciled() {
                return Err(format!("fleet redirections unreconciled: {:?}", r.stats));
            }
            let missing = cluster_missing(r);
            outputs(r.outputs.as_ref(), &missing, expected, n)?;
            if r.stats.completed as usize != n - missing.len() {
                return Err(format!(
                    "fleet ledger completed {} but {} outputs survived",
                    r.stats.completed,
                    n - missing.len()
                ));
            }
            Ok(n - missing.len())
        }
    }
}

/// Every modelled quantity of a serve; two serves of one run must
/// produce equal values.
#[derive(PartialEq)]
#[allow(clippy::large_enum_variant)] // one value per serve
pub enum Modelled {
    Engine {
        makespan: SimTime,
        service: SimTime,
        latency: TimeAccumulator,
        shard_busy: Vec<SimTime>,
        stats: OsStats,
        batches: u64,
        coalesced: u64,
        dispatch: DispatchStats,
        faults: FaultStats,
        hits: Vec<bool>,
        missing: BTreeSet<usize>,
    },
    Cluster {
        makespan: SimTime,
        sojourn: TimeAccumulator,
        stats: ClusterStats,
        assignment: Vec<Option<u32>>,
        busy: Vec<SimTime>,
        missing: BTreeSet<usize>,
    },
}

impl Modelled {
    pub fn of(served: &Served) -> Modelled {
        match served {
            Served::Engine(r) => Modelled::Engine {
                makespan: r.makespan,
                service: r.total_service_time,
                latency: r.latency.clone(),
                shard_busy: r.shard_busy.clone(),
                stats: r.stats,
                batches: r.batches,
                coalesced: r.coalesced,
                dispatch: r.dispatch,
                faults: r.faults,
                hits: r.per_request_hit.clone(),
                missing: engine_missing(r),
            },
            Served::Cluster(r) => Modelled::Cluster {
                makespan: r.makespan,
                sojourn: r.sojourn.clone(),
                stats: r.stats,
                assignment: r.assignment.clone(),
                busy: r.card_health.iter().map(|h| h.busy).collect(),
                missing: cluster_missing(r),
            },
        }
    }

    /// Modelled makespan of the serve.
    pub fn makespan(&self) -> SimTime {
        match self {
            Modelled::Engine { makespan, .. } | Modelled::Cluster { makespan, .. } => *makespan,
        }
    }

    /// The latency distribution a user sees: service time on an
    /// engine, arrival-to-completion sojourn on a fleet.
    pub fn latency(&self) -> &TimeAccumulator {
        match self {
            Modelled::Engine { latency, .. } => latency,
            Modelled::Cluster { sojourn, .. } => sojourn,
        }
    }
}
