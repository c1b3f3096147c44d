//! The traced run: per-layer metrics on both clocks. Host time is taken
//! from outside, around calls into each layer's public functions;
//! modelled numbers come from the public result ledgers and the
//! Counters-level `TraceReport`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aaod_core::{
    ClusterResult, CoProcessor, Engine, EngineConfig, EngineResult, MetricsRegistry, ShardPolicy,
    TraceConfig,
};
use aaod_mcu::OsStats;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::trace::Stage;

use crate::guard::Outcome;
use crate::manifest::PER_LAYER;
use crate::serve::{self, Modelled, Served};
use crate::spans::Spans;
use crate::workloads::{card_engine_config, cluster_config, Setup, Target};
use crate::{median, ratio, serve_checked, Report};

/// Fewest serves of each arm compared within the traced run.
const MIN_PAIRS: usize = 2;
/// Requests in the engine bring-up probe.
const BRINGUP_REQUESTS: usize = 64;
const BRINGUP_REPS: usize = 5;

/// Each `trace::Stage`, named by the module that models it.
const STAGES: [(Stage, &str); 11] = [
    (Stage::PciIn, "pci.in"),
    (Stage::Lookup, "mcu.lookup"),
    (Stage::RomFetch, "mem.rom_fetch"),
    (Stage::Reconfig, "mcu.reconfig"),
    (Stage::DataIn, "mcu.data_in"),
    (Stage::Execute, "fabric.execute"),
    (Stage::Collect, "mcu.collect"),
    (Stage::PciOut, "pci.out"),
    (Stage::Backoff, "fault.backoff"),
    (Stage::Repair, "fault.repair"),
    (Stage::Reset, "fault.reset"),
];

pub fn run(
    spans: &mut Spans,
    setup: &Setup,
    reference: &[Vec<u8>],
    seconds: u64,
    report: &mut Report,
) {
    // The serving path, untraced against Counters-traced, alternating.
    // Tracing only observes, so both arms must model identical results.
    let traced_target = setup.target_traced(TraceConfig::counters());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut modelled: Option<Modelled> = None;
    let mut traced: Option<Served> = None;
    let start = Instant::now();
    while off.len() < MIN_PAIRS || start.elapsed() < Duration::from_secs(seconds) {
        let Some(untraced) = serve_checked(
            spans,
            "serve",
            &setup.target,
            setup,
            reference,
            &mut modelled,
            report,
        ) else {
            return;
        };
        off.push(untraced.wall);
        let Some(c) = serve_checked(
            spans,
            "serve.traced",
            &traced_target,
            setup,
            reference,
            &mut modelled,
            report,
        ) else {
            return;
        };
        on.push(c.wall);
        traced = Some(c.served);
    }
    let n = setup.workload.len() as f64;
    report.set("host.wall_req_per_s", ratio(n, median(&off)));
    report.set("trace.counters_overhead", ratio(median(&on), median(&off)));

    // Dispatch: Dynamic against AlgoModulo on the fixed engine setup.
    let arms = [ShardPolicy::Dynamic, ShardPolicy::AlgoModulo]
        .map(|shard| Target::Engine(setup.engine(shard, TraceConfig::off())));
    let mut walls = [Vec::new(), Vec::new()];
    let mut arm_modelled = [None, None];
    for _ in 0..MIN_PAIRS {
        for (k, arm) in arms.iter().enumerate() {
            let Some(c) = serve_checked(
                spans,
                "engine.serve",
                arm,
                setup,
                reference,
                &mut arm_modelled[k],
                report,
            ) else {
                return;
            };
            walls[k].push(c.wall);
        }
    }
    let dynamic_wall = median(&walls[0]);
    report.set(
        "dispatch.dynamic_over_modulo",
        ratio(dynamic_wall, median(&walls[1])),
    );

    if !bringup(spans, setup, reference, report) {
        return;
    }
    let Some(replay_wall) = coproc_replay(spans, setup, reference, report) else {
        return;
    };
    report.set("engine.card_replay_ratio", ratio(dynamic_wall, replay_wall));

    match traced {
        Some(Served::Engine(r)) => {
            modelled_layers(&[r], report);
            // No fleet on this path: its layers read 0.
            for m in PER_LAYER.iter().filter(|m| m.name.starts_with("cluster.")) {
                report.set(m.name, 0.0);
            }
        }
        Some(Served::Cluster(r)) => {
            let cluster_wall = median(&off);
            let Some((_, cards_wall)) =
                card_replays(spans, setup, &r, reference, TraceConfig::off(), report)
            else {
                return;
            };
            report.set(
                "cluster.overhead_share",
                ratio(cluster_wall - cards_wall, cluster_wall),
            );
            let Some((cards, _)) =
                card_replays(spans, setup, &r, reference, TraceConfig::counters(), report)
            else {
                return;
            };
            modelled_layers(&cards, report);
            cluster_layers(&r, report);
        }
        None => {}
    }
}

/// Median wall of `Engine::serve` on the first requests of the
/// workload: shard bring-up and planning with almost no serving.
fn bringup(spans: &mut Spans, setup: &Setup, reference: &[Vec<u8>], report: &mut Report) -> bool {
    let k = BRINGUP_REQUESTS.min(setup.workload.len());
    let first: Vec<usize> = (0..k).collect();
    let workload = Arc::new(setup.workload.subset(&first));
    let engine = setup.engine(ShardPolicy::Dynamic, TraceConfig::off());
    let mut walls = Vec::new();
    for _ in 0..BRINGUP_REPS {
        report.attempted += k;
        let (outcome, _) = spans.time("engine.bringup", |_| serve::engine(&engine, &workload));
        let (r, wall) = match outcome {
            Outcome::Done(r, wall) => (r, wall),
            other => {
                report.fail(k, other.failure().unwrap_or_default());
                return false;
            }
        };
        let missing = serve::engine_missing(&r);
        if let Err(e) = serve::outputs(r.outputs.as_ref(), &missing, |i| &reference[i], k) {
            report.wrong(format!("bring-up serve: {e}"));
            return false;
        }
        walls.push(wall.as_secs_f64());
    }
    report.set("engine.bringup_ms", median(&walls) * 1e3);
    true
}

/// Replays the workload on one card through `CoProcessor::invoke_batch`,
/// in same-algorithm runs of at most the engine's batch cap, and splits
/// the host time by whether each batch found its function resident.
/// Returns the summed wall of the calls.
fn coproc_replay(
    spans: &mut Spans,
    setup: &Setup,
    reference: &[Vec<u8>],
    report: &mut Report,
) -> Option<f64> {
    let w = &setup.workload;
    let n = w.len();
    let batch_max = EngineConfig::default().batch_max;
    let (result, _) = spans.time("coproc.replay", |_| -> Result<[(f64, usize); 2], String> {
        let mut card: CoProcessor = (setup.factory)();
        for algo in w.distinct_algos() {
            card.install(algo)
                .map_err(|e| format!("install {algo}: {e}"))?;
        }
        // [hit, miss]: summed seconds and requests.
        let mut split = [(0.0, 0usize); 2];
        let reqs = w.requests();
        let mut i = 0;
        while i < n {
            let algo = reqs[i].algo_id;
            let mut j = i + 1;
            while j < n && j - i < batch_max && reqs[j].algo_id == algo {
                j += 1;
            }
            let inputs: Vec<Vec<u8>> = (i..j).map(|k| w.input(k)).collect();
            let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let t = Instant::now();
            let outs = card
                .invoke_batch(algo, &slices)
                .map_err(|e| format!("invoke_batch at request {i}: {e}"))?;
            let dt = t.elapsed().as_secs_f64();
            for (k, (out, _)) in outs.iter().enumerate() {
                if *out != reference[i + k] {
                    return Err(format!(
                        "card replay: request {} differs from the oracle",
                        i + k
                    ));
                }
            }
            let slot = usize::from(!outs[0].1.hit());
            split[slot].0 += dt;
            split[slot].1 += j - i;
            i = j;
        }
        Ok(split)
    });
    report.attempted += n;
    match result {
        Ok([hit, miss]) => {
            report.set("coproc.hit_us_per_req", ratio(hit.0 * 1e6, hit.1 as f64));
            report.set("coproc.miss_us_per_req", ratio(miss.0 * 1e6, miss.1 as f64));
            Some(hit.0 + miss.0)
        }
        Err(e) => {
            report.fail(n, e);
            None
        }
    }
}

/// Serves each card's share of a fleet run through that card's own
/// engine configuration, one card at a time as `Cluster::serve` does.
/// Returns the card results and their summed wall.
fn card_replays(
    spans: &mut Spans,
    setup: &Setup,
    fleet: &ClusterResult,
    reference: &[Vec<u8>],
    trace: TraceConfig,
    report: &mut Report,
) -> Option<(Vec<EngineResult>, f64)> {
    let cfg = cluster_config(setup.workload.len(), TraceConfig::off());
    // A card serves the jobs it won, except those the router already
    // judged late.
    let mut per_card = vec![Vec::new(); fleet.cards];
    for (i, card) in fleet.assignment.iter().enumerate() {
        if let Some(c) = card {
            if !fleet.deadline_missed.contains_key(&i) {
                per_card[*c as usize].push(i);
            }
        }
    }
    let mut results = Vec::new();
    let mut wall = 0.0;
    let mut exact = true;
    for (c, indices) in per_card.iter().enumerate() {
        if indices.is_empty() {
            continue;
        }
        let engine = Arc::new(Engine::with_factory(
            card_engine_config(&cfg, c, trace),
            setup.factory,
        ));
        let sub = Arc::new(setup.workload.subset(indices));
        report.attempted += indices.len();
        let (outcome, _) = spans.time("cluster.card", |_| serve::engine(&engine, &sub));
        let (r, dt) = match outcome {
            Outcome::Done(r, dt) => (r, dt),
            other => {
                report.fail(indices.len(), other.failure().unwrap_or_default());
                return None;
            }
        };
        let missing = serve::engine_missing(&r);
        let expected = |k: usize| reference[indices[k]].as_slice();
        if let Err(e) = serve::outputs(r.outputs.as_ref(), &missing, expected, indices.len()) {
            report.wrong(format!("card {c} replay: {e}"));
            return None;
        }
        exact &= r.makespan == fleet.card_health[c].busy
            && missing
                .iter()
                .all(|&k| fleet.failed.contains_key(&indices[k]));
        wall += dt.as_secs_f64();
        results.push(r);
    }
    if !exact {
        eprintln!("warning: card replays do not reproduce the fleet's card ledgers");
    }
    Some((results, wall))
}

/// Modelled per-layer metrics of the engines that served the workload.
fn modelled_layers(results: &[EngineResult], report: &mut Report) {
    let mut metrics = MetricsRegistry::default();
    let mut stats = OsStats::default();
    let (mut served, mut coalesced, mut dealt, mut affinity, mut steals) = (0u64, 0, 0, 0, 0);
    let (mut injected, mut recovered) = (0u64, 0u64);
    let mut busy = Vec::new();
    let mut latency = TimeAccumulator::new();
    for r in results {
        latency.merge(&r.latency);
        if let Some(t) = &r.trace {
            metrics.merge(&t.metrics);
        }
        stats.merge(&r.stats);
        served += r.requests as u64;
        coalesced += r.coalesced;
        dealt += r.dispatch.dealt;
        affinity += r.dispatch.affinity_hits;
        steals += r.dispatch.steals;
        injected += r.faults.injected;
        recovered += r.faults.recovered();
        busy.extend(r.shard_busy.iter().map(|t| t.as_ps() as f64));
    }
    let served = served as f64;
    for (stage, name) in STAGES {
        let ps = metrics
            .stage_time
            .get(&stage)
            .map_or(0, |h| h.total().as_ps());
        report.set(name, ratio(ps as f64, served));
    }
    let lat = latency.summary_ns();
    report.set("engine.service_p50_us", lat.p50 / 1e3);
    report.set("engine.service_p99_us", lat.p99 / 1e3);
    println!("# engine service latency over {} samples", lat.count);
    let c = &metrics.counters;
    report.set("mcu.residency_hit_rate", stats.hit_rate());
    report.set("mcu.evictions", stats.evictions as f64);
    report.set("mcu.frames_configured", stats.frames_configured as f64);
    report.set("mcu.decoded_hit_rate", stats.decoded_hit_rate());
    report.set(
        "bitstream.frame_store_hit_rate",
        stats.frame_store_hit_rate(),
    );
    report.set("bitstream.decompress_bytes", c.decompress_bytes as f64);
    report.set("mem.rom_fetch_bytes", c.rom_fetch_bytes as f64);
    report.set("pci.bytes", c.pci_bytes as f64);
    report.set("engine.coalesced_share", ratio(coalesced as f64, served));
    report.set("engine.shard_imbalance", imbalance(&busy));
    report.set(
        "dispatch.affinity_share",
        ratio(affinity as f64, dealt as f64),
    );
    report.set("dispatch.steals", steals as f64);
    report.set("fault.injected", injected as f64);
    report.set("fault.recovered", recovered as f64);
}

/// Fleet ledgers of one `Cluster::serve`.
fn cluster_layers(r: &ClusterResult, report: &mut Report) {
    let s = &r.stats;
    report.set("cluster.failovers", s.failovers as f64);
    report.set("cluster.hedges", s.hedges as f64);
    report.set("cluster.lost", s.lost_unrecoverable as f64);
    report.set("cluster.deadline_missed", s.deadline_missed as f64);
    report.set("cluster.breaker_rejections", s.breaker_rejections as f64);
    report.set("cluster.wasted_ps", s.wasted_time.as_ps() as f64);
    let lat = r.sojourn.summary_ns();
    report.set("cluster.sojourn_p50_us", lat.p50 / 1e3);
    report.set("cluster.sojourn_p99_us", lat.p99 / 1e3);
    println!("# fleet sojourn over {} samples", lat.count);
    let busy: Vec<f64> = r
        .card_health
        .iter()
        .map(|h| h.busy.as_ps() as f64)
        .collect();
    report.set("cluster.card_busy_imbalance", imbalance(&busy));
}

/// Largest over mean.
fn imbalance(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    ratio(values.iter().copied().fold(0.0, f64::max), mean)
}
