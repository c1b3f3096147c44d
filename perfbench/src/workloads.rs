//! The three benchmark workloads and the fixed serving setup they run
//! under. The library sees only the generated `Workload`; the seed is
//! a benchmark argument.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aaod_algos::AlgorithmBank;
use aaod_core::{
    Cluster, ClusterConfig, CoProcessor, Engine, EngineConfig, FaultConfig, ShardPolicy,
    TraceConfig,
};
use aaod_sim::{CardFaultRates, ClusterFaultPlan, FaultPlan, FaultRates, SimTime};
use aaod_workload::{mixes, Workload};

/// Engine shards. The reference machine has two cores (`nproc` = 2).
pub const WORKERS: usize = 2;

/// One named workload.
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Requests per serve.
    pub requests: usize,
    /// Seed used when `--seed` is absent.
    pub seed: u64,
    /// A second seed, kept out of tuning, for checking a claim.
    pub held_out_seed: u64,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "straggler_dynamic",
        requests: 100_000,
        seed: 1,
        held_out_seed: 2,
        why: "seed 1: SHA-1 on 256 B is 60% of traffic, 99.99% residency hits, so host time goes to \
              engine, dispatch, queues and batching, not reconfiguration",
    },
    Spec {
        name: "kernel_reconfig",
        requests: 20_000,
        seed: 9,
        held_out_seed: 10,
        why: "seed 9: any two 56-72-frame DSP/AI images overcommit the 96-frame device, so \
              windowed decompression and LRU replacement run under constant pressure",
    },
    Spec {
        name: "fleet_chaos",
        requests: 20_000,
        seed: 7,
        held_out_seed: 8,
        why: "seed 7: 16-card cluster, open loop with 400 us deadlines and a fixed card and SEU fault schedule, \
              so failover and recovery run beside the clean card path",
    },
];

/// Looks up a workload by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A card of the standard bank.
fn standard_card() -> CoProcessor {
    CoProcessor::default()
}

/// A card of the extended (DSP/AI) bank.
fn extended_card() -> CoProcessor {
    CoProcessor::builder()
        .bank(AlgorithmBank::extended())
        .build()
}

/// The fixed engine setup: two shards, outputs collected, no in-serve
/// verification (outputs are checked outside the timed region),
/// default batch cap and queue depth.
pub fn engine_config(shard: ShardPolicy, trace: TraceConfig) -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        shard,
        verify: false,
        collect_outputs: true,
        trace,
        ..EngineConfig::default()
    }
}

/// Seed of the fleet's fault schedule. It is part of the `fleet_chaos`
/// scenario, not of its request stream: drawn per run seed, the
/// schedule alone moved goodput between 0.76 and 1.0 across five seeds,
/// which would swamp the effect of any code change. The request stream
/// decides whether placement puts the 3DES replicas on cards 3-5 or
/// 6-8; this schedule serves both placements alike. Under schedule 7,
/// one stream in six landed 3DES on the healthier cards, ran 1,200 more
/// 1.5 ms 3DES jobs and cost 35% more host CPU per request.
pub const FLEET_FAULT_SEED: u64 = 3;

/// The fleet setup of `fleet_chaos`: 16 cards, replication 3, open
/// loop at the default interarrival, 400 us deadlines, card faults and
/// engine-level SEUs from the fixed fault schedule.
pub fn cluster_config(requests: usize, trace: TraceConfig) -> ClusterConfig {
    let seed = FLEET_FAULT_SEED;
    let base = ClusterConfig::default();
    let horizon = base.interarrival * requests as u64;
    let rates = CardFaultRates {
        seu_pressure: 0.25,
        ..CardFaultRates::uniform(0.08)
    };
    ClusterConfig {
        cards: 16,
        replication: 3,
        card_workers: WORKERS,
        deadline: Some(SimTime::from_us(400)),
        plan: Some(ClusterFaultPlan::new(seed, rates, horizon)),
        card_faults: Some(FaultConfig::new(FaultPlan::new(
            seed,
            FaultRates::uniform(0.005),
        ))),
        verify: false,
        collect_outputs: true,
        trace,
        ..base
    }
}

/// Salt `Cluster` mixes into each card's fault seed. It mirrors a
/// private constant of `aaod_core::cluster`, so a layer replay can
/// rebuild each card's engine; the replay checks itself against the
/// cluster's own ledger.
const CARD_FAULT_SALT: u64 = 0xCA2D_FA17_5EED_0B0E;

/// The engine configuration `Cluster` gives card `card`: the fleet's
/// shard and batch knobs plus a per-card fault plan whose rates are
/// scaled by the card's SEU pressure.
pub fn card_engine_config(cfg: &ClusterConfig, card: usize, trace: TraceConfig) -> EngineConfig {
    let faults = cfg.card_faults.map(|template| {
        let seu = cfg.plan.as_ref().map_or(1.0, |p| p.seu_multiplier(card));
        let mut rates = template.plan.rates();
        rates.frame_bit_flip *= seu;
        rates.torn_config *= seu;
        rates.rom_payload *= seu;
        rates.pci_transient *= seu;
        let total = rates.total();
        if total > 1.0 {
            rates.frame_bit_flip /= total;
            rates.torn_config /= total;
            rates.rom_payload /= total;
            rates.pci_transient /= total;
        }
        let seed = template.plan.seed()
            ^ CARD_FAULT_SALT
            ^ (card as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        FaultConfig {
            plan: FaultPlan::new(seed, rates).with_latency(template.plan.latency()),
            ..template
        }
    });
    EngineConfig {
        workers: cfg.card_workers,
        batch_max: cfg.batch_max,
        verify: cfg.verify,
        collect_outputs: cfg.collect_outputs,
        faults,
        trace,
        ..EngineConfig::default()
    }
}

/// What a serve runs through.
#[derive(Clone)]
pub enum Target {
    Engine(Arc<Engine>),
    Cluster(Arc<Cluster>),
}

/// Everything a run needs before its first serve.
pub struct Setup {
    pub spec: &'static Spec,
    pub workload: Arc<Workload>,
    pub bank: Arc<AlgorithmBank>,
    /// Builds one card of the workload's bank.
    pub factory: fn() -> CoProcessor,
    /// Sum of every payload's length, from materialising each one.
    pub input_bytes: u64,
    /// The serving path end-to-end metrics are measured on.
    pub target: Target,
    /// Wall time of workload generation alone (`mixes::*` plus every
    /// `Workload::input`).
    pub gen: Duration,
}

impl Setup {
    /// Generates the workload, materialises every payload once, and
    /// builds the bank and the serving target.
    pub fn new(spec: &'static Spec, seed: u64) -> Setup {
        let t0 = Instant::now();
        let workload = match spec.name {
            "straggler_dynamic" => mixes::straggler_workload(spec.requests, seed),
            "kernel_reconfig" => mixes::kernel_workload(spec.requests, seed),
            "fleet_chaos" => mixes::fleet_workload(spec.requests, seed),
            other => unreachable!("no workload named {other}"),
        };
        let input_bytes = (0..workload.len())
            .map(|i| std::hint::black_box(workload.input(i)).len() as u64)
            .sum();
        let gen = t0.elapsed();
        let (bank, factory): (AlgorithmBank, fn() -> CoProcessor) = match spec.name {
            "kernel_reconfig" => (AlgorithmBank::extended(), extended_card),
            _ => (AlgorithmBank::standard(), standard_card),
        };
        Setup {
            spec,
            workload: Arc::new(workload),
            bank: Arc::new(bank),
            factory,
            input_bytes,
            target: target(spec, factory, TraceConfig::off()),
            gen,
        }
    }

    /// The serving target under the given trace level.
    pub fn target_traced(&self, trace: TraceConfig) -> Target {
        target(self.spec, self.factory, trace)
    }

    /// An engine of the fixed setup over this workload's bank.
    pub fn engine(&self, shard: ShardPolicy, trace: TraceConfig) -> Arc<Engine> {
        Arc::new(Engine::with_factory(
            engine_config(shard, trace),
            self.factory,
        ))
    }
}

fn target(spec: &Spec, factory: fn() -> CoProcessor, trace: TraceConfig) -> Target {
    match spec.name {
        "fleet_chaos" => Target::Cluster(Arc::new(Cluster::with_factory(
            cluster_config(spec.requests, trace),
            factory,
        ))),
        _ => Target::Engine(Arc::new(Engine::with_factory(
            engine_config(ShardPolicy::Dynamic, trace),
            factory,
        ))),
    }
}
