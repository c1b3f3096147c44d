//! The benchmark's workloads and metric definitions, and the
//! `BENCHMARK.json` and `perfbench/README.md` written from them.

use crate::workloads::{FLEET_FAULT_SEED, SPECS};
use std::fmt::Write as _;

/// An end-to-end metric, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// A per-layer metric of the traced run, with the end-to-end metric
/// and workload it is predicted to move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "CPU time of workload generation with every payload, bank and Engine/Cluster \
               construction; median over 5 set-ups at the start of the run and one before each timed serve",
    },
    EndToEnd {
        name: "host_req_per_cpu_s",
        unit: "1/s",
        better: "higher",
        bound: 0.24,
        what: "requests per CPU second the process spent serving, median over the run's \
               timed serves (the wall-clock rate is the per-layer host.wall_req_per_s)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "process VmHWM after the first timed serve: set-up, the oracle's reference outputs and one serve",
    },
    EndToEnd {
        name: "goodput",
        unit: "share",
        better: "higher",
        bound: 0.05,
        what: "requests completed in time / submitted; a failed, panicked or timed-out serve counts all its requests as missed",
    },
    EndToEnd {
        name: "model_req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.1,
        what: "requests / modelled makespan",
    },
    EndToEnd {
        name: "model_latency_mean_us",
        unit: "us",
        better: "lower",
        bound: 0.1,
        what: "mean modelled latency: service time (EngineResult::latency) on engine workloads, \
               sojourn (ClusterResult::sojourn) on fleet_chaos; percentiles are per-layer metrics",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const STAGE_HIT: &str = "model_latency_mean_us on straggler_dynamic";
const RECONFIG: &str = "model_req_per_s and model_latency_mean_us on kernel_reconfig";
const FLEET: &str = "goodput and model_latency_mean_us on fleet_chaos";
const DISPATCH: &str = "model_req_per_s on straggler_dynamic";

pub const PER_LAYER: [Layer; 46] = [
    // Host clock, timed from outside in the traced run.
    layer(
        "host.wall_req_per_s",
        "1/s",
        "higher",
        "none; the wall-clock view of host_req_per_cpu_s, swung by hypervisor steal",
    ),
    layer("workload.gen_ms", "ms", "lower", "setup_s on every workload"),
    layer(
        "algos.software_us_per_req",
        "us",
        "lower",
        "host_req_per_cpu_s on fleet_chaos; flat elsewhere",
    ),
    layer(
        "coproc.hit_us_per_req",
        "us",
        "lower",
        "host_req_per_cpu_s on straggler_dynamic",
    ),
    layer(
        "coproc.miss_us_per_req",
        "us",
        "lower",
        "host_req_per_cpu_s on kernel_reconfig",
    ),
    layer(
        "engine.bringup_ms",
        "ms",
        "lower",
        "host_req_per_cpu_s on straggler_dynamic",
    ),
    layer(
        "engine.card_replay_ratio",
        "ratio",
        "lower",
        "host_req_per_cpu_s on straggler_dynamic",
    ),
    layer(
        "dispatch.dynamic_over_modulo",
        "ratio",
        "lower",
        "host_req_per_cpu_s on straggler_dynamic",
    ),
    layer(
        "cluster.overhead_share",
        "share",
        "lower",
        "host_req_per_cpu_s on fleet_chaos",
    ),
    layer(
        "trace.counters_overhead",
        "ratio",
        "lower",
        "none (the traced run only)",
    ),
    // Modelled clock: stage time per served request.
    layer("pci.in", "ps", "lower", STAGE_HIT),
    layer("pci.out", "ps", "lower", STAGE_HIT),
    layer("mcu.lookup", "ps", "lower", STAGE_HIT),
    layer("mcu.data_in", "ps", "lower", STAGE_HIT),
    layer("mcu.collect", "ps", "lower", STAGE_HIT),
    layer("mcu.reconfig", "ps", "lower", RECONFIG),
    layer("mem.rom_fetch", "ps", "lower", RECONFIG),
    layer("fabric.execute", "ps", "lower", STAGE_HIT),
    layer("fault.backoff", "ps", "lower", FLEET),
    layer("fault.repair", "ps", "lower", FLEET),
    layer("fault.reset", "ps", "lower", FLEET),
    // Modelled clock: latency percentiles, from the traced serve.
    layer("engine.service_p50_us", "us", "lower", STAGE_HIT),
    layer("engine.service_p99_us", "us", "lower", RECONFIG),
    layer("cluster.sojourn_p50_us", "us", "lower", FLEET),
    layer("cluster.sojourn_p99_us", "us", "lower", FLEET),
    // Modelled clock: reconfiguration.
    layer(
        "mcu.residency_hit_rate",
        "share",
        "higher",
        "model_req_per_s and model_latency_mean_us on kernel_reconfig; saturated on straggler_dynamic",
    ),
    layer("mcu.evictions", "count", "lower", RECONFIG),
    layer("mcu.frames_configured", "count", "lower", RECONFIG),
    layer("mcu.decoded_hit_rate", "share", "higher", RECONFIG),
    layer("bitstream.frame_store_hit_rate", "share", "higher", RECONFIG),
    layer("bitstream.decompress_bytes", "B", "lower", RECONFIG),
    layer("mem.rom_fetch_bytes", "B", "lower", RECONFIG),
    // Modelled clock: dispatch and batching.
    layer("pci.bytes", "B", "lower", DISPATCH),
    layer("engine.coalesced_share", "share", "higher", DISPATCH),
    layer("engine.shard_imbalance", "ratio", "lower", DISPATCH),
    layer("dispatch.affinity_share", "share", "higher", DISPATCH),
    layer("dispatch.steals", "count", "lower", DISPATCH),
    // Modelled clock: fleet and faults.
    layer("cluster.failovers", "count", "lower", FLEET),
    layer("cluster.hedges", "count", "lower", FLEET),
    layer("cluster.lost", "count", "lower", FLEET),
    layer("cluster.deadline_missed", "count", "lower", FLEET),
    layer("cluster.breaker_rejections", "count", "lower", FLEET),
    layer("cluster.wasted_ps", "ps", "lower", FLEET),
    layer("cluster.card_busy_imbalance", "ratio", "lower", FLEET),
    layer("fault.injected", "count", "lower", FLEET),
    layer("fault.recovered", "count", "higher", FLEET),
];

/// How long one run measures (`--seconds`), in seconds.
pub const RUN_SECONDS: u64 = 20;

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [\"python3\", \"perfbench/run.py\"],");
    let _ = writeln!(out, "  \"paths\": [\"perfbench\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(s.name),
                quote(s.why)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows.join(",\n"));
    out.push_str("}\n");
    out
}

/// The contents of `perfbench/README.md`: how to run the benchmark,
/// each workload's seeds, and every metric with what it measures or
/// what it should move.
pub fn readme_md() -> String {
    let mut out = format!(
        "# perfbench\n\n\
         End-to-end and per-layer benchmark of the co-processor simulator. \
         Written by `python3 perfbench/run.py --write-manifest` from \
         `perfbench/src/manifest.rs`, together with `BENCHMARK.json`; do \
         not edit by hand.\n\n\
         ```\n\
         python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         python3 perfbench/run.py --selftest\n\
         cd perfbench && cargo test --release --offline\n\
         ```\n\n\
         `run.py` builds the package in this directory (into \
         `$CARGO_TARGET_DIR`, default `.bench_build`) and runs it from the \
         repository root. Every serve goes through the public \
         `Engine::serve` / `Cluster::serve` on a guarded thread with a \
         60 s timeout; a timeout, panic or error counts all its requests \
         as failed and the run exits non-zero. Every output is compared \
         byte for byte with `AlgorithmBank::execute_software`, outside the \
         timed region, and every modelled quantity must repeat exactly \
         across the serves of a run. The last line of output is the JSON \
         result; spans the benchmark records around its own calls go to \
         `.bench_out/spans-<workload>-seed<seed>-trace<t>.jsonl`.\n\n\
         `--selftest` serves the open worker-error deadlock (default \
         `EngineConfig`, standard bank, `kernel_workload(200, 9)`) and \
         passes on a typed error or a reported timeout, never a hang.\n\n\
         ## Workloads\n\n\
         `--seed` generates the request stream. The `fleet_chaos` fault \
         schedule is part of the scenario and fixed at seed {FLEET_FAULT_SEED}. Check a \
         claimed gain on the held-out seed as well.\n\n\
         | workload | requests | default seed | held-out seed | why |\n\
         |---|---|---|---|---|\n",
    );
    for s in &SPECS {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            s.name, s.requests, s.seed, s.held_out_seed, s.why
        );
    }
    out.push_str(
        "\n## End-to-end metrics (`--trace 0`)\n\n\
         | metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name, m.unit, m.better, m.bound, m.what
        );
    }
    out.push_str(
        "\n## Per-layer metrics (`--trace 1`)\n\n\
         Every run reports every metric; a layer the workload does not \
         reach reads 0.\n\n\
         | metric | unit | better | should move |\n|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}
