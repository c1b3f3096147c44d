//! E16 (extension) — host wall-clock performance of the simulator
//! itself.
//!
//! Every other experiment reports *modelled* time; this one reports
//! how fast the host actually grinds through simulated requests. Four
//! tables:
//!
//! 1. Throughput: simulated requests per wall-clock second (and input
//!    bytes per second) for the serial runner and the engine at
//!    1/2/4 workers, on the E11 zipf full-bank mix and the E15
//!    straggler mix.
//! 2. Ablation: the bit-sliced batch netlist evaluator
//!    ([`run_decoded_netlist_batch`], 64 lanes per walk) against the
//!    scalar per-input walk ([`run_decoded_netlist`]) on the bank's
//!    LUT netlists with E11-sized (256 B) inputs — the batch
//!    evaluation path the controller takes on
//!    [`aaod_mcu::MiniOs::invoke_batch`]. The streaming `crc8` row
//!    adds a third arm, the next-state table ([`StreamTable`]) the
//!    controller compiles once per configuration for streaming
//!    netlists of at most 16 inputs, with its one-off compile time.
//! 3. Software kernels: host MB/s of `Kernel::execute` for each
//!    standard-bank kernel on 1,504 B inputs (the `fleet_chaos` 3DES
//!    request size). Behavioural jobs run `execute` on the serving hot
//!    path ([`aaod_mcu::MiniOs`]), so this is serving speed; it is
//!    unrelated to the modelled `software_cycles`. No floor.
//! 4. Miss path: host µs per reconfiguration miss for each DSP/AI
//!    image (MatMul16, Conv2d, Fft64 — the `kernel_reconfig` images),
//!    split into the payload CRC-32, windowed LZSS decompression plus
//!    configuration-port writes ([`ConfigModule::configure`] less its
//!    CRC), and compiling the configured function: the full readback
//!    decode a changed image takes, and the byte compare against the
//!    verified image that re-configuring an unchanged one takes. None
//!    of this is modelled time. No floor.
//!
//! Regression floors this bench commits to (and CI re-asserts):
//! **combinational bit-sliced speedup ≥ 4×** over the scalar walk, and
//! absolute req/s floors set conservatively (~half of the recorded
//! baseline in `BENCH_hostperf.json`) so shared-runner noise cannot
//! trip them but losing an allocation-free or bit-sliced hot path
//! will.

use aaod_algos::{ids, AlgorithmBank};
use aaod_bench::criterion_fast;
use aaod_bitstream::crc::crc32;
use aaod_bitstream::HEADER_BYTES;
use aaod_core::{run_workload, CoProcessor, Engine, EngineConfig, ShardPolicy};
use aaod_fabric::{
    run_decoded_netlist, run_decoded_netlist_batch, BatchScratch, CompiledFunction, ConfigPort,
    Device, FrameAddress, FunctionImage, NetlistMode, StreamTable,
};
use aaod_mcu::{ConfigModule, MiniOs, MiniOsConfig};
use aaod_sim::report::Table;
use aaod_workload::{mixes, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// The E11 serving mix: zipf(s=1.1) over the full bank, 600 requests
/// of 256 bytes.
fn e11_mix() -> Workload {
    Workload::zipf(&mixes::full_bank(), 600, 1.1, 256, 1711)
}

/// The E15 adversarial straggler mix (1000 requests).
fn e15_mix() -> Workload {
    mixes::straggler_workload(1000, 1)
}

/// Best-of-`reps` wall time for one execution of `f`, in seconds.
/// Minimum (not mean) so scheduler noise on a shared runner biases
/// the figure up in throughput terms, never down.
fn best_wall_s<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn workload_bytes(w: &Workload) -> u64 {
    w.requests().iter().map(|r| r.input_len as u64).sum()
}

/// Wall-clock baselines (requests per second) for the CI floor. The
/// reference machine recorded ~34,900 (serial) and ~41,300 (engine
/// x4) in `BENCH_hostperf.json`; these are derated ~4x so a slower
/// shared CI runner still clears them, and the assert trips when a
/// run falls more than 20% below the derated baseline — a structural
/// regression (lost bit-sliced path, per-request allocation storm),
/// not scheduler noise.
const CI_BASELINE_SERIAL_E11_REQS_PER_S: f64 = 8_000.0;
const CI_BASELINE_ENGINE_X4_E11_REQS_PER_S: f64 = 9_000.0;
/// Trip level: more than 20% below the derated baseline fails.
const FLOOR_FRACTION: f64 = 0.8;
/// The acceptance floor for the tentpole: bit-sliced combinational
/// evaluation must beat the scalar walk by at least this factor.
const FLOOR_COMBINATIONAL_SPEEDUP: f64 = 4.0;

fn print_throughput_table() {
    let reps = 5;
    let mut t = Table::new(
        "E16: host throughput (wall clock), serial runner vs engine",
        &["mix", "config", "reqs", "wall", "req/s", "MB/s (input)"],
    );
    let mut json_rows = Vec::new();
    let mut floor_checks: Vec<(String, f64, f64)> = Vec::new();
    for (mix_name, w) in [("e11_zipf", e11_mix()), ("e15_straggler", e15_mix())] {
        let bytes = workload_bytes(&w);
        // Serial runner: one pre-installed card, repeated runs.
        let mut cp = CoProcessor::default();
        for &id in &w.distinct_algos() {
            cp.install(id).expect("install");
        }
        let serial_s = best_wall_s(reps, || {
            black_box(run_workload(&mut cp, &w, false).expect("serial run"));
        });
        let mut emit = |config: &str, wall_s: f64| {
            let reqs_per_s = w.len() as f64 / wall_s;
            let mb_per_s = bytes as f64 / wall_s / 1e6;
            t.row_owned(vec![
                mix_name.to_string(),
                config.to_string(),
                w.len().to_string(),
                format!("{:.2}ms", wall_s * 1e3),
                format!("{reqs_per_s:.0}"),
                format!("{mb_per_s:.1}"),
            ]);
            json_rows.push(format!(
                "{{\"mix\":\"{mix_name}\",\"config\":\"{config}\",\"reqs\":{},\
                 \"wall_ms\":{:.3},\"reqs_per_s\":{reqs_per_s:.0},\"input_bytes_per_s\":{:.0}}}",
                w.len(),
                wall_s * 1e3,
                bytes as f64 / wall_s,
            ));
            reqs_per_s
        };
        let serial_rps = emit("serial", serial_s);
        if mix_name == "e11_zipf" {
            floor_checks.push((
                "serial e11".into(),
                serial_rps,
                CI_BASELINE_SERIAL_E11_REQS_PER_S * FLOOR_FRACTION,
            ));
        }
        for workers in [1usize, 2, 4] {
            let engine = Engine::new(EngineConfig {
                workers,
                collect_outputs: false,
                shard: ShardPolicy::Balanced,
                ..EngineConfig::default()
            });
            let s = best_wall_s(reps, || {
                black_box(engine.serve(&w).expect("engine serve"));
            });
            let rps = emit(&format!("engine_x{workers}"), s);
            if mix_name == "e11_zipf" && workers == 4 {
                floor_checks.push((
                    "engine x4 e11".into(),
                    rps,
                    CI_BASELINE_ENGINE_X4_E11_REQS_PER_S * FLOOR_FRACTION,
                ));
            }
        }
    }
    println!("{t}");
    for (name, got, floor) in floor_checks {
        assert!(
            got >= floor,
            "regression: {name} host throughput fell to {got:.0} req/s (floor {floor:.0})"
        );
    }
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_throughput\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn print_ablation_table() {
    let reps = 5;
    // E11-sized inputs: 600 requests of 256 bytes, deterministic fill.
    let mut rng = aaod_sim::SplitMix64::new(16);
    let inputs: Vec<Vec<u8>> = (0..600)
        .map(|_| {
            let mut v = vec![0u8; 256];
            rng.fill(&mut v);
            v
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let total_bytes: usize = inputs.iter().map(Vec::len).sum();
    let cases = [
        (
            "adder8",
            aaod_algos::netlists::adder8_netlist(),
            NetlistMode::Combinational,
        ),
        (
            "parity8",
            aaod_algos::netlists::parity8_netlist(),
            NetlistMode::Combinational,
        ),
        (
            "popcount8",
            aaod_algos::netlists::popcount8_netlist(),
            NetlistMode::Combinational,
        ),
        (
            "crc8",
            aaod_algos::netlists::crc8_netlist(),
            NetlistMode::Streaming,
        ),
    ];
    let mut t = Table::new(
        "E16b: batch netlist evaluation, scalar walk vs bit-sliced vs tabulated (600 x 256 B)",
        &[
            "netlist",
            "mode",
            "scalar",
            "sliced",
            "speedup",
            "MB/s sliced",
            "tabulated",
            "tab speedup",
            "tab compile",
        ],
    );
    let mut json_rows = Vec::new();
    let mut worst_comb_speedup = f64::INFINITY;
    for (name, netlist, mode) in cases {
        let scalar_s = best_wall_s(reps, || {
            for input in &refs {
                black_box(run_decoded_netlist(&netlist, mode, input).expect("scalar"));
            }
        });
        let mut scratch = BatchScratch::default();
        let sliced_s = best_wall_s(reps, || {
            black_box(
                run_decoded_netlist_batch(&netlist, mode, &refs, &mut scratch).expect("sliced"),
            );
        });
        // Sanity: the two paths must agree before we time them apart.
        let batched = run_decoded_netlist_batch(&netlist, mode, &refs, &mut scratch).unwrap();
        for (input, got) in refs.iter().zip(&batched) {
            assert_eq!(got, &run_decoded_netlist(&netlist, mode, input).unwrap());
        }
        // Tabulated arm (small streaming netlists only): checked byte
        // for byte against the scalar walk, then timed apart from its
        // one-off compile.
        let tabulated = StreamTable::compile(&netlist, mode).map(|table| {
            for input in &refs {
                assert_eq!(
                    table.run(input),
                    run_decoded_netlist(&netlist, mode, input).unwrap()
                );
            }
            let compile_s = best_wall_s(reps, || {
                black_box(StreamTable::compile(&netlist, mode));
            });
            let run_s = best_wall_s(reps, || {
                for input in &refs {
                    black_box(table.run(input));
                }
            });
            (run_s, compile_s)
        });
        let speedup = scalar_s / sliced_s;
        if mode == NetlistMode::Combinational {
            worst_comb_speedup = worst_comb_speedup.min(speedup);
        }
        let mode_name = match mode {
            NetlistMode::Combinational => "combinational",
            NetlistMode::Streaming => "streaming",
        };
        let mut row = vec![
            name.to_string(),
            mode_name.to_string(),
            format!("{:.2}ms", scalar_s * 1e3),
            format!("{:.2}ms", sliced_s * 1e3),
            format!("{speedup:.1}x"),
            format!("{:.1}", total_bytes as f64 / sliced_s / 1e6),
        ];
        let mut tab_json = String::new();
        match tabulated {
            Some((run_s, compile_s)) => {
                row.push(format!("{:.3}ms", run_s * 1e3));
                row.push(format!("{:.1}x", scalar_s / run_s));
                row.push(format!("{:.3}ms", compile_s * 1e3));
                tab_json = format!(
                    ",\"tabulated_ms\":{:.3},\"tabulated_speedup\":{:.2},\
                     \"tabulate_compile_ms\":{:.3}",
                    run_s * 1e3,
                    scalar_s / run_s,
                    compile_s * 1e3,
                );
            }
            None => row.extend(["-", "-", "-"].map(String::from)),
        }
        t.row_owned(row);
        json_rows.push(format!(
            "{{\"netlist\":\"{name}\",\"mode\":\"{mode_name}\",\"inputs\":{},\"bytes\":{total_bytes},\
             \"scalar_ms\":{:.3},\"sliced_ms\":{:.3},\"speedup\":{speedup:.2},\
             \"sliced_bytes_per_s\":{:.0}{tab_json}}}",
            refs.len(),
            scalar_s * 1e3,
            sliced_s * 1e3,
            total_bytes as f64 / sliced_s,
        ));
    }
    println!("{t}");
    assert!(
        worst_comb_speedup >= FLOOR_COMBINATIONAL_SPEEDUP,
        "regression: bit-sliced combinational evaluation speedup fell to \
         {worst_comb_speedup:.2}x (floor {FLOOR_COMBINATIONAL_SPEEDUP}x)"
    );
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_ablation\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn print_software_table() {
    const INPUT_LEN: usize = 1504;
    const CALLS: usize = 20;
    let mut input = vec![0u8; INPUT_LEN];
    aaod_sim::SplitMix64::new(1504).fill(&mut input);
    let mut t = Table::new(
        "E16c: software kernels, Kernel::execute on 1504 B inputs",
        &["kernel", "id", "us/call", "MB/s"],
    );
    let mut json_rows = Vec::new();
    for kernel in AlgorithmBank::standard().iter() {
        let params = kernel.default_params();
        let wall_s = best_wall_s(5, || {
            for _ in 0..CALLS {
                black_box(kernel.execute(&params, black_box(&input)).expect("execute"));
            }
        }) / CALLS as f64;
        let mb_per_s = INPUT_LEN as f64 / wall_s / 1e6;
        t.row_owned(vec![
            kernel.name().to_string(),
            kernel.algo_id().to_string(),
            format!("{:.2}", wall_s * 1e6),
            format!("{mb_per_s:.1}"),
        ]);
        json_rows.push(format!(
            "{{\"kernel\":\"{}\",\"id\":{},\"input_bytes\":{INPUT_LEN},\
             \"us_per_call\":{:.3},\"bytes_per_s\":{:.0}}}",
            kernel.name(),
            kernel.algo_id(),
            wall_s * 1e6,
            INPUT_LEN as f64 / wall_s,
        ));
    }
    println!("{t}");
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_software\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn print_miss_path_table() {
    const CALLS: usize = 20;
    let config = MiniOsConfig {
        bank: AlgorithmBank::extended(),
        ..MiniOsConfig::default()
    };
    let window = config.window;
    let os = MiniOs::new(config);
    let geom = os.geometry();
    let port = ConfigPort::selectmap8();
    let mut module = ConfigModule::new(window, os.mcu_clock());
    let mut t = Table::new(
        "E16d: host cost of one reconfiguration miss (LZSS, 256 B windows)",
        &[
            "image",
            "frames",
            "payload B",
            "CRC us",
            "decompress+port us",
            "compile full us",
            "compile verified us",
            "miss us",
        ],
    );
    let mut json_rows = Vec::new();
    for id in ids::DSP_AI {
        let name = os.bank().kernel(id).expect("extended bank").name();
        let encoded = os.encode_bitstream(id).expect("encode");
        let payload = &encoded[HEADER_BYTES..];
        let image_bytes = os
            .bank()
            .build_image(id, geom)
            .expect("image")
            .encode(geom)
            .concat();
        let addrs: Vec<FrameAddress> = (0..(image_bytes.len() / geom.frame_bytes()) as u16)
            .map(FrameAddress)
            .collect();
        let mut device = Device::new(geom);
        let per_call = |f: &mut dyn FnMut()| {
            best_wall_s(5, || {
                for _ in 0..CALLS {
                    f();
                }
            }) / CALLS as f64
                * 1e6
        };
        let crc_us = per_call(&mut || {
            black_box(crc32(black_box(payload)));
        });
        let configure_us = per_call(&mut || {
            black_box(
                module
                    .configure(&encoded, &mut device, &port, &addrs)
                    .expect("configure"),
            );
        });
        let decompress_us = (configure_us - crc_us).max(0.0);
        let mut flat = Vec::new();
        let full_us = per_call(&mut || {
            device
                .read_frames_into(&addrs, &mut flat)
                .expect("read back");
            let image = FunctionImage::from_bytes(&flat).expect("decode");
            black_box(CompiledFunction::new(image.kind().expect("kind")));
        });
        let verified_us = per_call(&mut || {
            device
                .read_frames_into(&addrs, &mut flat)
                .expect("read back");
            assert!(black_box(&flat) == &image_bytes);
        });
        let miss_us = crc_us + decompress_us + verified_us;
        t.row_owned(vec![
            name.to_string(),
            addrs.len().to_string(),
            payload.len().to_string(),
            format!("{crc_us:.1}"),
            format!("{decompress_us:.1}"),
            format!("{full_us:.1}"),
            format!("{verified_us:.1}"),
            format!("{miss_us:.1}"),
        ]);
        json_rows.push(format!(
            "{{\"image\":\"{name}\",\"id\":{id},\"frames\":{},\"payload_bytes\":{},\
             \"crc_us\":{crc_us:.2},\"decompress_port_us\":{decompress_us:.2},\
             \"compile_full_us\":{full_us:.2},\"compile_verified_us\":{verified_us:.2},\
             \"miss_us\":{miss_us:.2}}}",
            addrs.len(),
            payload.len(),
        ));
    }
    println!("{t}");
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_miss_path\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn bench(c: &mut Criterion) {
    print_throughput_table();
    print_ablation_table();
    print_software_table();
    print_miss_path_table();
    let w = e11_mix();
    let mut group = c.benchmark_group("e16_hostperf");
    let engine = Engine::new(EngineConfig {
        workers: 4,
        collect_outputs: false,
        shard: ShardPolicy::Balanced,
        ..EngineConfig::default()
    });
    group.bench_function("e11_engine_x4", |b| {
        b.iter(|| black_box(engine.serve(&w).expect("serve")));
    });
    let netlist = aaod_algos::netlists::adder8_netlist();
    let mut rng = aaod_sim::SplitMix64::new(16);
    let inputs: Vec<Vec<u8>> = (0..64)
        .map(|_| {
            let mut v = vec![0u8; 256];
            rng.fill(&mut v);
            v
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let mut scratch = BatchScratch::default();
    group.bench_function("adder8_sliced_64x256B", |b| {
        b.iter(|| {
            black_box(
                run_decoded_netlist_batch(
                    &netlist,
                    NetlistMode::Combinational,
                    &refs,
                    &mut scratch,
                )
                .expect("sliced"),
            )
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_fast();
    targets = bench
}
criterion_main!(benches);
