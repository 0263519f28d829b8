//! rebar-style interpreter benchmark: drives a fixed mini-corpus of
//! synthetic bytecode workloads through the AVM interpreter the sweep
//! runs (interned symbols, pre-resolved instruction streams, inline
//! caches, arena heap), checks that every measured entry retires exactly
//! its pinned instruction count ([`RETIRED_PER_ENTRY`]; exit 1 on any
//! mismatch), and emits a unified `BENCH_avm.json` measurement record
//! (appended to `BENCH_history.jsonl`) with per-workload
//! instructions/sec samples so future changes have a regression
//! trajectory (`benchcmp --trend`). The retired instruction total is a
//! `Steady` virtual identity benchcmp gates across machines.

use std::time::Instant;

use dydroid_avm::{Device, DeviceConfig, Process};
use dydroid_bench::{ArgParser, CommonArgs, Direction, Measurement, Stats, EXIT_FINDING};
use dydroid_dex::builder::DexBuilder;
use dydroid_dex::{AccessFlags, CmpKind, DexFile, FieldRef, Manifest, MethodRef};

const USAGE: &str = "avmbench [--samples N] [--warmup N] [--iters N] [--out PATH] \
[--history PATH | --no-history]";

const PKG: &str = "com.bench.app";
const ENTRY_CLASS: &str = "com.bench.Main";
const ENTRY: &str = "bench";

/// Instructions one entry of each workload retires, in [`workloads`]
/// order (the unit test checks names and counts): the bench's
/// correctness gate, pinned absolutely.
const RETIRED_PER_ENTRY: [(&str, u64); 4] = [
    ("calls", 54_005),
    ("fields", 30_021),
    ("mixed", 48_007),
    ("arith", 75_006),
];

/// A `Worker` class with one int field and a `bump()V` virtual method,
/// shared by the call-heavy workloads.
fn add_worker(b: &mut DexBuilder) {
    let c = b.class("com.bench.Worker", "java.lang.Object");
    c.field("n", "I", AccessFlags::PRIVATE);
    let m = c.method("bump", "()V", AccessFlags::PUBLIC);
    m.registers(4);
    m.iget(1, 0, FieldRef::new("com.bench.Worker", "n", "I"));
    m.const_int(2, 1);
    m.binop(dydroid_dex::BinOp::Add, 1, 1, 2);
    m.iput(1, 0, FieldRef::new("com.bench.Worker", "n", "I"));
    m.ret_void();
}

/// Virtual-call churn: one hot monomorphic call site invoked in a loop —
/// the case the call-site inline cache exists for.
fn workload_calls() -> DexFile {
    let mut b = DexBuilder::new();
    add_worker(&mut b);
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(6);
    m.new_instance(0, "com.bench.Worker");
    m.const_int(1, 6000);
    m.const_int(2, 1);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 1, done);
    m.invoke_virtual(MethodRef::new("com.bench.Worker", "bump", "()V"), vec![0]);
    m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

/// Field churn: eight-field object, hot loop reads/writes the *last*
/// declared field — worst case for a linear scan, best case for the
/// field slot cache.
fn workload_fields() -> DexFile {
    let mut b = DexBuilder::new();
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(8);
    m.new_instance(0, ENTRY_CLASS);
    // Populate eight fields so `f7` sits at the end of the slot table.
    for i in 0..8 {
        m.const_int(1, i);
        m.iput(1, 0, FieldRef::new(ENTRY_CLASS, format!("f{i}"), "I"));
    }
    m.const_int(2, 5000);
    m.const_int(3, 1);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 2, done);
    m.iget(4, 0, FieldRef::new(ENTRY_CLASS, "f7", "I"));
    m.binop(dydroid_dex::BinOp::Add, 4, 4, 3);
    m.iput(4, 0, FieldRef::new(ENTRY_CLASS, "f7", "I"));
    m.binop(dydroid_dex::BinOp::Sub, 2, 2, 3);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

/// Mixed: statics, a virtual call and arithmetic per iteration —
/// the shape of real app glue code.
fn workload_mixed() -> DexFile {
    let mut b = DexBuilder::new();
    add_worker(&mut b);
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(8);
    m.new_instance(0, "com.bench.Worker");
    m.const_int(1, 4000);
    m.const_int(2, 1);
    m.const_int(3, 0);
    m.sput(3, FieldRef::new("com.bench.G", "total", "I"));
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 1, done);
    m.invoke_virtual(MethodRef::new("com.bench.Worker", "bump", "()V"), vec![0]);
    m.sget(4, FieldRef::new("com.bench.G", "total", "I"));
    m.binop(dydroid_dex::BinOp::Add, 4, 4, 1);
    m.sput(4, FieldRef::new("com.bench.G", "total", "I"));
    m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

/// Pure register arithmetic — the floor: no names, no dispatch, nothing
/// for a symbol table or an inline cache to save.
fn workload_arith() -> DexFile {
    let mut b = DexBuilder::new();
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(8);
    m.const_int(0, 0); // acc
    m.const_int(1, 15000); // i
    m.const_int(2, 1);
    m.const_int(3, 3);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 1, done);
    m.binop(dydroid_dex::BinOp::Mul, 4, 1, 3);
    m.binop(dydroid_dex::BinOp::Add, 0, 0, 4);
    m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

fn workloads() -> Vec<(&'static str, DexFile)> {
    vec![
        ("calls", workload_calls()),
        ("fields", workload_fields()),
        ("mixed", workload_mixed()),
        ("arith", workload_arith()),
    ]
}

struct Measured {
    /// Per-sample instructions/second.
    samples_ips: Vec<f64>,
    total_instructions: u64,
    total_secs: f64,
}

/// Runs one workload: a persistent process executes the entry `iters`
/// times per sample (resetting the heap between entries so the arena,
/// register pool and inline caches are exercised in steady state),
/// `warmup` unrecorded rounds first.
fn measure(classes: &DexFile, common: &CommonArgs, iters: usize) -> Measured {
    let mut device = Device::new(DeviceConfig {
        instrumented: false,
        ..DeviceConfig::default()
    });
    let manifest = Manifest::new(PKG);
    let mut proc = Process::new(PKG.to_string(), classes.clone(), &manifest);
    let run_round = |proc: &mut Process, device: &mut Device| {
        for _ in 0..iters {
            proc.heap.reset();
            if !proc.run_entry(device, ENTRY_CLASS, ENTRY) {
                eprintln!("avmbench: FAIL — workload crashed");
                std::process::exit(EXIT_FINDING);
            }
        }
    };
    for _ in 0..common.warmup {
        run_round(&mut proc, &mut device);
    }
    let before_all = device.instructions_retired();
    let mut samples_ips = Vec::with_capacity(common.samples);
    let mut total_secs = 0.0;
    for _ in 0..common.samples {
        let before = device.instructions_retired();
        let t0 = Instant::now();
        run_round(&mut proc, &mut device);
        let secs = t0.elapsed().as_secs_f64();
        let insns = device.instructions_retired() - before;
        total_secs += secs;
        samples_ips.push(if secs > 0.0 { insns as f64 / secs } else { 0.0 });
    }
    Measured {
        samples_ips,
        total_instructions: device.instructions_retired() - before_all,
        total_secs,
    }
}

fn workload_json(name: &str, m: &Measured) -> serde_json::Value {
    let stats = Stats::from_samples(&m.samples_ips);
    serde_json::json!({
        "workload": name,
        "samples_ips": m.samples_ips,
        "mean_ips": stats.mean,
        "median_ips": stats.median,
        "stddev_ips": stats.stddev,
        "instructions": m.total_instructions,
        "wall_secs": m.total_secs,
    })
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_avm.json", 10, 3);
    common.scale = 0.0;
    common.seed = 0;
    let mut iters = 5usize;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--iters" => iters = parser.value("--iters", "an integer"),
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }

    // The iteration count shapes the instruction-retirement identity, so
    // it belongs in the workload string: records at different --iters
    // are a shape mismatch and their Steady metrics must not gate. The
    // `legacy-vs-fast` prefix outlives the legacy pass because benchcmp
    // ungates Steady identities across workload names, and the committed
    // baseline carries this one.
    let workload = format!("legacy-vs-fast-i{iters}");
    let mut record = Measurement::new("avm", &workload, common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;

    let mut per_workload = Vec::new();
    let mut total_insns = 0u64;
    let mut total_secs = 0.0f64;
    let entries = (iters * common.samples) as u64;

    for ((name, classes), (_, per_entry)) in workloads().into_iter().zip(RETIRED_PER_ENTRY) {
        eprintln!("avmbench: {name} ...");
        let m = measure(&classes, &common, iters);
        // Correctness identity: every measured entry retires exactly the
        // pinned count.
        if m.total_instructions != per_entry * entries {
            eprintln!(
                "avmbench: FAIL — {name}: {entries} entries retired {} instructions, pinned {}",
                m.total_instructions,
                per_entry * entries
            );
            std::process::exit(EXIT_FINDING);
        }
        let median = Stats::from_samples(&m.samples_ips).median;
        eprintln!("avmbench: {name:<8} {median:>12.0} ips");
        total_insns += m.total_instructions;
        total_secs += m.total_secs;
        record.push_metric(
            &format!("{name}_fast_ips"),
            "instructions/sec",
            Direction::Higher,
            false,
            m.samples_ips.clone(),
        );
        per_workload.push(workload_json(name, &m));
    }

    let aggregate = total_insns as f64 / total_secs.max(f64::MIN_POSITIVE);
    eprintln!("avmbench: aggregate {aggregate:.0} ips");

    record.push_metric(
        "aggregate_fast_ips",
        "instructions/sec",
        Direction::Higher,
        false,
        vec![aggregate],
    );
    // Deterministic identity: the fixed workloads retire exactly this
    // many instructions, on any machine.
    record.push_metric(
        "instructions_retired",
        "count",
        Direction::Steady,
        true,
        vec![total_insns as f64],
    );
    record.counter("avm.instructions_retired", total_insns);

    record.payload = serde_json::json!({
        "iters_per_sample": iters,
        "workloads": per_workload,
        "aggregate_ips": aggregate,
    });

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("avmbench: wrote {}", common.out);
    common.append_history("avmbench", &record);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One entry of each workload retires its pinned count.
    #[test]
    fn workloads_retire_pinned_instruction_counts() {
        let retired: Vec<(&str, u64)> = workloads()
            .into_iter()
            .map(|(name, classes)| {
                let mut device = Device::new(DeviceConfig {
                    instrumented: false,
                    ..DeviceConfig::default()
                });
                let mut proc = Process::new(PKG.to_string(), classes, &Manifest::new(PKG));
                assert!(
                    proc.run_entry(&mut device, ENTRY_CLASS, ENTRY),
                    "{name} crashed"
                );
                (name, device.instructions_retired())
            })
            .collect();
        assert_eq!(retired, RETIRED_PER_ENTRY);
    }
}
