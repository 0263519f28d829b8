//! Differential tests for the interpreter fast path: the interned /
//! pre-resolved / inline-cached engine must not change a single measured
//! byte versus the legacy string-resolving reference interpreter —
//! per-app outcomes, event logs, retired instructions — while its caches
//! demonstrably do the work.

use dydroid::{Pipeline, PipelineConfig};
use dydroid_analysis::decompiler;
use dydroid_avm::{Device, DeviceConfig, Interner, Process, Value};
use dydroid_dex::builder::DexBuilder;
use dydroid_dex::{AccessFlags, CmpKind, Manifest, MethodRef};
use dydroid_workload::{generate, CorpusSpec};
use proptest::prelude::*;

/// The tentpole invariant at corpus scale, per app: exercising each app
/// on a fast-engine device and on a legacy-engine device yields the same
/// serialized outcome, event log, download flow graph and retired
/// instruction count, and only the fast devices' inline caches fire. The
/// report JSON, journal and ledger derive from these through
/// engine-independent code.
#[test]
fn every_app_runs_identically_on_both_engines() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: CorpusSpec::default().seed,
    });
    let pipeline = Pipeline::new(PipelineConfig::default());

    let mut compared = 0;
    let mut fast_ic = 0;
    for app in &corpus {
        let Ok((decompiled, bytes, _)) = decompiler::prepare_for_dynamic_analysis(&app.apk) else {
            continue;
        };
        let run = |config: DeviceConfig| {
            let mut device = pipeline.prepare_device(app, config);
            let outcome = pipeline.exercise_and_analyze(app, &mut device, &bytes, &decompiled);
            let json = serde_json::to_string(&outcome).expect("serialise outcome");
            (json, device)
        };
        let (fast_json, fast) = run(DeviceConfig::default());
        let (legacy_json, legacy) = run(DeviceConfig {
            legacy_interp: true,
            ..DeviceConfig::default()
        });

        let pkg = app.package();
        assert_eq!(fast_json, legacy_json, "{pkg}: outcome diverges");
        assert_eq!(
            fast.log.events(),
            legacy.log.events(),
            "{pkg}: event log diverges"
        );
        assert_eq!(
            serde_json::to_string(&fast.hooks.flow).expect("serialise flow graph"),
            serde_json::to_string(&legacy.hooks.flow).expect("serialise flow graph"),
            "{pkg}: flow graph diverges"
        );
        assert_eq!(
            fast.instructions_retired(),
            legacy.instructions_retired(),
            "{pkg}: retired instructions diverge"
        );
        let (fast_stats, legacy_stats) = (fast.ic_stats(), legacy.ic_stats());
        assert_eq!(
            legacy_stats.hits() + legacy_stats.misses(),
            0,
            "{pkg}: legacy engine has no inline caches"
        );
        fast_ic += fast_stats.hits() + fast_stats.misses();
        compared += 1;
    }
    assert!(compared > 0, "no corpus app reached dynamic analysis");
    // This corpus's apps guard their loaders to run once, so the counters
    // skew to misses; the probe tests below pin down hit behaviour.
    assert!(fast_ic > 0, "fast devices must exercise inline caches");
}

/// Builds the polymorphic probe program: `Sub0..Sub2` override `v()I`,
/// and a single shared call site (`Main.call`) dispatches on whatever
/// receiver the script in `choices` constructs — the worst case for a
/// monomorphic call-site cache.
fn polymorphic_program(choices: &[u8]) -> dydroid_dex::DexFile {
    let mut b = DexBuilder::new();
    b.class("com.p.Base", "java.lang.Object");
    for i in 0..3u8 {
        let c = b.class(format!("com.p.Sub{i}"), "com.p.Base");
        let m = c.method("v", "()I", AccessFlags::PUBLIC);
        m.const_int(1, i64::from(i) * 10 + 1);
        m.ret(1);
    }
    let c = b.class("com.p.Main", "java.lang.Object");
    {
        // The single shared call site every receiver flows through.
        let call = c.method(
            "call",
            "(Ljava/lang/Object;)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
        );
        call.registers(2);
        call.invoke_virtual(MethodRef::new("com.p.Base", "v", "()I"), vec![0]);
        call.move_result(1);
        call.ret(1);
    }
    let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(6);
    m.const_int(0, 0); // acc
    for &choice in choices {
        m.new_instance(1, format!("com.p.Sub{}", choice % 3));
        m.invoke_static(
            MethodRef::new("com.p.Main", "call", "(Ljava/lang/Object;)I"),
            vec![1],
        );
        m.move_result(2);
        m.binop(dydroid_dex::BinOp::Add, 0, 0, 2);
    }
    m.ret(0);
    b.build()
}

fn run_twice(classes: dydroid_dex::DexFile, legacy: bool) -> (Value, Value, u64) {
    let mut device = Device::new(DeviceConfig {
        legacy_interp: legacy,
        ..DeviceConfig::default()
    });
    let manifest = Manifest::new("com.p");
    let mut proc = Process::new("com.p".to_string(), classes, &manifest);
    let first = {
        let mut vm = dydroid_avm::interp::Vm::new(&mut device, &mut proc);
        vm.call_entry("com.p.Main", "f").expect("first run")
    };
    // Second entry on the same process: every resolution the fast path
    // serves now comes from warm code caches and (where the receiver
    // repeats) warm inline caches.
    let second = {
        let mut vm = dydroid_avm::interp::Vm::new(&mut device, &mut proc);
        vm.call_entry("com.p.Main", "f").expect("second run")
    };
    (first, second, proc.ic_stats().hits())
}

proptest! {
    /// Interning any sequence of names round-trips exactly, is
    /// idempotent, and assigns one dense id per distinct string.
    #[test]
    fn interner_round_trips(names in proptest::collection::vec(".{0,24}", 0..48)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = names.iter().map(|n| interner.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(*sym), name.as_str());
            prop_assert_eq!(interner.intern(name), *sym);
            prop_assert_eq!(interner.get(name), Some(*sym));
        }
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }

    /// A warm inline cache never changes what a call site resolves to:
    /// for any receiver script, the cold run, the warm re-run, and the
    /// cacheless legacy interpreter all compute the same value.
    #[test]
    fn ic_hit_never_changes_resolution(choices in proptest::collection::vec(any::<u8>(), 1..24)) {
        let expected: i64 = choices
            .iter()
            .map(|&c| i64::from(c % 3) * 10 + 1)
            .sum();

        let (fast_cold, fast_warm, _) = run_twice(polymorphic_program(&choices), false);
        let (legacy_cold, legacy_warm, legacy_hits) =
            run_twice(polymorphic_program(&choices), true);

        prop_assert_eq!(&fast_cold, &Value::Int(expected));
        prop_assert_eq!(&fast_warm, &fast_cold, "warm caches changed the result");
        prop_assert_eq!(&legacy_cold, &fast_cold);
        prop_assert_eq!(&legacy_warm, &fast_cold);
        prop_assert_eq!(legacy_hits, 0, "legacy interpreter must not touch ICs");
    }
}

/// Deterministic IC sanity on the same probe: a steady monomorphic site
/// hits after its first miss, and repeated receiver flips keep the
/// results correct while forcing misses.
#[test]
fn monomorphic_site_hits_after_first_miss() {
    // Same receiver class 8 times: 1 miss + 7 hits at the shared site.
    let (cold, warm, hits) = run_twice(polymorphic_program(&[0; 8]), false);
    assert_eq!(cold, Value::Int(8));
    assert_eq!(warm, cold);
    assert!(hits > 0, "monomorphic call site never hit its cache");
}

/// The fuel meter is engine-independent: an infinite loop burns the
/// budget to exhaustion identically in both interpreters (the fall-off
/// and branch accounting must match instruction for instruction).
#[test]
fn fuel_accounting_is_identical_across_engines() {
    let mut used = Vec::new();
    for legacy in [false, true] {
        let mut b = DexBuilder::new();
        let c = b.class("com.p.Main", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.registers(4);
        m.const_int(0, 40_000);
        m.const_int(1, 1);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.if_zero(CmpKind::Le, 0, done);
        m.binop(dydroid_dex::BinOp::Sub, 0, 0, 1);
        m.goto(head);
        m.bind(done);
        m.ret_void();
        let mut device = Device::new(DeviceConfig {
            legacy_interp: legacy,
            ..DeviceConfig::default()
        });
        let manifest = Manifest::new("com.p");
        let mut proc = Process::new("com.p".to_string(), b.build(), &manifest);
        assert!(proc.run_entry(&mut device, "com.p.Main", "f"));
        used.push(device.instructions_retired());
    }
    assert_eq!(used[0], used[1], "fuel accounting diverged between engines");
}
