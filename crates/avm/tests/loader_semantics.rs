//! Loader-semantics edge cases: the corners of the DCL hooks that the
//! measurement's failure statistics depend on.

use std::sync::Arc;

use dydroid_avm::events::DclKind;
use dydroid_avm::{Device, DeviceConfig, Process};
use dydroid_dex::builder::DexBuilder;
use dydroid_dex::native::{Arch, NativeFunction, NativeInsn, NativeLibrary};
use dydroid_dex::{AccessFlags, Apk, Component, Manifest, MethodRef};

fn device_with(pkg: &str, build: impl FnOnce(&mut DexBuilder)) -> (Device, Process) {
    let mut manifest = Manifest::new(pkg);
    manifest
        .components
        .push(Component::main_activity(format!("{pkg}.Main")));
    let mut b = DexBuilder::new();
    build(&mut b);
    let dex = b.build();
    let mut device = Device::new(DeviceConfig::default());
    device
        .install(&Apk::build(manifest.clone(), dydroid_dex::DexFile::new()).to_bytes())
        .unwrap();
    let process = Process::new(pkg.to_string(), dex, &manifest);
    (device, process)
}

#[test]
fn infinite_native_loop_hits_shared_fuel() {
    // A hostile JNI_OnLoad spinning forever must hit the interpreter's
    // shared fuel budget, not hang the harness.
    let pkg = "com.spin.native";
    let lib = NativeLibrary::new("libspin.so", Arch::Arm).with_function(NativeFunction::exported(
        "JNI_OnLoad",
        vec![NativeInsn::Jump { target: 0 }],
    ));
    let (mut device, mut process) = device_with(pkg, |b| {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(4);
        m.const_str(1, "/data/data/com.spin.native/files/libspin.so");
        m.invoke_static(
            MethodRef::new("java.lang.System", "load", "(Ljava/lang/String;)V"),
            vec![1],
        );
        m.ret_void();
    });
    device
        .app_write(
            pkg,
            "/data/data/com.spin.native/files/libspin.so",
            lib.to_bytes(),
        )
        .unwrap();
    let started = std::time::Instant::now();
    let completed = process.run_entry(&mut device, &format!("{pkg}.Main"), "onCreate");
    assert!(!completed, "must abort on fuel exhaustion");
    assert!(started.elapsed().as_secs() < 5, "must not hang");
    assert!(device.log.events().iter().any(|e| matches!(
        e,
        dydroid_avm::Event::Crash { reason, .. } if reason.contains("budget")
    )));
    // The load itself was still observed before the spin.
    assert_eq!(device.log.dcl_events().count(), 1);
}

#[test]
fn odex_write_failure_does_not_break_the_load() {
    // A loader pointing its optimized-dex directory at another app's
    // storage: the odex copy is silently skipped (permission), but the
    // load itself succeeds — matching the paper's observation that the
    // odex dir is app-controlled.
    let pkg = "com.odex.foreign";
    let payload = {
        let mut b = DexBuilder::new();
        b.class("p.P", "java.lang.Object").default_constructor();
        b.build()
    };
    let staged = format!("/data/data/{pkg}/files/p.dex");
    let (mut device, mut process) = device_with(pkg, |b| {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, &staged);
        m.const_str(2, "/data/data/com.other.app/odex");
        m.new_instance(3, "dalvik.system.DexClassLoader");
        m.invoke_direct(
            MethodRef::new(
                "dalvik.system.DexClassLoader",
                "<init>",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![3, 1, 2],
        );
        m.ret_void();
    });
    device.app_write(pkg, &staged, payload.to_bytes()).unwrap();
    assert!(process.run_entry(&mut device, &format!("{pkg}.Main"), "onCreate"));
    let events: Vec<_> = device.log.dcl_events().collect();
    assert_eq!(events.len(), 1);
    assert!(events[0].success);
    assert!(!device.fs.exists("/data/data/com.other.app/odex/p.dex.odex"));
    assert_eq!(process.dynamic_space_count(), 1);
}

#[test]
fn path_class_loader_has_its_own_event_kind() {
    let pkg = "com.pathloader";
    let payload = {
        let mut b = DexBuilder::new();
        b.class("p.P", "java.lang.Object").default_constructor();
        b.build()
    };
    let staged = format!("/data/data/{pkg}/files/p.apk");
    let (mut device, mut process) = device_with(pkg, |b| {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, &staged);
        m.new_instance(2, "dalvik.system.PathClassLoader");
        m.invoke_direct(
            MethodRef::new(
                "dalvik.system.PathClassLoader",
                "<init>",
                "(Ljava/lang/String;)V",
            ),
            vec![2, 1],
        );
        m.ret_void();
    });
    device.app_write(pkg, &staged, payload.to_bytes()).unwrap();
    assert!(process.run_entry(&mut device, &format!("{pkg}.Main"), "onCreate"));
    let events: Vec<_> = device.log.dcl_events().collect();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, DclKind::PathClassLoader);
    assert!(events[0].kind.is_dex());
}

#[test]
fn failed_dex_load_logs_unsuccessful_event_and_loader_delegates() {
    // Loading a missing file: the constructor survives (matching Android,
    // where failure surfaces at class resolution), the event is recorded
    // as unsuccessful, and loadClass falls back to the app space.
    let pkg = "com.missing.payload";
    let (mut device, mut process) = device_with(pkg, |b| {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        c.default_constructor();
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, "/data/data/com.missing.payload/files/nope.dex");
        m.const_str(2, "/data/data/com.missing.payload/odex");
        m.new_instance(3, "dalvik.system.DexClassLoader");
        m.invoke_direct(
            MethodRef::new(
                "dalvik.system.DexClassLoader",
                "<init>",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![3, 1, 2],
        );
        // Resolving a class that only exists in the APP space still works
        // (parent delegation).
        m.const_str(4, format!("{pkg}.Main"));
        m.invoke_virtual(
            MethodRef::new(
                "dalvik.system.DexClassLoader",
                "loadClass",
                "(Ljava/lang/String;)Ljava/lang/Class;",
            ),
            vec![3, 4],
        );
        m.ret_void();
    });
    assert!(process.run_entry(&mut device, &format!("{pkg}.Main"), "onCreate"));
    let events: Vec<_> = device.log.dcl_events().collect();
    assert_eq!(events.len(), 1);
    assert!(!events[0].success);
    assert_eq!(process.dynamic_space_count(), 0);
    assert!(device.hooks.intercepted().is_empty());
}

#[test]
fn corrupt_payload_is_unsuccessful_but_not_fatal() {
    let pkg = "com.corrupt.payload";
    let staged = format!("/data/data/{pkg}/files/bad.dex");
    let (mut device, mut process) = device_with(pkg, |b| {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, &staged);
        m.const_str(2, format!("/data/data/{pkg}/odex"));
        m.new_instance(3, "dalvik.system.DexClassLoader");
        m.invoke_direct(
            MethodRef::new(
                "dalvik.system.DexClassLoader",
                "<init>",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![3, 1, 2],
        );
        m.ret_void();
    });
    device
        .app_write(pkg, &staged, b"this is not a dex file".to_vec())
        .unwrap();
    assert!(process.run_entry(&mut device, &format!("{pkg}.Main"), "onCreate"));
    let events: Vec<_> = device.log.dcl_events().collect();
    assert_eq!(events.len(), 1);
    assert!(!events[0].success);
}

#[test]
fn dcl_from_dynamically_loaded_code_is_also_intercepted() {
    // Chained loading: stage A loads stage B which loads stage C — the
    // hooks see every hop, and the call-site attribution names the
    // *loaded* class for the inner hop.
    let pkg = "com.chain.loader";
    let stage_c = {
        let mut b = DexBuilder::new();
        b.class("chain.C", "java.lang.Object").default_constructor();
        b.build()
    };
    let stage_b = {
        let mut b = DexBuilder::new();
        let c = b.class("chain.B", "java.lang.Object");
        c.default_constructor();
        let m = c.method("run", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, format!("/data/data/{pkg}/files/c.dex"));
        m.const_str(2, format!("/data/data/{pkg}/odex"));
        m.new_instance(3, "dalvik.system.DexClassLoader");
        m.invoke_direct(
            MethodRef::new(
                "dalvik.system.DexClassLoader",
                "<init>",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![3, 1, 2],
        );
        m.ret_void();
        b.build()
    };

    let (mut device, mut process) = device_with(pkg, |b| {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(12);
        dydroid_workload::emit::dex_load_and_run(
            m,
            &format!("/data/data/{pkg}/files/b.dex"),
            &format!("/data/data/{pkg}/odex"),
            "chain.B",
            "run",
        );
        m.ret_void();
    });
    device
        .app_write(
            pkg,
            &format!("/data/data/{pkg}/files/b.dex"),
            stage_b.to_bytes(),
        )
        .unwrap();
    device
        .app_write(
            pkg,
            &format!("/data/data/{pkg}/files/c.dex"),
            stage_c.to_bytes(),
        )
        .unwrap();
    assert!(process.run_entry(&mut device, &format!("{pkg}.Main"), "onCreate"));
    let events: Vec<_> = device.log.dcl_events().collect();
    assert_eq!(events.len(), 2, "both hops observed");
    assert!(events[0].path.ends_with("b.dex"));
    assert!(events[1].path.ends_with("c.dex"));
    // The inner hop's call site is the dynamically loaded class itself.
    assert_eq!(events[1].call_site_class, "chain.B");
    assert_eq!(process.dynamic_space_count(), 2);
    assert_eq!(device.hooks.intercepted().len(), 2);
}

#[test]
fn dcl_load_appends_a_space_and_leaves_the_installed_base_shared() {
    // Every launch shares the installed app's parsed classes as its base
    // class space; a DCL load appends a space beside it, never into it.
    let pkg = "com.shared.base";
    let payload = {
        let mut b = DexBuilder::new();
        b.class("p.P", "java.lang.Object").default_constructor();
        b.build()
    };
    let staged = format!("/data/data/{pkg}/files/p.dex");
    let odex_dir = format!("/data/data/{pkg}/odex");
    let mut manifest = Manifest::new(pkg);
    manifest
        .components
        .push(Component::main_activity(format!("{pkg}.Main")));
    let mut b = DexBuilder::new();
    {
        let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, &staged);
        m.const_str(2, &odex_dir);
        m.new_instance(3, "dalvik.system.DexClassLoader");
        m.invoke_direct(
            MethodRef::new(
                "dalvik.system.DexClassLoader",
                "<init>",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![3, 1, 2],
        );
        m.ret_void();
    }
    let classes = b.build();
    let mut device = Device::new(DeviceConfig::default());
    device
        .install(&Apk::build(manifest, classes.clone()).to_bytes())
        .unwrap();
    device.app_write(pkg, &staged, payload.to_bytes()).unwrap();
    let base = Arc::clone(&device.app(pkg).unwrap().classes);

    let process = device.launch(pkg).unwrap();
    assert!(process.alive);
    assert_eq!(process.dynamic_space_count(), 1);
    assert!(
        Arc::ptr_eq(&process.spaces[0], &base),
        "launch copied the base"
    );
    assert_eq!(*process.spaces[1], payload);
    let installed = &device.app(pkg).unwrap().classes;
    assert!(Arc::ptr_eq(installed, &base), "install record replaced");
    assert_eq!(**installed, classes, "base class space mutated by the load");

    // The interceptor and the odex copy both hold the loaded bytes.
    assert_eq!(device.hooks.intercepted().len(), 1);
    assert_eq!(device.hooks.intercepted()[0].data, payload.to_bytes());
    assert_eq!(
        device.fs.read(&format!("{odex_dir}/p.dex.odex")).unwrap(),
        payload.to_bytes().as_slice()
    );
}
