//! Framework API intrinsics.
//!
//! Every invoke whose class lives in a platform namespace (`java.*`,
//! `android.*`, `dalvik.*`, …) dispatches here. The instrumented APIs are
//! exactly those DyDroid modifies (Section IV of the paper):
//!
//! - constructors of `DexClassLoader`/`PathClassLoader` and the JNI
//!   `load()`/`loadLibrary()` — the **DCL logger** and **interceptor**;
//! - delete/rename in `java.io.File` — **mutual exclusion** for queued
//!   binaries;
//! - `URL`, `URLConnection.getInputStream()` and the stream/buffer
//!   read/write methods — the **download tracker** (Table I);
//!
//! plus the privacy-source APIs of Table X and the behaviour sinks used to
//! verify malware families. Unmodeled framework methods are no-ops
//! returning null/zero, which keeps hostile inputs from crashing the
//! harness.

use std::sync::Arc;

use dydroid_dex::{DexFile, MethodRef, NativeLibrary};

use crate::error::Exec;
use crate::events::{BehaviorEvent, DclEvent, DclKind, Event, FileOp};
use crate::flow::FlowNode;
use crate::heap::{IntrinsicState, ObjId, StreamSink, StreamSource, Value};
use crate::hooks::InterceptedBinary;
use crate::interp::Vm;
use crate::net::split_url;
use crate::paths;

/// Canned device identifiers returned by the privacy sources.
pub mod canned {
    /// IMEI returned by `TelephonyManager.getDeviceId`.
    pub const IMEI: &str = "353918052339761";
    /// IMSI returned by `TelephonyManager.getSubscriberId`.
    pub const IMSI: &str = "310260000000000";
    /// ICCID returned by `TelephonyManager.getSimSerialNumber`.
    pub const ICCID: &str = "8901260000000000000";
    /// Phone number returned by `TelephonyManager.getLine1Number`.
    pub const LINE1: &str = "+15555550100";
    /// Device account returned by `AccountManager.getAccounts`.
    pub const ACCOUNT: &str = "user@example.com";
    /// Location fix returned by `LocationManager.getLastKnownLocation`.
    pub const LOCATION: &str = "42.0565,-87.6753";
}

fn io_error(msg: impl Into<String>) -> Exec {
    Exec::Throw(format!("IOException: {}", msg.into()))
}

fn str_arg(args: &[Value], i: usize, what: &str) -> Result<String, Exec> {
    args.get(i)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| Exec::Throw(format!("IllegalArgumentException: expected string {what}")))
}

fn obj_arg(args: &[Value], i: usize, what: &str) -> Result<ObjId, Exec> {
    args.get(i)
        .and_then(|v| v.as_obj())
        .ok_or_else(|| Exec::Throw(format!("NullPointerException: {what}")))
}

/// Dispatches a framework call. Returns the call's result value.
///
/// # Errors
///
/// Returns [`Exec`] for in-app failures (IOExceptions on missing files or
/// unavailable network, link errors, class-not-found).
pub fn dispatch(vm: &mut Vm<'_>, mref: &MethodRef, args: &[Value]) -> Result<Value, Exec> {
    let class = mref.class.as_str();
    let name = mref.name.as_str();
    match (class, name) {
        // ------------------------------------------------------------------
        // Fault-injection hook: a framework method that panics the harness
        // itself (not the app). The fault-tolerance suite plants calls to
        // it to prove the sweep isolates analyzer panics; nothing in the
        // regular corpus references this class.
        // ------------------------------------------------------------------
        ("android.os.HarnessFault", "panic") => {
            panic!(
                "injected harness fault: HarnessFault.panic() in {}",
                vm.package()
            );
        }
        // ------------------------------------------------------------------
        // Dynamic code loading: the instrumented constructors and JNI APIs.
        // ------------------------------------------------------------------
        ("dalvik.system.DexClassLoader", "<init>") => {
            let this = obj_arg(args, 0, "DexClassLoader")?;
            let dex_path = str_arg(args, 1, "dexPath")?;
            let odex_dir = args
                .get(2)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .unwrap_or_else(|| paths::odex_dir(vm.package()));
            dex_load(vm, this, &dex_path, &odex_dir, DclKind::DexClassLoader)?;
            Ok(Value::Null)
        }
        ("dalvik.system.PathClassLoader", "<init>") => {
            let this = obj_arg(args, 0, "PathClassLoader")?;
            let dex_path = str_arg(args, 1, "dexPath")?;
            let odex = paths::odex_dir(vm.package());
            dex_load(vm, this, &dex_path, &odex, DclKind::PathClassLoader)?;
            Ok(Value::Null)
        }
        // Extension: Grab'n-Run-style verified loading (Falsina et al.,
        // ACSAC'15 — the mitigation the paper cites for its Table IX
        // code-injection findings). The constructor takes the expected
        // CRC-32 of the file; a tampered file raises a SecurityException
        // instead of executing attacker code.
        ("dalvik.system.SecureDexClassLoader", "<init>") => {
            let this = obj_arg(args, 0, "SecureDexClassLoader")?;
            let dex_path = str_arg(args, 1, "dexPath")?;
            let odex_dir = args
                .get(2)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .unwrap_or_else(|| paths::odex_dir(vm.package()));
            let expected = args.get(3).and_then(Value::as_int).ok_or_else(|| {
                Exec::Throw("IllegalArgumentException: expected checksum".to_string())
            })? as u32;
            let actual = vm
                .device
                .fs
                .read(&dex_path)
                .map(dydroid_dex::checksum::crc32)
                .map_err(|e| io_error(e.to_string()))?;
            if actual != expected {
                // Log the refused load so the measurement sees it.
                let pkg = vm.package().to_string();
                let call_site = vm.caller_class().to_string();
                let stack = vm.stack_trace();
                vm.device.log.push(Event::Dcl(DclEvent {
                    kind: DclKind::DexClassLoader,
                    path: dex_path.clone(),
                    odex_dir: Some(odex_dir),
                    call_site_class: call_site,
                    stack,
                    package: pkg,
                    success: false,
                }));
                return Err(Exec::Throw(format!(
                    "SecurityException: checksum mismatch for {dex_path} \
                     (expected {expected:#010x}, found {actual:#010x})"
                )));
            }
            dex_load(vm, this, &dex_path, &odex_dir, DclKind::DexClassLoader)?;
            Ok(Value::Null)
        }
        (
            "dalvik.system.DexClassLoader"
            | "dalvik.system.PathClassLoader"
            | "dalvik.system.SecureDexClassLoader"
            | "java.lang.ClassLoader",
            "loadClass",
        ) => {
            let this = obj_arg(args, 0, "ClassLoader")?;
            let cls = str_arg(args, 1, "className")?;
            load_class(vm, this, &cls)
        }
        ("java.lang.System" | "java.lang.Runtime", "loadLibrary") => {
            // Instance form (Runtime) passes the receiver first.
            let libname = last_string(args)
                .ok_or_else(|| Exec::Throw("NullPointerException: libName".to_string()))?;
            let resolved = vm.device.resolve_library(vm.package(), &libname);
            match resolved {
                Some(path) => {
                    native_load(vm, &path, DclKind::NativeLoadLibrary)?;
                    Ok(Value::Null)
                }
                None => Err(Exec::Throw(format!(
                    "UnsatisfiedLinkError: no {libname} in library path"
                ))),
            }
        }
        ("java.lang.System" | "java.lang.Runtime", "load" | "load0") => {
            let path = last_string(args)
                .ok_or_else(|| Exec::Throw("NullPointerException: path".to_string()))?;
            native_load(vm, &path, DclKind::NativeLoad)?;
            Ok(Value::Null)
        }
        ("java.lang.Runtime", "getRuntime") => {
            let id = vm.alloc("java.lang.Runtime", IntrinsicState::None);
            Ok(Value::Obj(id))
        }
        ("java.lang.Runtime", "exec") => {
            let command = last_string(args).unwrap_or_default();
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Behavior {
                behavior: BehaviorEvent::RemoteCommand { command },
                package: pkg,
            });
            Ok(Value::Null)
        }

        // ------------------------------------------------------------------
        // Reflection.
        // ------------------------------------------------------------------
        ("java.lang.Class", "forName") => {
            let cls = str_arg(args, 0, "className")?;
            if vm.proc.find_class(&cls).is_none() && !crate::interp::is_framework_class(&cls) {
                return Err(Exec::Throw(format!("ClassNotFoundException: {cls}")));
            }
            let id = vm.alloc("java.lang.Class", IntrinsicState::Class { name: cls });
            Ok(Value::Obj(id))
        }
        ("java.lang.Class", "newInstance") => {
            let this = obj_arg(args, 0, "Class")?;
            let cls = match &vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::Class { name }) => name.clone(),
                _ => return Err(Exec::Throw("InstantiationException".to_string())),
            };
            let sym = vm.proc.interner.intern(&cls);
            let id = vm.proc.heap.alloc(sym);
            if vm.proc.resolve_method(&cls, "<init>").is_some() {
                vm.invoke_resolved(&cls, "<init>", vec![Value::Obj(id)])?;
            }
            Ok(Value::Obj(id))
        }
        ("java.lang.Class", "getMethod") => {
            let this = obj_arg(args, 0, "Class")?;
            let method = str_arg(args, 1, "methodName")?;
            let cls = match &vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::Class { name }) => name.clone(),
                _ => return Err(Exec::Throw("NoSuchMethodException".to_string())),
            };
            let id = vm.alloc(
                "java.lang.reflect.Method",
                IntrinsicState::ReflectMethod { class: cls, method },
            );
            Ok(Value::Obj(id))
        }
        ("java.lang.reflect.Method", "invoke") => {
            let this = obj_arg(args, 0, "Method")?;
            let (cls, method) = match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::ReflectMethod { class, method }) => (class, method),
                _ => {
                    return Err(Exec::Throw(
                        "IllegalArgumentException: not a Method".to_string(),
                    ))
                }
            };
            let call_args: Vec<Value> = args[1..].to_vec();
            vm.invoke_resolved(&cls, &method, call_args)
        }

        // ------------------------------------------------------------------
        // URL / streams: the download tracker's instrumented classes.
        // ------------------------------------------------------------------
        ("java.net.URL", "<init>") => {
            let this = obj_arg(args, 0, "URL")?;
            let spec = str_arg(args, 1, "spec")?;
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = IntrinsicState::Url { url: spec };
            }
            Ok(Value::Null)
        }
        ("java.net.URL", "openConnection") => {
            let this = obj_arg(args, 0, "URL")?;
            let url = match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::Url { url }) => url,
                _ => return Err(io_error("unconnected URL")),
            };
            let id = vm.alloc(
                "java.net.HttpURLConnection",
                IntrinsicState::UrlConnection { url },
            );
            Ok(Value::Obj(id))
        }
        (
            "java.net.URLConnection"
            | "java.net.HttpURLConnection"
            | "java.net.HttpsURLConnection"
            | "java.net.FtpURLConnection",
            "getInputStream",
        ) => {
            let this = obj_arg(args, 0, "URLConnection")?;
            let url = match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::UrlConnection { url }) => url,
                _ => return Err(io_error("unconnected")),
            };
            let pkg = vm.package().to_string();
            if !vm.device.network_available() {
                vm.device.log.push(Event::NetFetch {
                    url: url.clone(),
                    bytes: None,
                    package: pkg,
                });
                return Err(io_error("network unreachable"));
            }
            let data = vm.device.net.fetch(&url).map(<[u8]>::to_vec);
            match data {
                Some(data) => {
                    vm.device.log.push(Event::NetFetch {
                        url: url.clone(),
                        bytes: Some(data.len()),
                        package: pkg,
                    });
                    let id = vm.alloc(
                        "java.io.InputStream",
                        IntrinsicState::InputStream {
                            source: StreamSource::Url(url.clone()),
                            data,
                        },
                    );
                    vm.device
                        .hooks
                        .flow
                        .add_edge(FlowNode::Url(url), FlowNode::InputStream(id.0));
                    Ok(Value::Obj(id))
                }
                None => {
                    vm.device.log.push(Event::NetFetch {
                        url: url.clone(),
                        bytes: None,
                        package: pkg,
                    });
                    Err(io_error(format!("HTTP 404: {url}")))
                }
            }
        }
        (
            "java.net.URLConnection" | "java.net.HttpURLConnection" | "java.net.HttpsURLConnection",
            "getOutputStream",
        ) => {
            let this = obj_arg(args, 0, "URLConnection")?;
            let url = match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::UrlConnection { url }) => url,
                _ => return Err(io_error("unconnected")),
            };
            if !vm.device.network_available() {
                return Err(io_error("network unreachable"));
            }
            let domain = split_url(&url).map(|(d, _)| d.to_string()).unwrap_or(url);
            let id = vm.alloc(
                "java.io.OutputStream",
                IntrinsicState::OutputStream {
                    sink: StreamSink::Net(domain),
                },
            );
            Ok(Value::Obj(id))
        }
        ("java.io.FileInputStream", "<init>") => {
            let this = obj_arg(args, 0, "FileInputStream")?;
            let path = stream_path_arg(vm, args, 1)?;
            let data = vm
                .device
                .fs
                .read(&path)
                .map(<[u8]>::to_vec)
                .map_err(|e| io_error(e.to_string()))?;
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = IntrinsicState::InputStream {
                    source: StreamSource::File(path.clone()),
                    data,
                };
            }
            vm.device
                .hooks
                .flow
                .add_edge(FlowNode::File(path), FlowNode::InputStream(this.0));
            Ok(Value::Null)
        }
        ("android.content.res.AssetManager", "open") => {
            let name = last_string(args)
                .ok_or_else(|| Exec::Throw("NullPointerException: asset".to_string()))?;
            let pkg = vm.package().to_string();
            let data = vm
                .device
                .asset(&pkg, &name)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| io_error(format!("asset not found: {name}")))?;
            let id = vm.alloc(
                "java.io.InputStream",
                IntrinsicState::InputStream {
                    source: StreamSource::Asset(name.clone()),
                    data,
                },
            );
            vm.device.hooks.flow.add_edge(
                FlowNode::File(format!("apk:assets/{name}")),
                FlowNode::InputStream(id.0),
            );
            Ok(Value::Obj(id))
        }
        ("java.io.FileOutputStream", "<init>") => {
            let this = obj_arg(args, 0, "FileOutputStream")?;
            let path = stream_path_arg(vm, args, 1)?;
            let pkg = vm.package().to_string();
            vm.device
                .app_write(&pkg, &path, Vec::new())
                .map_err(|e| io_error(e.to_string()))?;
            vm.device.log.push(Event::File {
                op: FileOp::Write,
                path: path.clone(),
                suppressed: false,
                package: pkg,
            });
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = IntrinsicState::OutputStream {
                    sink: StreamSink::File(path.clone()),
                };
            }
            vm.device
                .hooks
                .flow
                .add_edge(FlowNode::OutputStream(this.0), FlowNode::File(path));
            Ok(Value::Null)
        }
        // Stream wrappers: the Table I rules InputStream→InputStream and
        // OutputStream→OutputStream (e.g. BufferedInputStream around a
        // URL stream) — taint follows the wrap.
        ("java.io.BufferedInputStream" | "java.io.DataInputStream", "<init>") => {
            let this = obj_arg(args, 0, "BufferedInputStream")?;
            let inner = obj_arg(args, 1, "wrapped stream")?;
            let state = match vm.proc.heap.get(inner).map(|o| o.intrinsic.clone()) {
                Some(s @ IntrinsicState::InputStream { .. }) => s,
                _ => return Err(io_error("wrapping a non-stream")),
            };
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = state;
            }
            vm.device.hooks.flow.add_edge(
                FlowNode::InputStream(inner.0),
                FlowNode::InputStream(this.0),
            );
            Ok(Value::Null)
        }
        ("java.io.BufferedOutputStream" | "java.io.DataOutputStream", "<init>") => {
            let this = obj_arg(args, 0, "BufferedOutputStream")?;
            let inner = obj_arg(args, 1, "wrapped stream")?;
            let state = match vm.proc.heap.get(inner).map(|o| o.intrinsic.clone()) {
                Some(s @ IntrinsicState::OutputStream { .. }) => s,
                _ => return Err(io_error("wrapping a non-stream")),
            };
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = state.clone();
            }
            vm.device.hooks.flow.add_edge(
                FlowNode::OutputStream(this.0),
                FlowNode::OutputStream(inner.0),
            );
            // A file-bound wrapper also writes to the file node.
            if let IntrinsicState::OutputStream {
                sink: StreamSink::File(path),
            } = state
            {
                vm.device
                    .hooks
                    .flow
                    .add_edge(FlowNode::OutputStream(this.0), FlowNode::File(path));
            }
            Ok(Value::Null)
        }
        ("java.io.BufferedInputStream" | "java.io.DataInputStream", "read") => dispatch(
            vm,
            &MethodRef::new("java.io.InputStream", "read", "(Ljava/io/Buffer;)I"),
            args,
        ),
        ("java.io.BufferedOutputStream" | "java.io.DataOutputStream", "write") => dispatch(
            vm,
            &MethodRef::new("java.io.OutputStream", "write", "(Ljava/io/Buffer;)V"),
            args,
        ),
        (
            "java.io.BufferedInputStream"
            | "java.io.DataInputStream"
            | "java.io.BufferedOutputStream"
            | "java.io.DataOutputStream",
            "close",
        ) => Ok(Value::Null),
        ("java.io.Buffer", "<init>") => {
            let this = obj_arg(args, 0, "Buffer")?;
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = IntrinsicState::Buffer { data: Vec::new() };
            }
            Ok(Value::Null)
        }
        ("java.io.Buffer", "toString") => {
            let this = obj_arg(args, 0, "Buffer")?;
            match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::Buffer { data }) => {
                    Ok(Value::Str(String::from_utf8_lossy(&data).into_owned()))
                }
                _ => Ok(Value::Str(String::new())),
            }
        }
        ("java.io.Buffer", "putString") => {
            let this = obj_arg(args, 0, "Buffer")?;
            let s = str_arg(args, 1, "data")?;
            if let Some(IntrinsicState::Buffer { data }) =
                vm.proc.heap.get_mut(this).map(|o| &mut o.intrinsic)
            {
                data.extend_from_slice(s.as_bytes());
            }
            Ok(Value::Null)
        }
        ("java.io.Buffer", "size") => {
            let this = obj_arg(args, 0, "Buffer")?;
            match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::Buffer { data }) => Ok(Value::Int(data.len() as i64)),
                _ => Ok(Value::Int(0)),
            }
        }
        ("java.io.InputStream" | "java.io.FileInputStream", "read") => {
            let this = obj_arg(args, 0, "InputStream")?;
            let buffer = obj_arg(args, 1, "buffer")?;
            let data = match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::InputStream { data, .. }) => data,
                _ => return Err(io_error("stream closed")),
            };
            let len = data.len();
            if let Some(IntrinsicState::Buffer { data: buf }) =
                vm.proc.heap.get_mut(buffer).map(|o| &mut o.intrinsic)
            {
                buf.extend_from_slice(&data);
            } else {
                return Err(io_error("read target is not a buffer"));
            }
            vm.device
                .hooks
                .flow
                .add_edge(FlowNode::InputStream(this.0), FlowNode::Buffer(buffer.0));
            Ok(Value::Int(len as i64))
        }
        ("java.io.InputStream" | "java.io.FileInputStream", "close") => Ok(Value::Null),
        ("java.io.OutputStream" | "java.io.FileOutputStream", "write") => {
            let this = obj_arg(args, 0, "OutputStream")?;
            let payload: Vec<u8> = match args.get(1) {
                Some(Value::Obj(buf_id)) => {
                    match vm.proc.heap.get(*buf_id).map(|o| o.intrinsic.clone()) {
                        Some(IntrinsicState::Buffer { data }) => {
                            vm.device.hooks.flow.add_edge(
                                FlowNode::Buffer(buf_id.0),
                                FlowNode::OutputStream(this.0),
                            );
                            data
                        }
                        _ => return Err(io_error("write source is not a buffer")),
                    }
                }
                Some(Value::Str(s)) => s.clone().into_bytes(),
                _ => return Err(io_error("nothing to write")),
            };
            let sink = match vm.proc.heap.get(this).map(|o| o.intrinsic.clone()) {
                Some(IntrinsicState::OutputStream { sink }) => sink,
                _ => return Err(io_error("stream closed")),
            };
            let pkg = vm.package().to_string();
            match sink {
                StreamSink::File(path) => {
                    vm.device
                        .app_append(&pkg, &path, &payload)
                        .map_err(|e| io_error(e.to_string()))?;
                    vm.device
                        .hooks
                        .flow
                        .add_edge(FlowNode::OutputStream(this.0), FlowNode::File(path));
                }
                StreamSink::Net(domain) => {
                    if !vm.device.network_available() {
                        return Err(io_error("network unreachable"));
                    }
                    vm.device.log.push(Event::NetSend {
                        domain,
                        bytes: payload.len(),
                        package: pkg,
                    });
                }
            }
            Ok(Value::Null)
        }
        ("java.io.OutputStream" | "java.io.FileOutputStream", "close") => Ok(Value::Null),

        // ------------------------------------------------------------------
        // java.io.File: the mutual-exclusion hooks.
        // ------------------------------------------------------------------
        ("java.io.File", "<init>") => {
            let this = obj_arg(args, 0, "File")?;
            let path = str_arg(args, 1, "path")?;
            if let Some(obj) = vm.proc.heap.get_mut(this) {
                obj.intrinsic = IntrinsicState::File { path };
            }
            Ok(Value::Null)
        }
        ("java.io.File", "delete") => {
            let this = obj_arg(args, 0, "File")?;
            let path = file_path(vm, this)?;
            let pkg = vm.package().to_string();
            let ok = vm.device.app_delete(&pkg, &path);
            Ok(Value::Int(i64::from(ok)))
        }
        ("java.io.File", "renameTo") => {
            let this = obj_arg(args, 0, "File")?;
            let from = file_path(vm, this)?;
            let to = match args.get(1) {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::Obj(id)) => file_path(vm, *id)?,
                _ => return Err(Exec::Throw("NullPointerException: renameTo".to_string())),
            };
            let pkg = vm.package().to_string();
            let ok = vm.device.app_rename(&pkg, &from, &to);
            Ok(Value::Int(i64::from(ok)))
        }
        ("java.io.File", "exists") => {
            let this = obj_arg(args, 0, "File")?;
            let path = file_path(vm, this)?;
            Ok(Value::Int(i64::from(vm.device.fs.exists(&path))))
        }
        ("java.io.File", "getPath") => {
            let this = obj_arg(args, 0, "File")?;
            Ok(Value::Str(file_path(vm, this)?))
        }
        ("java.io.File", "length") => {
            let this = obj_arg(args, 0, "File")?;
            let path = file_path(vm, this)?;
            Ok(Value::Int(
                vm.device.fs.read(&path).map(<[u8]>::len).unwrap_or(0) as i64,
            ))
        }

        // ------------------------------------------------------------------
        // Strings.
        // ------------------------------------------------------------------
        ("java.lang.String", "concat") => {
            let a = str_arg(args, 0, "this")?;
            let b = str_arg(args, 1, "other")?;
            Ok(Value::Str(format!("{a}{b}")))
        }
        ("java.lang.String", "valueOf") => Ok(Value::Str(match args.first() {
            Some(Value::Int(v)) => v.to_string(),
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        })),
        ("java.lang.String", "length") => Ok(Value::Int(str_arg(args, 0, "this")?.len() as i64)),
        ("java.lang.String", "startsWith") => {
            let a = str_arg(args, 0, "this")?;
            let b = str_arg(args, 1, "prefix")?;
            Ok(Value::Int(i64::from(a.starts_with(&b))))
        }
        ("java.lang.String", "contains") => {
            let a = str_arg(args, 0, "this")?;
            let b = str_arg(args, 1, "needle")?;
            Ok(Value::Int(i64::from(a.contains(&b))))
        }
        ("java.lang.String", "equals") => Ok(Value::Int(i64::from(args.first() == args.get(1)))),

        // ------------------------------------------------------------------
        // Privacy sources (Table X): logged as Api events.
        // ------------------------------------------------------------------
        ("android.telephony.TelephonyManager", "getDeviceId") => {
            log_api(vm, class, name);
            Ok(Value::Str(canned::IMEI.to_string()))
        }
        ("android.telephony.TelephonyManager", "getSubscriberId") => {
            log_api(vm, class, name);
            Ok(Value::Str(canned::IMSI.to_string()))
        }
        ("android.telephony.TelephonyManager", "getSimSerialNumber") => {
            log_api(vm, class, name);
            Ok(Value::Str(canned::ICCID.to_string()))
        }
        ("android.telephony.TelephonyManager", "getLine1Number") => {
            log_api(vm, class, name);
            Ok(Value::Str(canned::LINE1.to_string()))
        }
        ("android.location.LocationManager", "getLastKnownLocation") => {
            log_api(vm, class, name);
            if vm.device.state.location_enabled {
                Ok(Value::Str(canned::LOCATION.to_string()))
            } else {
                Ok(Value::Null)
            }
        }
        ("android.location.LocationManager", "isProviderEnabled") => {
            Ok(Value::Int(i64::from(vm.device.state.location_enabled)))
        }
        ("android.accounts.AccountManager", "getAccounts") => {
            log_api(vm, class, name);
            Ok(Value::Str(canned::ACCOUNT.to_string()))
        }
        (
            "android.content.pm.PackageManager",
            "getInstalledApplications" | "getInstalledPackages",
        ) => {
            log_api(vm, class, name);
            Ok(Value::Str(vm.device.installed_packages().join(",")))
        }
        ("android.content.ContentResolver", "query") => {
            let uri = str_arg(args, 0, "uri").or_else(|_| str_arg(args, 1, "uri"))?;
            let caller = vm.caller_class().to_string();
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Api {
                class: class.to_string(),
                method: format!("query({uri})"),
                caller_class: caller,
                package: pkg,
            });
            Ok(Value::Str(content_provider_data(&uri)))
        }
        ("android.provider.Settings", "getString") => {
            log_api(vm, class, name);
            Ok(Value::Str("settings-value".to_string()))
        }

        // ------------------------------------------------------------------
        // Environment probes (malware trigger conditions, Table VIII).
        // ------------------------------------------------------------------
        ("java.lang.System", "currentTimeMillis") => Ok(Value::Int(vm.device.state.time_ms)),
        ("android.net.ConnectivityManager", "isConnected") => {
            Ok(Value::Int(i64::from(vm.device.network_available())))
        }
        // Settings.Global.AIRPLANE_MODE_ON probe (malware trigger).
        ("android.provider.Settings", "getAirplaneMode") => {
            Ok(Value::Int(i64::from(vm.device.state.airplane_mode)))
        }

        // ------------------------------------------------------------------
        // Behaviour sinks.
        // ------------------------------------------------------------------
        ("android.telephony.SmsManager", "sendTextMessage") => {
            let (number, body) = two_trailing_strings(args);
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Behavior {
                behavior: BehaviorEvent::SmsSent { number, body },
                package: pkg,
            });
            Ok(Value::Null)
        }
        ("android.app.NotificationManager", "notify") => {
            let text = last_string(args).unwrap_or_default();
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Behavior {
                behavior: BehaviorEvent::Notification { text },
                package: pkg,
            });
            Ok(Value::Null)
        }
        ("android.content.pm.ShortcutManager", "requestPinShortcut") => {
            let label = last_string(args).unwrap_or_default();
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Behavior {
                behavior: BehaviorEvent::ShortcutInstalled { label },
                package: pkg,
            });
            Ok(Value::Null)
        }
        ("android.provider.Browser", "setHomepage") => {
            let url = last_string(args).unwrap_or_default();
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Behavior {
                behavior: BehaviorEvent::HomepageChanged { url },
                package: pkg,
            });
            Ok(Value::Null)
        }
        ("android.content.Context", "startService") => {
            let cls = last_string(args)
                .ok_or_else(|| Exec::Throw("NullPointerException: service".to_string()))?;
            let pkg = vm.package().to_string();
            vm.device.log.push(Event::Behavior {
                behavior: BehaviorEvent::ServiceStarted { class: cls.clone() },
                package: pkg,
            });
            // Run the service lifecycle in-process.
            if vm.proc.resolve_method(&cls, "onCreate").is_some() {
                vm.call_entry(&cls, "onCreate")?;
            }
            if vm.proc.resolve_method(&cls, "onStart").is_some() {
                vm.call_entry(&cls, "onStart")?;
            }
            Ok(Value::Null)
        }
        ("android.os.Environment", "getExternalStorageDirectory") => {
            Ok(Value::Str(paths::EXTERNAL_ROOT.to_string()))
        }
        ("android.content.Context", "getFilesDir") => {
            Ok(Value::Str(paths::files_dir(vm.package())))
        }
        ("android.content.Context", "getCacheDir") => {
            Ok(Value::Str(paths::cache_dir(vm.package())))
        }
        ("java.lang.Thread", "sleep") => Ok(Value::Null),
        ("java.lang.Object", "<init>") => Ok(Value::Null),
        ("android.util.Log", _) => Ok(Value::Null),

        // Unmodeled framework surface: benign no-op.
        _ => Ok(Value::Null),
    }
}

fn log_api(vm: &mut Vm<'_>, class: &str, method: &str) {
    let caller = vm.caller_class().to_string();
    let pkg = vm.package().to_string();
    vm.device.log.push(Event::Api {
        class: class.to_string(),
        method: method.to_string(),
        caller_class: caller,
        package: pkg,
    });
}

fn last_string(args: &[Value]) -> Option<String> {
    args.iter()
        .rev()
        .find_map(|v| v.as_str().map(str::to_string))
}

fn two_trailing_strings(args: &[Value]) -> (String, String) {
    let strings: Vec<&str> = args.iter().filter_map(Value::as_str).collect();
    match strings.as_slice() {
        [.., a, b] => ((*a).to_string(), (*b).to_string()),
        [a] => ((*a).to_string(), String::new()),
        _ => (String::new(), String::new()),
    }
}

/// Resolves a stream-constructor path argument: either a string or a
/// `java.io.File` object.
fn stream_path_arg(vm: &Vm<'_>, args: &[Value], i: usize) -> Result<String, Exec> {
    match args.get(i) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(Value::Obj(id)) => file_path(vm, *id),
        _ => Err(Exec::Throw("NullPointerException: path".to_string())),
    }
}

fn file_path(vm: &Vm<'_>, id: ObjId) -> Result<String, Exec> {
    match vm.proc.heap.get(id).map(|o| o.intrinsic.clone()) {
        Some(IntrinsicState::File { path }) => Ok(path),
        _ => Err(Exec::Throw("NullPointerException: not a File".to_string())),
    }
}

fn content_provider_data(uri: &str) -> String {
    // Canned rows per privacy-sensitive content provider.
    let table = [
        ("content://contacts", "contact:Alice:+15555550111"),
        ("content://com.android.calendar", "event:Standup:2016-11-02"),
        ("content://call_log", "call:+15555550122:62s"),
        ("content://browser", "bookmark:http://news.example.com"),
        ("content://media/audio", "audio:track01.mp3"),
        ("content://media/images", "image:IMG_0001.jpg"),
        ("content://media/video", "video:VID_0001.mp4"),
        ("content://settings", "adb_enabled=0"),
        ("content://mms", "mms:+15555550133:photo"),
        ("content://sms", "sms:+15555550144:hello"),
    ];
    for (prefix, data) in table {
        if uri.starts_with(prefix) {
            return data.to_string();
        }
    }
    String::new()
}

// --------------------------------------------------------------------------
// The DCL logger + interceptor.
// --------------------------------------------------------------------------

/// Handles a `DexClassLoader`/`PathClassLoader` constructor: loads the DEX
/// at `dex_path` into a fresh class space, emits the DCL event with
/// call-site attribution, intercepts the binary, and writes the odex copy.
fn dex_load(
    vm: &mut Vm<'_>,
    this: ObjId,
    dex_path: &str,
    odex_dir: &str,
    kind: DclKind,
) -> Result<(), Exec> {
    // System binaries are trusted and skipped by the logger.
    if dex_path.starts_with(paths::SYSTEM_LIB) || paths::is_system(dex_path) {
        return Ok(());
    }
    let pkg = vm.package().to_string();
    let call_site = vm.caller_class().to_string();
    let stack = vm.stack_trace();

    let bytes = vm.device.fs.read(dex_path).map(<[u8]>::to_vec);
    let parsed = bytes.as_ref().ok().and_then(|b| DexFile::parse(b).ok());
    let success = parsed.is_some();

    if let (Ok(bytes), Some(dex)) = (bytes, parsed) {
        let space = vm.proc.spaces.len();
        vm.proc.spaces.push(Arc::new(dex));
        if let Some(obj) = vm.proc.heap.get_mut(this) {
            obj.intrinsic = IntrinsicState::ClassLoader { space };
        }
        // The runtime writes the optimized copy into the odex directory
        // after the interception; only that copy clones the buffer, the
        // interceptor takes it.
        let odex = (!odex_dir.is_empty()).then(|| {
            let path = format!("{}/{}.odex", odex_dir, paths::basename(dex_path));
            (path, bytes.clone())
        });
        vm.device.hooks.intercept(InterceptedBinary {
            path: dex_path.to_string(),
            data: bytes,
            kind,
            call_site_class: call_site.clone(),
            package: pkg.clone(),
        });
        if let Some((path, copy)) = odex {
            let _ = vm.device.app_write(&pkg, &path, copy);
        }
    }

    vm.device.log.push(Event::Dcl(DclEvent {
        kind,
        path: dex_path.to_string(),
        odex_dir: Some(odex_dir.to_string()),
        call_site_class: call_site,
        stack,
        package: pkg,
        success,
    }));
    Ok(())
}

/// Handles `System.load`/`System.loadLibrary`: parses the library, runs
/// `JNI_OnLoad`, and (for non-system paths) logs and intercepts.
fn native_load(vm: &mut Vm<'_>, path: &str, kind: DclKind) -> Result<(), Exec> {
    let system = paths::is_system(path);
    let pkg = vm.package().to_string();
    let call_site = vm.caller_class().to_string();
    let stack = vm.stack_trace();

    let bytes = vm
        .device
        .fs
        .read(path)
        .map(<[u8]>::to_vec)
        .map_err(|e| Exec::Throw(format!("UnsatisfiedLinkError: {e}")))?;
    let lib = NativeLibrary::parse(&bytes)
        .map_err(|e| Exec::Throw(format!("UnsatisfiedLinkError: {e}")))?;

    if !system {
        vm.device.hooks.intercept(InterceptedBinary {
            path: path.to_string(),
            data: bytes,
            kind,
            call_site_class: call_site.clone(),
            package: pkg.clone(),
        });
        vm.device.log.push(Event::Dcl(DclEvent {
            kind,
            path: path.to_string(),
            odex_dir: None,
            call_site_class: call_site,
            stack,
            package: pkg,
            success: true,
        }));
    }

    let has_onload = lib
        .function("JNI_OnLoad")
        .map(|f| f.exported)
        .unwrap_or(false);
    vm.proc.native_libs.push(lib);
    let idx = vm.proc.native_libs.len() - 1;
    if has_onload {
        crate::nativerun::run_native(vm, idx, "JNI_OnLoad")?;
    }
    Ok(())
}

fn load_class(vm: &mut Vm<'_>, loader: ObjId, class: &str) -> Result<Value, Exec> {
    let space = match vm.proc.heap.get(loader).map(|o| o.intrinsic.clone()) {
        Some(IntrinsicState::ClassLoader { space }) => Some(space),
        _ => None,
    };
    let found = match space {
        Some(idx) => vm
            .proc
            .spaces
            .get(idx)
            .map(|s| s.class(class).is_some())
            .unwrap_or(false),
        // A loader whose load failed delegates to the app space.
        None => vm.proc.find_class(class).is_some(),
    };
    if !found {
        return Err(Exec::Throw(format!("ClassNotFoundException: {class}")));
    }
    let id = vm.alloc(
        "java.lang.Class",
        IntrinsicState::Class {
            name: class.to_string(),
        },
    );
    Ok(Value::Obj(id))
}
