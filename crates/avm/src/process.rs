//! A running app process: class spaces, heap, statics, loaded native
//! libraries and liveness.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dydroid_dex::{AccessFlags, ClassDef, DexFile, Manifest, Method, NativeLibrary};

use crate::device::Device;
use crate::error::Exec;
use crate::events::Event;
use crate::heap::{Heap, Value};
use crate::interp::Vm;
use crate::resolved::{self, IcTables, ResolvedCall};
use crate::sym::{Interner, Sym};

/// Static fields, stored as a dense slot table. The public API is keyed
/// by `(class, field)` name pairs — exactly the old `HashMap` surface —
/// while the fast interpreter caches a site's slot index after the first
/// resolution and then reads/writes by index. Slots are append-only, so
/// a cached index stays valid for the life of the process.
#[derive(Debug, Clone, Default)]
pub struct Statics {
    index: HashMap<(String, String), u32>,
    slots: Vec<Value>,
}

impl Statics {
    /// Reads a static field by `(class, field)` name.
    pub fn get(&self, key: &(String, String)) -> Option<&Value> {
        self.index.get(key).map(|&i| &self.slots[i as usize])
    }

    /// Writes a static field by `(class, field)` name, creating its slot
    /// on first write.
    pub fn insert(&mut self, key: (String, String), value: Value) {
        match self.index.get(&key) {
            Some(&i) => self.slots[i as usize] = value,
            None => {
                self.index.insert(key, self.slots.len() as u32);
                self.slots.push(value);
            }
        }
    }

    /// Number of distinct static fields written so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no static field has been written yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot index of an existing static field, if any.
    pub(crate) fn slot_index(&self, class: &str, name: &str) -> Option<u32> {
        self.index
            .get(&(class.to_string(), name.to_string()))
            .copied()
    }

    /// The slot index of a static field, creating it (as `Null`) if
    /// missing.
    pub(crate) fn ensure_slot(&mut self, class: &str, name: &str) -> u32 {
        if let Some(i) = self.slot_index(class, name) {
            return i;
        }
        let i = self.slots.len() as u32;
        self.index.insert((class.to_string(), name.to_string()), i);
        self.slots.push(Value::Null);
        i
    }

    /// Reads a slot by index.
    pub(crate) fn slot(&self, idx: u32) -> &Value {
        &self.slots[idx as usize]
    }

    /// Writes a slot by index.
    pub(crate) fn slot_mut(&mut self, idx: u32) -> &mut Value {
        &mut self.slots[idx as usize]
    }
}

/// A running application process.
///
/// `spaces[0]` holds the classes from `classes.dex`, shared with the
/// installed app (and, in the pipeline, with its decompilation); each
/// successful DCL event appends another class space (mirroring one class
/// loader per loaded file). Classes are resolved across all spaces in
/// load order. Spaces are immutable once pushed, so sharing them is safe.
#[derive(Debug)]
pub struct Process {
    /// Package of the app this process runs.
    pub package: String,
    /// Heap.
    pub heap: Heap,
    /// Static fields, keyed by `(class, field)`.
    pub statics: Statics,
    /// Class spaces: app classes plus dynamically loaded DEX files.
    pub spaces: Vec<Arc<DexFile>>,
    /// Loaded native libraries, in load order.
    pub native_libs: Vec<NativeLibrary>,
    /// Whether the process is still running (false after a crash).
    pub alive: bool,
    /// Permissions copied from the manifest.
    pub permissions: HashSet<String>,
    /// Cumulative interpreter instructions retired across every entry
    /// point run in this process. The Monkey's per-app deadline watchdog
    /// reads this as a deterministic virtual clock.
    pub instructions_retired: u64,
    /// Per-process string interner for class/method/field names. Heap
    /// object classes and fields are stored as its [`Sym`]s.
    pub interner: Interner,
    /// Positive `(start class, method) -> resolved call` cache; key packs
    /// the two syms into one `u64`. Positive entries never go stale
    /// (spaces are append-only and lookup is first-match).
    pub(crate) code_cache: HashMap<u64, ResolvedCall>,
    /// Negative resolutions with the space count they were observed at;
    /// re-checked once a DCL load appends a space.
    pub(crate) neg_cache: HashMap<u64, u32>,
    /// Inline-cache tables for the resolved code's call/field/static
    /// sites.
    pub(crate) ics: IcTables,
    /// Recycled register files, so nested frames reuse one allocation.
    pub(crate) reg_pool: Vec<Vec<Value>>,
    /// Cached UI-callback enumeration, invalidated when a DCL load
    /// appends a class space (the manifest never changes).
    ui_cache: Option<(usize, UiCallbacks)>,
}

/// Walks the superclass chain from `class` across `spaces` (each class
/// found in load order) to the first class defining `name`; returns that
/// class and its method. The walk gives up after 32 links, or at a class
/// that is its own superclass or that no space holds.
fn locate_method<'a>(
    spaces: &'a [Arc<DexFile>],
    class: &'a str,
    name: &str,
) -> Option<(&'a ClassDef, &'a Method)> {
    let mut current = class;
    for _ in 0..32 {
        let def = spaces.iter().find_map(|s| s.class(current))?;
        if let Some(m) = def.method_by_name(name) {
            return Some((def, m));
        }
        if def.superclass == current {
            return None;
        }
        current = &def.superclass;
    }
    None
}

/// Shared `(class, method)` list of fuzzable UI callbacks.
pub type UiCallbacks = Arc<Vec<(String, String)>>;

impl Process {
    /// Creates a process with the app's primary class space (an owned
    /// `DexFile` or a shared `Arc` of one).
    pub fn new(package: String, classes: impl Into<Arc<DexFile>>, manifest: &Manifest) -> Self {
        Process {
            package,
            heap: Heap::new(),
            statics: Statics::default(),
            spaces: vec![classes.into()],
            native_libs: Vec::new(),
            alive: true,
            permissions: manifest.permissions.iter().cloned().collect(),
            instructions_retired: 0,
            interner: Interner::new(),
            code_cache: HashMap::new(),
            neg_cache: HashMap::new(),
            ics: IcTables::default(),
            reg_pool: Vec::new(),
            ui_cache: None,
        }
    }

    /// Finds a class across all class spaces (load order).
    pub fn find_class(&self, name: &str) -> Option<&ClassDef> {
        self.spaces.iter().find_map(|s| s.class(name))
    }

    /// Resolves a method by walking the superclass chain starting at
    /// `class`. Returns the defining class name and a clone of the method
    /// (cloned so execution is independent of later space growth).
    pub fn resolve_method(&self, class: &str, name: &str) -> Option<(String, Method)> {
        locate_method(&self.spaces, class, name).map(|(def, m)| (def.name.clone(), m.clone()))
    }

    /// Whether `class` or one of its superclasses defines `name`: the
    /// walk of [`Process::resolve_method`], without cloning the method.
    pub fn has_method(&self, class: &str, name: &str) -> bool {
        locate_method(&self.spaces, class, name).is_some()
    }

    /// Resolves `(start class, method)` to a cached [`ResolvedCall`],
    /// translating the method on first use. Mirrors
    /// [`Process::resolve_method`] exactly — same chain walk, same
    /// outcome — but pays the string resolution once per unique target
    /// and translates the method where its class space holds it.
    pub(crate) fn resolve_call(&mut self, class: Sym, method: Sym) -> Option<ResolvedCall> {
        let key = (u64::from(class.0) << 32) | u64::from(method.0);
        if let Some(rc) = self.code_cache.get(&key) {
            return Some(rc.clone());
        }
        if let Some(&epoch) = self.neg_cache.get(&key) {
            if epoch as usize == self.spaces.len() {
                return None;
            }
        }
        let class_s = self.interner.resolve(class).to_string();
        let method_s = self.interner.resolve(method).to_string();
        match locate_method(&self.spaces, &class_s, &method_s) {
            Some((_def, m)) => {
                let rc = if m.flags.contains(AccessFlags::NATIVE) {
                    ResolvedCall::Native {
                        name: m.name.as_str().into(),
                        ret: crate::interp::default_return(m),
                    }
                } else {
                    ResolvedCall::Bytecode(Arc::new(resolved::translate(
                        &mut self.interner,
                        &mut self.ics,
                        m,
                    )))
                };
                self.neg_cache.remove(&key);
                self.code_cache.insert(key, rc.clone());
                Some(rc)
            }
            None => {
                self.neg_cache.insert(key, self.spaces.len() as u32);
                None
            }
        }
    }

    /// Inline-cache hit/miss totals accumulated by this process's
    /// interpreter runs (all zero on the legacy path, which has no
    /// caches). The same deltas are charged to the owning device's
    /// counters when an entry point returns.
    pub fn ic_stats(&self) -> crate::resolved::IcStats {
        self.ics.stats
    }

    /// Executes one entry point with an explicit fuel budget, accounting
    /// retired instructions into [`Process::instructions_retired`] and
    /// charging inline-cache deltas to the device's telemetry counters.
    fn execute_entry(
        &mut self,
        device: &mut Device,
        class: &str,
        method: &str,
        fuel: u64,
    ) -> Result<Value, Exec> {
        let ic_mark = self.ics.stats;
        let (outcome, used) = {
            let mut vm = Vm::new(device, self);
            vm.fuel = fuel;
            let outcome = vm.call_entry(class, method);
            (outcome, fuel - vm.fuel)
        };
        self.instructions_retired += used;
        device.charge_ic(&self.ics.stats.since(&ic_mark));
        outcome
    }

    /// Runs a public entry point (`class.method()`), recording a crash
    /// event and marking the process dead on failure. Returns whether the
    /// entry completed normally.
    pub fn run_entry(&mut self, device: &mut Device, class: &str, method: &str) -> bool {
        if !self.alive {
            return false;
        }
        let outcome = self.execute_entry(device, class, method, crate::interp::DEFAULT_FUEL);
        match outcome {
            Ok(_) => true,
            Err(exec) => {
                self.alive = false;
                device.log.push(Event::Crash {
                    reason: exec.to_string(),
                    package: self.package.clone(),
                });
                false
            }
        }
    }

    /// Runs an entry point but tolerates failure without killing the
    /// process (used for fuzzing individual UI callbacks, where a single
    /// failing callback does not necessarily end the app in practice —
    /// the crash is still logged).
    pub fn run_callback(
        &mut self,
        device: &mut Device,
        class: &str,
        method: &str,
    ) -> Result<(), Exec> {
        self.run_callback_with_fuel(device, class, method, crate::interp::DEFAULT_FUEL)
    }

    /// Like [`Process::run_callback`], with an explicit fuel budget. The
    /// Monkey's deadline watchdog caps the budget by the remaining
    /// deadline so no single callback can overshoot it by more than one
    /// scheduling slice.
    pub fn run_callback_with_fuel(
        &mut self,
        device: &mut Device,
        class: &str,
        method: &str,
        fuel: u64,
    ) -> Result<(), Exec> {
        if !self.alive {
            return Err(Exec::Throw("process dead".to_string()));
        }
        let outcome = self.execute_entry(device, class, method, fuel);
        match outcome {
            Ok(_) => Ok(()),
            Err(exec) => {
                device.log.push(Event::Crash {
                    reason: exec.to_string(),
                    package: self.package.clone(),
                });
                self.alive = false;
                Err(exec)
            }
        }
    }

    /// Enumerates fuzzable UI callbacks: public, zero-argument, non-static
    /// methods whose names start with `on`, excluding lifecycle methods,
    /// across every class declared as an activity of `manifest`.
    ///
    /// The enumeration is cached per class-space count — the Monkey asks
    /// before every event, and the answer only changes when a DCL load
    /// appends a space. Callers always pass the app's own (immutable)
    /// manifest.
    pub fn ui_callbacks(&mut self, manifest: &Manifest) -> UiCallbacks {
        if let Some((epoch, cached)) = &self.ui_cache {
            if *epoch == self.spaces.len() {
                return Arc::clone(cached);
            }
        }
        const LIFECYCLE: [&str; 6] = [
            "onCreate",
            "onStart",
            "onResume",
            "onPause",
            "onStop",
            "onDestroy",
        ];
        let mut out = Vec::new();
        for comp in manifest.activities() {
            if let Some(def) = self.find_class(&comp.class) {
                for m in &def.methods {
                    if m.name.starts_with("on")
                        && !LIFECYCLE.contains(&m.name.as_str())
                        && m.sig.params().is_empty()
                        && m.flags.contains(dydroid_dex::AccessFlags::PUBLIC)
                        && !m.flags.contains(dydroid_dex::AccessFlags::STATIC)
                    {
                        out.push((comp.class.clone(), m.name.clone()));
                    }
                }
            }
        }
        let out = Arc::new(out);
        self.ui_cache = Some((self.spaces.len(), Arc::clone(&out)));
        out
    }

    /// Number of dynamically loaded class spaces (excludes the base APK).
    pub fn dynamic_space_count(&self) -> usize {
        self.spaces.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{AccessFlags, Component, Manifest};

    fn manifest() -> Manifest {
        let mut m = Manifest::new("com.a");
        m.components.push(Component::main_activity("com.a.Main"));
        m
    }

    fn classes() -> DexFile {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.a.Main", "android.app.Activity");
            c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
            c.method("onClickLoad", "()V", AccessFlags::PUBLIC)
                .ret_void();
            c.method("onResume", "()V", AccessFlags::PUBLIC).ret_void();
            c.method("helper", "()V", AccessFlags::PUBLIC).ret_void();
            c.method("onStatic", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC)
                .ret_void();
        }
        {
            let c = b.class("com.a.Base", "java.lang.Object");
            c.method("inherited", "()V", AccessFlags::PUBLIC).ret_void();
        }
        {
            let c = b.class("com.a.Child", "com.a.Base");
            c.method("own", "()V", AccessFlags::PUBLIC).ret_void();
        }
        b.build()
    }

    #[test]
    fn class_and_method_resolution() {
        let p = Process::new("com.a".to_string(), classes(), &manifest());
        assert!(p.find_class("com.a.Main").is_some());
        assert!(p.find_class("com.a.Nope").is_none());
        let (cls, m) = p.resolve_method("com.a.Child", "inherited").unwrap();
        assert_eq!(cls, "com.a.Base");
        assert_eq!(m.name, "inherited");
        let (cls, _) = p.resolve_method("com.a.Child", "own").unwrap();
        assert_eq!(cls, "com.a.Child");
        assert!(p.resolve_method("com.a.Child", "nope").is_none());
    }

    #[test]
    fn resolve_call_matches_string_resolution() {
        let mut p = Process::new("com.a".to_string(), classes(), &manifest());
        let child = p.interner.intern("com.a.Child");
        let inherited = p.interner.intern("inherited");
        let nope = p.interner.intern("nope");
        // Cold, then cached, then compared against the reference path.
        assert!(p.resolve_call(child, inherited).is_some());
        assert!(p.resolve_call(child, inherited).is_some());
        assert!(p.resolve_method("com.a.Child", "inherited").is_some());
        assert!(p.resolve_call(child, nope).is_none());
        // The negative is cached at the current space count...
        assert!(p.resolve_call(child, nope).is_none());
        // ...and re-checked after a space is appended.
        let mut b = DexBuilder::new();
        b.class("com.a.Child", "com.a.Base")
            .method("nope", "()V", AccessFlags::PUBLIC)
            .ret_void();
        p.spaces.push(Arc::new(b.build()));
        // First-match keeps the original Child (without `nope`), so the
        // lookup result must not change — exactly like resolve_method.
        assert_eq!(
            p.resolve_call(child, nope).is_some(),
            p.resolve_method("com.a.Child", "nope").is_some()
        );
    }

    #[test]
    fn statics_preserve_map_surface() {
        let mut s = Statics::default();
        let key = ("com.a.G".to_string(), "v".to_string());
        assert!(s.get(&key).is_none());
        assert!(s.is_empty());
        s.insert(key.clone(), Value::Int(1));
        s.insert(key.clone(), Value::Int(2));
        assert_eq!(s.get(&key), Some(&Value::Int(2)));
        assert_eq!(s.len(), 1);
        // Slot indices are stable once created.
        let idx = s.slot_index("com.a.G", "v").unwrap();
        assert_eq!(s.ensure_slot("com.a.G", "v"), idx);
        assert_eq!(s.slot(idx), &Value::Int(2));
    }

    #[test]
    fn superclass_cycle_terminates() {
        let mut b = DexBuilder::new();
        b.class("a.A", "a.B");
        b.class("a.B", "a.A");
        let p = Process::new("a".to_string(), b.build(), &Manifest::new("a"));
        assert!(p.resolve_method("a.A", "nope").is_none());
    }

    #[test]
    fn ui_callbacks_enumerated_and_cached() {
        let mut p = Process::new("com.a".to_string(), classes(), &manifest());
        let cbs = p.ui_callbacks(&manifest());
        // onClickLoad qualifies; onCreate/onResume are lifecycle; helper
        // doesn't start with `on`; onStatic is static.
        assert_eq!(
            *cbs,
            vec![("com.a.Main".to_string(), "onClickLoad".to_string())]
        );
        // Second call returns the cached vector (same allocation).
        let again = p.ui_callbacks(&manifest());
        assert!(Arc::ptr_eq(&cbs, &again));
        // A DCL space append invalidates the cache.
        p.spaces.push(Arc::new(DexFile::new()));
        let after = p.ui_callbacks(&manifest());
        assert!(!Arc::ptr_eq(&cbs, &after));
        assert_eq!(*cbs, *after);
    }

    #[test]
    fn dynamic_space_count() {
        let mut p = Process::new("com.a".to_string(), classes(), &manifest());
        assert_eq!(p.dynamic_space_count(), 0);
        p.spaces.push(Arc::new(DexFile::new()));
        assert_eq!(p.dynamic_space_count(), 1);
    }
}
