//! The bytecode interpreter.
//!
//! Executes the [`dydroid_dex`] ISA with a real call stack so that the DCL
//! logger can attribute loads to their call-site class via the Java stack
//! trace, exactly as DyDroid does (Figure 2 of the paper).
//!
//! # Calling convention
//!
//! Parameters are passed in the low registers: for instance methods
//! `v0 = this, v1.. = params`; for static methods `v0.. = params`. The
//! frame size is the method's declared register count.
//!
//! # Two execution paths
//!
//! The **fast path** (default) runs each method's pre-resolved
//! `resolved::RInsn` stream: interned operands, per-site inline
//! caches for invoke/field/static resolution, pooled register files and
//! an arena heap — no strings and no hash map on the hot loop. The
//! **legacy path** (`DeviceConfig::legacy_interp`) is the original
//! string-resolving interpreter, kept only as the oracle for
//! differential tests: no product path or bench runs it. Both decrement
//! fuel identically per instruction and produce bit-identical outcomes,
//! which `tests/avm_differential.rs` enforces.

use dydroid_dex::{AccessFlags, Instruction, InvokeKind, Method};

use crate::device::Device;
use crate::error::Exec;
use crate::heap::{ObjId, Value};
use crate::intrinsics;
use crate::process::Process;
use crate::resolved::{RInsn, ResolvedCall, ResolvedMethod, IC_EMPTY, IC_NO_RECEIVER};
use crate::sym::Sym;

/// Maximum instructions executed per entry point (infinite-loop guard —
/// the Monkey must survive hostile apps).
pub const DEFAULT_FUEL: u64 = 200_000;
/// Maximum interpreter call depth.
pub const MAX_DEPTH: usize = 64;

/// An executing virtual machine, borrowing the device and process.
pub struct Vm<'a> {
    /// The device (filesystem, network, hooks, log).
    pub device: &'a mut Device,
    /// The running process (heap, class spaces, statics).
    pub proc: &'a mut Process,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// App-level call stack, outermost first: interned `(class, method)`
    /// frames. Strings are materialized only at error/event boundaries
    /// ([`Vm::caller_class`], [`Vm::stack_trace`]).
    pub call_stack: Vec<(Sym, Sym)>,
    legacy: bool,
}

impl<'a> Vm<'a> {
    /// Creates a VM with the default fuel budget. The execution path
    /// (fast or legacy) follows the device's `legacy_interp` flag.
    pub fn new(device: &'a mut Device, proc: &'a mut Process) -> Self {
        let legacy = device.legacy_interp();
        Vm {
            device,
            proc,
            fuel: DEFAULT_FUEL,
            call_stack: Vec::new(),
            legacy,
        }
    }

    /// The package of the running process.
    pub fn package(&self) -> &str {
        &self.proc.package
    }

    /// The class of the innermost app frame (the DCL call site).
    /// Borrowed — hook sites that only inspect the class pay no
    /// allocation; those that store it convert exactly once.
    pub fn caller_class(&self) -> &str {
        self.call_stack
            .last()
            .map(|(c, _)| self.proc.interner.resolve(*c))
            .unwrap_or("<none>")
    }

    /// The app stack trace, innermost first, as `class->method` strings.
    pub fn stack_trace(&self) -> Vec<String> {
        self.call_stack
            .iter()
            .rev()
            .map(|(c, m)| {
                format!(
                    "{}->{}",
                    self.proc.interner.resolve(*c),
                    self.proc.interner.resolve(*m)
                )
            })
            .collect()
    }

    /// Runs a public entry point: allocates a receiver (running `<init>`
    /// when present), then invokes `method`.
    ///
    /// # Errors
    ///
    /// Returns the [`Exec`] outcome of any in-app failure.
    pub fn call_entry(&mut self, class: &str, method: &str) -> Result<Value, Exec> {
        let fuel_at_entry = self.fuel;
        let result = self.call_entry_inner(class, method);
        // Charge the device-level instruction counter on the way out —
        // whatever the outcome — so the telemetry layer sees retired
        // instructions even though processes are dropped inside the
        // Monkey before the pipeline can read them.
        self.device
            .charge_instructions(fuel_at_entry.saturating_sub(self.fuel));
        result
    }

    fn call_entry_inner(&mut self, class: &str, method: &str) -> Result<Value, Exec> {
        let def = self
            .proc
            .find_class(class)
            .ok_or_else(|| Exec::Throw(format!("ClassNotFoundException: {class}")))?;
        let is_static = def
            .method_by_name(method)
            .map(|m| m.flags.contains(AccessFlags::STATIC))
            .unwrap_or(false);
        if is_static {
            return self.invoke_resolved(class, method, Vec::new());
        }
        let cls = self.proc.interner.intern(class);
        let this = self.proc.heap.alloc(cls);
        if self.proc.has_method(class, "<init>") {
            self.invoke_resolved(class, "<init>", vec![Value::Obj(this)])?;
        }
        self.invoke_resolved(class, method, vec![Value::Obj(this)])
    }

    /// Invokes `class.method(args)` with full dispatch: intrinsics for
    /// framework classes, app class spaces otherwise, JNI for `native`
    /// methods. `args` includes the receiver for instance calls.
    ///
    /// # Errors
    ///
    /// Returns [`Exec`] on in-app failure.
    pub fn invoke_resolved(
        &mut self,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, Exec> {
        if self.call_stack.len() >= MAX_DEPTH {
            return Err(Exec::StackOverflow);
        }
        // Framework classes dispatch to intrinsics (boot class loader wins,
        // as on real Android).
        if is_framework_class(class) {
            let mref = dydroid_dex::MethodRef {
                class: class.to_string(),
                name: method.to_string(),
                sig: dydroid_dex::MethodSig::void(),
            };
            return intrinsics::dispatch(self, &mref, &args);
        }
        if self.legacy {
            return self.invoke_app_legacy(class, method, args);
        }
        let c = self.proc.interner.intern(class);
        let m = self.proc.interner.intern(method);
        self.invoke_app_fast(c, m, args, None)
    }

    /// The reference app-method dispatch: string-keyed virtual
    /// resolution on every call, executing the original instruction
    /// stream.
    fn invoke_app_legacy(
        &mut self,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, Exec> {
        // Virtual dispatch: start at the receiver's runtime class.
        let start_class = args
            .first()
            .and_then(|v| v.as_obj())
            .and_then(|id| self.proc.heap.get(id))
            .map(|o| o.class)
            .map(|s| self.proc.interner.resolve(s).to_string())
            .filter(|c| self.proc.resolve_method(c, method).is_some())
            .unwrap_or_else(|| class.to_string());
        let (_def_class, m) = self
            .proc
            .resolve_method(&start_class, method)
            .ok_or_else(|| {
                if self.proc.find_class(&start_class).is_none() {
                    Exec::Throw(format!("ClassNotFoundException: {start_class}"))
                } else {
                    Exec::Throw(format!("NoSuchMethodError: {start_class}.{method}"))
                }
            })?;

        if m.flags.contains(AccessFlags::NATIVE) {
            return self.invoke_native(&start_class, &m, args);
        }

        let frame = (
            self.proc.interner.intern(&start_class),
            self.proc.interner.intern(method),
        );
        self.call_stack.push(frame);
        let result = self.execute_legacy(&m, args);
        self.call_stack.pop();
        result
    }

    /// The fast app-method dispatch: interned names, a positive
    /// resolution cache, and (for bytecode invoke sites) a monomorphic
    /// per-site inline cache keyed by the receiver's runtime class.
    fn invoke_app_fast(
        &mut self,
        class: Sym,
        method: Sym,
        args: Vec<Value>,
        site: Option<u32>,
    ) -> Result<Value, Exec> {
        if self.call_stack.len() >= MAX_DEPTH {
            return Err(Exec::StackOverflow);
        }
        let receiver = args
            .first()
            .and_then(|v| v.as_obj())
            .and_then(|id| self.proc.heap.get(id))
            .map(|o| o.class);
        let key = receiver.map(|s| s.0).unwrap_or(IC_NO_RECEIVER);
        if let Some(site) = site {
            let ic = &self.proc.ics.calls[site as usize];
            if ic.key == key {
                if let Some(target) = ic.target.clone() {
                    let pushed = ic.pushed;
                    self.proc.ics.stats.call_hits += 1;
                    return self.run_call(pushed, method, target, args);
                }
            }
            self.proc.ics.stats.call_misses += 1;
        }
        // Miss: resolve exactly like the legacy path — the receiver's
        // runtime class if it resolves the method, else the static class.
        let (start, cacheable) = match receiver {
            Some(r) => {
                if self.proc.resolve_call(r, method).is_some() {
                    (r, true)
                } else {
                    // The receiver class exists but does not (yet)
                    // resolve the method; a later DCL load could change
                    // that, so this outcome must not be cached.
                    (class, false)
                }
            }
            None => (class, true),
        };
        let Some(target) = self.proc.resolve_call(start, method) else {
            let start_s = self.proc.interner.resolve(start).to_string();
            return Err(if self.proc.find_class(&start_s).is_none() {
                Exec::Throw(format!("ClassNotFoundException: {start_s}"))
            } else {
                let method_s = self.proc.interner.resolve(method);
                Exec::Throw(format!("NoSuchMethodError: {start_s}.{method_s}"))
            });
        };
        if let Some(site) = site {
            if cacheable {
                let ic = &mut self.proc.ics.calls[site as usize];
                ic.key = key;
                ic.pushed = start;
                ic.target = Some(target.clone());
            }
        }
        self.run_call(start, method, target, args)
    }

    /// Executes a resolved target, maintaining the interned call stack.
    fn run_call(
        &mut self,
        pushed_class: Sym,
        method: Sym,
        target: ResolvedCall,
        args: Vec<Value>,
    ) -> Result<Value, Exec> {
        match target {
            ResolvedCall::Bytecode(rm) => {
                self.call_stack.push((pushed_class, method));
                let result = self.execute_fast(&rm, args);
                self.call_stack.pop();
                result
            }
            ResolvedCall::Native { name, ret } => {
                let lib_idx = self
                    .proc
                    .native_libs
                    .iter()
                    .rposition(|l| l.function(&name).map(|f| f.exported).unwrap_or(false));
                match lib_idx {
                    Some(idx) => {
                        self.call_stack.push((pushed_class, method));
                        let result = crate::nativerun::run_native(self, idx, &name);
                        self.call_stack.pop();
                        result?;
                        Ok(ret)
                    }
                    None => {
                        let c = self.proc.interner.resolve(pushed_class);
                        let n = self.proc.interner.resolve(method);
                        Err(Exec::Throw(format!("UnsatisfiedLinkError: {c}.{n}")))
                    }
                }
            }
        }
    }

    /// Dispatches a `native` app method through the loaded libraries:
    /// the symbol is the bare method name; libraries are searched in
    /// reverse load order (most recent wins).
    fn invoke_native(
        &mut self,
        class: &str,
        method: &Method,
        _args: Vec<Value>,
    ) -> Result<Value, Exec> {
        let lib_idx = self.proc.native_libs.iter().rposition(|l| {
            l.function(&method.name)
                .map(|f| f.exported)
                .unwrap_or(false)
        });
        match lib_idx {
            Some(idx) => {
                let frame = (
                    self.proc.interner.intern(class),
                    self.proc.interner.intern(&method.name),
                );
                self.call_stack.push(frame);
                let result = crate::nativerun::run_native(self, idx, &method.name);
                self.call_stack.pop();
                result?;
                Ok(default_return(method))
            }
            None => Err(Exec::Throw(format!(
                "UnsatisfiedLinkError: {}.{}",
                class, method.name
            ))),
        }
    }

    /// Pops a recycled register file from the process pool, sized and
    /// zeroed for `registers`, with `args` moved into the low registers.
    fn frame_regs(&mut self, registers: u16, args: Vec<Value>) -> Vec<Value> {
        let mut regs = self.proc.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(registers as usize, Value::Null);
        for (i, arg) in args.into_iter().enumerate() {
            if i < regs.len() {
                regs[i] = arg;
            }
        }
        regs
    }

    fn execute_legacy(&mut self, method: &Method, args: Vec<Value>) -> Result<Value, Exec> {
        let mut regs = self.frame_regs(method.registers, args);
        let result = self.run_legacy(method, &mut regs);
        regs.clear();
        self.proc.reg_pool.push(regs);
        result
    }

    fn run_legacy(&mut self, method: &Method, regs: &mut [Value]) -> Result<Value, Exec> {
        let mut pc: usize = 0;
        let mut last_result = Value::Null;
        let code = &method.code;
        loop {
            if self.fuel == 0 {
                return Err(Exec::OutOfFuel);
            }
            self.fuel -= 1;
            let Some(insn) = code.get(pc) else {
                // Falling off the end is a void return.
                return Ok(Value::Null);
            };
            match insn {
                Instruction::Nop => pc += 1,
                Instruction::Const { dst, value } => {
                    regs[*dst as usize] = Value::Int(*value);
                    pc += 1;
                }
                Instruction::ConstString { dst, value } => {
                    regs[*dst as usize] = Value::Str(value.clone());
                    pc += 1;
                }
                Instruction::ConstNull { dst } => {
                    regs[*dst as usize] = Value::Null;
                    pc += 1;
                }
                Instruction::Move { dst, src } => {
                    regs[*dst as usize] = regs[*src as usize].clone();
                    pc += 1;
                }
                Instruction::MoveResult { dst } => {
                    regs[*dst as usize] = last_result.clone();
                    pc += 1;
                }
                Instruction::NewInstance { dst, class } => {
                    let cls = self.proc.interner.intern(class);
                    let id = self.proc.heap.alloc(cls);
                    regs[*dst as usize] = Value::Obj(id);
                    pc += 1;
                }
                Instruction::Invoke {
                    kind,
                    method: mref,
                    args,
                } => {
                    let argv: Vec<Value> = args.iter().map(|r| regs[*r as usize].clone()).collect();
                    if kind.has_receiver() {
                        match argv.first() {
                            Some(Value::Null) | None => {
                                return Err(Exec::Throw(format!(
                                    "NullPointerException: invoking {}.{}",
                                    mref.class, mref.name
                                )));
                            }
                            _ => {}
                        }
                    }
                    last_result = self.dispatch_invoke(*kind, mref, argv)?;
                    pc += 1;
                }
                Instruction::IGet { dst, obj, field } => {
                    let fsym = self.proc.interner.intern(&field.name);
                    let id = regs[*obj as usize]
                        .as_obj()
                        .ok_or_else(|| npe("iget", &field.name))?;
                    let object = self
                        .proc
                        .heap
                        .get(id)
                        .ok_or_else(|| npe("iget", &field.name))?;
                    regs[*dst as usize] = object.field(fsym).cloned().unwrap_or(Value::Null);
                    pc += 1;
                }
                Instruction::IPut { src, obj, field } => {
                    let fsym = self.proc.interner.intern(&field.name);
                    let value = regs[*src as usize].clone();
                    let id = regs[*obj as usize]
                        .as_obj()
                        .ok_or_else(|| npe("iput", &field.name))?;
                    let object = self
                        .proc
                        .heap
                        .get_mut(id)
                        .ok_or_else(|| npe("iput", &field.name))?;
                    object.put_field(fsym, value);
                    pc += 1;
                }
                Instruction::SGet { dst, field } => {
                    regs[*dst as usize] = self
                        .proc
                        .statics
                        .get(&(field.class.clone(), field.name.clone()))
                        .cloned()
                        .unwrap_or(Value::Null);
                    pc += 1;
                }
                Instruction::SPut { src, field } => {
                    self.proc.statics.insert(
                        (field.class.clone(), field.name.clone()),
                        regs[*src as usize].clone(),
                    );
                    pc += 1;
                }
                Instruction::IfZero { cmp, reg, target } => {
                    let v = int_for_cmp(&regs[*reg as usize]);
                    if cmp.eval(v, 0) {
                        pc = *target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instruction::IfCmp { cmp, a, b, target } => {
                    let av = int_for_cmp(&regs[*a as usize]);
                    let bv = int_for_cmp(&regs[*b as usize]);
                    if cmp.eval(av, bv) {
                        pc = *target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instruction::Goto { target } => pc = *target as usize,
                Instruction::BinOp { op, dst, a, b } => {
                    let av = regs[*a as usize].as_int().ok_or_else(|| {
                        Exec::Throw("ClassCastException: int op on reference".to_string())
                    })?;
                    let bv = regs[*b as usize].as_int().ok_or_else(|| {
                        Exec::Throw("ClassCastException: int op on reference".to_string())
                    })?;
                    regs[*dst as usize] = Value::Int(arith(*op, av, bv)?);
                    pc += 1;
                }
                Instruction::ReturnVoid => return Ok(Value::Null),
                Instruction::Return { reg } => {
                    return Ok(std::mem::replace(&mut regs[*reg as usize], Value::Null));
                }
                Instruction::Throw { reg } => {
                    let msg = match std::mem::replace(&mut regs[*reg as usize], Value::Null) {
                        Value::Str(s) => s,
                        other => format!("{other:?}"),
                    };
                    return Err(Exec::Throw(msg));
                }
                Instruction::CheckCast { .. } => pc += 1,
            }
        }
    }

    fn execute_fast(&mut self, rm: &ResolvedMethod, args: Vec<Value>) -> Result<Value, Exec> {
        let mut regs = self.frame_regs(rm.registers, args);
        let result = self.run_fast(rm, &mut regs);
        regs.clear();
        self.proc.reg_pool.push(regs);
        result
    }

    fn run_fast(&mut self, rm: &ResolvedMethod, regs: &mut [Value]) -> Result<Value, Exec> {
        let mut pc: usize = 0;
        let mut last_result = Value::Null;
        let code = &rm.code;
        loop {
            if self.fuel == 0 {
                return Err(Exec::OutOfFuel);
            }
            self.fuel -= 1;
            let Some(insn) = code.get(pc) else {
                // Falling off the end is a void return.
                return Ok(Value::Null);
            };
            match insn {
                RInsn::Nop => pc += 1,
                RInsn::Const { dst, value } => {
                    regs[*dst as usize] = Value::Int(*value);
                    pc += 1;
                }
                RInsn::ConstString { dst, value } => {
                    regs[*dst as usize] = Value::Str(value.clone());
                    pc += 1;
                }
                RInsn::ConstNull { dst } => {
                    regs[*dst as usize] = Value::Null;
                    pc += 1;
                }
                RInsn::Move { dst, src } => {
                    regs[*dst as usize] = regs[*src as usize].clone();
                    pc += 1;
                }
                RInsn::MoveResult { dst } => {
                    regs[*dst as usize] = last_result.clone();
                    pc += 1;
                }
                RInsn::NewInstance { dst, class } => {
                    let id = self.proc.heap.alloc(*class);
                    regs[*dst as usize] = Value::Obj(id);
                    pc += 1;
                }
                RInsn::InvokeFramework {
                    mref,
                    args,
                    has_receiver,
                } => {
                    let argv: Vec<Value> = args.iter().map(|r| regs[*r as usize].clone()).collect();
                    if *has_receiver && matches!(argv.first(), Some(Value::Null) | None) {
                        return Err(Exec::Throw(format!(
                            "NullPointerException: invoking {}.{}",
                            mref.class, mref.name
                        )));
                    }
                    last_result = intrinsics::dispatch(self, mref, &argv)?;
                    pc += 1;
                }
                RInsn::InvokeApp {
                    class,
                    name,
                    args,
                    has_receiver,
                    site,
                } => {
                    let argv: Vec<Value> = args.iter().map(|r| regs[*r as usize].clone()).collect();
                    if *has_receiver && matches!(argv.first(), Some(Value::Null) | None) {
                        let c = self.proc.interner.resolve(*class);
                        let n = self.proc.interner.resolve(*name);
                        return Err(Exec::Throw(format!(
                            "NullPointerException: invoking {c}.{n}"
                        )));
                    }
                    last_result = self.invoke_app_fast(*class, *name, argv, Some(*site))?;
                    pc += 1;
                }
                RInsn::IGet {
                    dst,
                    obj,
                    field,
                    site,
                } => {
                    let id = match regs[*obj as usize].as_obj() {
                        Some(id) => id,
                        None => return Err(npe("iget", self.proc.interner.resolve(*field))),
                    };
                    let cached = self.proc.ics.fields[*site as usize].slot;
                    let object = match self.proc.heap.get(id) {
                        Some(o) => o,
                        None => return Err(npe("iget", self.proc.interner.resolve(*field))),
                    };
                    // (value, new slot to cache): slot == IC_EMPTY on a
                    // miss with no existing field.
                    let (value, found) = match object.fields.get(cached as usize) {
                        Some((s, v)) if s == field => (v.clone(), None),
                        _ => match object.fields.iter().position(|(s, _)| s == field) {
                            Some(idx) => (object.fields[idx].1.clone(), Some(idx as u32)),
                            None => (Value::Null, Some(IC_EMPTY)),
                        },
                    };
                    match found {
                        None => self.proc.ics.stats.field_hits += 1,
                        Some(slot) => {
                            self.proc.ics.stats.field_misses += 1;
                            if slot != IC_EMPTY {
                                self.proc.ics.fields[*site as usize].slot = slot;
                            }
                        }
                    }
                    regs[*dst as usize] = value;
                    pc += 1;
                }
                RInsn::IPut {
                    src,
                    obj,
                    field,
                    site,
                } => {
                    let value = regs[*src as usize].clone();
                    let id = match regs[*obj as usize].as_obj() {
                        Some(id) => id,
                        None => return Err(npe("iput", self.proc.interner.resolve(*field))),
                    };
                    let cached = self.proc.ics.fields[*site as usize].slot;
                    let object = match self.proc.heap.get_mut(id) {
                        Some(o) => o,
                        None => return Err(npe("iput", self.proc.interner.resolve(*field))),
                    };
                    let found = match object.fields.get_mut(cached as usize) {
                        Some((s, v)) if s == field => {
                            *v = value;
                            None
                        }
                        _ => match object.fields.iter().position(|(s, _)| s == field) {
                            Some(idx) => {
                                object.fields[idx].1 = value;
                                Some(idx as u32)
                            }
                            None => {
                                object.fields.push((*field, value));
                                Some((object.fields.len() - 1) as u32)
                            }
                        },
                    };
                    match found {
                        None => self.proc.ics.stats.field_hits += 1,
                        Some(slot) => {
                            self.proc.ics.stats.field_misses += 1;
                            self.proc.ics.fields[*site as usize].slot = slot;
                        }
                    }
                    pc += 1;
                }
                RInsn::SGet {
                    dst,
                    class,
                    name,
                    site,
                } => {
                    let cached = self.proc.ics.statics[*site as usize].slot;
                    let value = if cached != IC_EMPTY {
                        self.proc.ics.stats.field_hits += 1;
                        self.proc.statics.slot(cached).clone()
                    } else {
                        self.proc.ics.stats.field_misses += 1;
                        let idx = {
                            let proc = &mut *self.proc;
                            proc.statics.slot_index(
                                proc.interner.resolve(*class),
                                proc.interner.resolve(*name),
                            )
                        };
                        match idx {
                            Some(idx) => {
                                self.proc.ics.statics[*site as usize].slot = idx;
                                self.proc.statics.slot(idx).clone()
                            }
                            // Reading a never-written static is Null and
                            // does not create the slot (same as legacy).
                            None => Value::Null,
                        }
                    };
                    regs[*dst as usize] = value;
                    pc += 1;
                }
                RInsn::SPut {
                    src,
                    class,
                    name,
                    site,
                } => {
                    let value = regs[*src as usize].clone();
                    let cached = self.proc.ics.statics[*site as usize].slot;
                    if cached != IC_EMPTY {
                        self.proc.ics.stats.field_hits += 1;
                        *self.proc.statics.slot_mut(cached) = value;
                    } else {
                        self.proc.ics.stats.field_misses += 1;
                        let idx = {
                            let proc = &mut *self.proc;
                            proc.statics.ensure_slot(
                                proc.interner.resolve(*class),
                                proc.interner.resolve(*name),
                            )
                        };
                        self.proc.ics.statics[*site as usize].slot = idx;
                        *self.proc.statics.slot_mut(idx) = value;
                    }
                    pc += 1;
                }
                RInsn::IfZero { cmp, reg, target } => {
                    let v = int_for_cmp(&regs[*reg as usize]);
                    if cmp.eval(v, 0) {
                        pc = *target as usize;
                    } else {
                        pc += 1;
                    }
                }
                RInsn::IfCmp { cmp, a, b, target } => {
                    let av = int_for_cmp(&regs[*a as usize]);
                    let bv = int_for_cmp(&regs[*b as usize]);
                    if cmp.eval(av, bv) {
                        pc = *target as usize;
                    } else {
                        pc += 1;
                    }
                }
                RInsn::Goto { target } => pc = *target as usize,
                RInsn::Arith { op, dst, a, b } => {
                    let av = regs[*a as usize].as_int().ok_or_else(|| {
                        Exec::Throw("ClassCastException: int op on reference".to_string())
                    })?;
                    let bv = regs[*b as usize].as_int().ok_or_else(|| {
                        Exec::Throw("ClassCastException: int op on reference".to_string())
                    })?;
                    regs[*dst as usize] = Value::Int(arith(*op, av, bv)?);
                    pc += 1;
                }
                RInsn::ReturnVoid => return Ok(Value::Null),
                RInsn::Return { reg } => {
                    return Ok(std::mem::replace(&mut regs[*reg as usize], Value::Null));
                }
                RInsn::Throw { reg } => {
                    let msg = match std::mem::replace(&mut regs[*reg as usize], Value::Null) {
                        Value::Str(s) => s,
                        other => format!("{other:?}"),
                    };
                    return Err(Exec::Throw(msg));
                }
            }
        }
    }

    fn dispatch_invoke(
        &mut self,
        kind: InvokeKind,
        mref: &dydroid_dex::MethodRef,
        argv: Vec<Value>,
    ) -> Result<Value, Exec> {
        if is_framework_class(&mref.class) {
            return intrinsics::dispatch(self, mref, &argv);
        }
        // Receiver runtime class may be a framework intrinsic object even
        // when the static type is an app class alias; but in our model app
        // bytecode names framework classes directly, so plain dispatch.
        let _ = kind;
        self.invoke_resolved(&mref.class, &mref.name, argv)
    }

    /// Allocates a heap object (used by intrinsics).
    pub fn alloc(&mut self, class: &str, intrinsic: crate::heap::IntrinsicState) -> ObjId {
        let sym = self.proc.interner.intern(class);
        self.proc.heap.alloc_intrinsic(sym, intrinsic)
    }
}

fn arith(op: dydroid_dex::BinOp, av: i64, bv: i64) -> Result<i64, Exec> {
    use dydroid_dex::BinOp as B;
    Ok(match op {
        B::Add => av.wrapping_add(bv),
        B::Sub => av.wrapping_sub(bv),
        B::Mul => av.wrapping_mul(bv),
        B::Div | B::Rem if bv == 0 => {
            return Err(Exec::Throw(
                "ArithmeticException: divide by zero".to_string(),
            ));
        }
        B::Div => av.wrapping_div(bv),
        B::Rem => av.wrapping_rem(bv),
        B::Xor => av ^ bv,
        B::And => av & bv,
        B::Or => av | bv,
    })
}

fn npe(op: &str, field: &str) -> Exec {
    Exec::Throw(format!("NullPointerException: {op} {field}"))
}

fn int_for_cmp(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Null => 0,
        Value::Obj(_) => 1,
        Value::Str(s) => i64::from(!s.is_empty()),
    }
}

/// The default value for a method's declared return type.
pub fn default_return(method: &Method) -> Value {
    if method.sig.returns_value() {
        match method.sig.ret() {
            dydroid_dex::TypeDesc::Int
            | dydroid_dex::TypeDesc::Boolean
            | dydroid_dex::TypeDesc::Long => Value::Int(0),
            _ => Value::Null,
        }
    } else {
        Value::Null
    }
}

/// Whether a class is provided by the platform (dispatched intrinsically,
/// never resolved from app class spaces).
pub fn is_framework_class(class: &str) -> bool {
    class.starts_with("java.")
        || class.starts_with("javax.")
        || class.starts_with("android.")
        || class.starts_with("dalvik.")
        || class.starts_with("com.android.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{CmpKind, DexFile, FieldRef, Manifest, MethodRef};

    fn run_mode(
        classes: DexFile,
        class: &str,
        method: &str,
        legacy: bool,
    ) -> (Result<Value, Exec>, Device, u64) {
        let mut device = Device::new(DeviceConfig {
            legacy_interp: legacy,
            ..DeviceConfig::default()
        });
        let mut proc = Process::new("com.a".to_string(), classes, &Manifest::new("com.a"));
        let (result, used) = {
            let mut vm = Vm::new(&mut device, &mut proc);
            let r = vm.call_entry(class, method);
            (r, DEFAULT_FUEL - vm.fuel)
        };
        (result, device, used)
    }

    fn run(classes: DexFile, class: &str, method: &str) -> (Result<Value, Exec>, Device) {
        // Every interpreter test runs through BOTH paths and insists
        // on identical results and identical fuel accounting.
        let (fast, device, fast_used) = run_mode(classes.clone(), class, method, false);
        let (legacy, _, legacy_used) = run_mode(classes, class, method, true);
        assert_eq!(fast, legacy, "fast and legacy paths diverged");
        assert_eq!(fast_used, legacy_used, "fuel accounting diverged");
        (fast, device)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_int(0, 6);
        m.const_int(1, 7);
        m.binop(dydroid_dex::BinOp::Mul, 2, 0, 1);
        m.ret(2);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(42));
    }

    #[test]
    fn divide_by_zero_throws() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_int(0, 1);
        m.const_int(1, 0);
        m.binop(dydroid_dex::BinOp::Div, 2, 0, 1);
        m.ret(2);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::Throw(msg)) if msg.contains("divide by zero")));
    }

    #[test]
    fn loops_and_branches() {
        // Sum 1..=5 via a loop.
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.registers(4);
        m.const_int(0, 0); // acc
        m.const_int(1, 5); // i
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.if_zero(CmpKind::Le, 1, done);
        m.binop(dydroid_dex::BinOp::Add, 0, 0, 1);
        m.const_int(2, 1);
        m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
        m.goto(head);
        m.bind(done);
        m.ret(0);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(15));
    }

    #[test]
    fn infinite_loop_hits_fuel() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        let head = m.label();
        m.bind(head);
        m.goto(head);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r, Err(Exec::OutOfFuel));
    }

    #[test]
    fn fields_and_methods_across_objects() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.a.Counter", "java.lang.Object");
            c.field("n", "I", AccessFlags::PRIVATE);
            let inc = c.method("bump", "()V", AccessFlags::PUBLIC);
            inc.registers(4);
            inc.iget(1, 0, FieldRef::new("com.a.Counter", "n", "I"));
            inc.const_int(2, 1);
            inc.binop(dydroid_dex::BinOp::Add, 1, 1, 2);
            inc.iput(1, 0, FieldRef::new("com.a.Counter", "n", "I"));
            inc.ret_void();
        }
        {
            let c = b.class("com.a.M", "java.lang.Object");
            let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m.registers(4);
            m.new_instance(0, "com.a.Counter");
            m.invoke_virtual(MethodRef::new("com.a.Counter", "bump", "()V"), vec![0]);
            m.invoke_virtual(MethodRef::new("com.a.Counter", "bump", "()V"), vec![0]);
            m.iget(1, 0, FieldRef::new("com.a.Counter", "n", "I"));
            m.ret(1);
        }
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(2));
    }

    #[test]
    fn statics_shared() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.registers(2);
        m.const_int(0, 99);
        m.sput(0, FieldRef::new("com.a.G", "v", "I"));
        m.sget(1, FieldRef::new("com.a.G", "v", "I"));
        m.ret(1);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(99));
    }

    #[test]
    fn null_receiver_is_npe() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_null(0);
        m.invoke_virtual(MethodRef::new("com.a.M", "g", "()V"), vec![0]);
        m.ret_void();
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::Throw(msg)) if msg.contains("NullPointerException")));
    }

    #[test]
    fn missing_class_throws_cnfe() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.new_instance(0, "com.a.Ghost");
        m.invoke_virtual(MethodRef::new("com.a.Ghost", "g", "()V"), vec![0]);
        m.ret_void();
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::Throw(msg)) if msg.contains("ClassNotFoundException")));
    }

    #[test]
    fn explicit_throw_propagates() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_str(0, "custom failure");
        m.throw(0);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r, Err(Exec::Throw("custom failure".to_string())));
    }

    #[test]
    fn recursion_depth_limited() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.invoke_static(MethodRef::new("com.a.M", "f", "()V"), vec![]);
        m.ret_void();
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::StackOverflow) | Err(Exec::OutOfFuel)));
    }

    #[test]
    fn framework_class_detection() {
        assert!(is_framework_class("java.net.URL"));
        assert!(is_framework_class("dalvik.system.DexClassLoader"));
        assert!(is_framework_class("android.telephony.TelephonyManager"));
        assert!(!is_framework_class("com.example.Main"));
        assert!(!is_framework_class("com.google.ads.Loader"));
    }

    #[test]
    fn virtual_dispatch_uses_runtime_class() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.a.Base", "java.lang.Object");
            let m = c.method("v", "()I", AccessFlags::PUBLIC);
            m.const_int(1, 1);
            m.ret(1);
        }
        {
            let c = b.class("com.a.Sub", "com.a.Base");
            let m = c.method("v", "()I", AccessFlags::PUBLIC);
            m.const_int(1, 2);
            m.ret(1);
        }
        {
            let c = b.class("com.a.M", "java.lang.Object");
            let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m.registers(4);
            m.new_instance(0, "com.a.Sub");
            // Statically typed as Base; must hit Sub::v.
            m.invoke_virtual(MethodRef::new("com.a.Base", "v", "()I"), vec![0]);
            m.move_result(1);
            m.ret(1);
        }
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(2));
    }

    #[test]
    fn call_site_cache_survives_megamorphic_receivers() {
        // One call site sees Sub1 then Sub2 then Sub1 again: the
        // monomorphic cache must re-resolve correctly each time the
        // receiver class flips.
        let mut b = DexBuilder::new();
        for (cls, v) in [("com.a.Sub1", 10), ("com.a.Sub2", 20)] {
            let c = b.class(cls, "com.a.Base");
            let m = c.method("v", "()I", AccessFlags::PUBLIC);
            m.const_int(1, v);
            m.ret(1);
        }
        b.class("com.a.Base", "java.lang.Object");
        {
            let c = b.class("com.a.M", "java.lang.Object");
            // call(obj) -> obj.v()
            let call = c.method(
                "call",
                "(Ljava/lang/Object;)I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
            );
            call.registers(2);
            call.invoke_virtual(MethodRef::new("com.a.Base", "v", "()I"), vec![0]);
            call.move_result(1);
            call.ret(1);
            let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m.registers(6);
            m.new_instance(0, "com.a.Sub1");
            m.new_instance(1, "com.a.Sub2");
            m.invoke_static(
                MethodRef::new("com.a.M", "call", "(Ljava/lang/Object;)I"),
                vec![0],
            );
            m.move_result(2);
            m.invoke_static(
                MethodRef::new("com.a.M", "call", "(Ljava/lang/Object;)I"),
                vec![1],
            );
            m.move_result(3);
            m.invoke_static(
                MethodRef::new("com.a.M", "call", "(Ljava/lang/Object;)I"),
                vec![0],
            );
            m.move_result(4);
            // 10 + 20 + 10 = 40
            m.binop(dydroid_dex::BinOp::Add, 2, 2, 3);
            m.binop(dydroid_dex::BinOp::Add, 2, 2, 4);
            m.ret(2);
        }
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(40));
    }
}
