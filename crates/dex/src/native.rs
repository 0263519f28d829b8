//! Simulated native (`.so`) libraries.
//!
//! A stand-in for ELF shared objects with exactly the properties the
//! pipeline needs: an architecture tag, a symbol table, per-function bodies
//! in a small pseudo instruction set with real control flow (so the
//! DroidNative-like detector can build CFGs over native code, which
//! bytecode-only systems such as TaintDroid cannot), and *interpretable
//! effects* — `Syscall` operands like `ptrace:<pkg>` or
//! `xor_decrypt:<src>:<dst>:<key>` are executed by the simulated runtime,
//! which is how packer decrypt stubs and the Chathook ptrace malware family
//! actually do their work.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::encode::{Reader, Writer};
use crate::DexError;

/// Magic bytes of an encoded native library.
pub const SO_MAGIC: &[u8; 4] = b"SELF";

/// Target architecture of a native library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// 32-bit ARM (`armeabi`).
    Arm,
    /// x86.
    X86,
}

impl Arch {
    /// ABI directory name under `lib/` in an APK.
    pub fn abi_dir(self) -> &'static str {
        match self {
            Arch::Arm => "armeabi",
            Arch::X86 => "x86",
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_dir())
    }
}

/// Branch conditions in the native pseudo-ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NativeCond {
    /// Branch if the register is zero.
    Zero,
    /// Branch if the register is non-zero.
    NonZero,
}

/// One pseudo-instruction of simulated native code.
///
/// Branch targets are absolute indices into the owning function's body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NativeInsn {
    /// No operation.
    Nop,
    /// Load an immediate into a register.
    Const {
        /// Destination register (native code has 16 registers, `r0..r15`).
        dst: u8,
        /// Immediate value.
        value: i64,
    },
    /// `dst = a + b` (the single arithmetic op; enough for CFG shape).
    Add {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
    },
    /// Call a symbol — another function in this library or an import.
    Call {
        /// Callee symbol name.
        symbol: String,
    },
    /// Invoke an OS-level effect. The `name` selects the effect and the
    /// optional argument carries colon-separated operands, e.g.
    /// `ptrace:com.tencent.mobileqq` or `xor_decrypt:src:dst:key`.
    Syscall {
        /// Effect name (`ptrace`, `setuid`, `connect`, `send`, `open`,
        /// `xor_decrypt`, `fork`, …).
        name: String,
        /// Optional colon-separated operand string.
        arg: Option<String>,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute instruction index.
        target: u32,
    },
    /// Conditional branch on a register.
    Branch {
        /// Condition.
        cond: NativeCond,
        /// Tested register.
        reg: u8,
        /// Absolute instruction index.
        target: u32,
    },
    /// Return from the function.
    Ret,
}

impl NativeInsn {
    /// Branch target, if this is a jump or branch.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            NativeInsn::Jump { target } | NativeInsn::Branch { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Whether control can fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        !matches!(self, NativeInsn::Jump { .. } | NativeInsn::Ret)
    }
}

/// A function within a native library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NativeFunction {
    /// Symbol name, e.g. `JNI_OnLoad` or `Java_com_x_Y_decrypt`.
    pub name: String,
    /// Whether the symbol is exported (visible to `dlsym`/JNI).
    pub exported: bool,
    /// Body.
    pub code: Vec<NativeInsn>,
}

impl NativeFunction {
    /// Creates an exported function.
    pub fn exported(name: impl Into<String>, code: Vec<NativeInsn>) -> Self {
        NativeFunction {
            name: name.into(),
            exported: true,
            code,
        }
    }

    /// Creates a local (non-exported) function.
    pub fn local(name: impl Into<String>, code: Vec<NativeInsn>) -> Self {
        NativeFunction {
            name: name.into(),
            exported: false,
            code,
        }
    }
}

/// A simulated native shared library.
///
/// # Example
///
/// ```
/// use dydroid_dex::native::{Arch, NativeFunction, NativeInsn, NativeLibrary};
///
/// let lib = NativeLibrary::new("libhello.so", Arch::Arm)
///     .with_function(NativeFunction::exported("JNI_OnLoad", vec![NativeInsn::Ret]));
/// let bytes = lib.to_bytes();
/// let back = NativeLibrary::parse(&bytes)?;
/// assert!(back.function("JNI_OnLoad").is_some());
/// # Ok::<(), dydroid_dex::DexError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NativeLibrary {
    /// Library soname, e.g. `libfoo.so`.
    pub soname: String,
    /// Target architecture.
    pub arch: Arch,
    /// Sonames of libraries this one depends on.
    pub needed: Vec<String>,
    /// Function table.
    pub functions: Vec<NativeFunction>,
}

impl NativeLibrary {
    /// Creates an empty library.
    pub fn new(soname: impl Into<String>, arch: Arch) -> Self {
        NativeLibrary {
            soname: soname.into(),
            arch,
            needed: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Adds a function (builder style).
    pub fn with_function(mut self, f: NativeFunction) -> Self {
        self.functions.push(f);
        self
    }

    /// Adds a dependency (builder style).
    pub fn with_needed(mut self, soname: impl Into<String>) -> Self {
        self.needed.push(soname.into());
        self
    }

    /// Looks up a function by symbol name.
    pub fn function(&self, name: &str) -> Option<&NativeFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// All exported symbol names.
    pub fn exports(&self) -> impl Iterator<Item = &str> {
        self.functions
            .iter()
            .filter(|f| f.exported)
            .map(|f| f.name.as_str())
    }

    /// All syscall names appearing anywhere in the library (used by quick
    /// static scans, e.g. the ptrace anti-debug heuristic).
    pub fn syscall_names(&self) -> Vec<&str> {
        self.functions
            .iter()
            .flat_map(|f| f.code.iter())
            .filter_map(|i| match i {
                NativeInsn::Syscall { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Serialises the library.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(SO_MAGIC);
        w.u8(match self.arch {
            Arch::Arm => 0,
            Arch::X86 => 1,
        });
        w.str(&self.soname);
        w.u32(self.needed.len() as u32);
        for n in &self.needed {
            w.str(n);
        }
        w.u32(self.functions.len() as u32);
        for f in &self.functions {
            w.str(&f.name);
            w.u8(u8::from(f.exported));
            w.u32(f.code.len() as u32);
            for insn in &f.code {
                encode_native_insn(&mut w, insn);
            }
        }
        w.into_bytes()
    }

    /// Parses an encoded library.
    ///
    /// # Errors
    ///
    /// Returns [`DexError`] (shared error type) on malformed input.
    pub fn parse(data: &[u8]) -> Result<Self, DexError> {
        let mut r = Reader::new(data);
        let magic = r.take(4, "so magic")?;
        if magic != SO_MAGIC {
            return Err(DexError::BadMagic);
        }
        let arch = match r.u8("so arch")? {
            0 => Arch::Arm,
            1 => Arch::X86,
            other => return Err(DexError::Invalid(format!("bad arch {other}"))),
        };
        let soname = r.str("soname")?.to_string();
        let n_needed = r.u32("needed count")?;
        let mut needed = Vec::with_capacity(n_needed.min(256) as usize);
        for _ in 0..n_needed {
            needed.push(r.str("needed")?.to_string());
        }
        let n_funcs = r.u32("function count")?;
        let mut functions = Vec::with_capacity(n_funcs.min(65_536) as usize);
        for _ in 0..n_funcs {
            let name = r.str("function name")?.to_string();
            let exported = r.u8("function exported")? == 1;
            let n_insns = r.u32("function length")?;
            let mut code = Vec::with_capacity(n_insns.min(1_000_000) as usize);
            for _ in 0..n_insns {
                code.push(decode_native_insn(&mut r)?);
            }
            // Validate branch targets.
            let len = code.len() as u32;
            for insn in &code {
                if let Some(t) = insn.branch_target() {
                    if t >= len {
                        return Err(DexError::Invalid(format!(
                            "native function {name}: branch target {t} out of range"
                        )));
                    }
                }
            }
            functions.push(NativeFunction {
                name,
                exported,
                code,
            });
        }
        Ok(NativeLibrary {
            soname,
            arch,
            needed,
            functions,
        })
    }
}

fn encode_native_insn(w: &mut Writer, insn: &NativeInsn) {
    match insn {
        NativeInsn::Nop => w.u8(0),
        NativeInsn::Const { dst, value } => {
            w.u8(1);
            w.u8(*dst);
            w.i64(*value);
        }
        NativeInsn::Add { dst, a, b } => {
            w.u8(2);
            w.u8(*dst);
            w.u8(*a);
            w.u8(*b);
        }
        NativeInsn::Call { symbol } => {
            w.u8(3);
            w.str(symbol);
        }
        NativeInsn::Syscall { name, arg } => {
            w.u8(4);
            w.str(name);
            match arg {
                Some(a) => {
                    w.u8(1);
                    w.str(a);
                }
                None => w.u8(0),
            }
        }
        NativeInsn::Jump { target } => {
            w.u8(5);
            w.u32(*target);
        }
        NativeInsn::Branch { cond, reg, target } => {
            w.u8(6);
            w.u8(match cond {
                NativeCond::Zero => 0,
                NativeCond::NonZero => 1,
            });
            w.u8(*reg);
            w.u32(*target);
        }
        NativeInsn::Ret => w.u8(7),
    }
}

fn decode_native_insn(r: &mut Reader) -> Result<NativeInsn, DexError> {
    Ok(match r.u8("native opcode")? {
        0 => NativeInsn::Nop,
        1 => NativeInsn::Const {
            dst: r.u8("const dst")?,
            value: r.i64("const value")?,
        },
        2 => NativeInsn::Add {
            dst: r.u8("add dst")?,
            a: r.u8("add a")?,
            b: r.u8("add b")?,
        },
        3 => NativeInsn::Call {
            symbol: r.str("call symbol")?.to_string(),
        },
        4 => {
            let name = r.str("syscall name")?.to_string();
            let arg = if r.u8("syscall has-arg")? == 1 {
                Some(r.str("syscall arg")?.to_string())
            } else {
                None
            };
            NativeInsn::Syscall { name, arg }
        }
        5 => NativeInsn::Jump {
            target: r.u32("jump target")?,
        },
        6 => NativeInsn::Branch {
            cond: match r.u8("branch cond")? {
                0 => NativeCond::Zero,
                1 => NativeCond::NonZero,
                other => return Err(DexError::Invalid(format!("bad cond {other}"))),
            },
            reg: r.u8("branch reg")?,
            target: r.u32("branch target")?,
        },
        7 => NativeInsn::Ret,
        other => return Err(DexError::BadOpcode(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NativeLibrary {
        NativeLibrary::new("libtest.so", Arch::Arm)
            .with_needed("libc.so")
            .with_function(NativeFunction::exported(
                "JNI_OnLoad",
                vec![
                    NativeInsn::Const { dst: 0, value: 1 },
                    NativeInsn::Branch {
                        cond: NativeCond::Zero,
                        reg: 0,
                        target: 4,
                    },
                    NativeInsn::Call {
                        symbol: "helper".to_string(),
                    },
                    NativeInsn::Syscall {
                        name: "ptrace".to_string(),
                        arg: Some("com.tencent.mobileqq".to_string()),
                    },
                    NativeInsn::Ret,
                ],
            ))
            .with_function(NativeFunction::local("helper", vec![NativeInsn::Ret]))
    }

    #[test]
    fn round_trip() {
        let lib = sample();
        let back = NativeLibrary::parse(&lib.to_bytes()).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn exports_only_exported() {
        let lib = sample();
        let exports: Vec<&str> = lib.exports().collect();
        assert_eq!(exports, vec!["JNI_OnLoad"]);
    }

    #[test]
    fn syscall_scan() {
        let lib = sample();
        assert_eq!(lib.syscall_names(), vec!["ptrace"]);
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(NativeLibrary::parse(&bytes), Err(DexError::BadMagic));
    }

    #[test]
    fn out_of_range_branch_rejected() {
        let lib = NativeLibrary::new("lib.so", Arch::X86).with_function(NativeFunction::exported(
            "f",
            vec![NativeInsn::Jump { target: 10 }],
        ));
        let bytes = lib.to_bytes();
        assert!(matches!(
            NativeLibrary::parse(&bytes),
            Err(DexError::Invalid(_))
        ));
    }

    #[test]
    fn fall_through() {
        assert!(NativeInsn::Nop.falls_through());
        assert!(!NativeInsn::Ret.falls_through());
        assert!(!NativeInsn::Jump { target: 0 }.falls_through());
        assert!(NativeInsn::Branch {
            cond: NativeCond::Zero,
            reg: 0,
            target: 0
        }
        .falls_through());
    }

    #[test]
    fn arch_dirs() {
        assert_eq!(Arch::Arm.abi_dir(), "armeabi");
        assert_eq!(Arch::X86.abi_dir(), "x86");
        assert_eq!(Arch::Arm.to_string(), "armeabi");
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().to_bytes();
        assert!(NativeLibrary::parse(&bytes[..bytes.len() - 2]).is_err());
    }
}
