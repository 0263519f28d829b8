//! The DEX-like container: a set of classes plus a binary encoding.
//!
//! # Binary layout
//!
//! ```text
//! magic    "SDEX"            4 bytes
//! version  u16               currently 35 (mirroring dex 035)
//! checksum u32               Adler-32 over everything after this field
//! strings  u32 count, then count length-prefixed UTF-8 strings
//! classes  u32 count, then count encoded class defs
//! ```
//!
//! All names, descriptors and string constants are interned in the string
//! pool and referenced by `u32` index, as in real DEX. Parsing validates the
//! magic, version, checksum, every pool index and every branch target, so
//! corrupted or adversarial files fail with a precise [`DexError`] — the
//! decompiler failure statistics in Table II depend on these failure modes.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::checksum::adler32;
use crate::class::{AccessFlags, ClassDef, Field, Method};
use crate::encode::{Reader, Writer};
use crate::instruction::{BinOp, CmpKind, Instruction, InvokeKind};
use crate::refs::{FieldRef, MethodRef, MethodSig};
use crate::types::TypeDesc;

/// Magic bytes at the start of every encoded DEX-like file.
pub const DEX_MAGIC: &[u8; 4] = b"SDEX";
/// Current format version.
pub const DEX_VERSION: u16 = 35;
/// Byte offset of the header's checksum field.
const CHECKSUM_AT: usize = 4 + 2;
/// Header length: magic, version and checksum; the checksum covers the
/// bytes after it.
const HEADER_LEN: usize = CHECKSUM_AT + 4;

/// Errors produced while constructing, encoding or parsing DEX-like data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DexError {
    /// The file does not start with [`DEX_MAGIC`].
    BadMagic,
    /// The version field is unsupported.
    BadVersion(u16),
    /// The Adler-32 checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u32,
        /// Checksum computed over the payload.
        actual: u32,
    },
    /// The input ended before a field could be read.
    Truncated {
        /// What was being read.
        what: String,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A structural invariant was violated.
    Invalid(String),
    /// A type descriptor or signature failed to parse.
    BadDescriptor(String),
    /// An unknown instruction opcode was encountered.
    BadOpcode(u8),
    /// A string-pool index was out of range.
    BadStringIndex(u32),
}

impl fmt::Display for DexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DexError::BadMagic => write!(f, "bad magic, not a dex file"),
            DexError::BadVersion(v) => write!(f, "unsupported dex version {v}"),
            DexError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
            DexError::Truncated {
                what,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated while reading {what}: needed {needed}, had {available}"
                )
            }
            DexError::Invalid(msg) => write!(f, "invalid dex structure: {msg}"),
            DexError::BadDescriptor(d) => write!(f, "bad type descriptor or signature: {d:?}"),
            DexError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DexError::BadStringIndex(idx) => write!(f, "string index {idx} out of range"),
        }
    }
}

impl std::error::Error for DexError {}

/// An in-memory DEX-like file: a list of class definitions.
///
/// # Example
///
/// ```
/// use dydroid_dex::{ClassDef, DexFile};
///
/// let mut dex = DexFile::new();
/// dex.add_class(ClassDef::new("com.example.A", "java.lang.Object"));
/// let bytes = dex.to_bytes();
/// let back = DexFile::parse(&bytes)?;
/// assert_eq!(back.classes().len(), 1);
/// # Ok::<(), dydroid_dex::DexError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DexFile {
    classes: Vec<ClassDef>,
}

impl DexFile {
    /// Creates an empty file.
    pub fn new() -> Self {
        DexFile {
            classes: Vec::new(),
        }
    }

    /// Adds a class definition.
    pub fn add_class(&mut self, class: ClassDef) {
        self.classes.push(class);
    }

    /// All class definitions.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Mutable access to the class definitions (used by rewriting).
    pub fn classes_mut(&mut self) -> &mut Vec<ClassDef> {
        &mut self.classes
    }

    /// Looks up a class by dotted name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Iterates over every method in every class.
    pub fn methods(&self) -> impl Iterator<Item = (&ClassDef, &Method)> {
        self.classes
            .iter()
            .flat_map(|c| c.methods.iter().map(move |m| (c, m)))
    }

    /// Validates all classes.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn validate(&self) -> Result<(), DexError> {
        let mut seen = std::collections::HashSet::new();
        for c in &self.classes {
            if !seen.insert(&c.name) {
                return Err(DexError::Invalid(format!("duplicate class {}", c.name)));
            }
            c.validate()?;
        }
        Ok(())
    }

    /// Encodes the file to bytes, interning strings and computing the
    /// header checksum.
    ///
    /// Encoding the class section fills the string pool, which precedes
    /// it; the output is then sized exactly and written once, with a
    /// placeholder checksum that is patched in last.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut pool = StringPool::default();
        let mut body = Writer::new();
        body.u32(self.classes.len() as u32);
        for c in &self.classes {
            encode_class(&mut body, &mut pool, c);
        }
        let strings = pool.into_ordered();

        let pool_len: usize = 4 + strings.iter().map(|s| 4 + s.len()).sum::<usize>();
        let mut out = Writer::with_capacity(HEADER_LEN + pool_len + body.len());
        out.bytes(DEX_MAGIC);
        out.u16(DEX_VERSION);
        out.u32(0);
        out.u32(strings.len() as u32);
        for s in &strings {
            out.str(s);
        }
        out.bytes(body.as_slice());
        let checksum = adler32(&out.as_slice()[HEADER_LEN..]);
        out.patch_u32(CHECKSUM_AT, checksum);
        out.into_bytes()
    }

    /// Parses an encoded file, verifying magic, version, checksum and all
    /// structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`DexError`] describing the first problem found.
    pub fn parse(data: &[u8]) -> Result<Self, DexError> {
        let mut r = Reader::new(data);
        let magic = r.take(4, "magic")?;
        if magic != DEX_MAGIC {
            return Err(DexError::BadMagic);
        }
        let version = r.u16("version")?;
        if version != DEX_VERSION {
            return Err(DexError::BadVersion(version));
        }
        let expected = r.u32("checksum")?;
        let actual = adler32(&data[HEADER_LEN..]);
        if expected != actual {
            return Err(DexError::ChecksumMismatch { expected, actual });
        }

        let n_strings = r.u32("string count")?;
        let mut strings = Vec::with_capacity(n_strings.min(65_536) as usize);
        for _ in 0..n_strings {
            strings.push(r.str("string pool entry")?);
        }
        let n_classes = r.u32("class count")?;
        let mut classes = Vec::with_capacity(n_classes.min(65_536) as usize);
        for _ in 0..n_classes {
            classes.push(decode_class(&mut r, &strings)?);
        }
        let file = DexFile { classes };
        file.validate()?;
        Ok(file)
    }
}

/// The encoder's string pool: each string's index is its first-intern
/// order. Names are borrowed from the [`DexFile`]; a signature or type
/// descriptor is rendered into `scratch` and copied only when new.
#[derive(Default)]
struct StringPool<'a> {
    index: HashMap<Cow<'a, str>, u32>,
    scratch: String,
}

impl<'a> StringPool<'a> {
    fn intern(&mut self, s: &'a str) -> u32 {
        let next = self.index.len() as u32;
        *self.index.entry(Cow::Borrowed(s)).or_insert(next)
    }

    /// Interns the text `render` appends to the emptied scratch buffer.
    fn intern_rendered(&mut self, render: impl FnOnce(&mut String)) -> u32 {
        self.scratch.clear();
        render(&mut self.scratch);
        if let Some(&idx) = self.index.get(self.scratch.as_str()) {
            return idx;
        }
        let idx = self.index.len() as u32;
        self.index.insert(Cow::Owned(self.scratch.clone()), idx);
        idx
    }

    fn intern_type(&mut self, ty: &TypeDesc) -> u32 {
        self.intern_rendered(|out| ty.push_descriptor(out))
    }

    fn intern_sig(&mut self, sig: &MethodSig) -> u32 {
        self.intern_rendered(|out| sig.push_text(out))
    }

    /// The pooled strings, by index.
    fn into_ordered(self) -> Vec<Cow<'a, str>> {
        let mut strings = vec![Cow::Borrowed(""); self.index.len()];
        for (s, idx) in self.index {
            strings[idx as usize] = s;
        }
        strings
    }
}

fn encode_class<'a>(w: &mut Writer, pool: &mut StringPool<'a>, c: &'a ClassDef) {
    w.u32(pool.intern(&c.name));
    w.u32(pool.intern(&c.superclass));
    w.u32(c.flags.0);
    w.u32(c.interfaces.len() as u32);
    for i in &c.interfaces {
        w.u32(pool.intern(i));
    }
    match &c.source_file {
        Some(sf) => {
            w.u8(1);
            w.u32(pool.intern(sf));
        }
        None => w.u8(0),
    }
    w.u32(c.fields.len() as u32);
    for f in &c.fields {
        w.u32(pool.intern(&f.name));
        w.u32(pool.intern_type(&f.ty));
        w.u32(f.flags.0);
    }
    w.u32(c.methods.len() as u32);
    for m in &c.methods {
        encode_method(w, pool, m);
    }
}

fn encode_method<'a>(w: &mut Writer, pool: &mut StringPool<'a>, m: &'a Method) {
    w.u32(pool.intern(&m.name));
    w.u32(pool.intern_sig(&m.sig));
    w.u32(m.flags.0);
    w.u16(m.registers);
    w.u32(m.code.len() as u32);
    for insn in &m.code {
        encode_insn(w, pool, insn);
    }
}

fn lookup<'a>(strings: &[&'a str], idx: u32) -> Result<&'a str, DexError> {
    strings
        .get(idx as usize)
        .copied()
        .ok_or(DexError::BadStringIndex(idx))
}

fn decode_class(r: &mut Reader, strings: &[&str]) -> Result<ClassDef, DexError> {
    let name = lookup(strings, r.u32("class name")?)?.to_string();
    let superclass = lookup(strings, r.u32("superclass")?)?.to_string();
    let flags = AccessFlags(r.u32("class flags")?);
    let n_ifaces = r.u32("interface count")?;
    let mut interfaces = Vec::with_capacity(n_ifaces.min(1024) as usize);
    for _ in 0..n_ifaces {
        interfaces.push(lookup(strings, r.u32("interface")?)?.to_string());
    }
    let source_file = if r.u8("source file flag")? == 1 {
        Some(lookup(strings, r.u32("source file")?)?.to_string())
    } else {
        None
    };
    let n_fields = r.u32("field count")?;
    let mut fields = Vec::with_capacity(n_fields.min(65_536) as usize);
    for _ in 0..n_fields {
        let fname = lookup(strings, r.u32("field name")?)?.to_string();
        let ty = TypeDesc::parse(lookup(strings, r.u32("field type")?)?)?;
        let fflags = AccessFlags(r.u32("field flags")?);
        fields.push(Field {
            name: fname,
            ty,
            flags: fflags,
        });
    }
    let n_methods = r.u32("method count")?;
    let mut methods = Vec::with_capacity(n_methods.min(65_536) as usize);
    for _ in 0..n_methods {
        methods.push(decode_method(r, strings)?);
    }
    Ok(ClassDef {
        name,
        superclass,
        flags,
        interfaces,
        source_file,
        fields,
        methods,
    })
}

fn decode_method(r: &mut Reader, strings: &[&str]) -> Result<Method, DexError> {
    let name = lookup(strings, r.u32("method name")?)?.to_string();
    let sig = MethodSig::parse(lookup(strings, r.u32("method sig")?)?)?;
    let flags = AccessFlags(r.u32("method flags")?);
    let registers = r.u16("register count")?;
    let n_insns = r.u32("instruction count")?;
    let mut code = Vec::with_capacity(n_insns.min(1_000_000) as usize);
    for _ in 0..n_insns {
        code.push(decode_insn(r, strings)?);
    }
    Ok(Method {
        name,
        sig,
        flags,
        registers,
        code,
    })
}

// Opcode assignments for the binary encoding.
mod op {
    pub const NOP: u8 = 0x00;
    pub const CONST: u8 = 0x01;
    pub const CONST_STRING: u8 = 0x02;
    pub const CONST_NULL: u8 = 0x03;
    pub const MOVE: u8 = 0x04;
    pub const MOVE_RESULT: u8 = 0x05;
    pub const NEW_INSTANCE: u8 = 0x06;
    pub const INVOKE: u8 = 0x07;
    pub const IGET: u8 = 0x08;
    pub const IPUT: u8 = 0x09;
    pub const SGET: u8 = 0x0A;
    pub const SPUT: u8 = 0x0B;
    pub const IF_ZERO: u8 = 0x0C;
    pub const IF_CMP: u8 = 0x0D;
    pub const GOTO: u8 = 0x0E;
    pub const BIN_OP: u8 = 0x0F;
    pub const RETURN_VOID: u8 = 0x10;
    pub const RETURN: u8 = 0x11;
    pub const THROW: u8 = 0x12;
    pub const CHECK_CAST: u8 = 0x13;
}

fn invoke_kind_code(k: InvokeKind) -> u8 {
    match k {
        InvokeKind::Virtual => 0,
        InvokeKind::Direct => 1,
        InvokeKind::Static => 2,
        InvokeKind::Interface => 3,
    }
}

fn invoke_kind_from(code: u8) -> Result<InvokeKind, DexError> {
    Ok(match code {
        0 => InvokeKind::Virtual,
        1 => InvokeKind::Direct,
        2 => InvokeKind::Static,
        3 => InvokeKind::Interface,
        _ => return Err(DexError::Invalid(format!("bad invoke kind {code}"))),
    })
}

fn cmp_code(c: CmpKind) -> u8 {
    match c {
        CmpKind::Eq => 0,
        CmpKind::Ne => 1,
        CmpKind::Lt => 2,
        CmpKind::Ge => 3,
        CmpKind::Gt => 4,
        CmpKind::Le => 5,
    }
}

fn cmp_from(code: u8) -> Result<CmpKind, DexError> {
    Ok(match code {
        0 => CmpKind::Eq,
        1 => CmpKind::Ne,
        2 => CmpKind::Lt,
        3 => CmpKind::Ge,
        4 => CmpKind::Gt,
        5 => CmpKind::Le,
        _ => return Err(DexError::Invalid(format!("bad cmp kind {code}"))),
    })
}

fn binop_code(b: BinOp) -> u8 {
    match b {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Xor => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
    }
}

fn binop_from(code: u8) -> Result<BinOp, DexError> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Xor,
        6 => BinOp::And,
        7 => BinOp::Or,
        _ => return Err(DexError::Invalid(format!("bad binop {code}"))),
    })
}

fn encode_method_ref<'a>(w: &mut Writer, pool: &mut StringPool<'a>, m: &'a MethodRef) {
    w.u32(pool.intern(&m.class));
    w.u32(pool.intern(&m.name));
    w.u32(pool.intern_sig(&m.sig));
}

fn decode_method_ref(r: &mut Reader, strings: &[&str]) -> Result<MethodRef, DexError> {
    let class = lookup(strings, r.u32("methodref class")?)?.to_string();
    let name = lookup(strings, r.u32("methodref name")?)?.to_string();
    let sig = MethodSig::parse(lookup(strings, r.u32("methodref sig")?)?)?;
    Ok(MethodRef { class, name, sig })
}

fn encode_field_ref<'a>(w: &mut Writer, pool: &mut StringPool<'a>, f: &'a FieldRef) {
    w.u32(pool.intern(&f.class));
    w.u32(pool.intern(&f.name));
    w.u32(pool.intern_type(&f.ty));
}

fn decode_field_ref(r: &mut Reader, strings: &[&str]) -> Result<FieldRef, DexError> {
    let class = lookup(strings, r.u32("fieldref class")?)?.to_string();
    let name = lookup(strings, r.u32("fieldref name")?)?.to_string();
    let ty = TypeDesc::parse(lookup(strings, r.u32("fieldref type")?)?)?;
    Ok(FieldRef { class, name, ty })
}

fn encode_insn<'a>(w: &mut Writer, pool: &mut StringPool<'a>, insn: &'a Instruction) {
    use Instruction as I;
    match insn {
        I::Nop => w.u8(op::NOP),
        I::Const { dst, value } => {
            w.u8(op::CONST);
            w.u16(*dst);
            w.i64(*value);
        }
        I::ConstString { dst, value } => {
            w.u8(op::CONST_STRING);
            w.u16(*dst);
            w.u32(pool.intern(value));
        }
        I::ConstNull { dst } => {
            w.u8(op::CONST_NULL);
            w.u16(*dst);
        }
        I::Move { dst, src } => {
            w.u8(op::MOVE);
            w.u16(*dst);
            w.u16(*src);
        }
        I::MoveResult { dst } => {
            w.u8(op::MOVE_RESULT);
            w.u16(*dst);
        }
        I::NewInstance { dst, class } => {
            w.u8(op::NEW_INSTANCE);
            w.u16(*dst);
            w.u32(pool.intern(class));
        }
        I::Invoke { kind, method, args } => {
            w.u8(op::INVOKE);
            w.u8(invoke_kind_code(*kind));
            encode_method_ref(w, pool, method);
            w.u8(args.len() as u8);
            for a in args {
                w.u16(*a);
            }
        }
        I::IGet { dst, obj, field } => {
            w.u8(op::IGET);
            w.u16(*dst);
            w.u16(*obj);
            encode_field_ref(w, pool, field);
        }
        I::IPut { src, obj, field } => {
            w.u8(op::IPUT);
            w.u16(*src);
            w.u16(*obj);
            encode_field_ref(w, pool, field);
        }
        I::SGet { dst, field } => {
            w.u8(op::SGET);
            w.u16(*dst);
            encode_field_ref(w, pool, field);
        }
        I::SPut { src, field } => {
            w.u8(op::SPUT);
            w.u16(*src);
            encode_field_ref(w, pool, field);
        }
        I::IfZero { cmp, reg, target } => {
            w.u8(op::IF_ZERO);
            w.u8(cmp_code(*cmp));
            w.u16(*reg);
            w.u32(*target);
        }
        I::IfCmp { cmp, a, b, target } => {
            w.u8(op::IF_CMP);
            w.u8(cmp_code(*cmp));
            w.u16(*a);
            w.u16(*b);
            w.u32(*target);
        }
        I::Goto { target } => {
            w.u8(op::GOTO);
            w.u32(*target);
        }
        I::BinOp { op: bop, dst, a, b } => {
            w.u8(op::BIN_OP);
            w.u8(binop_code(*bop));
            w.u16(*dst);
            w.u16(*a);
            w.u16(*b);
        }
        I::ReturnVoid => w.u8(op::RETURN_VOID),
        I::Return { reg } => {
            w.u8(op::RETURN);
            w.u16(*reg);
        }
        I::Throw { reg } => {
            w.u8(op::THROW);
            w.u16(*reg);
        }
        I::CheckCast { reg, class } => {
            w.u8(op::CHECK_CAST);
            w.u16(*reg);
            w.u32(pool.intern(class));
        }
    }
}

fn decode_insn(r: &mut Reader, strings: &[&str]) -> Result<Instruction, DexError> {
    use Instruction as I;
    let opcode = r.u8("opcode")?;
    Ok(match opcode {
        op::NOP => I::Nop,
        op::CONST => I::Const {
            dst: r.u16("const dst")?,
            value: r.i64("const value")?,
        },
        op::CONST_STRING => I::ConstString {
            dst: r.u16("const-string dst")?,
            value: lookup(strings, r.u32("const-string idx")?)?.to_string(),
        },
        op::CONST_NULL => I::ConstNull {
            dst: r.u16("const-null dst")?,
        },
        op::MOVE => I::Move {
            dst: r.u16("move dst")?,
            src: r.u16("move src")?,
        },
        op::MOVE_RESULT => I::MoveResult {
            dst: r.u16("move-result dst")?,
        },
        op::NEW_INSTANCE => I::NewInstance {
            dst: r.u16("new-instance dst")?,
            class: lookup(strings, r.u32("new-instance class")?)?.to_string(),
        },
        op::INVOKE => {
            let kind = invoke_kind_from(r.u8("invoke kind")?)?;
            let method = decode_method_ref(r, strings)?;
            let n = r.u8("invoke argc")?;
            let mut args = Vec::with_capacity(n as usize);
            for _ in 0..n {
                args.push(r.u16("invoke arg")?);
            }
            I::Invoke { kind, method, args }
        }
        op::IGET => I::IGet {
            dst: r.u16("iget dst")?,
            obj: r.u16("iget obj")?,
            field: decode_field_ref(r, strings)?,
        },
        op::IPUT => I::IPut {
            src: r.u16("iput src")?,
            obj: r.u16("iput obj")?,
            field: decode_field_ref(r, strings)?,
        },
        op::SGET => I::SGet {
            dst: r.u16("sget dst")?,
            field: decode_field_ref(r, strings)?,
        },
        op::SPUT => I::SPut {
            src: r.u16("sput src")?,
            field: decode_field_ref(r, strings)?,
        },
        op::IF_ZERO => I::IfZero {
            cmp: cmp_from(r.u8("ifz cmp")?)?,
            reg: r.u16("ifz reg")?,
            target: r.u32("ifz target")?,
        },
        op::IF_CMP => I::IfCmp {
            cmp: cmp_from(r.u8("ifcmp cmp")?)?,
            a: r.u16("ifcmp a")?,
            b: r.u16("ifcmp b")?,
            target: r.u32("ifcmp target")?,
        },
        op::GOTO => I::Goto {
            target: r.u32("goto target")?,
        },
        op::BIN_OP => I::BinOp {
            op: binop_from(r.u8("binop op")?)?,
            dst: r.u16("binop dst")?,
            a: r.u16("binop a")?,
            b: r.u16("binop b")?,
        },
        op::RETURN_VOID => I::ReturnVoid,
        op::RETURN => I::Return {
            reg: r.u16("return reg")?,
        },
        op::THROW => I::Throw {
            reg: r.u16("throw reg")?,
        },
        op::CHECK_CAST => I::CheckCast {
            reg: r.u16("check-cast reg")?,
            class: lookup(strings, r.u32("check-cast class")?)?.to_string(),
        },
        other => return Err(DexError::BadOpcode(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DexBuilder;

    fn sample() -> DexFile {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.example.Main", "java.lang.Object");
            let m = c.method("run", "(I)I", AccessFlags::PUBLIC);
            m.const_int(0, 10);
            m.binop(BinOp::Add, 0, 0, 1);
            m.ret(0);
        }
        {
            let c = b.class("com.example.Helper", "java.lang.Object");
            c.field("count", "I", AccessFlags::PRIVATE);
            let m = c.method("load", "(Ljava/lang/String;)V", AccessFlags::PUBLIC);
            m.new_instance(0, "dalvik.system.DexClassLoader");
            m.invoke(
                InvokeKind::Direct,
                MethodRef::new(
                    "dalvik.system.DexClassLoader",
                    "<init>",
                    "(Ljava/lang/String;)V",
                ),
                vec![0, 1],
            );
            m.ret_void();
        }
        b.build()
    }

    #[test]
    fn round_trip() {
        let dex = sample();
        let bytes = dex.to_bytes();
        let back = DexFile::parse(&bytes).unwrap();
        assert_eq!(back, dex);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(DexFile::parse(&bytes), Err(DexError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            DexFile::parse(&bytes),
            Err(DexError::BadVersion(_))
        ));
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            DexFile::parse(&bytes),
            Err(DexError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        // The checksum covers the payload, so a truncated payload trips the
        // checksum check first; header-level truncation is a Truncated error.
        let result = DexFile::parse(&bytes[..bytes.len() / 2]);
        assert!(result.is_err());
        let result = DexFile::parse(&bytes[..6]);
        assert!(matches!(result, Err(DexError::Truncated { .. })));
    }

    #[test]
    fn empty_file_round_trips() {
        let dex = DexFile::new();
        let back = DexFile::parse(&dex.to_bytes()).unwrap();
        assert!(back.classes().is_empty());
    }

    #[test]
    fn duplicate_class_rejected_by_validate() {
        let mut dex = DexFile::new();
        dex.add_class(ClassDef::new("a.B", "java.lang.Object"));
        dex.add_class(ClassDef::new("a.B", "java.lang.Object"));
        assert!(dex.validate().is_err());
    }

    #[test]
    fn class_lookup() {
        let dex = sample();
        assert!(dex.class("com.example.Main").is_some());
        assert!(dex.class("com.example.Nope").is_none());
        assert_eq!(dex.methods().count(), 2);
    }

    #[test]
    fn string_pool_dedup_keeps_size_reasonable() {
        // 100 classes sharing a superclass should intern that name once.
        let mut dex = DexFile::new();
        for i in 0..100 {
            dex.add_class(ClassDef::new(format!("p.C{i}"), "java.lang.Object"));
        }
        let bytes = dex.to_bytes();
        let occurrences = bytes
            .windows(b"java/lang/Object".len())
            .filter(|w| *w == b"java/lang/Object".as_slice())
            .count()
            + bytes
                .windows(b"java.lang.Object".len())
                .filter(|w| *w == b"java.lang.Object".as_slice())
                .count();
        assert_eq!(occurrences, 1, "superclass name should be interned once");
    }

    #[test]
    fn display_of_errors() {
        let e = DexError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(DexError::BadMagic.to_string().contains("magic"));
    }
}
