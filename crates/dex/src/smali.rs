//! Smali-like textual IR: disassembler and assembler.
//!
//! DyDroid unpacks each APK with baksmali into smali before the static
//! pre-filter and obfuscation analysis run. This module provides the
//! equivalent: [`disassemble`] renders a [`DexFile`] to one text unit per
//! class and [`assemble`] parses the text back, round-tripping exactly.
//!
//! Branch targets print as `:N` where `N` is the absolute instruction index
//! (the simplified ISA has no label names).

use crate::class::{AccessFlags, ClassDef, Field, Method};
use crate::dexfile::{DexError, DexFile};
use crate::instruction::{BinOp, CmpKind, Instruction, InvokeKind, Reg};
use crate::refs::{FieldRef, MethodRef, MethodSig};
use crate::types::TypeDesc;

/// Renders an entire DEX file as smali text, one `.class` block per class,
/// classes separated by blank lines.
pub fn disassemble(dex: &DexFile) -> String {
    let mut out = String::new();
    for (i, class) in dex.classes().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&disassemble_class(class));
    }
    out
}

/// Renders one class as smali text.
pub fn disassemble_class(class: &ClassDef) -> String {
    let mut out = String::new();
    let kw = class.flags.keywords();
    let kw = if kw.is_empty() {
        String::new()
    } else {
        format!("{kw} ")
    };
    out.push_str(&format!(
        ".class {kw}{}\n",
        TypeDesc::class(class.name.clone()).descriptor()
    ));
    out.push_str(&format!(
        ".super {}\n",
        TypeDesc::class(class.superclass.clone()).descriptor()
    ));
    if let Some(sf) = &class.source_file {
        out.push_str(&format!(".source {sf:?}\n"));
    }
    for iface in &class.interfaces {
        out.push_str(&format!(
            ".implements {}\n",
            TypeDesc::class(iface.clone()).descriptor()
        ));
    }
    for field in &class.fields {
        let kw = field.flags.keywords();
        let kw = if kw.is_empty() {
            String::new()
        } else {
            format!("{kw} ")
        };
        out.push_str(&format!(
            ".field {kw}{}:{}\n",
            field.name,
            field.ty.descriptor()
        ));
    }
    for method in &class.methods {
        out.push('\n');
        out.push_str(&disassemble_method(method));
    }
    out
}

fn disassemble_method(method: &Method) -> String {
    let mut out = String::new();
    let kw = method.flags.keywords();
    let kw = if kw.is_empty() {
        String::new()
    } else {
        format!("{kw} ")
    };
    out.push_str(&format!(".method {kw}{}{}\n", method.name, method.sig));
    out.push_str(&format!("    .registers {}\n", method.registers));
    for insn in &method.code {
        out.push_str(&format!("    {insn}\n"));
    }
    out.push_str(".end method\n");
    out
}

/// Parses smali text back into a [`DexFile`].
///
/// # Errors
///
/// Returns [`DexError::Invalid`] naming the offending line on any syntax
/// error, and propagates descriptor errors.
pub fn assemble(text: &str) -> Result<DexFile, DexError> {
    let mut dex = DexFile::new();
    let mut lines = text.lines().peekable();
    while let Some(&line) = lines.peek() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            lines.next();
            continue;
        }
        if trimmed.starts_with(".class") {
            dex.add_class(parse_class(&mut lines)?);
        } else {
            return Err(DexError::Invalid(format!(
                "expected .class, got {trimmed:?}"
            )));
        }
    }
    Ok(dex)
}

fn parse_flags_and_rest(words: &mut Vec<&str>) -> AccessFlags {
    let mut flags = AccessFlags::empty();
    while let Some(first) = words.first() {
        match AccessFlags::from_keyword(first) {
            Some(f) => {
                flags = flags | f;
                words.remove(0);
            }
            None => break,
        }
    }
    flags
}

fn parse_class<'a, I>(lines: &mut std::iter::Peekable<I>) -> Result<ClassDef, DexError>
where
    I: Iterator<Item = &'a str>,
{
    let header = lines.next().expect("caller checked").trim();
    let mut words: Vec<&str> = header
        .strip_prefix(".class")
        .ok_or_else(|| DexError::Invalid(format!("bad class header {header:?}")))?
        .split_whitespace()
        .collect();
    let flags = parse_flags_and_rest(&mut words);
    let desc = words
        .first()
        .ok_or_else(|| DexError::Invalid(format!("missing class descriptor in {header:?}")))?;
    let name = TypeDesc::parse(desc)?
        .class_name()
        .ok_or_else(|| DexError::BadDescriptor((*desc).to_string()))?
        .to_string();

    let mut class = ClassDef::new(name, "java.lang.Object");
    class.flags = flags;

    while let Some(&line) = lines.peek() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            lines.next();
            continue;
        }
        if trimmed.starts_with(".class") {
            break; // next class begins
        }
        if let Some(rest) = trimmed.strip_prefix(".super ") {
            class.superclass = TypeDesc::parse(rest.trim())?
                .class_name()
                .ok_or_else(|| DexError::BadDescriptor(rest.to_string()))?
                .to_string();
            lines.next();
        } else if let Some(rest) = trimmed.strip_prefix(".source ") {
            class.source_file = Some(parse_quoted(rest.trim())?);
            lines.next();
        } else if let Some(rest) = trimmed.strip_prefix(".implements ") {
            class.interfaces.push(
                TypeDesc::parse(rest.trim())?
                    .class_name()
                    .ok_or_else(|| DexError::BadDescriptor(rest.to_string()))?
                    .to_string(),
            );
            lines.next();
        } else if let Some(rest) = trimmed.strip_prefix(".field ") {
            class.fields.push(parse_field(rest)?);
            lines.next();
        } else if trimmed.starts_with(".method") {
            class.methods.push(parse_method(lines)?);
        } else {
            return Err(DexError::Invalid(format!("unexpected line {trimmed:?}")));
        }
    }
    Ok(class)
}

fn parse_field(rest: &str) -> Result<Field, DexError> {
    let mut words: Vec<&str> = rest.split_whitespace().collect();
    let flags = parse_flags_and_rest(&mut words);
    let decl = words
        .first()
        .ok_or_else(|| DexError::Invalid(format!("bad field {rest:?}")))?;
    let (name, ty) = decl
        .split_once(':')
        .ok_or_else(|| DexError::Invalid(format!("bad field {rest:?}")))?;
    Ok(Field {
        name: name.to_string(),
        ty: TypeDesc::parse(ty)?,
        flags,
    })
}

fn parse_method<'a, I>(lines: &mut std::iter::Peekable<I>) -> Result<Method, DexError>
where
    I: Iterator<Item = &'a str>,
{
    let header = lines.next().expect("caller checked").trim();
    let mut words: Vec<&str> = header
        .strip_prefix(".method")
        .ok_or_else(|| DexError::Invalid(format!("bad method header {header:?}")))?
        .split_whitespace()
        .collect();
    let flags = parse_flags_and_rest(&mut words);
    let decl = words
        .first()
        .ok_or_else(|| DexError::Invalid(format!("missing method decl in {header:?}")))?;
    let paren = decl
        .find('(')
        .ok_or_else(|| DexError::Invalid(format!("bad method decl {decl:?}")))?;
    let name = decl[..paren].to_string();
    let sig = MethodSig::parse(&decl[paren..])?;

    let mut method = Method {
        name,
        sig,
        flags,
        registers: 8,
        code: Vec::new(),
    };

    for line in lines.by_ref() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == ".end method" {
            return Ok(method);
        }
        if let Some(rest) = trimmed.strip_prefix(".registers ") {
            method.registers = rest
                .trim()
                .parse()
                .map_err(|_| DexError::Invalid(format!("bad .registers {rest:?}")))?;
            continue;
        }
        method.code.push(parse_insn(trimmed)?);
    }
    Err(DexError::Invalid(format!(
        "method {} missing .end method",
        method.name
    )))
}

fn parse_quoted(s: &str) -> Result<String, DexError> {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| DexError::Invalid(format!("expected quoted string, got {s:?}")))?;
    // Unescape the subset produced by Rust's {:?} formatting that we emit.
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('\'') => out.push('\''),
                Some('u') => {
                    // \u{XXXX}
                    let mut buf = String::new();
                    if chars.next() != Some('{') {
                        return Err(DexError::Invalid(format!("bad escape in {s:?}")));
                    }
                    for c in chars.by_ref() {
                        if c == '}' {
                            break;
                        }
                        buf.push(c);
                    }
                    let cp = u32::from_str_radix(&buf, 16)
                        .map_err(|_| DexError::Invalid(format!("bad unicode escape in {s:?}")))?;
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| DexError::Invalid(format!("bad codepoint in {s:?}")))?,
                    );
                }
                other => {
                    return Err(DexError::Invalid(format!("bad escape {other:?} in {s:?}")));
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn parse_reg(s: &str) -> Result<Reg, DexError> {
    s.trim()
        .trim_end_matches(',')
        .strip_prefix('v')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| DexError::Invalid(format!("bad register {s:?}")))
}

fn parse_target(s: &str) -> Result<u32, DexError> {
    s.trim()
        .strip_prefix(':')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| DexError::Invalid(format!("bad branch target {s:?}")))
}

fn parse_cmp(mnemonic: &str) -> Result<CmpKind, DexError> {
    Ok(match mnemonic {
        "eq" => CmpKind::Eq,
        "ne" => CmpKind::Ne,
        "lt" => CmpKind::Lt,
        "ge" => CmpKind::Ge,
        "gt" => CmpKind::Gt,
        "le" => CmpKind::Le,
        _ => return Err(DexError::Invalid(format!("bad comparison {mnemonic:?}"))),
    })
}

fn parse_insn(line: &str) -> Result<Instruction, DexError> {
    let bad = || DexError::Invalid(format!("unparseable instruction {line:?}"));
    let (mnemonic, rest) = match line.split_once(' ') {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let args: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        split_args(rest)
    };

    Ok(match mnemonic {
        "nop" => Instruction::Nop,
        "const" => Instruction::Const {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
            value: args.get(1).and_then(|v| v.parse().ok()).ok_or_else(bad)?,
        },
        "const-string" => Instruction::ConstString {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
            value: parse_quoted(args.get(1).ok_or_else(bad)?)?,
        },
        "const-null" => Instruction::ConstNull {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
        },
        "move" => Instruction::Move {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
            src: parse_reg(args.get(1).ok_or_else(bad)?)?,
        },
        "move-result" => Instruction::MoveResult {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
        },
        "new-instance" => Instruction::NewInstance {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
            class: TypeDesc::parse(args.get(1).ok_or_else(bad)?)?
                .class_name()
                .ok_or_else(bad)?
                .to_string(),
        },
        "invoke-virtual" | "invoke-direct" | "invoke-static" | "invoke-interface" => {
            let kind = match mnemonic {
                "invoke-virtual" => InvokeKind::Virtual,
                "invoke-direct" => InvokeKind::Direct,
                "invoke-static" => InvokeKind::Static,
                _ => InvokeKind::Interface,
            };
            // Form: {v1, v2}, Lcls;->name(sig)ret
            let open = rest.find('{').ok_or_else(bad)?;
            let close = open + rest[open..].find('}').ok_or_else(bad)?;
            let reg_list = &rest[open + 1..close];
            let regs: Result<Vec<Reg>, DexError> = reg_list
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(parse_reg)
                .collect();
            let after = rest[close + 1..].trim_start_matches(',').trim();
            Instruction::Invoke {
                kind,
                method: MethodRef::parse(after)?,
                args: regs?,
            }
        }
        "iget" => Instruction::IGet {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
            obj: parse_reg(args.get(1).ok_or_else(bad)?)?,
            field: FieldRef::parse(args.get(2).ok_or_else(bad)?)?,
        },
        "iput" => Instruction::IPut {
            src: parse_reg(args.first().ok_or_else(bad)?)?,
            obj: parse_reg(args.get(1).ok_or_else(bad)?)?,
            field: FieldRef::parse(args.get(2).ok_or_else(bad)?)?,
        },
        "sget" => Instruction::SGet {
            dst: parse_reg(args.first().ok_or_else(bad)?)?,
            field: FieldRef::parse(args.get(1).ok_or_else(bad)?)?,
        },
        "sput" => Instruction::SPut {
            src: parse_reg(args.first().ok_or_else(bad)?)?,
            field: FieldRef::parse(args.get(1).ok_or_else(bad)?)?,
        },
        "goto" => Instruction::Goto {
            target: parse_target(args.first().ok_or_else(bad)?)?,
        },
        "return-void" => Instruction::ReturnVoid,
        "return" => Instruction::Return {
            reg: parse_reg(args.first().ok_or_else(bad)?)?,
        },
        "throw" => Instruction::Throw {
            reg: parse_reg(args.first().ok_or_else(bad)?)?,
        },
        "check-cast" => Instruction::CheckCast {
            reg: parse_reg(args.first().ok_or_else(bad)?)?,
            class: TypeDesc::parse(args.get(1).ok_or_else(bad)?)?
                .class_name()
                .ok_or_else(bad)?
                .to_string(),
        },
        m if m.starts_with("if-") => {
            let cond = &m[3..];
            if let Some(z) = cond.strip_suffix('z') {
                Instruction::IfZero {
                    cmp: parse_cmp(z)?,
                    reg: parse_reg(args.first().ok_or_else(bad)?)?,
                    target: parse_target(args.get(1).ok_or_else(bad)?)?,
                }
            } else {
                Instruction::IfCmp {
                    cmp: parse_cmp(cond)?,
                    a: parse_reg(args.first().ok_or_else(bad)?)?,
                    b: parse_reg(args.get(1).ok_or_else(bad)?)?,
                    target: parse_target(args.get(2).ok_or_else(bad)?)?,
                }
            }
        }
        m if m.ends_with("-int") => {
            let op = match m {
                "add-int" => BinOp::Add,
                "sub-int" => BinOp::Sub,
                "mul-int" => BinOp::Mul,
                "div-int" => BinOp::Div,
                "rem-int" => BinOp::Rem,
                "xor-int" => BinOp::Xor,
                "and-int" => BinOp::And,
                "or-int" => BinOp::Or,
                _ => return Err(bad()),
            };
            Instruction::BinOp {
                op,
                dst: parse_reg(args.first().ok_or_else(bad)?)?,
                a: parse_reg(args.get(1).ok_or_else(bad)?)?,
                b: parse_reg(args.get(2).ok_or_else(bad)?)?,
            }
        }
        _ => return Err(bad()),
    })
}

/// Splits instruction operands on commas, but not inside quotes.
fn split_args(rest: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth_quote = false;
    let mut start = 0;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => depth_quote = !depth_quote,
            b',' if !depth_quote => {
                out.push(rest[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    let tail = rest[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DexBuilder;

    fn sample() -> DexFile {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.example.Main", "android.app.Activity");
            c.flags(AccessFlags::PUBLIC | AccessFlags::FINAL)
                .source_file("Main.java")
                .interface("java.lang.Runnable")
                .field("count", "I", AccessFlags::PRIVATE);
            let m = c.method("onCreate", "(I)V", AccessFlags::PUBLIC);
            m.registers(6);
            m.const_str(0, "/data/data/com.example/files/x.dex");
            m.new_instance(1, "dalvik.system.DexClassLoader");
            m.invoke_direct(
                MethodRef::new(
                    "dalvik.system.DexClassLoader",
                    "<init>",
                    "(Ljava/lang/String;)V",
                ),
                vec![1, 0],
            );
            m.ret_void();

            let m2 = c.method("loop", "(I)I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m2.registers(4);
            let head = m2.label();
            let end = m2.label();
            m2.bind(head);
            m2.if_zero(CmpKind::Le, 1, end);
            m2.const_int(0, 1);
            m2.binop(BinOp::Sub, 1, 1, 0);
            m2.goto(head);
            m2.bind(end);
            m2.ret(1);
        }
        b.build()
    }

    #[test]
    fn round_trip() {
        let dex = sample();
        let text = disassemble(&dex);
        let back = assemble(&text).unwrap();
        assert_eq!(back, dex);
    }

    #[test]
    fn disassembly_contains_expected_directives() {
        let text = disassemble(&sample());
        assert!(text.contains(".class public final Lcom/example/Main;"));
        assert!(text.contains(".super Landroid/app/Activity;"));
        assert!(text.contains(".implements Ljava/lang/Runnable;"));
        assert!(text.contains(".field private count:I"));
        assert!(text.contains(".method public onCreate(I)V"));
        assert!(text.contains(
            "invoke-direct {v1, v0}, Ldalvik/system/DexClassLoader;-><init>(Ljava/lang/String;)V"
        ));
        assert!(text.contains(".end method"));
    }

    #[test]
    fn string_with_commas_and_escapes_round_trips() {
        let mut b = DexBuilder::new();
        let c = b.class("a.B", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC);
        m.const_str(0, "hello, \"world\"\nnext");
        m.ret_void();
        let dex = b.build();
        let back = assemble(&disassemble(&dex)).unwrap();
        assert_eq!(back, dex);
    }

    #[test]
    fn assemble_rejects_garbage() {
        assert!(assemble("not smali at all").is_err());
        assert!(
            assemble(".class Lx/Y;\n.method public f()V\nbogus-insn v0\n.end method\n").is_err()
        );
        assert!(assemble(".class Lx/Y;\n.method public f()V\n.registers 2\n").is_err());
        // A `}` before the `{` must be a syntax error, not a slice panic.
        assert!(assemble(
            ".class Lx/Y;\n.method public static f()V\n.registers 1\n\
             invoke-static }, {v0 La/B;->m()V\n.end method\n"
        )
        .is_err());
    }

    #[test]
    fn multi_class_round_trip() {
        let mut b = DexBuilder::new();
        b.class("a.A", "java.lang.Object").default_constructor();
        b.class("a.B", "java.lang.Object").default_constructor();
        let dex = b.build();
        let back = assemble(&disassemble(&dex)).unwrap();
        assert_eq!(back.classes().len(), 2);
        assert_eq!(back, dex);
    }

    #[test]
    fn branch_targets_round_trip() {
        let dex = sample();
        let back = assemble(&disassemble(&dex)).unwrap();
        let m = back
            .class("com.example.Main")
            .unwrap()
            .method_by_name("loop")
            .unwrap();
        assert_eq!(m.code[0].branch_target(), Some(4));
        assert_eq!(m.code[3].branch_target(), Some(0));
    }

    #[test]
    fn parse_quoted_escapes() {
        assert_eq!(parse_quoted("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(parse_quoted("\"q\\\"q\"").unwrap(), "q\"q");
        assert!(parse_quoted("no quotes").is_err());
    }
}
