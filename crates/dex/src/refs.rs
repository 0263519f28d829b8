//! Symbolic references to methods and fields, and method signatures.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::types::TypeDesc;
use crate::DexError;

/// A method signature: parameter types and return type.
///
/// The textual form follows Dalvik: `(ILjava/lang/String;)V`.
///
/// # Example
///
/// ```
/// use dydroid_dex::MethodSig;
///
/// let sig = MethodSig::parse("(I)V")?;
/// assert_eq!(sig.params().len(), 1);
/// assert_eq!(sig.to_string(), "(I)V");
/// # Ok::<(), dydroid_dex::DexError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MethodSig {
    params: Vec<TypeDesc>,
    ret: TypeDesc,
}

impl MethodSig {
    /// Creates a signature from parts.
    pub fn new(params: Vec<TypeDesc>, ret: TypeDesc) -> Self {
        MethodSig { params, ret }
    }

    /// The common `()V` signature.
    pub fn void() -> Self {
        MethodSig::new(Vec::new(), TypeDesc::Void)
    }

    /// Parses a Dalvik-style signature string such as `(ILx/Y;)Z`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::BadDescriptor`] if the string is malformed.
    pub fn parse(sig: &str) -> Result<Self, DexError> {
        let bad = || DexError::BadDescriptor(sig.to_string());
        let rest = sig.strip_prefix('(').ok_or_else(bad)?;
        let close = rest.find(')').ok_or_else(bad)?;
        let (param_str, ret_str) = (&rest[..close], &rest[close + 1..]);
        let mut params = Vec::new();
        let mut cursor = param_str;
        while !cursor.is_empty() {
            let (t, next) = TypeDesc::parse_prefix(cursor)?;
            if t == TypeDesc::Void {
                return Err(bad());
            }
            params.push(t);
            cursor = next;
        }
        let ret = TypeDesc::parse(ret_str)?;
        Ok(MethodSig { params, ret })
    }

    /// The parameter types.
    pub fn params(&self) -> &[TypeDesc] {
        &self.params
    }

    /// The return type.
    pub fn ret(&self) -> &TypeDesc {
        &self.ret
    }

    /// Whether the method returns a value.
    pub fn returns_value(&self) -> bool {
        self.ret != TypeDesc::Void
    }

    /// Appends the Dalvik-style text (the `Display` form) to `out`, so an
    /// encoder can render into one reused buffer.
    pub(crate) fn push_text(&self, out: &mut String) {
        out.push('(');
        for p in &self.params {
            p.push_descriptor(out);
        }
        out.push(')');
        self.ret.push_descriptor(out);
    }
}

impl fmt::Display for MethodSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.push_text(&mut text);
        f.write_str(&text)
    }
}

/// A symbolic reference to a method: defining class, name, signature.
///
/// The textual form follows smali: `Lcom/x/Y;->name(I)V`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MethodRef {
    /// Dotted name of the defining class.
    pub class: String,
    /// Method name (`<init>` and `<clinit>` are valid).
    pub name: String,
    /// Method signature.
    pub sig: MethodSig,
}

impl MethodRef {
    /// Creates a method reference, parsing the signature.
    ///
    /// # Panics
    ///
    /// Panics if `sig` is not a valid signature string. Use
    /// [`MethodRef::try_new`] for fallible construction.
    pub fn new(class: impl Into<String>, name: impl Into<String>, sig: &str) -> Self {
        Self::try_new(class, name, sig).expect("invalid method signature literal")
    }

    /// Creates a method reference, returning an error on a bad signature.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::BadDescriptor`] if `sig` is malformed.
    pub fn try_new(
        class: impl Into<String>,
        name: impl Into<String>,
        sig: &str,
    ) -> Result<Self, DexError> {
        Ok(MethodRef {
            class: class.into(),
            name: name.into(),
            sig: MethodSig::parse(sig)?,
        })
    }

    /// Parses the smali form `Lcom/x/Y;->name(I)V`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::BadDescriptor`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, DexError> {
        let bad = || DexError::BadDescriptor(text.to_string());
        let arrow = text.find("->").ok_or_else(bad)?;
        let class_t = TypeDesc::parse(&text[..arrow])?;
        let class = class_t.class_name().ok_or_else(bad)?.to_string();
        let rest = &text[arrow + 2..];
        let paren = rest.find('(').ok_or_else(bad)?;
        let name = rest[..paren].to_string();
        if name.is_empty() {
            return Err(bad());
        }
        let sig = MethodSig::parse(&rest[paren..])?;
        Ok(MethodRef { class, name, sig })
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{}{}",
            TypeDesc::class(self.class.clone()).descriptor(),
            self.name,
            self.sig
        )
    }
}

/// A symbolic reference to a field: defining class, name, type.
///
/// The textual form follows smali: `Lcom/x/Y;->field:I`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldRef {
    /// Dotted name of the defining class.
    pub class: String,
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeDesc,
}

impl FieldRef {
    /// Creates a field reference, parsing the type descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a valid type descriptor literal.
    pub fn new(class: impl Into<String>, name: impl Into<String>, ty: &str) -> Self {
        FieldRef {
            class: class.into(),
            name: name.into(),
            ty: TypeDesc::parse(ty).expect("invalid field type literal"),
        }
    }

    /// Parses the smali form `Lcom/x/Y;->field:I`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::BadDescriptor`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, DexError> {
        let bad = || DexError::BadDescriptor(text.to_string());
        let arrow = text.find("->").ok_or_else(bad)?;
        let class_t = TypeDesc::parse(&text[..arrow])?;
        let class = class_t.class_name().ok_or_else(bad)?.to_string();
        let rest = &text[arrow + 2..];
        let colon = rest.find(':').ok_or_else(bad)?;
        let name = rest[..colon].to_string();
        if name.is_empty() {
            return Err(bad());
        }
        let ty = TypeDesc::parse(&rest[colon + 1..])?;
        Ok(FieldRef { class, name, ty })
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{}:{}",
            TypeDesc::class(self.class.clone()).descriptor(),
            self.name,
            self.ty.descriptor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_parse_round_trip() {
        for s in ["()V", "(I)V", "(ILjava/lang/String;[J)Z", "()Lx/Y;"] {
            let sig = MethodSig::parse(s).unwrap();
            assert_eq!(sig.to_string(), s);
        }
    }

    #[test]
    fn sig_rejects_malformed() {
        for s in ["", "()", "(V)V", "I)V", "(I", "(I)VX"] {
            assert!(MethodSig::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn method_ref_round_trip() {
        let m = MethodRef::new("com.x.Y", "doIt", "(I)V");
        let text = m.to_string();
        assert_eq!(text, "Lcom/x/Y;->doIt(I)V");
        assert_eq!(MethodRef::parse(&text).unwrap(), m);
    }

    #[test]
    fn method_ref_init() {
        let m = MethodRef::parse("La/B;-><init>()V").unwrap();
        assert_eq!(m.name, "<init>");
    }

    #[test]
    fn method_ref_rejects_malformed() {
        for s in ["La/B;doIt(I)V", "La/B;->(I)V", "I->x()V", "La/B;->x"] {
            assert!(MethodRef::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn field_ref_round_trip() {
        let f = FieldRef::new("com.x.Y", "count", "I");
        let text = f.to_string();
        assert_eq!(text, "Lcom/x/Y;->count:I");
        assert_eq!(FieldRef::parse(&text).unwrap(), f);
    }

    #[test]
    fn field_ref_rejects_malformed() {
        for s in ["La/B;->x", "La/B;->:I", "La/B;x:I"] {
            assert!(FieldRef::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn returns_value() {
        assert!(!MethodSig::void().returns_value());
        assert!(MethodSig::parse("()I").unwrap().returns_value());
    }
}
