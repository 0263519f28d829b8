//! Type descriptors for the simplified DEX model.
//!
//! Descriptors use JVM/Dalvik syntax: `I` for `int`, `V` for `void`,
//! `Lcom/example/Foo;` for reference types, `[I` for arrays.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A type in the simplified DEX type system.
///
/// Class names are stored in dotted Java form (`com.example.Foo`); the
/// descriptor form (`Lcom/example/Foo;`) is produced on demand.
///
/// # Example
///
/// ```
/// use dydroid_dex::TypeDesc;
///
/// let t = TypeDesc::parse("Lcom/example/Foo;")?;
/// assert_eq!(t, TypeDesc::Class("com.example.Foo".to_string()));
/// assert_eq!(t.descriptor(), "Lcom/example/Foo;");
/// # Ok::<(), dydroid_dex::DexError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TypeDesc {
    /// `void` (`V`), only valid as a return type.
    Void,
    /// `boolean` (`Z`).
    Boolean,
    /// `int` (`I`). The simplified model folds all integral widths into one.
    Int,
    /// `long` (`J`).
    Long,
    /// A reference type (`Lpkg/Name;`), stored in dotted form.
    Class(String),
    /// A one-or-more-dimensional array of an element type.
    Array(Box<TypeDesc>),
}

impl TypeDesc {
    /// Convenience constructor for a class type from a dotted name.
    pub fn class(name: impl Into<String>) -> Self {
        TypeDesc::Class(name.into())
    }

    /// The well-known `java.lang.Object` type.
    pub fn object() -> Self {
        TypeDesc::class("java.lang.Object")
    }

    /// The well-known `java.lang.String` type.
    pub fn string() -> Self {
        TypeDesc::class("java.lang.String")
    }

    /// Parses a Dalvik-style descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DexError::BadDescriptor`] if the string is not a
    /// valid descriptor.
    pub fn parse(desc: &str) -> Result<Self, crate::DexError> {
        let (t, rest) = Self::parse_prefix(desc)?;
        if rest.is_empty() {
            Ok(t)
        } else {
            Err(crate::DexError::BadDescriptor(desc.to_string()))
        }
    }

    /// Parses one descriptor from the front of `desc`, returning the parsed
    /// type and the remaining suffix. Used by signature parsing.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DexError::BadDescriptor`] on malformed input.
    pub fn parse_prefix(desc: &str) -> Result<(Self, &str), crate::DexError> {
        let mut chars = desc.chars();
        match chars.next() {
            Some('V') => Ok((TypeDesc::Void, chars.as_str())),
            Some('Z') => Ok((TypeDesc::Boolean, chars.as_str())),
            Some('I') => Ok((TypeDesc::Int, chars.as_str())),
            Some('J') => Ok((TypeDesc::Long, chars.as_str())),
            Some('[') => {
                let (inner, rest) = Self::parse_prefix(chars.as_str())?;
                if inner == TypeDesc::Void {
                    return Err(crate::DexError::BadDescriptor(desc.to_string()));
                }
                Ok((TypeDesc::Array(Box::new(inner)), rest))
            }
            Some('L') => {
                let rest = chars.as_str();
                match rest.find(';') {
                    Some(end) if end > 0 => {
                        let name = rest[..end].replace('/', ".");
                        Ok((TypeDesc::Class(name), &rest[end + 1..]))
                    }
                    _ => Err(crate::DexError::BadDescriptor(desc.to_string())),
                }
            }
            _ => Err(crate::DexError::BadDescriptor(desc.to_string())),
        }
    }

    /// Renders this type as a Dalvik-style descriptor string.
    pub fn descriptor(&self) -> String {
        let mut out = String::new();
        self.push_descriptor(&mut out);
        out
    }

    /// Appends this type's descriptor (see [`TypeDesc::descriptor`]) to
    /// `out`, so an encoder can render into one reused buffer.
    pub(crate) fn push_descriptor(&self, out: &mut String) {
        match self {
            TypeDesc::Void => out.push('V'),
            TypeDesc::Boolean => out.push('Z'),
            TypeDesc::Int => out.push('I'),
            TypeDesc::Long => out.push('J'),
            TypeDesc::Class(name) => {
                out.push('L');
                for (i, part) in name.split('.').enumerate() {
                    if i > 0 {
                        out.push('/');
                    }
                    out.push_str(part);
                }
                out.push(';');
            }
            TypeDesc::Array(inner) => {
                out.push('[');
                inner.push_descriptor(out);
            }
        }
    }

    /// Returns the dotted class name if this is a class type.
    pub fn class_name(&self) -> Option<&str> {
        match self {
            TypeDesc::Class(name) => Some(name),
            _ => None,
        }
    }

    /// Whether this is a reference (class or array) type.
    pub fn is_reference(&self) -> bool {
        matches!(self, TypeDesc::Class(_) | TypeDesc::Array(_))
    }
}

impl fmt::Display for TypeDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.descriptor())
    }
}

/// Splits a dotted class name into `(package, simple_name)`.
///
/// A class with no package returns an empty package.
///
/// # Example
///
/// ```
/// use dydroid_dex::types::split_class_name;
///
/// assert_eq!(split_class_name("com.example.Foo"), ("com.example", "Foo"));
/// assert_eq!(split_class_name("Foo"), ("", "Foo"));
/// ```
pub fn split_class_name(name: &str) -> (&str, &str) {
    match name.rfind('.') {
        Some(idx) => (&name[..idx], &name[idx + 1..]),
        None => ("", name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_primitives() {
        assert_eq!(TypeDesc::parse("V").unwrap(), TypeDesc::Void);
        assert_eq!(TypeDesc::parse("Z").unwrap(), TypeDesc::Boolean);
        assert_eq!(TypeDesc::parse("I").unwrap(), TypeDesc::Int);
        assert_eq!(TypeDesc::parse("J").unwrap(), TypeDesc::Long);
    }

    #[test]
    fn parse_class() {
        let t = TypeDesc::parse("Ljava/lang/String;").unwrap();
        assert_eq!(t, TypeDesc::string());
        assert_eq!(t.class_name(), Some("java.lang.String"));
    }

    #[test]
    fn parse_array() {
        let t = TypeDesc::parse("[[I").unwrap();
        assert_eq!(
            t,
            TypeDesc::Array(Box::new(TypeDesc::Array(Box::new(TypeDesc::Int))))
        );
        assert_eq!(t.descriptor(), "[[I");
    }

    #[test]
    fn reject_malformed() {
        for bad in ["", "X", "L;", "Lfoo", "IV", "[V", "Lfoo;x"] {
            assert!(TypeDesc::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn descriptor_round_trip() {
        for desc in ["V", "Z", "I", "J", "[J", "Lcom/a/B;", "[[Lx/Y;"] {
            let t = TypeDesc::parse(desc).unwrap();
            assert_eq!(t.descriptor(), desc);
        }
    }

    #[test]
    fn split_names() {
        assert_eq!(split_class_name("a.b.C"), ("a.b", "C"));
        assert_eq!(split_class_name("C"), ("", "C"));
    }

    #[test]
    fn display_matches_descriptor() {
        let t = TypeDesc::class("a.B");
        assert_eq!(t.to_string(), "La/B;");
    }

    #[test]
    fn reference_check() {
        assert!(TypeDesc::class("a.B").is_reference());
        assert!(TypeDesc::Array(Box::new(TypeDesc::Int)).is_reference());
        assert!(!TypeDesc::Int.is_reference());
    }
}
