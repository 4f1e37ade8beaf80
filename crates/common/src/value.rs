//! Typed cell values shared by the relational, XML and graph substrates.

use std::cmp::Ordering;
use std::fmt;

/// The type of a [`Value`]; doubles as a column type in relational schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Int,
    Float,
    Text,
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Text => "text",
            ValueType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A dynamically typed cell value.
///
/// `Float` is stored as raw bits for `Eq`/`Hash`; NaN never enters a database
/// through the public constructors, so bitwise equality matches semantic
/// equality in practice.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl Value {
    /// Human-readable type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Bool(_) => "bool",
        }
    }

    /// The [`ValueType`] of a non-null value.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Text(_) => Some(ValueType::Text),
            Value::Bool(_) => Some(ValueType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Integral floats hash like their integer counterparts so that
            // Int(2) == Float(2.0) implies equal hashes.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Bool < numeric < Text; numerics compare by value.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let x = a.as_f64().unwrap();
                let y = b.as_f64().unwrap();
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("ab").as_text(), Some("ab"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.value_type(), None);
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
    }

    #[test]
    fn cross_numeric_equality_and_hash() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn ordering_across_types() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(5) < Value::Text("a".into()));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::from("x y").to_string(), "x y");
    }

    #[test]
    fn type_display() {
        assert_eq!(ValueType::Int.to_string(), "int");
        assert_eq!(ValueType::Text.to_string(), "text");
    }
}
