//! A JSON writer for the few shapes the benchmark prints (no crates.io
//! access, so no serde).

use std::fmt;

pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers print without a fraction.
    Int(u64),
    /// Printed with every digit `f64` round-trips.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
    /// Like `Obj`, for keys built at run time (metric names).
    Map(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_members<'a, K: AsRef<str> + 'a>(
    f: &mut fmt::Formatter<'_>,
    members: impl Iterator<Item = (&'a K, &'a Json)>,
) -> fmt::Result {
    f.write_str("{")?;
    for (i, (k, v)) in members.enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write_str(f, k.as_ref())?;
        write!(f, ": {v}")?;
    }
    f.write_str("}")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN or infinity; a metric that produced one is
            // a benchmark bug the reader must see, so print null.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x:?}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => write_members(f, members.iter().map(|(k, v)| (k, v))),
            Json::Map(members) => write_members(f, members.iter().map(|(k, v)| (k, v))),
        }
    }
}
