//! The correctness gate, the metric table and a minimal JSON writer.

use std::collections::BTreeMap;

/// Correctness checks, counted as failures against attempts.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Count one check; record `why` when it fails.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

/// Metric name → (value, unit). Ordered, so output is stable.
#[derive(Default)]
pub struct Metrics {
    map: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.map.insert(name.to_string(), (value, unit));
    }

    pub fn all_finite(&self) -> bool {
        self.map.values().all(|(v, _)| v.is_finite())
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.map
                .iter()
                .map(|(k, &(v, unit))| {
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]);
                    (k.clone(), entry)
                })
                .collect(),
        )
    }
}

/// FNV-1a offset basis, the start of every [`fnv_fold`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `v`'s bytes into the FNV-1a hash `h`.
pub fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of `xs` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A JSON value, just enough for the benchmark's output.
pub enum Json {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A 64-bit digest as a fixed-width hex string (JSON numbers are
    /// doubles and would lose its low bits).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:016x}"))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Non-finite values are not JSON; the gate rejects them
            // before output, so `null` only marks a bug in plain sight.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => out.push_str(&format!("{v:?}")),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_renders_escapes_and_full_precision() {
        let j = Json::Obj(vec![
            ("a\"b".into(), Json::Num(0.1 + 0.2)),
            ("n".into(), Json::Num(3.0)),
            (
                "l".into(),
                Json::Arr(vec![Json::Bool(true), Json::hex(255), Json::Int(7)]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a\"b":0.30000000000000004,"n":3.0,"l":[true,"00000000000000ff",7]}"#
        );
    }
}
