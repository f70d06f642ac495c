//! The one JSON writer behind every golden replay report.
//!
//! A report is a [`Json`] tree whose objects keep insertion order and whose
//! numbers are formatted when the tree is built ([`fixed`] for a pinned
//! decimal count, `From` for integers and shortest-round-trip floats), so
//! the rendered text is a pure function of the report and byte-comparable
//! against `tests/golden/*.json`. Layout: two-space indent, one member per
//! line; an array of scalars stays on one line.

/// One JSON value. Build numbers with [`fixed`] or `.into()`.
#[derive(Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number token, already formatted.
    Number(String),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members render in the order given.
    Object(Vec<(String, Json)>),
}

/// `value` with exactly `decimals` fractional digits (`{:.N}`).
pub fn fixed(value: f64, decimals: usize) -> Json {
    assert!(value.is_finite(), "JSON has no token for {value}");
    Json::Number(format!("{value:.decimals$}"))
}

macro_rules! json_from_integer {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(value: $int) -> Json {
                Json::Number(value.to_string())
            }
        }
    )*};
}
json_from_integer!(u16, u32, u64, usize, i64);

/// Shortest decimal that round-trips (`4.0` renders as `4`).
impl From<f64> for Json {
    fn from(value: f64) -> Json {
        assert!(value.is_finite(), "JSON has no token for {value}");
        Json::Number(value.to_string())
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_string())
    }
}

impl Json {
    /// An object of `members`, order preserved.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// The document text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::Number(token) => out.push_str(token),
            Json::Str(text) => write_string(out, text),
            Json::Array(items) if items.iter().all(Json::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, depth);
                }
                out.push(']');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Object(members) if members.is_empty() => out.push_str("{}"),
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(json: Json) -> String {
        json.render().trim_end().to_string()
    }

    #[test]
    fn numbers_render_at_their_pinned_precision() {
        assert_eq!(scalar(fixed(0.56574, 4)), "0.5657");
        assert_eq!(scalar(fixed(1.0, 4)), "1.0000");
        assert_eq!(scalar(fixed(40e-6 / 3.0, 9)), "0.000013333");
        assert_eq!(scalar(fixed(-0.25, 6)), "-0.250000");
        assert_eq!(scalar(fixed(1210773.4, 0)), "1210773");
        assert_eq!(scalar(4.0.into()), "4");
        assert_eq!(scalar(40e-6.into()), "0.00004");
        assert_eq!(scalar((-3i64).into()), "-3");
        assert_eq!(scalar(7usize.into()), "7");
        // Beyond 2^53: an f64 detour would round wall_nanos-sized counters.
        assert_eq!(scalar(((1u64 << 53) + 1).into()), "9007199254740993");
        assert_eq!(scalar(u64::MAX.into()), "18446744073709551615");
    }

    #[test]
    fn strings_are_escaped_and_non_ascii_passes_through() {
        assert_eq!(scalar("plain".into()), "\"plain\"");
        assert_eq!(
            scalar("q\" b\\ n\n t\t c\u{1}".into()),
            r#""q\" b\\ n\n t\t c\u0001""#
        );
        assert_eq!(scalar("P∝f·V²".into()), "\"P∝f·V²\"");
        assert_eq!(
            Json::object([("k\"", Json::Null)]).render(),
            "{\n  \"k\\\"\": null\n}\n"
        );
    }

    #[test]
    fn containers_indent_by_depth_and_scalar_arrays_stay_inline() {
        let doc = Json::object([
            ("flags", Json::array([true.into(), Json::Null])),
            ("empty", Json::object::<&str>([])),
            (
                "cells",
                Json::array([
                    Json::object([("tiers", Json::array([1u64.into(), 2u64.into()]))]),
                    Json::array([]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"flags\": [true, null],\n  \"empty\": {},\n  \"cells\": [\n    {\n      \
             \"tiers\": [1, 2]\n    },\n    []\n  ]\n}\n"
        );
    }

    #[test]
    fn object_members_keep_insertion_order() {
        let doc = Json::object([
            ("zeta", 1u64.into()),
            ("alpha", 2u64.into()),
            ("mid", 3u64.into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"zeta\": 1,\n  \"alpha\": 2,\n  \"mid\": 3\n}\n"
        );
    }
}
