//! The one JSON writer (no serialisation dependency): a value tree and
//! a renderer that owns commas, escaping and nesting. The layout is
//! fixed so that `BENCH_host.json` diffs row by row: the root object
//! puts each member on its own line, an array directly inside it puts
//! each element on its own line, and everything deeper stays inline.

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact count.
    Int(u64),
    /// A ratio, printed with this many decimals.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep their order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A 16-digit hexadecimal string (outcome fingerprints).
    pub fn hex(n: u64) -> Json {
        Json::Str(format!("{n:016x}"))
    }

    /// `a / b` to two decimals, `null` when `b` is zero.
    pub fn ratio(a: u64, b: u64) -> Json {
        if b == 0 {
            Json::Null
        } else {
            Json::Fixed(a as f64 / b as f64, 2)
        }
    }

    /// The value as text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        // Writing to a `String` cannot fail.
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(n) => write!(out, "{n}").unwrap(),
            Json::Fixed(x, decimals) => write!(out, "{x:.decimals$}").unwrap(),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, "[]", depth <= 1, items, |out, item| {
                item.write(out, depth + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, depth, "{}", depth == 0, members, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                })
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A bracketed, comma-separated sequence; `broken` puts each item on a
/// line of its own, indented one step past `depth`.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    broken: bool,
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    let line = |depth: usize| format!("\n{}", "  ".repeat(depth));
    let (comma, before_item, before_close) = if broken && !items.is_empty() {
        (",", line(depth + 1), line(depth))
    } else {
        (", ", String::new(), String::new())
    };
    out.push_str(&brackets[..1]);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(comma);
        }
        out.push_str(&before_item);
        item(out, it);
    }
    out.push_str(&before_close);
    out.push_str(&brackets[1..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_commas_escaping_and_nesting() {
        let doc = Json::obj([
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("n", 1u64.into()), ("x", Json::Fixed(0.5, 3))]),
                    Json::obj([("router", None::<u64>.into()), ("ok", true.into())]),
                ]),
            ),
            ("lines", Json::obj([("net", 7u64.into())])),
            ("empty", Json::Arr(vec![])),
            ("problems", Json::Arr(vec!["a \"b\" \\ c\nd".into()])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"rows\": [\n    {\"n\": 1, \"x\": 0.500},\n    \
             {\"router\": null, \"ok\": true}\n  ],\n  \
             \"lines\": {\"net\": 7},\n  \"empty\": [],\n  \
             \"problems\": [\n    \"a \\\"b\\\" \\\\ c\\nd\"\n  ]\n}\n"
        );
        assert_eq!(Json::ratio(7, 0).render(), "null\n");
        assert_eq!(Json::ratio(7, 3).render(), "2.33\n");
        assert_eq!(Json::hex(0xabc).render(), "\"0000000000000abc\"\n");
    }
}
