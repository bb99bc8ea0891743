//! The record codec: one writer, one reader and one schema listing for
//! every JSONL record the repository writes.
//!
//! A record type is declared once, with [`record!`](crate::record!): a
//! struct, or an enum of struct variants, whose fields in declaration
//! order are the wire fields in wire order, each under its own name. The
//! field's Rust type is its wire kind ([`Field`]): `u64` / `u32` / `f64`
//! / `bool`, strings, `Option` for a nullable number, a record for a
//! nested object, a `Vec` of records for an array of objects. Two markers
//! cover the rest: `[flat]` splices a record's fields into its parent's
//! object (the probes), `[when_set]` writes a `bool` only when it is
//! `true` and reads its absence as `false`.
//!
//! From that one statement the macro derives [`Record`], which is all the
//! codec needs: [`write_record`] renders any record as one JSON object
//! (led by the harness's `"run"` stamp when there is one), [`parse_line`]
//! reads a line back through [`parse_value`] — a JSON reader that accepts
//! nested values — and [`Record::schema`] lists the fields, which is what
//! `docs/METRICS.md` is tested against. Adding a field to a record is a
//! one-line edit of its declaration.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (quoted and escaped).
/// Public so downstream JSON writers share the records' escaping rules.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out` as a JSON number; non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null"); // NaN/inf are not valid JSON numbers
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, its members in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (`None` on anything else).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse `text` as exactly one JSON value (surrounding whitespace
/// allowed); `None` if it is anything else, or nests containers deeper
/// than 16 (a `run` record nests four deep).
pub fn parse_value(text: &str) -> Option<Value> {
    let (v, rest) = value(text, 16)?;
    rest.trim_start().is_empty().then_some(v)
}

/// The value at the front of `s` and the text after it; `depth` is how
/// many containers may still open.
fn value(s: &str, depth: u32) -> Option<(Value, &str)> {
    let s = s.trim_start();
    match s.bytes().next()? {
        b'"' => string(s).map(|(text, rest)| (Value::Str(text), rest)),
        b'{' | b'[' if depth == 0 => None,
        b'{' => {
            let mut members = Vec::new();
            let rest = items(&s[1..], '}', |s| {
                let (key, s) = string(s.trim_start())?;
                let (v, s) = value(s.trim_start().strip_prefix(':')?, depth - 1)?;
                members.push((key, v));
                Some(s)
            })?;
            Some((Value::Obj(members), rest))
        }
        b'[' => {
            let mut elements = Vec::new();
            let rest = items(&s[1..], ']', |s| {
                let (v, s) = value(s, depth - 1)?;
                elements.push(v);
                Some(s)
            })?;
            Some((Value::Arr(elements), rest))
        }
        _ => {
            let end = s.find(|c: char| ",}]".contains(c) || c.is_whitespace());
            let (token, rest) = s.split_at(end.unwrap_or(s.len()));
            let v = match token {
                "null" => Value::Null,
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                number => Value::Num(number.parse().ok()?),
            };
            Some((v, rest))
        }
    }
}

/// The comma-separated items of a container, from after its opening
/// bracket through `close`: `item` reads one and returns the text after
/// it, as this does for the container.
fn items<'a>(
    mut s: &'a str,
    close: char,
    mut item: impl FnMut(&'a str) -> Option<&'a str>,
) -> Option<&'a str> {
    if let Some(rest) = s.trim_start().strip_prefix(close) {
        return Some(rest);
    }
    loop {
        s = item(s)?.trim_start();
        match s.strip_prefix(',') {
            Some(rest) => s = rest,
            None => return s.strip_prefix(close),
        }
    }
}

/// The string literal at the front of `s`, unescaped, and the text after it.
fn string(s: &str) -> Option<(String, &str)> {
    let mut rest = s.strip_prefix('"')?;
    let mut out = String::new();
    loop {
        let stop = rest.find(['"', '\\'])?;
        out.push_str(&rest[..stop]);
        let after = &rest[stop + 1..];
        if rest.as_bytes()[stop] == b'"' {
            return Some((out, after));
        }
        let escape = after.chars().next()?;
        rest = &after[escape.len_utf8()..];
        out.push(match escape {
            '"' | '\\' | '/' => escape,
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex = rest.get(..4)?;
                rest = &rest[4..];
                hex.bytes().all(|b| b.is_ascii_hexdigit()).then_some(())?;
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        });
    }
}

/// Why a line failed to parse as a record. Carried by [`parse_line`] so
/// offline tools can report *which* line is broken and *how* instead of
/// silently skipping it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a JSON object.
    NotJson,
    /// The object carries no string `"type"` field.
    MissingType,
    /// The `"type"` value names no record type of the one asked for.
    UnknownType(String),
    /// A required field of the record type is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong JSON type or an out-of-range
    /// value (e.g. non-numeric `now`).
    BadValue(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NotJson => write!(f, "line is not a JSON object"),
            ParseError::MissingType => write!(f, "record has no string \"type\" field"),
            ParseError::UnknownType(t) => write!(f, "unknown record type {t:?}"),
            ParseError::MissingField(k) => write!(f, "missing required field {k:?}"),
            ParseError::BadValue(k) => write!(f, "invalid value for field {k:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The wire kind of one field: how a value of the type is written under
/// its key and read back.
pub trait Field: Sized {
    /// Append the JSON value.
    fn put(&self, out: &mut String);
    /// The value `v` holds, or `None` if it is of the wrong kind.
    fn get(v: &Value) -> Option<Self>;
    /// The schema paths of a field of this type under `key`: the key
    /// itself, unless the type has fields of its own.
    fn spec(key: &str, out: &mut Vec<String>) {
        out.push(key.to_string());
    }
}

impl Field for u64 {
    /// Most of what a trace holds is integers, so they skip `fmt`: the
    /// decimal digits, last first, into a buffer no `u64` overflows.
    fn put(&self, out: &mut String) {
        let mut digits = [0u8; 20];
        let (mut at, mut rest) = (digits.len(), *self);
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }
    fn get(v: &Value) -> Option<u64> {
        match v {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

impl Field for u32 {
    fn put(&self, out: &mut String) {
        u64::from(*self).put(out);
    }
    fn get(v: &Value) -> Option<u32> {
        u64::get(v).map(|n| n as u32)
    }
}

impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn get(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Non-finite values are written as `null`, and `null` reads back as NaN.
impl Field for f64 {
    fn put(&self, out: &mut String) {
        push_f64(out, *self);
    }
    fn get(v: &Value) -> Option<f64> {
        match v {
            Value::Num(n) => Some(*n),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

/// A number a system may be unable to measure: `None` is `null`.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }
    fn get(v: &Value) -> Option<Option<T>> {
        match v {
            Value::Null => Some(None),
            v => T::get(v).map(Some),
        }
    }
}

impl Field for String {
    fn put(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn get(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// A name that is a literal where it is recorded and owned once parsed.
impl Field for Cow<'static, str> {
    fn put(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn get(v: &Value) -> Option<Self> {
        String::get(v).map(Cow::Owned)
    }
}

/// An object whose keys are data, not schema (`phase_ms`).
impl Field for Vec<(Cow<'static, str>, f64)> {
    fn put(&self, out: &mut String) {
        out.push('{');
        for (key, v) in self {
            push_json_str(out, key);
            put_member(out, ":", v);
        }
        close(out, '}');
    }
    fn get(v: &Value) -> Option<Self> {
        let Value::Obj(members) = v else { return None };
        let member = |(k, v): &(String, Value)| Some((Cow::Owned(k.clone()), f64::get(v)?));
        members.iter().map(member).collect()
    }
}

/// A nested object.
impl<R: Record> Field for R {
    fn put(&self, out: &mut String) {
        write_record(out, None, self);
    }
    fn get(v: &Value) -> Option<R> {
        read_record(v).ok()
    }
    fn spec(key: &str, out: &mut Vec<String>) {
        let inner = R::schema().into_iter().flat_map(|(_, fields)| fields);
        out.extend(inner.map(|f| format!("{key}.{f}")));
    }
}

/// An array of objects.
impl<R: Record> Field for Vec<R> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for r in self {
            put_member(out, "", r);
        }
        close(out, ']');
    }
    fn get(v: &Value) -> Option<Vec<R>> {
        let Value::Arr(items) = v else { return None };
        items.iter().map(R::get).collect()
    }
    fn spec(key: &str, out: &mut Vec<String>) {
        R::spec(&format!("{key}[]"), out);
    }
}

/// Append one item of a container: `lead` (an object member's `"key":`),
/// the value, and the comma that `close` takes back after the last one.
pub fn put_member<F: Field>(out: &mut String, lead: &str, v: &F) {
    out.push_str(lead);
    v.put(out);
    out.push(',');
}

/// End a container written with [`put_member`]: `bracket` replaces the
/// comma after its last item, or follows the opening bracket of an empty
/// one.
fn close(out: &mut String, bracket: char) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push(bracket);
}

/// A type declared with [`record!`](crate::record!).
pub trait Record: Sized {
    /// The `"type"` value this record is written under; `None` for an
    /// object that carries none (a nested part, a BENCH entry).
    fn tag(&self) -> Option<&'static str>;
    /// Write the fields in wire order, each with [`put_member`].
    fn write_fields(&self, out: &mut String);
    /// Read the record tagged `tag` from the members of `o`.
    fn read(tag: Option<&str>, o: &Value) -> Result<Self, ParseError>;
    /// Every record type this Rust type can hold: its tag and its fields
    /// in wire order, a field of a nested object as `outer.inner`, of an
    /// array element as `outer[].inner`.
    fn schema() -> Vec<(Option<&'static str>, Vec<String>)>;
}

/// Append `rec` to `out` as one JSON object: the `"run"` stamp if there
/// is one, the `"type"` tag if the record has one, then its fields.
pub fn write_record<R: Record>(out: &mut String, run: Option<&str>, rec: &R) {
    out.push('{');
    if let Some(run) = run {
        out.push_str("\"run\":");
        push_json_str(out, run);
        out.push(',');
    }
    if let Some(tag) = rec.tag() {
        // A tag is a literal of a declaration; none needs escaping.
        out.push_str("\"type\":\"");
        out.push_str(tag);
        out.push_str("\",");
    }
    rec.write_fields(out);
    close(out, '}');
}

/// `rec` as one line of JSON (no trailing newline).
pub fn to_json<R: Record>(run: Option<&str>, rec: &R) -> String {
    let mut line = String::new();
    write_record(&mut line, run, rec);
    line
}

/// Read a record from a parsed object. Members the record does not name
/// (the `"run"` stamp) are ignored.
pub fn read_record<R: Record>(o: &Value) -> Result<R, ParseError> {
    let tag = match o.get("type") {
        Some(v) => Some(v.as_str().ok_or(ParseError::BadValue("type"))?),
        None => None,
    };
    R::read(tag, o)
}

/// Parse one JSONL line written by [`write_record`] back into a record,
/// with the `"run"` stamp the experiment harness leads exported lines
/// with (`None` for unstamped lines). Malformed lines yield a typed
/// [`ParseError`] instead of a panic.
pub fn parse_line<R: Record>(line: &str) -> Result<(Option<String>, R), ParseError> {
    let o = parse_value(line).filter(|v| matches!(v, Value::Obj(_)));
    let o = o.ok_or(ParseError::NotJson)?;
    let run = o.get("run").and_then(Value::as_str).map(str::to_string);
    Ok((run, read_record(&o)?))
}

/// Used by [`record!`](crate::record!): read the member `key` of `o`.
#[doc(hidden)]
pub fn get_field<F: Field>(o: &Value, key: &'static str) -> Result<F, ParseError> {
    let v = o.get(key).ok_or(ParseError::MissingField(key))?;
    F::get(v).ok_or(ParseError::BadValue(key))
}

/// One field of a [`record!`](crate::record!) declaration, for each of
/// the three things derived from it: `put` writes it, `get` reads it,
/// `spec` lists it.
#[doc(hidden)]
#[macro_export]
macro_rules! __record_field {
    (put; $out:expr, $f:ident, $v:expr) => {
        $crate::record::put_member($out, concat!("\"", stringify!($f), "\":"), $v)
    };
    (get; $o:expr, $f:ident, $t:ty) => {
        $crate::record::get_field::<$t>($o, stringify!($f))?
    };
    (spec $(when_set)?; $out:expr, $f:ident, $t:ty) => {
        <$t as $crate::record::Field>::spec(stringify!($f), &mut $out)
    };
    (put flat; $out:expr, $f:ident, $v:expr) => {
        $crate::record::Record::write_fields($v, $out)
    };
    (get flat; $o:expr, $f:ident, $t:ty) => {
        <$t as $crate::record::Record>::read(None, $o)?
    };
    (spec flat; $out:expr, $f:ident, $t:ty) => {
        $out.extend(<$t as $crate::record::Record>::schema().into_iter().flat_map(|(_, f)| f))
    };
    (put when_set; $out:expr, $f:ident, $v:expr) => {
        if *$v {
            $crate::__record_field!(put; $out, $f, $v)
        }
    };
    (get when_set; $o:expr, $f:ident, $t:ty) => {
        $o.get(stringify!($f)).is_some() && $crate::__record_field!(get; $o, $f, $t)
    };
}

/// Declare a record type and derive its codec
/// ([`Record`](crate::record::Record)): `pub struct Name = "tag" { pub
/// field: Type, … }`, or `pub enum Name { Variant = "tag" { field: Type,
/// … }, … }`, with attributes and doc comments where Rust takes them.
/// The `= "tag"` of a struct is optional (an object without a `"type"`
/// member); every variant of an enum has one. A field may end in
/// `[flat]` or `[when_set]` (see the [module](mod@crate::record) doc).
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Name:ident $(= $tag:literal)? {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $t:ty $([$mode:ident])? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Name {
            $( $(#[$fmeta])* $fvis $f: $t, )*
        }
        $crate::record!(@codec $Name; [$Name] [$($tag)?] { $( $f: $t [$($mode)?] ),* });
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $f:ident : $t:ty $([$mode:ident])? ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Name {
            $( $(#[$vmeta])* $Variant { $( $(#[$fmeta])* $f: $t, )* }, )*
        }
        $crate::record!(@codec $Name;
            $( [$Name::$Variant] [$tag] { $( $f: $t [$($mode)?] ),* } )*);
    };
    // The codec of `$Name`, from each shape it can take: the path that
    // builds and matches it, its tag if it has one, and its fields.
    (@codec $Name:ident;
        $( [$($path:tt)*] [$($tag:literal)?] { $( $f:ident : $t:ty [$($mode:ident)?] ),* } )*
    ) => {
        impl $crate::record::Record for $Name {
            fn tag(&self) -> Option<&'static str> {
                match self {
                    $( $($path)* { .. } => None $(.or(Some($tag)))?, )*
                }
            }
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( $($path)* { $($f),* } => {
                        $( $crate::__record_field!(put $($mode)?; out, $f, $f); )*
                    } )*
                }
            }
            fn read(
                tag: Option<&str>,
                o: &$crate::record::Value,
            ) -> Result<Self, $crate::record::ParseError> {
                // A shape without a tag of its own reads under any.
                $( if None $(.or(Some($tag)))?.is_none_or(|own: &str| tag == Some(own)) {
                    return Ok($($path)* {
                        $( $f: $crate::__record_field!(get $($mode)?; o, $f, $t), )*
                    });
                } )*
                Err(match tag {
                    Some(other) => $crate::record::ParseError::UnknownType(other.to_string()),
                    None => $crate::record::ParseError::MissingType,
                })
            }
            fn schema() -> Vec<(Option<&'static str>, Vec<String>)> {
                vec![ $( (None $(.or(Some($tag)))?, {
                    let mut fields = Vec::new();
                    $( $crate::__record_field!(spec $($mode)?; fields, $f, $t); )*
                    fields
                }) ),* ]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::record! {
        /// The part of `Whole` written in place.
        #[derive(Clone, Debug, PartialEq)]
        pub struct Part {
            /// A nullable number.
            pub y: Option<f64>,
        }
    }

    crate::record! {
        /// One of each thing a declaration can say.
        #[derive(Clone, Debug, PartialEq)]
        pub struct Whole = "whole" {
            /// A plain field.
            pub x: u32,
            /// Spliced into this object.
            pub part: Part [flat],
            /// A nested object.
            pub inner: Part,
            /// An array of objects.
            pub parts: Vec<Part>,
            /// An object keyed by data.
            pub by_name: Vec<(Cow<'static, str>, f64)>,
            /// Written only when set.
            pub flag: bool [when_set],
        }
    }

    fn whole(flag: bool) -> Whole {
        let part = |y| Part { y };
        Whole {
            x: 7,
            part: part(Some(0.5)),
            inner: part(None),
            parts: vec![part(Some(1.0)), part(None)],
            by_name: vec![("a b".into(), 1.5)],
            flag,
        }
    }

    #[test]
    fn a_declaration_writes_reads_and_lists_itself() {
        let line = to_json(Some("r#0"), &whole(true));
        assert_eq!(
            line,
            r#"{"run":"r#0","type":"whole","x":7,"y":0.5,"inner":{"y":null},"parts":[{"y":1},{"y":null}],"by_name":{"a b":1.5},"flag":true}"#
        );
        assert_eq!(
            parse_line(&line),
            Ok((Some("r#0".to_string()), whole(true)))
        );
        // Unset, the marked field is neither written nor missed.
        let line = to_json(None, &whole(false));
        assert!(line.ends_with(r#""by_name":{"a b":1.5}}"#), "{line}");
        assert_eq!(parse_line(&line), Ok((None, whole(false))));
        let paths = ["x", "y", "inner.y", "parts[].y", "by_name", "flag"].map(str::to_string);
        assert_eq!(Whole::schema(), vec![(Some("whole"), paths.to_vec())]);
        // Empty containers close where they open.
        let empty = Whole {
            parts: Vec::new(),
            by_name: Vec::new(),
            ..whole(false)
        };
        let line = to_json(None, &empty);
        assert!(line.ends_with(r#""parts":[],"by_name":{}}"#), "{line}");
        assert_eq!(parse_line(&line), Ok((None, empty)));
    }

    #[test]
    fn integers_are_written_in_full() {
        for v in [0, 7, 10, 65_536, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            v.put(&mut out);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn a_tagged_struct_reads_under_its_own_tag_only() {
        let o = parse_value(r#"{"type":"part","x":1}"#).unwrap();
        assert_eq!(
            read_record::<Whole>(&o),
            Err(ParseError::UnknownType("part".to_string()))
        );
        let o = parse_value(r#"{"x":1}"#).unwrap();
        assert_eq!(read_record::<Whole>(&o), Err(ParseError::MissingType));
        // One without a tag reads under any, and errors name the field.
        assert_eq!(
            read_record(&o),
            Err::<Part, _>(ParseError::MissingField("y"))
        );
        let o = parse_value(r#"{"type":"whole","y":"high"}"#).unwrap();
        assert_eq!(read_record(&o), Err::<Part, _>(ParseError::BadValue("y")));
    }

    #[test]
    fn the_reader_accepts_nested_values_and_nothing_but_json() {
        use Value::{Arr, Bool, Null, Num, Obj, Str};
        let v =
            parse_value(" { \"a\" : [ 1 , -2.5e3 , true , null , [ ] , { } ] , \"b\" : \"x\" } ");
        let a = Arr(vec![
            Num(1.0),
            Num(-2500.0),
            Bool(true),
            Null,
            Arr(vec![]),
            Obj(vec![]),
        ]);
        assert_eq!(
            v,
            Some(Obj(vec![
                ("a".to_string(), a),
                ("b".to_string(), Str("x".to_string()))
            ]))
        );
        assert_eq!(
            parse_value(r#""q\" b\\ s\/ \n\t\r\b\f \u00e9\u0001 é""#),
            Some(Str("q\" b\\ s/ \n\t\r\u{8}\u{c} \u{e9}\u{1} é".to_string()))
        );
        let malformed = [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "[1 2]",
            "1 2",
            "tru",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "{\"a\":1}}",
            "nul",
        ];
        for text in malformed {
            assert_eq!(parse_value(text), None, "{text:?}");
        }
        // Sixteen containers deep is read; the seventeenth is not recursed into.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_value(&nested(16)).is_some());
        assert_eq!(parse_value(&nested(17)), None);
        assert_eq!(parse_value(&"[".repeat(100_000)), None);
    }
}
