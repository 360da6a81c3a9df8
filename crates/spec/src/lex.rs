//! Line-oriented lexer for the specification language.
//!
//! Each (logical) line is a sequence of attributes
//! `name(args)?=value`, where a value is a bare word (`dynamic`, `30s`,
//! `perfA.dat`), a mechanism reference (`<maintenanceA>`) or a bracketed
//! body (`[2400 2640]`, `[bronze,silver,gold,platinum]`, `[1m-24h;*1.05]`).
//! `\\` starts a comment running to the end of the line. Physical lines
//! with unbalanced `(`/`[` continue onto the next line, which is how the
//! paper wraps long `mperformance(...)` attributes.

use std::borrow::Cow;

use crate::{SpecError, SpecErrorKind};

/// An attribute value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A bare word: identifier, number, duration or filename.
    Word(String),
    /// A mechanism reference `<name>`.
    Ref(String),
    /// The raw interior of a bracketed body `[...]` (brackets stripped,
    /// inner whitespace collapsed to single spaces).
    Bracket(String),
}

impl Value {
    /// The bare word, if this is a `Word`.
    #[must_use]
    pub fn as_word(&self) -> Option<&str> {
        match self {
            Value::Word(w) => Some(w),
            _ => None,
        }
    }

    /// The referenced name, if this is a `Ref`.
    #[must_use]
    pub fn as_ref_name(&self) -> Option<&str> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }

    /// The bracket body, if this is a `Bracket`.
    #[must_use]
    pub fn as_bracket(&self) -> Option<&str> {
        match self {
            Value::Bracket(b) => Some(b),
            _ => None,
        }
    }

    /// Splits a bracket body into items on commas and/or whitespace:
    /// `[2400 2640]` and `[bronze,silver]` both yield two items.
    #[must_use]
    pub fn bracket_items(&self) -> Vec<String> {
        match self {
            Value::Bracket(b) => b
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// One `name(args)?=value` attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name (`component`, `mtbf`, `cost`, ...).
    pub name: String,
    /// Parenthesized argument list, split on top-level commas
    /// (`cost([inactive,active])` has the single argument
    /// `[inactive,active]`).
    pub args: Vec<String>,
    /// The value after `=`.
    pub value: Value,
}

/// A logical line: its 1-based number (of its first physical line) and its
/// attributes in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// 1-based number of the first physical line.
    pub number: usize,
    /// The attributes, in source order. Never empty.
    pub attrs: Vec<Attr>,
}

impl Line {
    /// The first attribute — the line's "keyword" that determines what the
    /// line declares.
    #[must_use]
    pub fn keyword(&self) -> &Attr {
        &self.attrs[0]
    }

    /// Finds an attribute by name.
    #[must_use]
    pub fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs.iter().find(|a| a.name == name)
    }
}

/// Lexes a whole document into logical lines.
///
/// # Errors
///
/// Returns [`SpecError`] with the offending line number for malformed
/// attributes, unterminated brackets or references.
pub fn lex_document(text: &str) -> Result<Vec<Line>, SpecError> {
    // First pass: strip comments, join continuation lines. A line that
    // continues nowhere is lexed from the text itself.
    let mut logical: Vec<(usize, Cow<'_, str>)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        let without_comment = match raw.find("\\\\") {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = without_comment.trim();
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(trimmed);
                if unbalanced(&acc) {
                    pending = Some((start, acc));
                } else {
                    logical.push((start, Cow::Owned(acc)));
                }
            }
            None if trimmed.is_empty() => {}
            None if unbalanced(trimmed) => pending = Some((number, trimmed.to_owned())),
            None => logical.push((number, Cow::Borrowed(trimmed))),
        }
    }
    if let Some((start, acc)) = pending {
        return Err(SpecError::new(
            start,
            SpecErrorKind::Lex(format!("unterminated bracket or parenthesis in {acc:?}")),
        ));
    }

    logical
        .into_iter()
        .map(|(number, body)| {
            let attrs = lex_line(&body).map_err(|e| {
                // The 1-based character column of the offending byte.
                let column = body[..e.offset].chars().count() + 1;
                SpecError::new(number, SpecErrorKind::Lex(e.message)).with_column(column)
            })?;
            if attrs.is_empty() {
                return Err(SpecError::new(
                    number,
                    SpecErrorKind::Lex("empty line after comment stripping".into()),
                ));
            }
            Ok(Line { number, attrs })
        })
        .collect()
}

/// Whether parens/brackets are unbalanced (more opens than closes).
fn unbalanced(s: &str) -> bool {
    let mut depth = 0_i32;
    for b in s.bytes() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

/// A lexing failure within one logical line: where (the byte offset of
/// the offending character in the joined logical text) and what.
struct LexFailure {
    offset: usize,
    message: String,
}

impl LexFailure {
    fn at(offset: usize, message: String) -> LexFailure {
        LexFailure { offset, message }
    }
}

/// The byte offset of the first character at or after `from` in `s` that
/// `stop` accepts, or `s.len()` when none does.
fn scan(s: &str, from: usize, stop: impl Fn(char) -> bool) -> usize {
    s[from..].find(stop).map_or(s.len(), |k| from + k)
}

/// The byte offset just past the bracket or parenthesis closing the one
/// that opens at `open`, counting `opens`/`closes` as nesting, or `None`
/// when the text ends first.
fn closing(s: &str, open: usize, opens: &[u8], closes: &[u8]) -> Option<usize> {
    let mut depth = 0_i32;
    for (k, b) in s.bytes().enumerate().skip(open) {
        if opens.contains(&b) {
            depth += 1;
        } else if closes.contains(&b) {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

fn lex_line(body: &str) -> Result<Vec<Attr>, LexFailure> {
    let mut attrs = Vec::new();
    let n = body.len();
    let mut i = 0;
    loop {
        i = scan(body, i, |c| !c.is_whitespace());
        if i >= n {
            break;
        }
        // Attribute name: up to '(', '=' or whitespace.
        let name_start = i;
        i = scan(body, i, |c| c == '(' || c == '=' || c.is_whitespace());
        let name = &body[name_start..i];
        if name.is_empty() {
            return Err(LexFailure::at(i, "expected attribute name".into()));
        }
        // Optional (args).
        let mut args = Vec::new();
        if body[i..].starts_with('(') {
            let Some(end) = closing(body, i, b"([", b")]") else {
                return Err(LexFailure::at(
                    i,
                    format!("unterminated argument list for {name}"),
                ));
            };
            args = split_top_level_commas(&body[i + 1..end - 1]);
            i = end;
        }
        // '='
        if !body[i..].starts_with('=') {
            return Err(LexFailure::at(
                i,
                format!("expected '=' after attribute {name}"),
            ));
        }
        i += 1;
        // Value.
        let value = match body.as_bytes().get(i) {
            None => {
                return Err(LexFailure::at(
                    i,
                    format!("missing value for attribute {name}"),
                ))
            }
            Some(b'<') => {
                let Some(close) = body[i..].find('>').map(|k| i + k) else {
                    return Err(LexFailure::at(
                        i,
                        format!("unterminated reference for attribute {name}"),
                    ));
                };
                let r = body[i + 1..close].trim();
                i = close + 1;
                Value::Ref(r.to_owned())
            }
            Some(b'[') => {
                let Some(end) = closing(body, i, b"[", b"]") else {
                    return Err(LexFailure::at(
                        i,
                        format!("unterminated bracket for attribute {name}"),
                    ));
                };
                let mut inner = String::with_capacity(end - i);
                for word in body[i + 1..end - 1].split_whitespace() {
                    if !inner.is_empty() {
                        inner.push(' ');
                    }
                    inner.push_str(word);
                }
                i = end;
                Value::Bracket(inner)
            }
            Some(_) => {
                let start = i;
                i = scan(body, i, char::is_whitespace);
                Value::Word(body[start..i].to_owned())
            }
        };
        attrs.push(Attr {
            name: name.to_owned(),
            args,
            value,
        });
    }
    Ok(attrs)
}

fn split_top_level_commas(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0_i32;
    let mut start = 0;
    for (k, b) in s.bytes().enumerate() {
        match b {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth -= 1,
            b',' if depth == 0 => {
                out.push(s[start..k].trim().to_owned());
                start = k + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        out.push(last.to_owned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex1(s: &str) -> Line {
        let lines = lex_document(s).unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        lines.into_iter().next().unwrap()
    }

    #[test]
    fn component_line_with_mode_costs() {
        let l = lex1("component=machineA cost([inactive,active])=[2400 2640]");
        assert_eq!(l.attrs.len(), 2);
        assert_eq!(l.keyword().name, "component");
        assert_eq!(l.keyword().value, Value::Word("machineA".into()));
        let cost = l.attr("cost").unwrap();
        assert_eq!(cost.args, vec!["[inactive,active]"]);
        assert_eq!(cost.value, Value::Bracket("2400 2640".into()));
        assert_eq!(cost.value.bracket_items(), vec!["2400", "2640"]);
    }

    #[test]
    fn failure_line_with_reference() {
        let l = lex1("failure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m");
        assert_eq!(l.attrs.len(), 4);
        assert_eq!(
            l.attr("mttr").unwrap().value,
            Value::Ref("maintenanceA".into())
        );
        assert_eq!(l.attr("mtbf").unwrap().value, Value::Word("650d".into()));
    }

    #[test]
    fn comma_list_bracket() {
        let l = lex1("param=level range=[bronze,silver,gold,platinum]");
        let range = l.attr("range").unwrap();
        assert_eq!(
            range.value.bracket_items(),
            vec!["bronze", "silver", "gold", "platinum"]
        );
    }

    #[test]
    fn geometric_range_is_preserved_raw() {
        let l = lex1("param=checkpoint_interval range=[1m-24h;*1.05]");
        assert_eq!(
            l.attr("range").unwrap().value,
            Value::Bracket("1m-24h;*1.05".into())
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let lines = lex_document(
            "\\\\ COMPONENTS DESCRIPTION\n\
             \n\
             component=linux cost=0 \\\\ trailing comment\n",
        )
        .unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].number, 3);
        assert_eq!(lines[0].attrs.len(), 2);
    }

    #[test]
    fn continuation_lines_are_joined() {
        let lines = lex_document(
            "mechanism=checkpoint mperformance(storage_location,\n\
             \tcheckpoint_interval,nActive)=mperfH.dat\n",
        )
        .unwrap();
        assert_eq!(lines.len(), 1);
        let mp = lines[0].attr("mperformance").unwrap();
        assert_eq!(
            mp.args,
            vec!["storage_location", "checkpoint_interval", "nActive"]
        );
        assert_eq!(mp.value, Value::Word("mperfH.dat".into()));
    }

    #[test]
    fn unterminated_bracket_is_reported_with_line() {
        let err = lex_document("cost(level)=[380 580\n").unwrap_err();
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn missing_equals_is_error() {
        let err = lex_document("component machineA\n").unwrap_err();
        // "component" is followed by whitespace, not '='; the complaint
        // points at the column right after the name.
        assert_eq!(err.column(), Some(10), "{err}");
        assert!(err.to_string().contains("expected '='"), "{err}");
    }

    #[test]
    fn missing_value_is_error() {
        let err = lex_document("component=\n").unwrap_err();
        assert_eq!(err.column(), Some(11), "{err}");
        assert!(err.to_string().contains("missing value"), "{err}");
    }

    #[test]
    fn unterminated_ref_is_error() {
        let err = lex_document("mttr=<maintenanceA\n").unwrap_err();
        assert_eq!(err.column(), Some(6), "{err}");
        assert!(err.to_string().contains("unterminated reference"), "{err}");
    }

    #[test]
    fn nested_brackets_in_args() {
        let l = lex1("cost([a,b],x)=[1 2]");
        assert_eq!(l.keyword().args, vec!["[a,b]", "x"]);
    }

    #[test]
    fn multiple_attrs_whitespace_robust() {
        let l = lex1("  resource=rA   reconfig_time=0  ");
        assert_eq!(l.attrs.len(), 2);
        assert_eq!(
            l.attr("reconfig_time").unwrap().value,
            Value::Word("0".into())
        );
    }

    #[test]
    fn line_numbers_are_physical() {
        let lines = lex_document("a=1\n\nb=2\nc=3\n").unwrap();
        let nums: Vec<usize> = lines.iter().map(|l| l.number).collect();
        assert_eq!(nums, vec![1, 3, 4]);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Word("x".into()).as_word(), Some("x"));
        assert_eq!(Value::Word("x".into()).as_ref_name(), None);
        assert_eq!(Value::Ref("m".into()).as_ref_name(), Some("m"));
        assert_eq!(Value::Bracket("1 2".into()).as_bracket(), Some("1 2"));
        assert!(Value::Word("x".into()).bracket_items().is_empty());
    }
}
