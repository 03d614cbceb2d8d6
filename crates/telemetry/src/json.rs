//! Minimal JSON emission. The workspace vendors a no-op `serde` derive
//! shim (see `vendor/README.md`), so reports serialize themselves with
//! this hand-rolled writer instead of `serde_json`.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values are emitted as `null`.
pub(crate) fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Appends `values` as a JSON array of numbers.
pub(crate) fn push_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

/// Appends `values` as a JSON array of integers.
pub(crate) fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, f64::INFINITY);
        out.push(',');
        push_f64(&mut out, 1.5);
        assert_eq!(out, "null,null,1.5");
    }

    #[test]
    fn arrays_render() {
        let mut out = String::new();
        push_u64_array(&mut out, &[1, 2, 3]);
        out.push(' ');
        push_f64_array(&mut out, &[0.5, 2.0]);
        assert_eq!(out, "[1,2,3] [0.5,2]");
    }
}
