//! Shared validated environment-variable parsing.
//!
//! Every tuning knob in the workspace follows the same contract
//! (`CREATE_REPS`, `CREATE_THREADS`, `CREATE_TRIAL_BATCH`,
//! `CREATE_GEMM_BACKEND`, `CREATE_F32_BACKEND`):
//!
//! * unset, empty or whitespace-only selects the default **silently**;
//! * a non-empty value that fails to parse or validate warns once on
//!   stderr and falls back to the default rather than silently
//!   misbehaving or aborting.
//!
//! The pattern used to be re-implemented at each site; this module is the
//! single home for it. `create-tensor` sits at the bottom of the crate
//! graph, so every crate can reach it.

use std::fmt::Display;

/// Resolves a raw environment value (`None` = unset) against `parse`.
///
/// `parse` receives the raw (untrimmed) value and returns either the
/// parsed setting or a human-readable reason for rejecting it, which is
/// reported as `[create] ignoring NAME="raw": reason; using default D`.
/// Exposed with the raw value as an argument (rather than reading the
/// environment itself) so tests can cover parsing without racing on the
/// process environment.
pub fn parse_validated<T, F>(name: &str, raw: Option<&str>, default: T, parse: F) -> T
where
    T: Display,
    F: FnOnce(&str) -> Result<T, String>,
{
    match raw {
        None => default,
        Some(s) if s.trim().is_empty() => default,
        Some(s) => match parse(s) {
            Ok(v) => v,
            Err(err) => {
                eprintln!("[create] ignoring {name}={s:?}: {err}; using default {default}");
                default
            }
        },
    }
}

/// [`parse_validated`] over the live process environment.
pub fn read_validated<T, F>(name: &str, default: T, parse: F) -> T
where
    T: Display,
    F: FnOnce(&str) -> Result<T, String>,
{
    parse_validated(name, std::env::var(name).ok().as_deref(), default, parse)
}

/// Parses a positive integer setting, rejecting `0` and garbage with the
/// shared warn-and-fallback contract (the `CREATE_REPS` /
/// `CREATE_THREADS` / `CREATE_TRIAL_BATCH` shape).
pub fn positive_usize(name: &str, raw: Option<&str>, default: usize) -> usize {
    parse_validated(name, raw, default, |s| match s.trim().parse::<usize>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err("expected a positive integer".to_string()),
    })
}

/// [`positive_usize`] over the live process environment.
pub fn read_positive_usize(name: &str, default: usize) -> usize {
    positive_usize(name, std::env::var(name).ok().as_deref(), default)
}

/// Parses a non-negative integer setting — zero is a valid value, not a
/// rejection (indices like `CREATE_SWEEP_SHARD`, where shard 0 is the
/// first shard) — with the shared warn-and-fallback contract.
pub fn nonneg_usize(name: &str, raw: Option<&str>, default: usize) -> usize {
    parse_validated(name, raw, default, |s| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| "expected a non-negative integer".to_string())
    })
}

/// [`nonneg_usize`] over the live process environment.
pub fn read_nonneg_usize(name: &str, default: usize) -> usize {
    nonneg_usize(name, std::env::var(name).ok().as_deref(), default)
}

/// Parses an on/off switch (`1`/`true` on, `0`/`false` off,
/// case-insensitive) with the shared warn-and-fallback contract — the
/// `CREATE_SERVE_GOVERNOR` / `CREATE_TESTUTIL_CACHE` shape.
pub fn flag(name: &str, raw: Option<&str>, default: bool) -> bool {
    parse_validated(name, raw, default, |s| {
        match s.trim().to_ascii_lowercase().as_str() {
            "1" | "true" => Ok(true),
            "0" | "false" => Ok(false),
            _ => Err("expected 0/1 or true/false".to_string()),
        }
    })
}

/// [`flag`] over the live process environment.
pub fn read_flag(name: &str, default: bool) -> bool {
    flag(name, std::env::var(name).ok().as_deref(), default)
}

/// Parses a fraction in `[0, 1]` (probabilities, rates, SLO targets —
/// the `CREATE_SERVE_CHAOS` / `CREATE_SERVE_SLO` shape) with the shared
/// warn-and-fallback contract.
pub fn fraction(name: &str, raw: Option<&str>, default: f64) -> f64 {
    parse_validated(name, raw, default, |s| match s.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && (0.0..=1.0).contains(&v) => Ok(v),
        _ => Err("expected a fraction in [0, 1]".to_string()),
    })
}

/// [`fraction`] over the live process environment.
pub fn read_fraction(name: &str, default: f64) -> f64 {
    fraction(name, std::env::var(name).ok().as_deref(), default)
}

/// Reports an out-of-range **explicit builder setting** that was clamped
/// or floored, through the same stderr channel the env parsers use —
/// so `ServeConfig::builder().workers(0)` surfaces exactly like
/// `CREATE_SERVE_WORKERS=0` does: a warning and a safe value, never a
/// panic and never a silent adjustment.
///
/// `name` is the knob's env-contract name (the builder is the code-side
/// face of the same setting), `given` the value the caller passed,
/// `used` the value actually applied.
pub fn warn_adjusted(name: &str, given: impl Display, used: impl Display, why: &str) {
    eprintln!("[create] adjusting {name}={given}: {why}; using {used}");
}

/// Parses a positive milliseconds setting into a `Duration` with the
/// shared warn-and-fallback contract (the `CREATE_SERVE_DEADLINE_MS` /
/// `CREATE_NET_*_MS` shape: zero and garbage warn and fall back).
pub fn positive_ms(name: &str, raw: Option<&str>, default_ms: u64) -> std::time::Duration {
    let ms = parse_validated(name, raw, default_ms, |s| match s.trim().parse::<u64>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err("expected a positive integer (milliseconds)".to_string()),
    });
    std::time::Duration::from_millis(ms)
}

/// [`positive_ms`] over the live process environment.
pub fn read_positive_ms(name: &str, default_ms: u64) -> std::time::Duration {
    positive_ms(name, std::env::var(name).ok().as_deref(), default_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_blank_select_default_silently() {
        assert_eq!(positive_usize("CREATE_TEST_X", None, 7), 7);
        assert_eq!(positive_usize("CREATE_TEST_X", Some(""), 7), 7);
        assert_eq!(positive_usize("CREATE_TEST_X", Some("  \t"), 7), 7);
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(positive_usize("CREATE_TEST_X", Some("12"), 7), 12);
        assert_eq!(positive_usize("CREATE_TEST_X", Some(" 3 "), 7), 3);
    }

    #[test]
    fn zero_and_garbage_fall_back() {
        assert_eq!(positive_usize("CREATE_TEST_X", Some("0"), 7), 7);
        assert_eq!(positive_usize("CREATE_TEST_X", Some("-4"), 7), 7);
        assert_eq!(positive_usize("CREATE_TEST_X", Some("lots"), 7), 7);
    }

    #[test]
    fn nonneg_accepts_zero_but_not_garbage() {
        assert_eq!(nonneg_usize("CREATE_TEST_IDX", None, 3), 3);
        assert_eq!(nonneg_usize("CREATE_TEST_IDX", Some("0"), 3), 0);
        assert_eq!(nonneg_usize("CREATE_TEST_IDX", Some(" 5 "), 3), 5);
        assert_eq!(nonneg_usize("CREATE_TEST_IDX", Some("-1"), 3), 3);
        assert_eq!(nonneg_usize("CREATE_TEST_IDX", Some("first"), 3), 3);
    }

    #[test]
    fn flags_parse_with_fallback() {
        assert!(!flag("CREATE_TEST_FLAG", None, false));
        assert!(flag("CREATE_TEST_FLAG", None, true));
        assert!(flag("CREATE_TEST_FLAG", Some("1"), false));
        assert!(flag("CREATE_TEST_FLAG", Some(" TRUE "), false));
        assert!(!flag("CREATE_TEST_FLAG", Some("0"), true));
        assert!(!flag("CREATE_TEST_FLAG", Some("false"), true));
        assert!(!flag("CREATE_TEST_FLAG", Some("yes-please"), false));
    }

    #[test]
    fn fractions_parse_and_clamp_garbage_to_default() {
        assert_eq!(fraction("CREATE_TEST_P", None, 0.25), 0.25);
        assert_eq!(fraction("CREATE_TEST_P", Some("0"), 0.25), 0.0);
        assert_eq!(fraction("CREATE_TEST_P", Some("1"), 0.25), 1.0);
        assert_eq!(fraction("CREATE_TEST_P", Some(" 0.5 "), 0.25), 0.5);
        assert_eq!(fraction("CREATE_TEST_P", Some("1.5"), 0.25), 0.25);
        assert_eq!(fraction("CREATE_TEST_P", Some("-0.1"), 0.25), 0.25);
        assert_eq!(fraction("CREATE_TEST_P", Some("NaN"), 0.25), 0.25);
        assert_eq!(fraction("CREATE_TEST_P", Some("chaos"), 0.25), 0.25);
    }

    #[test]
    fn positive_ms_parses_durations_with_fallback() {
        use std::time::Duration;
        assert_eq!(
            positive_ms("CREATE_TEST_MS", None, 250),
            Duration::from_millis(250)
        );
        assert_eq!(
            positive_ms("CREATE_TEST_MS", Some(" 40 "), 250),
            Duration::from_millis(40)
        );
        assert_eq!(
            positive_ms("CREATE_TEST_MS", Some("0"), 250),
            Duration::from_millis(250)
        );
        assert_eq!(
            positive_ms("CREATE_TEST_MS", Some("soon"), 250),
            Duration::from_millis(250)
        );
    }

    #[test]
    fn custom_parse_and_validation_compose() {
        let parse = |s: &str| match s.trim() {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("unknown flag {other:?}")),
        };
        assert!(parse_validated("CREATE_TEST_F", Some("on"), false, parse));
        assert!(!parse_validated(
            "CREATE_TEST_F",
            Some("maybe"),
            false,
            parse
        ));
    }
}
