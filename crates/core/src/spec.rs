//! The declarative configuration surface of a [`crate::LoadControl`]:
//! one spec grammar across every pluggable plane.
//!
//! This module re-exports the shared [`lc_spec`] grammar ([`ParsedSpec`],
//! [`Registry`], [`SpecError`]) and defines [`LoadControlSpec`] — the
//! declarative description of a whole control plane: decision policy, target
//! splitter, slot-buffer shard count and load sampler, each in the
//! `name(key=value)` grammar.
//!
//! A `LoadControlSpec` can come from:
//!
//! * a **string** (`"policy=pid(kp=0.5, ki=0.1); splitter=even; shards=4"`),
//! * a **config file** of `key = value` lines with `#` comments
//!   ([`LoadControlSpec::from_config_file`]),
//! * the **environment** (`LC_POLICY`, `LC_SPLITTER`, `LC_SHARDS`,
//!   `LC_SAMPLER`, `LC_WAKE_ORDER`; [`LoadControlSpec::apply_env`]), or
//! * single `key`, `value` pairs layered on top of any of these
//!   ([`LoadControlSpec::set`]).
//!
//! Every source is validated against the registries at parse time: unknown
//! policy/splitter/sampler names, unknown parameter keys and malformed shard
//! counts are explicit [`SpecError`]s, never silent defaults.  The one check
//! left to [`crate::LoadControl::from_spec`] is the shard count's range,
//! which depends on the configuration's `max_sleepers`.  `Display`
//! prints the canonical string form and `parse → Display → parse` is the
//! identity, so a running [`crate::LoadControl`] can report its exact
//! configuration ([`crate::LoadControl::spec`]) as a string that reconstructs
//! it ([`crate::LoadControl::from_spec`]).
//!
//! ```
//! use lc_core::spec::LoadControlSpec;
//!
//! let spec: LoadControlSpec =
//!     "policy=hysteresis(alpha=0.3, deadband=2); shards=4".parse().unwrap();
//! assert_eq!(spec.policy.to_string(), "hysteresis(alpha=0.3, deadband=2)");
//! assert_eq!(spec.shards, Some(4));
//! assert_eq!(spec.to_string().parse::<LoadControlSpec>().unwrap(), spec);
//! assert!("policy=no-such-policy".parse::<LoadControlSpec>().is_err());
//! assert!("shards=zero".parse::<LoadControlSpec>().is_err());
//! ```

pub use lc_spec::{ParsedSpec, Registry, SpecEntry, SpecError};

use crate::config::WakeOrder;
use crate::policy::{POLICY_SPECS, SPLITTER_SPECS};
use lc_accounting::SAMPLER_SPECS;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Parses a shard-count value from a spec source (`LC_SHARDS`, a config
/// file's `shards =` line): a positive integer, anything else is an explicit
/// [`SpecError::Config`].
fn parse_shards_value(source: &str, value: &str) -> Result<usize, SpecError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(_) => Err(SpecError::Config {
            source: source.to_string(),
            reason: "shard count must be at least 1".to_string(),
        }),
        Err(_) => Err(SpecError::Config {
            source: source.to_string(),
            reason: format!("invalid shard count {value:?}: expected a positive integer"),
        }),
    }
}

/// Parses a wake-order value from a spec source: `fifo` or `window`.
fn parse_wake_order(source: &str, value: &str) -> Result<WakeOrder, SpecError> {
    WakeOrder::parse(value.trim()).ok_or_else(|| SpecError::Config {
        source: source.to_string(),
        reason: format!("invalid wake order {value:?}: expected fifo or window"),
    })
}

/// Parses `value` and checks it against `registry`.
fn validated<T, C>(registry: &Registry<T, C>, value: &str) -> Result<ParsedSpec, SpecError> {
    let parsed = ParsedSpec::parse(value)?;
    registry.validate(&parsed)?;
    Ok(parsed)
}

/// A declarative description of a whole [`crate::LoadControl`] control
/// plane.
///
/// Field specs use the shared `name(key=value)` grammar and are validated
/// against [`POLICY_SPECS`], [`SPLITTER_SPECS`] and [`SAMPLER_SPECS`] when
/// the `LoadControlSpec` is parsed or changed with [`LoadControlSpec::set`].  `shards`,
/// `sampler` and `wake_order` are optional: `None` means "not specified by
/// this source" — [`crate::LoadControl::from_spec`] keeps the
/// configuration's shard count, the registry-backed sampler and the
/// paper's `fifo` wake order.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadControlSpec {
    /// The control policy (default: `paper`).
    pub policy: ParsedSpec,
    /// The shard-target splitter (default: `even`).
    pub splitter: ParsedSpec,
    /// Slot-buffer shard count, or `None` to keep the configuration's
    /// (rounded up to a power of two at build time).
    pub shards: Option<usize>,
    /// The load sampler, or `None` for the default registry sampler.
    pub sampler: Option<ParsedSpec>,
    /// The controller wake order (`fifo` or `window`), or `None` for the
    /// paper's array-order `fifo`.
    pub wake_order: Option<WakeOrder>,
}

impl Default for LoadControlSpec {
    fn default() -> Self {
        Self {
            policy: ParsedSpec::bare("paper"),
            splitter: ParsedSpec::bare("even"),
            shards: None,
            sampler: None,
            wake_order: None,
        }
    }
}

impl LoadControlSpec {
    /// Environment variable holding the control-policy spec.
    pub const ENV_POLICY: &'static str = "LC_POLICY";
    /// Environment variable holding the target-splitter spec.
    pub const ENV_SPLITTER: &'static str = "LC_SPLITTER";
    /// Environment variable holding the shard count.
    pub const ENV_SHARDS: &'static str = "LC_SHARDS";
    /// Environment variable holding the load-sampler spec.
    pub const ENV_SAMPLER: &'static str = "LC_SAMPLER";
    /// Environment variable holding the controller wake order (`fifo` or
    /// `window`).
    pub const ENV_WAKE_ORDER: &'static str = "LC_WAKE_ORDER";

    /// Sets `key` (`policy`, `splitter`, `shards`, `sampler` or
    /// `wake_order`) from its string `value`, validated against the key's
    /// registry; errors name `source` (a variable, a file, a flag).  On an
    /// error the spec is left unchanged, so layered sources never lose an
    /// earlier layer.
    pub fn set(&mut self, source: &str, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "policy" => self.policy = validated(&POLICY_SPECS, value)?,
            "splitter" => self.splitter = validated(&SPLITTER_SPECS, value)?,
            "sampler" => self.sampler = Some(validated(&SAMPLER_SPECS, value)?),
            "shards" => self.shards = Some(parse_shards_value(source, value)?),
            "wake_order" => self.wake_order = Some(parse_wake_order(source, value)?),
            _ => {
                return Err(SpecError::Config {
                    source: source.to_string(),
                    reason: format!(
                        "unknown key {key:?}; accepted keys: policy, splitter, shards, \
                         sampler, wake_order"
                    ),
                })
            }
        }
        Ok(())
    }

    fn parse_from(input: &str, source: &str) -> Result<Self, SpecError> {
        let mut spec = Self::default();
        let mut seen: Vec<String> = Vec::new();
        for line in input.lines() {
            let line = line.split('#').next().unwrap_or("");
            for entry in line.split(';') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                let Some((key, value)) = entry.split_once('=') else {
                    return Err(SpecError::Config {
                        source: source.to_string(),
                        reason: format!("expected key=value, got {entry:?}"),
                    });
                };
                let (key, value) = (key.trim(), value.trim());
                if seen.iter().any(|k| k == key) {
                    return Err(SpecError::Config {
                        source: source.to_string(),
                        reason: format!("duplicate key {key:?}"),
                    });
                }
                seen.push(key.to_string());
                spec.set(source, key, value)?;
            }
        }
        Ok(spec)
    }

    /// Parses a spec from a `key = value` config file (one entry per line,
    /// `#` comments).  I/O failures and malformed content are both
    /// [`SpecError`]s naming the file.
    pub fn from_config_file(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let contents = std::fs::read_to_string(path).map_err(|e| SpecError::Config {
            source: path.display().to_string(),
            reason: format!("unreadable config file: {e}"),
        })?;
        Self::parse_from(&contents, &path.display().to_string())
    }

    /// Returns `self` with the set `LC_POLICY`, `LC_SPLITTER`, `LC_SHARDS`,
    /// `LC_SAMPLER` and `LC_WAKE_ORDER` environment variables layered on top
    /// (unset or empty variables keep the current values).  A malformed
    /// variable is an explicit error naming the variable, never a silent
    /// fall-back.
    pub fn apply_env(mut self) -> Result<Self, SpecError> {
        for (var, key) in [
            (Self::ENV_POLICY, "policy"),
            (Self::ENV_SPLITTER, "splitter"),
            (Self::ENV_SHARDS, "shards"),
            (Self::ENV_SAMPLER, "sampler"),
            (Self::ENV_WAKE_ORDER, "wake_order"),
        ] {
            if let Ok(value) = std::env::var(var) {
                if !value.trim().is_empty() {
                    self.set(var, key, value.trim())?;
                }
            }
        }
        Ok(self)
    }
}

impl fmt::Display for LoadControlSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy={}; splitter={}", self.policy, self.splitter)?;
        if let Some(shards) = self.shards {
            write!(f, "; shards={shards}")?;
        }
        if let Some(sampler) = &self.sampler {
            write!(f, "; sampler={sampler}")?;
        }
        if let Some(order) = self.wake_order {
            write!(f, "; wake_order={order}")?;
        }
        Ok(())
    }
}

/// Parses a spec from its string form: `key=value` entries separated by `;`
/// or newlines, with `#` starting a comment.  Accepted keys are `policy`,
/// `splitter`, `shards`, `sampler` and `wake_order`; every value is
/// validated against its registry.  Unset keys keep their defaults.
impl FromStr for LoadControlSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse_from(s, "spec")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadControl, LoadControlConfig};

    #[test]
    fn default_spec_is_the_paper_setup() {
        let spec = LoadControlSpec::default();
        assert_eq!(spec.policy, ParsedSpec::bare("paper"));
        assert_eq!(spec.splitter, ParsedSpec::bare("even"));
        assert_eq!(spec.shards, None, "shards must default to unspecified");
        assert_eq!(spec.sampler, None);
        assert_eq!(spec.wake_order, None);
        assert_eq!(spec.to_string(), "policy=paper; splitter=even");
    }

    #[test]
    fn parse_display_round_trip_is_identity() {
        for input in [
            "policy=paper; splitter=even",
            "policy=paper; splitter=even; shards=1",
            "policy=pid(kp=0.5, ki=0.1); splitter=load-weighted(ewma=0.25); shards=4",
            "policy=hysteresis(alpha=0.3, deadband=2); splitter=even; shards=2; sampler=fixed(runnable=9)",
            "policy=latency(target_p99=20); splitter=even; wake_order=window",
            "policy=autotune(inner=pid, objective=p99); splitter=even; shards=2; wake_order=fifo",
        ] {
            let spec = input.parse::<LoadControlSpec>().unwrap();
            let rendered = spec.to_string();
            assert_eq!(rendered.parse::<LoadControlSpec>().unwrap(), spec, "{input}");
        }
    }

    #[test]
    fn config_file_form_parses_with_comments() {
        let spec: LoadControlSpec = "# experiment: smooth convergence\n\
             policy = pid(kp=0.5, ki=0.1)   # showcase parameterized entry\n\
             \n\
             splitter = load-weighted(ewma=0.25)\n\
             shards = 4\n"
            .parse()
            .unwrap();
        assert_eq!(spec.policy.to_string(), "pid(kp=0.5, ki=0.1)");
        assert_eq!(spec.splitter.to_string(), "load-weighted(ewma=0.25)");
        assert_eq!(spec.shards, Some(4));
    }

    #[test]
    fn unknown_names_keys_and_values_are_explicit_errors() {
        assert!(matches!(
            "policy=no-such-policy".parse::<LoadControlSpec>(),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            "policy=pid(gain=2)".parse::<LoadControlSpec>(),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            "brightness=11".parse::<LoadControlSpec>(),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            "shards=zero".parse::<LoadControlSpec>(),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            "shards=0".parse::<LoadControlSpec>(),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            "policy=paper; policy=fixed".parse::<LoadControlSpec>(),
            Err(SpecError::Config { .. })
        ));
        match "topology=mesh".parse::<LoadControlSpec>() {
            Err(SpecError::Config { reason, .. }) => assert!(
                reason.ends_with("policy, splitter, shards, sampler, wake_order"),
                "an unknown key must list the accepted ones: {reason}"
            ),
            other => panic!("expected an unknown-key error, got {other:?}"),
        }
        assert!(matches!(
            "policy".parse::<LoadControlSpec>(),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            "wake_order=lifo".parse::<LoadControlSpec>(),
            Err(SpecError::Config { .. })
        ));
        // A shard count that parses but rounds past usize, or leaves a shard
        // of the default 1024 sleepers without a slot, is rejected when the
        // control is built.
        for shards in ["18446744073709551615", "1048576"] {
            let spec = format!("shards={shards}")
                .parse::<LoadControlSpec>()
                .unwrap();
            match LoadControl::from_spec(LoadControlConfig::for_capacity(2), &spec) {
                Err(SpecError::Config { source, .. }) => assert_eq!(source, "shards"),
                other => panic!("shards={shards} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_failed_set_leaves_the_spec_unchanged() {
        let mut spec = "shards=4; wake_order=window"
            .parse::<LoadControlSpec>()
            .unwrap();
        let before = spec.clone();
        assert!(spec.set("test", "policy", "pid(bogus=1)").is_err());
        assert_eq!(
            spec, before,
            "a rejected value discarded the earlier layers"
        );
        spec.set("test", "policy", "fixed(target=3)").unwrap();
        assert_eq!(spec.policy.to_string(), "fixed(target=3)");
        assert_eq!(spec.shards, Some(4));
    }

    #[test]
    fn wake_order_parses_and_round_trips() {
        let spec = "wake_order=window".parse::<LoadControlSpec>().unwrap();
        assert_eq!(spec.wake_order, Some(WakeOrder::Window));
        assert_eq!(
            spec.to_string(),
            "policy=paper; splitter=even; wake_order=window"
        );
        let spec = "wake_order=fifo".parse::<LoadControlSpec>().unwrap();
        assert_eq!(spec.wake_order, Some(WakeOrder::Fifo));
    }

    #[test]
    fn env_layering_overrides_and_errors_loudly() {
        // Process-wide env mutation (no other test in this crate reads the
        // variables): restore afterwards.
        let saved: Vec<(&str, Option<String>)> = [
            LoadControlSpec::ENV_POLICY,
            LoadControlSpec::ENV_SPLITTER,
            LoadControlSpec::ENV_SHARDS,
            LoadControlSpec::ENV_SAMPLER,
            LoadControlSpec::ENV_WAKE_ORDER,
        ]
        .into_iter()
        .map(|k| (k, std::env::var(k).ok()))
        .collect();

        std::env::set_var(LoadControlSpec::ENV_POLICY, "pid(kp=0.8, ki=0.2)");
        std::env::set_var(LoadControlSpec::ENV_SHARDS, "4");
        std::env::set_var(LoadControlSpec::ENV_WAKE_ORDER, "window");
        std::env::remove_var(LoadControlSpec::ENV_SPLITTER);
        std::env::remove_var(LoadControlSpec::ENV_SAMPLER);
        let spec = LoadControlSpec::default().apply_env().unwrap();
        assert_eq!(spec.policy.to_string(), "pid(kp=0.8, ki=0.2)");
        assert_eq!(spec.shards, Some(4));
        assert_eq!(spec.splitter, ParsedSpec::bare("even"));
        assert_eq!(spec.wake_order, Some(WakeOrder::Window));

        // Malformed wake order names the variable.
        std::env::set_var(LoadControlSpec::ENV_WAKE_ORDER, "lifo");
        match LoadControlSpec::default().apply_env() {
            Err(SpecError::Config { source, .. }) => assert_eq!(source, "LC_WAKE_ORDER"),
            other => panic!("malformed LC_WAKE_ORDER must error, got {other:?}"),
        }
        std::env::remove_var(LoadControlSpec::ENV_WAKE_ORDER);

        // Malformed values surface the variable name, not a silent default.
        for bad in ["not-a-number", "0", "-2", "4.5"] {
            std::env::set_var(LoadControlSpec::ENV_SHARDS, bad);
            match LoadControlSpec::default().apply_env() {
                Err(SpecError::Config { source, .. }) => assert_eq!(source, "LC_SHARDS"),
                other => panic!("LC_SHARDS={bad} must error, got {other:?}"),
            }
        }
        // A well-formed count past the bound parses, and the constructor
        // rejects it.
        std::env::set_var(LoadControlSpec::ENV_SHARDS, "1048576");
        let spec = LoadControlSpec::default().apply_env().unwrap();
        assert!(LoadControl::from_spec(LoadControlConfig::for_capacity(2), &spec).is_err());
        // Unset or blank keeps the spec's value.
        std::env::set_var(LoadControlSpec::ENV_SHARDS, "  ");
        assert_eq!(LoadControlSpec::default().apply_env().unwrap().shards, None);
        std::env::set_var(LoadControlSpec::ENV_SHARDS, "2");
        std::env::set_var(LoadControlSpec::ENV_POLICY, "pid(bogus=1)");
        assert!(matches!(
            LoadControlSpec::default().apply_env(),
            Err(SpecError::UnknownKey { .. })
        ));

        for (k, v) in saved {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }

    #[test]
    fn config_file_reads_from_disk_and_errors_name_the_file() {
        let dir = std::env::temp_dir().join("lc-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("good.lcspec");
        std::fs::write(&path, "policy = fixed(target=3)\nshards = 2\n").unwrap();
        let spec = LoadControlSpec::from_config_file(&path).unwrap();
        assert_eq!(spec.policy.to_string(), "fixed(target=3)");
        assert_eq!(spec.shards, Some(2));

        let missing = dir.join("missing.lcspec");
        match LoadControlSpec::from_config_file(&missing) {
            Err(SpecError::Config { source, .. }) => {
                assert!(source.contains("missing.lcspec"), "{source}");
            }
            other => panic!("missing file must error, got {other:?}"),
        }
    }
}
