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
//!   `LC_SAMPLER`, `LC_WAKE_ORDER`; [`LoadControlSpec::from_env`]), or
//! * the builder, programmatically.
//!
//! Every source is validated against the registries at parse time: unknown
//! policy/splitter/sampler names, unknown parameter keys and malformed shard
//! counts are explicit [`SpecError`]s, never silent defaults.  `Display`
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
pub fn parse_shards_value(source: &str, value: &str) -> Result<usize, SpecError> {
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

/// A declarative description of a whole [`crate::LoadControl`] control
/// plane.
///
/// Field specs use the shared `name(key=value)` grammar and are validated
/// against [`POLICY_SPECS`], [`SPLITTER_SPECS`] and [`SAMPLER_SPECS`] when
/// the `LoadControlSpec` is parsed or its setters are used.  `shards` and
/// `sampler` are optional: `None` means "not specified by this source" —
/// the builder keeps whatever shard count its configuration already has and
/// uses the default registry-backed sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadControlSpec {
    /// The control policy (default: `paper`).
    pub policy: ParsedSpec,
    /// The shard-target splitter (default: `even`).
    pub splitter: ParsedSpec,
    /// Slot-buffer shard count, or `None` to keep the configuration's
    /// (values are rounded to a power of two at build time, exactly like
    /// [`crate::LoadControlConfig::with_shards`]).
    pub shards: Option<usize>,
    /// The load sampler, or `None` for the default registry sampler.
    pub sampler: Option<ParsedSpec>,
    /// The controller wake order (`fifo` or `window`), or `None` to keep the
    /// configuration's (array-order `fifo`).
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
    /// Environment variable holding the shard count (the same variable
    /// [`crate::LoadControlConfig::SHARDS_ENV`] reads — one source of
    /// truth).
    pub const ENV_SHARDS: &'static str = crate::LoadControlConfig::SHARDS_ENV;
    /// Environment variable holding the load-sampler spec.
    pub const ENV_SAMPLER: &'static str = "LC_SAMPLER";
    /// Environment variable holding the controller wake order (`fifo` or
    /// `window`).
    pub const ENV_WAKE_ORDER: &'static str = "LC_WAKE_ORDER";

    /// The default spec: `paper` policy, `even` splitter, one shard, registry
    /// sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `self` with the policy set from `spec`, validated against
    /// [`POLICY_SPECS`].
    pub fn with_policy(mut self, spec: &str) -> Result<Self, SpecError> {
        let parsed = ParsedSpec::parse(spec)?;
        POLICY_SPECS.validate(&parsed)?;
        self.policy = parsed;
        Ok(self)
    }

    /// Returns `self` with the splitter set from `spec`, validated against
    /// [`SPLITTER_SPECS`].
    pub fn with_splitter(mut self, spec: &str) -> Result<Self, SpecError> {
        let parsed = ParsedSpec::parse(spec)?;
        SPLITTER_SPECS.validate(&parsed)?;
        self.splitter = parsed;
        Ok(self)
    }

    /// Returns `self` with the sampler set from `spec`, validated against
    /// [`SAMPLER_SPECS`].
    pub fn with_sampler(mut self, spec: &str) -> Result<Self, SpecError> {
        let parsed = ParsedSpec::parse(spec)?;
        SAMPLER_SPECS.validate(&parsed)?;
        self.sampler = Some(parsed);
        Ok(self)
    }

    /// Returns `self` with `shards` slot-buffer shards (must be ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Returns `self` with the controller wake order set.
    pub fn with_wake_order(mut self, order: WakeOrder) -> Self {
        self.wake_order = Some(order);
        self
    }

    fn parse_wake_order(source: &str, value: &str) -> Result<WakeOrder, SpecError> {
        WakeOrder::parse(value.trim()).ok_or_else(|| SpecError::Config {
            source: source.to_string(),
            reason: format!("invalid wake order {value:?}: expected fifo or window"),
        })
    }

    fn set(&mut self, source: &str, key: &str, value: &str) -> Result<(), SpecError> {
        let staged = std::mem::take(self);
        *self = match key {
            "policy" => staged.with_policy(value)?,
            "splitter" => staged.with_splitter(value)?,
            "sampler" => staged.with_sampler(value)?,
            "shards" => staged.with_shards(parse_shards_value(source, value)?),
            "wake_order" => staged.with_wake_order(Self::parse_wake_order(source, value)?),
            _ => {
                *self = staged;
                return Err(SpecError::Config {
                    source: source.to_string(),
                    reason: format!(
                        "unknown key {key:?}; accepted keys: policy, splitter, shards, \
                         sampler, wake_order"
                    ),
                });
            }
        };
        Ok(())
    }

    /// Parses a spec from its string form: `key=value` entries separated by
    /// `;` or newlines, with `#` starting a comment.  Accepted keys are
    /// `policy`, `splitter`, `shards`, `sampler` and `wake_order`; every
    /// value is validated against its registry.  Unset keys keep their
    /// defaults.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        Self::parse_from(input, "spec")
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

    /// The default spec with the `LC_POLICY`, `LC_SPLITTER`, `LC_SHARDS`,
    /// `LC_SAMPLER` and `LC_WAKE_ORDER` environment variables applied.  A malformed variable is an explicit error, never a silent
    /// fall-back to the default.
    pub fn from_env() -> Result<Self, SpecError> {
        Self::default().apply_env()
    }

    /// Returns `self` with any set `LC_*` environment variables layered on
    /// top (unset or empty variables keep the current values).  A malformed
    /// variable is an explicit error naming the variable.
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

impl FromStr for LoadControlSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Serializes tests that mutate the process-global `LC_*` environment
/// variables (they race otherwise: the test harness runs threads in
/// parallel).
#[cfg(test)]
pub(crate) static ENV_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

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
            let spec = LoadControlSpec::parse(input).unwrap();
            let rendered = spec.to_string();
            assert_eq!(LoadControlSpec::parse(&rendered).unwrap(), spec, "{input}");
        }
    }

    #[test]
    fn config_file_form_parses_with_comments() {
        let spec = LoadControlSpec::parse(
            "# experiment: smooth convergence\n\
             policy = pid(kp=0.5, ki=0.1)   # showcase parameterized entry\n\
             \n\
             splitter = load-weighted(ewma=0.25)\n\
             shards = 4\n",
        )
        .unwrap();
        assert_eq!(spec.policy.to_string(), "pid(kp=0.5, ki=0.1)");
        assert_eq!(spec.splitter.to_string(), "load-weighted(ewma=0.25)");
        assert_eq!(spec.shards, Some(4));
    }

    #[test]
    fn unknown_names_keys_and_values_are_explicit_errors() {
        assert!(matches!(
            LoadControlSpec::parse("policy=no-such-policy"),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            LoadControlSpec::parse("policy=pid(gain=2)"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            LoadControlSpec::parse("brightness=11"),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            LoadControlSpec::parse("shards=zero"),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            LoadControlSpec::parse("shards=0"),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            LoadControlSpec::parse("policy=paper; policy=fixed"),
            Err(SpecError::Config { .. })
        ));
        match LoadControlSpec::parse("topology=mesh") {
            Err(SpecError::Config { reason, .. }) => assert!(
                reason.ends_with("policy, splitter, shards, sampler, wake_order"),
                "an unknown key must list the accepted ones: {reason}"
            ),
            other => panic!("expected an unknown-key error, got {other:?}"),
        }
        assert!(matches!(
            LoadControlSpec::parse("policy"),
            Err(SpecError::Config { .. })
        ));
        assert!(matches!(
            LoadControlSpec::parse("wake_order=lifo"),
            Err(SpecError::Config { .. })
        ));
    }

    #[test]
    fn wake_order_parses_and_round_trips() {
        let spec = LoadControlSpec::parse("wake_order=window").unwrap();
        assert_eq!(spec.wake_order, Some(WakeOrder::Window));
        assert_eq!(
            spec.to_string(),
            "policy=paper; splitter=even; wake_order=window"
        );
        let spec = LoadControlSpec::parse("wake_order=fifo").unwrap();
        assert_eq!(spec.wake_order, Some(WakeOrder::Fifo));
    }

    #[test]
    fn env_layering_overrides_and_errors_loudly() {
        let _env = ENV_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Process-wide env mutation: restore afterwards.
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
        let spec = LoadControlSpec::from_env().unwrap();
        assert_eq!(spec.policy.to_string(), "pid(kp=0.8, ki=0.2)");
        assert_eq!(spec.shards, Some(4));
        assert_eq!(spec.splitter, ParsedSpec::bare("even"));
        assert_eq!(spec.wake_order, Some(WakeOrder::Window));

        // Malformed wake order names the variable.
        std::env::set_var(LoadControlSpec::ENV_WAKE_ORDER, "lifo");
        match LoadControlSpec::from_env() {
            Err(SpecError::Config { source, .. }) => assert_eq!(source, "LC_WAKE_ORDER"),
            other => panic!("malformed LC_WAKE_ORDER must error, got {other:?}"),
        }
        std::env::remove_var(LoadControlSpec::ENV_WAKE_ORDER);

        // Malformed values surface the variable name, not a silent default.
        std::env::set_var(LoadControlSpec::ENV_SHARDS, "not-a-number");
        match LoadControlSpec::from_env() {
            Err(SpecError::Config { source, .. }) => assert_eq!(source, "LC_SHARDS"),
            other => panic!("malformed LC_SHARDS must error, got {other:?}"),
        }
        std::env::set_var(LoadControlSpec::ENV_SHARDS, "2");
        std::env::set_var(LoadControlSpec::ENV_POLICY, "pid(bogus=1)");
        assert!(matches!(
            LoadControlSpec::from_env(),
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
