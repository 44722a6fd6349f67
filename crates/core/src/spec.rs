//! The declarative configuration surface of a [`crate::LoadControl`]: one
//! spec grammar, and one [`LoadControlSpec`] parsed from one source, a
//! string.
//!
//! Every set the control plane chooses from is a closed enum — the control
//! policy ([`PolicySpec`]), the shard-target splitter ([`SplitterSpec`]) and
//! the load sampler ([`SamplerSpec`]) — and each is spelled in one
//! `name(key=value, ...)` grammar ([`ParsedSpec`]):
//!
//! ```text
//! paper                              # bare name: default parameters
//! hysteresis(alpha=0.3, deadband=2)  # parameterized
//! load-weighted(ewma=0.25)
//! fixed(runnable=7)
//! ```
//!
//! A `LoadControlSpec` is `key=value` entries for `policy`, `splitter`,
//! `shards`, `sampler` and `wake_order`, separated by `;` or newlines, with
//! `#` starting a comment — so a file of `key = value` lines is read by
//! reading it into a string and parsing that.  Parsing checks every name,
//! key and value: unknown names, unknown keys (the error lists the accepted
//! ones), malformed values and malformed shard counts are explicit
//! [`SpecError`]s, never silent defaults.  The one check left to
//! [`crate::LoadControl::from_spec`] is the shard count's range, which
//! depends on the configuration's `max_sleepers`.  `Display` prints the
//! canonical text, with default parameters left out, and it parses back to
//! an equal spec; [`crate::LoadControl::spec`] reports the spec a control
//! was built from in the same form.
//!
//! ```
//! use lc_core::spec::LoadControlSpec;
//!
//! let spec: LoadControlSpec =
//!     "policy=hysteresis(alpha=0.3, deadband=2); shards=4".parse().unwrap();
//! assert_eq!(spec.policy.to_string(), "hysteresis(alpha=0.3, up=2)");
//! assert_eq!(spec.shards, Some(4));
//! assert_eq!(spec.to_string().parse::<LoadControlSpec>().unwrap(), spec);
//! assert!("policy=no-such-policy".parse::<LoadControlSpec>().is_err());
//! assert!("shards=zero".parse::<LoadControlSpec>().is_err());
//! ```

use crate::config::WakeOrder;
pub use crate::policy::{PolicySpec, SplitterSpec};
use lc_accounting::sampler::FixedLoadSampler;
use lc_accounting::{
    HardenedProcfsSampler, LoadSampler, ProcfsLoadSampler, RegistryLoadSampler, ThreadRegistry,
};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Errors produced while parsing a spec string or building from one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The input did not match the `name(key=value, ...)` grammar.
    Parse {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The spec named a member its set does not have.
    UnknownName {
        /// The set's label (`"policy"`, `"splitter"`, `"sampler"`).
        kind: &'static str,
        /// The unknown name.
        name: String,
        /// Every name the set does have.
        known: Vec<&'static str>,
    },
    /// The spec used a parameter key the named member does not accept.
    UnknownKey {
        /// The set's label.
        kind: &'static str,
        /// The member the key was offered to.
        name: String,
        /// The rejected key.
        key: String,
        /// Keys the member does accept (empty = takes no parameters).
        allowed: Vec<&'static str>,
    },
    /// A parameter value failed to parse or was out of range.
    InvalidValue {
        /// The member being specified.
        name: String,
        /// The parameter key.
        key: String,
        /// The offending value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A [`LoadControlSpec`] entry was malformed, or its shard count is out
    /// of range for the configuration.
    Config {
        /// Where the bad entry came from (`spec`, or the key `shards`).
        source: String,
        /// What was wrong.
        reason: String,
    },
}

impl SpecError {
    /// An [`SpecError::UnknownName`] for `name` in the set `kind`.
    pub(crate) fn unknown_name(kind: &'static str, name: &str, known: &[&'static str]) -> Self {
        SpecError::UnknownName {
            kind,
            name: name.to_string(),
            known: known.to_vec(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { input, reason } => {
                write!(f, "malformed spec {input:?}: {reason}")
            }
            SpecError::UnknownName { kind, name, known } => {
                let kinds = match *kind {
                    "policy" => "policies",
                    "splitter" => "splitters",
                    "sampler" => "samplers",
                    other => other,
                };
                write!(
                    f,
                    "unknown {kind} {name:?}; registered {kinds}: {}",
                    known.join(", ")
                )
            }
            SpecError::UnknownKey {
                kind,
                name,
                key,
                allowed,
            } => {
                if allowed.is_empty() {
                    write!(f, "{kind} {name:?} takes no parameters (got {key:?})")
                } else {
                    write!(
                        f,
                        "{kind} {name:?} does not accept key {key:?}; accepted keys: {}",
                        allowed.join(", ")
                    )
                }
            }
            SpecError::InvalidValue {
                name,
                key,
                value,
                reason,
            } => {
                write!(f, "{name}: invalid value {value:?} for {key}: {reason}")
            }
            SpecError::Config { source, reason } => {
                write!(f, "{source}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'
}

fn parse_err(input: &str, reason: impl Into<String>) -> SpecError {
    SpecError::Parse {
        input: input.to_string(),
        reason: reason.into(),
    }
}

/// A parsed `name(key=value, ...)` spec: the grammar every set shares.
///
/// Parameter order is preserved, so `Display` reproduces the spelling the
/// spec was written with (modulo whitespace) and `parse → Display → parse`
/// is the identity:
///
/// ```
/// use lc_core::spec::ParsedSpec;
///
/// let spec: ParsedSpec = "hysteresis( alpha = 0.3, deadband=2 )".parse().unwrap();
/// assert_eq!(spec.to_string(), "hysteresis(alpha=0.3, deadband=2)");
/// assert_eq!(spec.to_string().parse::<ParsedSpec>().unwrap(), spec);
/// assert_eq!("paper()".parse::<ParsedSpec>().unwrap().to_string(), "paper");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpec {
    name: String,
    params: Vec<(String, String)>,
}

impl ParsedSpec {
    /// Parses a spec from the `name(key=value, ...)` grammar.
    ///
    /// Accepted names and keys are `[A-Za-z0-9._-]+`; values are any
    /// non-empty text without `,`, `(`, `)`, `=` or newlines.  Whitespace
    /// around every token is ignored.  `name()` is equivalent to `name`.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Err(parse_err(input, "empty spec"));
        }
        let (name, rest) = match trimmed.find('(') {
            None => (trimmed, None),
            Some(open) => {
                let (name, parens) = trimmed.split_at(open);
                let Some(body) = parens.strip_prefix('(').and_then(|p| p.strip_suffix(')')) else {
                    return Err(parse_err(input, "expected spec to end with ')'"));
                };
                (name.trim_end(), Some(body))
            }
        };
        if name.is_empty() {
            return Err(parse_err(input, "missing name before '('"));
        }
        if let Some(bad) = name.chars().find(|&c| !is_name_char(c)) {
            return Err(parse_err(
                input,
                format!("invalid character {bad:?} in name {name:?}"),
            ));
        }
        let mut params = Vec::new();
        if let Some(body) = rest {
            if !body.trim().is_empty() {
                for pair in body.split(',') {
                    let pair = pair.trim();
                    let Some((key, value)) = pair.split_once('=') else {
                        return Err(parse_err(
                            input,
                            format!("expected key=value, got {pair:?}"),
                        ));
                    };
                    let (key, value) = (key.trim(), value.trim());
                    if key.is_empty() || key.chars().any(|c| !is_name_char(c)) {
                        return Err(parse_err(input, format!("invalid key {key:?}")));
                    }
                    if value.is_empty() {
                        return Err(parse_err(input, format!("empty value for key {key:?}")));
                    }
                    if value.contains(['(', ')', '=']) {
                        return Err(parse_err(input, format!("invalid value {value:?}")));
                    }
                    if params.iter().any(|(k, _)| k == key) {
                        return Err(parse_err(input, format!("duplicate key {key:?}")));
                    }
                    params.push((key.to_string(), value.to_string()));
                }
            }
        }
        Ok(Self {
            name: name.to_string(),
            params,
        })
    }

    /// The name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `key=value` parameters, in spelling order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Refuses any key outside `keys`, the keys that the member of the set
    /// `kind` named by this spec accepts.
    pub(crate) fn expect_keys(
        &self,
        kind: &'static str,
        keys: &[&'static str],
    ) -> Result<(), SpecError> {
        match self
            .params
            .iter()
            .find(|(k, _)| !keys.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((key, _)) => Err(SpecError::UnknownKey {
                kind,
                name: self.name.clone(),
                key: key.clone(),
                allowed: keys.to_vec(),
            }),
        }
    }

    /// Parses the value of `key` as a `T`, or `None` when absent.
    pub fn param<T: FromStr>(&self, key: &str) -> Result<Option<T>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| SpecError::InvalidValue {
                    name: self.name.clone(),
                    key: key.to_string(),
                    value: raw.to_string(),
                    reason: format!("expected a {}", std::any::type_name::<T>()),
                }),
        }
    }

    /// Parses the value of `key` as a `T`, falling back to `default` when the
    /// key is absent.
    pub(crate) fn param_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, SpecError> {
        Ok(self.param(key)?.unwrap_or(default))
    }

    /// An [`SpecError::InvalidValue`] for `key` on this spec, for range
    /// constraints the type system cannot express.
    pub(crate) fn invalid_value(&self, key: &str, reason: impl Into<String>) -> SpecError {
        SpecError::InvalidValue {
            name: self.name.clone(),
            key: key.to_string(),
            value: self.get(key).unwrap_or("<missing>").to_string(),
            reason: reason.into(),
        }
    }
}

/// Writes `name` and those of its `key=value` parameters that are present,
/// in the grammar's spelling: the bare name when none is.
pub(crate) fn write_spec<'a>(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    params: impl IntoIterator<Item = Option<(&'a str, String)>>,
) -> fmt::Result {
    f.write_str(name)?;
    let mut open = false;
    for (key, value) in params.into_iter().flatten() {
        f.write_str(if open { ", " } else { "(" })?;
        open = true;
        write!(f, "{key}={value}")?;
    }
    if open {
        f.write_str(")")?;
    }
    Ok(())
}

/// `(key, value)` when `value` differs from `default`: canonical text
/// leaves default parameters out.
pub(crate) fn non_default<T: PartialEq + fmt::Display>(
    key: &'static str,
    value: T,
    default: T,
) -> Option<(&'static str, String)> {
    (value != default).then(|| (key, value.to_string()))
}

impl fmt::Display for ParsedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self
            .params
            .iter()
            .map(|(k, v)| Some((k.as_str(), v.clone())));
        write_spec(f, &self.name, params)
    }
}

impl FromStr for ParsedSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Names of every load sampler, in the order of [`SamplerSpec::ALL`] (a
/// test checks the two agree).
pub const ALL_SAMPLER_NAMES: &[&str] = &["registry", "fixed", "procfs", "procfs-hardened"];

/// The procfs-hardened sampler's default failure cooldown, in milliseconds.
const DEFAULT_COOLDOWN_MS: u64 = HardenedProcfsSampler::DEFAULT_COOLDOWN.as_millis() as u64;

/// A load sampler by name and parameters: how the controller measures
/// demand.
///
/// ```
/// use lc_core::spec::SamplerSpec;
/// use lc_accounting::ThreadRegistry;
/// use std::sync::Arc;
///
/// let spec: SamplerSpec = "fixed(runnable=7)".parse().unwrap();
/// assert_eq!(spec, SamplerSpec::Fixed { runnable: 7 });
/// let sampler = spec.build(&Arc::new(ThreadRegistry::new())).unwrap();
/// assert_eq!(sampler.sample(), 7);
/// assert!("fixed(bogus=1)".parse::<SamplerSpec>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SamplerSpec {
    /// `registry`: the in-process thread registry (precise, cheap; the
    /// default).
    #[default]
    Registry,
    /// `fixed(runnable=N)`: a constant runnable count (tests, the bump
    /// harness).
    Fixed {
        /// The count every sample reports.
        runnable: usize,
    },
    /// `procfs(root=PATH)`: task states under `/proc/self/task`, or under
    /// `root`; sees unregistered threads too.
    Procfs {
        /// The task directory, when not `/proc/self/task`.
        root: Option<String>,
    },
    /// `procfs-hardened(root=PATH, cooldown_ms=N)`: procfs with the registry
    /// as fallback and a cooldown after a failed walk.
    ProcfsHardened {
        /// The task directory, when not `/proc/self/task`.
        root: Option<String>,
        /// Milliseconds between procfs re-probes after a failure.
        cooldown_ms: u64,
    },
    /// A sampler put in place through [`crate::Substitutes`], reported by
    /// its [`LoadSampler::name`].  No text parses to it and nothing builds
    /// it.
    Substitute(&'static str),
}

impl SamplerSpec {
    /// Every sampler a spec can name, each with its default parameters.
    pub const ALL: [SamplerSpec; 4] = [
        SamplerSpec::Registry,
        SamplerSpec::Fixed { runnable: 0 },
        SamplerSpec::Procfs { root: None },
        SamplerSpec::ProcfsHardened {
            root: None,
            cooldown_ms: DEFAULT_COOLDOWN_MS,
        },
    ];

    /// The sampler's name.
    pub fn name(&self) -> &'static str {
        match self {
            SamplerSpec::Registry => "registry",
            SamplerSpec::Fixed { .. } => "fixed",
            SamplerSpec::Procfs { .. } => "procfs",
            SamplerSpec::ProcfsHardened { .. } => "procfs-hardened",
            SamplerSpec::Substitute(name) => name,
        }
    }

    /// Builds the sampler over `registry`, the thread registry the control
    /// counts.  A [`SamplerSpec::Substitute`] is an unknown name here.
    pub fn build(&self, registry: &Arc<ThreadRegistry>) -> Result<Box<dyn LoadSampler>, SpecError> {
        let procfs = |root: &Option<String>| match root {
            Some(root) => ProcfsLoadSampler::with_root(root),
            None => ProcfsLoadSampler::new(),
        };
        Ok(match self {
            SamplerSpec::Registry => Box::new(RegistryLoadSampler::new(Arc::clone(registry))),
            SamplerSpec::Fixed { runnable } => Box::new(FixedLoadSampler {
                runnable: *runnable,
            }),
            SamplerSpec::Procfs { root } => Box::new(procfs(root)),
            SamplerSpec::ProcfsHardened { root, cooldown_ms } => {
                Box::new(HardenedProcfsSampler::with_cooldown(
                    procfs(root),
                    Box::new(RegistryLoadSampler::new(Arc::clone(registry))),
                    Duration::from_millis(*cooldown_ms),
                ))
            }
            SamplerSpec::Substitute(name) => {
                return Err(SpecError::unknown_name("sampler", name, ALL_SAMPLER_NAMES))
            }
        })
    }
}

impl FromStr for SamplerSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const KIND: &str = "sampler";
        let spec = ParsedSpec::parse(s)?;
        let root = || spec.get("root").map(str::to_string);
        match spec.name() {
            "registry" => {
                spec.expect_keys(KIND, &[])?;
                Ok(SamplerSpec::Registry)
            }
            "fixed" => {
                spec.expect_keys(KIND, &["runnable"])?;
                Ok(SamplerSpec::Fixed {
                    runnable: spec.param_or("runnable", 0)?,
                })
            }
            "procfs" => {
                spec.expect_keys(KIND, &["root"])?;
                Ok(SamplerSpec::Procfs { root: root() })
            }
            "procfs-hardened" => {
                spec.expect_keys(KIND, &["root", "cooldown_ms"])?;
                Ok(SamplerSpec::ProcfsHardened {
                    root: root(),
                    cooldown_ms: spec.param_or("cooldown_ms", DEFAULT_COOLDOWN_MS)?,
                })
            }
            name => Err(SpecError::unknown_name(KIND, name, ALL_SAMPLER_NAMES)),
        }
    }
}

impl fmt::Display for SamplerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let root = |root: &Option<String>| root.clone().map(|root| ("root", root));
        match self {
            SamplerSpec::Registry | SamplerSpec::Substitute(_) => write_spec(f, self.name(), []),
            // A fixed sampler always names its constant.
            SamplerSpec::Fixed { runnable } => {
                write_spec(f, self.name(), [Some(("runnable", runnable.to_string()))])
            }
            SamplerSpec::Procfs { root: r } => write_spec(f, self.name(), [root(r)]),
            SamplerSpec::ProcfsHardened {
                root: r,
                cooldown_ms,
            } => write_spec(
                f,
                self.name(),
                [
                    root(r),
                    non_default("cooldown_ms", *cooldown_ms, DEFAULT_COOLDOWN_MS),
                ],
            ),
        }
    }
}

/// A declarative description of a whole [`crate::LoadControl`] control
/// plane: the policy, the splitter, the shard count, the sampler and the
/// wake order.
///
/// `shards`, `sampler` and `wake_order` are optional: `None` means "not
/// specified" — [`crate::LoadControl::from_spec`] keeps the configuration's
/// shard count, the registry sampler and the paper's `fifo` wake order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadControlSpec {
    /// The control policy (default: `paper`).
    pub policy: PolicySpec,
    /// The shard-target splitter (default: `even`).
    pub splitter: SplitterSpec,
    /// Slot-buffer shard count, or `None` to keep the configuration's
    /// (rounded up to a power of two at build time).
    pub shards: Option<usize>,
    /// The load sampler, or `None` for the default registry sampler.
    pub sampler: Option<SamplerSpec>,
    /// The controller wake order (`fifo` or `window`), or `None` for the
    /// paper's array-order `fifo`.
    pub wake_order: Option<WakeOrder>,
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
/// `splitter`, `shards`, `sampler` and `wake_order`, each at most once; every
/// value is checked as it is parsed.  Unset keys keep their defaults.
impl FromStr for LoadControlSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let refused = |reason: String| SpecError::Config {
            source: "spec".to_string(),
            reason,
        };
        let mut spec = Self::default();
        let mut seen: Vec<&str> = Vec::new();
        for line in s.lines() {
            let line = line.split('#').next().unwrap_or("");
            for entry in line.split(';') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                // A key is a bare name: text such as `pid(kp` before the
                // first `=` means the entry lost its key, not that it named
                // an unknown one.
                let Some((key, value)) = entry
                    .split_once('=')
                    .map(|(key, value)| (key.trim(), value.trim()))
                    .filter(|(key, _)| !key.is_empty() && key.chars().all(is_name_char))
                else {
                    return Err(refused(format!("expected key=value, got {entry:?}")));
                };
                if seen.contains(&key) {
                    return Err(refused(format!("duplicate key {key:?}")));
                }
                seen.push(key);
                match key {
                    "policy" => spec.policy = value.parse()?,
                    "splitter" => spec.splitter = value.parse()?,
                    "sampler" => spec.sampler = Some(value.parse()?),
                    "shards" => {
                        spec.shards = Some(match value.parse::<usize>() {
                            Ok(n) if n >= 1 => n,
                            Ok(_) => return Err(refused("shard count must be at least 1".into())),
                            Err(_) => {
                                return Err(refused(format!(
                                    "invalid shard count {value:?}: expected a positive integer"
                                )))
                            }
                        })
                    }
                    "wake_order" => {
                        spec.wake_order = Some(WakeOrder::parse(value).ok_or_else(|| {
                            refused(format!(
                                "invalid wake order {value:?}: expected fifo or window"
                            ))
                        })?)
                    }
                    _ => {
                        return Err(refused(format!(
                            "unknown key {key:?}; accepted keys: policy, splitter, shards, \
                             sampler, wake_order"
                        )))
                    }
                }
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_paper_setup() {
        let spec = LoadControlSpec::default();
        assert_eq!(spec.policy, PolicySpec::Paper);
        assert_eq!(spec.splitter, SplitterSpec::Even);
        assert_eq!(spec.shards, None, "shards must default to unspecified");
        assert_eq!(spec.sampler, None);
        assert_eq!(spec.wake_order, None);
        assert_eq!(spec.to_string(), "policy=paper; splitter=even");
    }

    #[test]
    fn parse_display_round_trip_is_identity() {
        for input in [
            "policy=pid(kp=0.8, ki=0.2); splitter=load-weighted(ewma=0.25); shards=4",
            "policy=hysteresis(alpha=0.3, deadband=2); shards=2; sampler=fixed(runnable=9)",
            "policy=latency(target_p99=20); wake_order=window",
            "policy=autotune(inner=hysteresis, objective=p99); wake_order=fifo",
            "sampler=procfs-hardened(root=/tmp/proc, cooldown_ms=250)",
        ] {
            let spec = input.parse::<LoadControlSpec>().unwrap();
            let rendered = spec.to_string();
            assert_eq!(
                rendered.parse::<LoadControlSpec>().unwrap(),
                spec,
                "{input}"
            );
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for input in [
            "",
            "   ",
            "(x=1)",
            "name(",
            "name)x",
            "name(x=1",
            "name(x=1) trailing",
            "name(x)",
            "name(=1)",
            "name(x=)",
            "name(x=1,)",
            "name(x=1, x=2)",
            "na me",
            "name(x=(1))",
            "name(x=a=b)",
            "name(k!=v)",
        ] {
            assert!(
                matches!(ParsedSpec::parse(input), Err(SpecError::Parse { .. })),
                "{input:?} should not parse"
            );
        }
    }

    #[test]
    fn every_sampler_builds_and_samples_the_control_registry() {
        let registry = Arc::new(ThreadRegistry::new());
        let _handle = registry.register();
        for spec in SamplerSpec::ALL {
            let sampler = spec.build(&registry).unwrap();
            assert_eq!(sampler.name(), spec.name());
        }
        let sample = |text: &str| {
            let spec: SamplerSpec = text.parse().unwrap();
            spec.build(&registry).unwrap().sample()
        };
        assert_eq!(sample("registry"), 1);
        assert_eq!(sample("fixed(runnable=9)"), 9);
        // A missing procfs root degrades: to zero raw, to the registry
        // hardened.
        assert_eq!(sample("procfs(root=/definitely/not/a/dir)"), 0);
        assert_eq!(sample("procfs-hardened(root=/definitely/not/a/dir)"), 1);
        assert!(matches!(
            SamplerSpec::Substitute("des").build(&registry),
            Err(SpecError::UnknownName { .. })
        ));
    }
}
