//! # lc-spec — one spec grammar, one plugin registry
//!
//! Every pluggable plane of the load-control suite — control policies, target
//! splitters, lock families, load samplers — is selected at runtime by a
//! stable string name.  This crate gives all of them **one** grammar and
//! **one** registry type, so experiment configurations can parameterize any
//! plugin the same way:
//!
//! ```text
//! name                          # bare name: default parameters
//! name(key=value, key=value)    # parameterized construction
//! ```
//!
//! Concretely: `paper`, `hysteresis(alpha=0.3, deadband=2)`,
//! `pid(kp=0.5, ki=0.1)`, `load-weighted(ewma=0.25)`, `fixed(runnable=7)`.
//! A lock family takes no keys, so its spec is its bare name:
//! `ttas-backoff`.
//!
//! [`ParsedSpec`] is the parsed form; its [`std::fmt::Display`] prints the
//! canonical spelling, and `parse → Display → parse` is the identity — a
//! running component can report its exact configuration as a string that
//! reconstructs it.
//!
//! [`Registry`] maps names to parameterized constructors.  Each entry
//! declares the parameter keys it accepts; the registry rejects unknown
//! names *and* unknown keys with a [`SpecError`] that lists what would have
//! been accepted, so a typo in an experiment config fails loudly instead of
//! silently running the default.
//!
//! ```
//! use lc_spec::{ParsedSpec, Registry, SpecEntry, SpecError};
//!
//! #[derive(Debug, PartialEq)]
//! struct Greeter { greeting: String, times: u32 }
//!
//! static GREETERS: Registry<Greeter> = Registry::new(
//!     "greeter",
//!     &[SpecEntry {
//!         name: "hello",
//!         keys: &["times"],
//!         summary: "says hello",
//!         build: |_, spec| Ok(Greeter {
//!             greeting: "hello".into(),
//!             times: spec.param_or("times", 1)?,
//!         }),
//!     }],
//! );
//!
//! let g = GREETERS.build("hello(times=3)").unwrap();
//! assert_eq!(g.times, 3);
//! assert!(matches!(GREETERS.build("hola"), Err(SpecError::UnknownName { .. })));
//! assert!(matches!(GREETERS.build("hello(volume=11)"), Err(SpecError::UnknownKey { .. })));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::str::FromStr;

/// Errors produced while parsing a spec string or constructing a registry
/// entry from one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The input did not match the `name(key=value, ...)` grammar.
    Parse {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The spec named a plugin the registry does not know.
    UnknownName {
        /// The registry's kind label (`"policy"`, `"lock"`, …).
        kind: &'static str,
        /// The unknown name.
        name: String,
        /// Every name the registry does accept.
        known: Vec<&'static str>,
    },
    /// The spec used a parameter key the named entry does not accept.
    UnknownKey {
        /// The registry's kind label.
        kind: &'static str,
        /// The entry the key was offered to.
        name: String,
        /// The rejected key.
        key: String,
        /// Keys the entry does accept (empty = takes no parameters).
        allowed: Vec<&'static str>,
    },
    /// A parameter value failed to parse or was out of range.
    InvalidValue {
        /// The entry being constructed.
        name: String,
        /// The parameter key.
        key: String,
        /// The offending value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A configuration source (env variable, config file) was malformed.
    Config {
        /// The source of the bad configuration (variable name, file path).
        source: String,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { input, reason } => {
                write!(f, "malformed spec {input:?}: {reason}")
            }
            SpecError::UnknownName { kind, name, known } => {
                write!(
                    f,
                    "unknown {kind} {name:?}; registered {kind}s: {}",
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

/// Whether `value` can appear as a parameter value in the grammar (and thus
/// survive a `Display` → [`ParsedSpec::parse`] round trip): non-empty, no
/// `,` `(` `)` `=` or newlines, and no surrounding whitespace (the parser
/// trims it away).
pub fn is_valid_value(value: &str) -> bool {
    !value.is_empty() && value.trim() == value && !value.contains([',', '(', ')', '=', '\n', '\r'])
}

fn parse_err(input: &str, reason: impl Into<String>) -> SpecError {
    SpecError::Parse {
        input: input.to_string(),
        reason: reason.into(),
    }
}

/// A parsed `name(key=value, ...)` spec.
///
/// Parameter order is preserved, so `Display` reproduces the spelling the
/// spec was written with (modulo whitespace) and `parse → Display → parse`
/// is the identity:
///
/// ```
/// use lc_spec::ParsedSpec;
///
/// let spec: ParsedSpec = "hysteresis( alpha = 0.3, deadband=2 )".parse().unwrap();
/// assert_eq!(spec.to_string(), "hysteresis(alpha=0.3, deadband=2)");
/// assert_eq!(spec.to_string().parse::<ParsedSpec>().unwrap(), spec);
/// assert_eq!("paper".parse::<ParsedSpec>().unwrap().to_string(), "paper");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpec {
    name: String,
    params: Vec<(String, String)>,
}

impl ParsedSpec {
    /// A spec with no parameters (prints as the bare name).
    pub fn bare(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Returns `self` with `key=value` appended (builder style, used by
    /// plugins reporting their live configuration).
    ///
    /// The rendered value must satisfy the grammar ([`is_valid_value`]) or
    /// the resulting spec's `Display` output would not reparse; debug builds
    /// assert this.  Callers reporting externally supplied text (e.g. file
    /// paths) should check [`is_valid_value`] first and omit the parameter
    /// when it cannot be represented.
    pub fn with_param(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        let (key, value) = (key.into(), value.to_string());
        debug_assert!(
            key.chars().all(is_name_char) && !key.is_empty(),
            "with_param: invalid key {key:?}"
        );
        debug_assert!(
            is_valid_value(&value),
            "with_param: value {value:?} cannot be represented in the spec grammar"
        );
        self.params.push((key, value));
        self
    }

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

    /// The plugin name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `key=value` parameters, in spelling order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// Whether the spec carries no parameters.
    pub fn is_bare(&self) -> bool {
        self.params.is_empty()
    }

    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
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
    pub fn param_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, SpecError> {
        Ok(self.param(key)?.unwrap_or(default))
    }

    /// An [`SpecError::InvalidValue`] for `key` on this spec — used by
    /// constructors enforcing range constraints the type system cannot.
    pub fn invalid_value(&self, key: &str, reason: impl Into<String>) -> SpecError {
        SpecError::InvalidValue {
            name: self.name.clone(),
            key: key.to_string(),
            value: self.get(key).unwrap_or("<missing>").to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParsedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.params.is_empty() {
            f.write_str("(")?;
            for (i, (k, v)) in self.params.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl FromStr for ParsedSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// One registry entry: a named, parameterized constructor.
///
/// `C` is the construction context (`()` for self-contained plugins; e.g. the
/// thread registry for load samplers).  `keys` is the complete set of
/// parameter keys the constructor accepts — the registry rejects any other
/// key before the constructor runs.
pub struct SpecEntry<T, C = ()> {
    /// Stable plugin name.
    pub name: &'static str,
    /// Every parameter key the constructor accepts.
    pub keys: &'static [&'static str],
    /// One-line description (shown in docs and error listings).
    pub summary: &'static str,
    /// Constructs the plugin from a validated spec.
    pub build: fn(&C, &ParsedSpec) -> Result<T, SpecError>,
}

impl<T, C> fmt::Debug for SpecEntry<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecEntry")
            .field("name", &self.name)
            .field("keys", &self.keys)
            .field("summary", &self.summary)
            .finish()
    }
}

/// A registry of parameterized plugin constructors, all sharing the
/// [`ParsedSpec`] grammar.
///
/// Registries are `static` tables (entries are plain function pointers), so
/// adding a plugin is adding one [`SpecEntry`] — every bench sweep, driver
/// and config file picks it up through the same [`Registry::build`] path.
#[derive(Debug)]
pub struct Registry<T: 'static, C: 'static = ()> {
    kind: &'static str,
    entries: &'static [SpecEntry<T, C>],
}

impl<T, C> Registry<T, C> {
    /// A registry of `entries`, labelled `kind` in error messages
    /// (`"policy"`, `"splitter"`, `"lock"`, `"sampler"`).
    pub const fn new(kind: &'static str, entries: &'static [SpecEntry<T, C>]) -> Self {
        Self { kind, entries }
    }

    /// The registry's kind label.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The registered entries, in stable order.
    pub fn entries(&self) -> &'static [SpecEntry<T, C>] {
        self.entries
    }

    /// Every registered name, in stable order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// The entry registered under `name`, if any.
    pub fn entry(&self, name: &str) -> Option<&'static SpecEntry<T, C>> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// Checks that `spec` names a registered entry and uses only keys that
    /// entry accepts, without constructing anything.
    pub fn validate(&self, spec: &ParsedSpec) -> Result<(), SpecError> {
        let entry = self
            .entry(spec.name())
            .ok_or_else(|| SpecError::UnknownName {
                kind: self.kind,
                name: spec.name().to_string(),
                known: self.names(),
            })?;
        for (key, _) in spec.params() {
            if !entry.keys.contains(&key.as_str()) {
                return Err(SpecError::UnknownKey {
                    kind: self.kind,
                    name: spec.name().to_string(),
                    key: key.clone(),
                    allowed: entry.keys.to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Validates `spec` and runs the matching constructor with `ctx`.
    pub fn build_spec_in(&self, ctx: &C, spec: &ParsedSpec) -> Result<T, SpecError> {
        self.validate(spec)?;
        let entry = self.entry(spec.name()).expect("validated above");
        (entry.build)(ctx, spec)
    }

    /// Parses `input` and constructs the plugin it describes with `ctx`.
    pub fn build_in(&self, ctx: &C, input: &str) -> Result<T, SpecError> {
        self.build_spec_in(ctx, &ParsedSpec::parse(input)?)
    }
}

impl<T> Registry<T> {
    /// Validates `spec` and runs the matching constructor (context-free
    /// registries).
    pub fn build_spec(&self, spec: &ParsedSpec) -> Result<T, SpecError> {
        self.build_spec_in(&(), spec)
    }

    /// Parses `input` and constructs the plugin it describes (context-free
    /// registries).
    pub fn build(&self, input: &str) -> Result<T, SpecError> {
        self.build_in(&(), input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_parse_and_round_trip() {
        for input in ["paper", "load-weighted", "tp_queue", "a.b", "x1"] {
            let spec = ParsedSpec::parse(input).unwrap();
            assert_eq!(spec.name(), input);
            assert!(spec.is_bare());
            assert_eq!(spec.to_string(), input);
            assert_eq!(ParsedSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn empty_parens_are_the_bare_name() {
        let spec = ParsedSpec::parse("paper()").unwrap();
        assert!(spec.is_bare());
        assert_eq!(spec.to_string(), "paper");
        assert_eq!(ParsedSpec::parse("paper(  )").unwrap(), spec);
    }

    #[test]
    fn parameters_preserve_order_and_round_trip() {
        let spec = ParsedSpec::parse("pid(ki=0.1, kp=0.5)").unwrap();
        assert_eq!(spec.name(), "pid");
        assert_eq!(spec.get("ki"), Some("0.1"));
        assert_eq!(spec.get("kp"), Some("0.5"));
        assert_eq!(spec.get("kd"), None);
        assert_eq!(spec.to_string(), "pid(ki=0.1, kp=0.5)");
        assert_eq!(ParsedSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn whitespace_is_insignificant() {
        let canonical = ParsedSpec::parse("hysteresis(alpha=0.3, deadband=2)").unwrap();
        for input in [
            "hysteresis(alpha=0.3,deadband=2)",
            "  hysteresis ( alpha = 0.3 ,  deadband = 2 )  ",
            "hysteresis(alpha=0.3, deadband=2)",
        ] {
            assert_eq!(ParsedSpec::parse(input).unwrap(), canonical, "{input:?}");
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
                ParsedSpec::parse(input).is_err(),
                "{input:?} should not parse"
            );
        }
    }

    #[test]
    fn typed_param_accessors() {
        let spec = ParsedSpec::parse("x(a=2, b=0.25, c=true, d=nope)").unwrap();
        assert_eq!(spec.param_or::<u32>("a", 7).unwrap(), 2);
        assert_eq!(spec.param_or::<f64>("b", 0.0).unwrap(), 0.25);
        assert!(spec.param_or::<bool>("c", false).unwrap());
        assert_eq!(spec.param_or::<u32>("missing", 7).unwrap(), 7);
        assert!(matches!(
            spec.param::<u32>("d"),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn is_valid_value_matches_what_the_parser_accepts() {
        for good in ["1", "0.25", "/proc/self/task", "a-b_c.d:e", "true"] {
            assert!(is_valid_value(good), "{good:?}");
            let spec = ParsedSpec::bare("x").with_param("k", good);
            assert_eq!(
                ParsedSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "{good:?} did not round-trip"
            );
        }
        for bad in ["", " padded ", "a,b", "run(1)", "a=b", "line\nbreak"] {
            assert!(!is_valid_value(bad), "{bad:?} wrongly accepted");
        }
    }

    #[test]
    fn with_param_builder_round_trips() {
        let spec = ParsedSpec::bare("hysteresis")
            .with_param("alpha", 0.5)
            .with_param("up", 1.0)
            .with_param("down", 2.0);
        assert_eq!(spec.to_string(), "hysteresis(alpha=0.5, up=1, down=2)");
        assert_eq!(ParsedSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[derive(Debug, PartialEq)]
    struct Widget {
        size: u32,
    }

    static WIDGETS: Registry<Widget> = Registry::new(
        "widget",
        &[
            SpecEntry {
                name: "cube",
                keys: &["size"],
                summary: "a cube",
                build: |_, spec| {
                    let size = spec.param_or("size", 1)?;
                    if size == 0 {
                        return Err(spec.invalid_value("size", "must be positive"));
                    }
                    Ok(Widget { size })
                },
            },
            SpecEntry {
                name: "point",
                keys: &[],
                summary: "a sizeless point",
                build: |_, _| Ok(Widget { size: 0 }),
            },
        ],
    );

    #[test]
    fn registry_builds_with_defaults_and_params() {
        assert_eq!(WIDGETS.build("cube").unwrap(), Widget { size: 1 });
        assert_eq!(WIDGETS.build("cube()").unwrap(), Widget { size: 1 });
        assert_eq!(WIDGETS.build("cube(size=9)").unwrap(), Widget { size: 9 });
        assert_eq!(WIDGETS.names(), vec!["cube", "point"]);
        assert!(WIDGETS.contains("point"));
        assert!(!WIDGETS.contains("sphere"));
    }

    #[test]
    fn registry_rejects_unknown_names_keys_and_bad_values() {
        match WIDGETS.build("sphere") {
            Err(SpecError::UnknownName { kind, name, known }) => {
                assert_eq!(kind, "widget");
                assert_eq!(name, "sphere");
                assert_eq!(known, vec!["cube", "point"]);
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
        match WIDGETS.build("cube(colour=red)") {
            Err(SpecError::UnknownKey { key, allowed, .. }) => {
                assert_eq!(key, "colour");
                assert_eq!(allowed, vec!["size"]);
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        assert!(matches!(
            WIDGETS.build("point(size=1)"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            WIDGETS.build("cube(size=0)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            WIDGETS.build("cube(size=big)"),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn contextual_registries_thread_their_context() {
        static SCALED: Registry<u64, u64> = Registry::new(
            "scaled",
            &[SpecEntry {
                name: "times",
                keys: &["by"],
                summary: "context multiplied by a factor",
                build: |ctx, spec| Ok(*ctx * spec.param_or("by", 1u64)?),
            }],
        );
        assert_eq!(SCALED.build_in(&6, "times(by=7)").unwrap(), 42);
        assert_eq!(SCALED.build_in(&6, "times").unwrap(), 6);
    }

    #[test]
    fn error_messages_name_the_fix() {
        let msg = WIDGETS.build("sphere").unwrap_err().to_string();
        assert!(msg.contains("cube"), "{msg}");
        let msg = WIDGETS.build("cube(colour=red)").unwrap_err().to_string();
        assert!(msg.contains("size"), "{msg}");
        let msg = WIDGETS.build("point(size=1)").unwrap_err().to_string();
        assert!(msg.contains("no parameters"), "{msg}");
    }
}
