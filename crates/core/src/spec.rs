//! Canonical, owned run specifications — the cache key and wire form
//! of a [`Driver`](crate::driver::Driver) run.
//!
//! A configured [`Driver`](crate::driver::Driver) holds trait objects
//! (fault models, topologies) and may carry closures (custom stop
//! predicates), so it can be neither hashed nor serialized. A
//! [`RunSpecKey`] is the owned, wire-expressible subset: every field is
//! plain data, presets are referenced *by name* (resolved against
//! `lpt_workloads::scenarios` by the consumer), and the whole key has
//! `Eq + Hash` plus a canonical string encoding that round-trips
//! exactly ([`RunSpecKey::canonical`] / [`RunSpecKey::parse`]).
//!
//! Because a run is a pure function of its spec (see the determinism
//! contract in `gossip-sim`), two equal keys denote byte-identical
//! reports — which is exactly the property that makes the `lpt-server`
//! report cache *exact* rather than heuristic. Anything that would make
//! two different runs compare equal (or one run encode two ways) is a
//! cache-poisoning bug, so the encoding is versioned (`spec-v1`),
//! field-ordered, and covered by round-trip tests.
//!
//! Floating-point parameters (the accelerated exponent, the doubling
//! budget factor) are keyed by their IEEE-754 **bit pattern**
//! ([`F64Key`]): bitwise identity is the only equality under which
//! "equal keys ⇒ identical runs" holds for floats.

use gossip_sim::event::Engine;
use gossip_sim::export::ErrorCode;
use gossip_sim::RngSchedule;
use std::fmt;

/// Version tag leading every canonical spec string. Bump (and keep the
/// old parser) whenever the grammar changes incompatibly.
pub const SPEC_VERSION: &str = "spec-v1";

// ---------------------------------------------------------------------------
// F64Key
// ---------------------------------------------------------------------------

/// An `f64` keyed by bit pattern, so it can sit in `Eq + Hash` spec
/// keys. Displays (and parses) as the shortest round-tripping decimal,
/// which Rust's `f64` formatter guarantees — the string form is as
/// stable as the bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct F64Key(u64);

impl F64Key {
    /// Keys a float (must be finite — NaN payloads and infinities have
    /// no canonical text form).
    pub fn new(v: f64) -> Option<F64Key> {
        if v.is_finite() {
            Some(F64Key(v.to_bits()))
        } else {
            None
        }
    }

    /// The keyed value.
    pub fn value(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl fmt::Display for F64Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.value())
    }
}

impl std::str::FromStr for F64Key {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        s.parse::<f64>()
            .ok()
            .and_then(F64Key::new)
            .ok_or_else(|| SpecError::BadValue {
                field: "f64",
                value: s.to_string(),
            })
    }
}

// ---------------------------------------------------------------------------
// AlgorithmSpec / StopSpec
// ---------------------------------------------------------------------------

/// Wire-expressible algorithm selection (the paper-default knobs of
/// each family; bespoke `LowLoadConfig`/`HighLoadConfig` tuning stays
/// an in-process API).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmSpec {
    /// The Low-Load Clarkson Algorithm with default knobs.
    LowLoad,
    /// The High-Load Clarkson Algorithm with default knobs (`C = 1`).
    HighLoad,
    /// The accelerated High-Load variant with exponent `ε`.
    Accelerated(F64Key),
    /// The analytic hypercube-emulated baseline.
    Hypercube,
    /// The distributed hitting-set algorithm with size bound `d`.
    HittingSet {
        /// Upper bound on the optimum hitting-set size.
        d: u64,
    },
}

impl AlgorithmSpec {
    /// Canonical encoding (`low-load`, `accelerated:0.5`,
    /// `hitting-set:3`, ...).
    pub fn canonical(&self) -> String {
        match self {
            AlgorithmSpec::LowLoad => "low-load".to_string(),
            AlgorithmSpec::HighLoad => "high-load".to_string(),
            AlgorithmSpec::Accelerated(eps) => format!("accelerated:{eps}"),
            AlgorithmSpec::Hypercube => "hypercube".to_string(),
            AlgorithmSpec::HittingSet { d } => format!("hitting-set:{d}"),
        }
    }

    /// Parses the canonical encoding.
    pub fn parse(s: &str) -> Result<AlgorithmSpec, SpecError> {
        let bad = || SpecError::BadValue {
            field: "algorithm",
            value: s.to_string(),
        };
        match s.split_once(':') {
            None => match s {
                "low-load" => Ok(AlgorithmSpec::LowLoad),
                "high-load" => Ok(AlgorithmSpec::HighLoad),
                "hypercube" => Ok(AlgorithmSpec::Hypercube),
                _ => Err(bad()),
            },
            Some(("accelerated", eps)) => {
                Ok(AlgorithmSpec::Accelerated(eps.parse().map_err(|_| bad())?))
            }
            Some(("hitting-set", d)) => Ok(AlgorithmSpec::HittingSet {
                d: d.parse().map_err(|_| bad())?,
            }),
            Some(_) => Err(bad()),
        }
    }
}

/// Wire-expressible stop conditions.
///
/// [`StopCondition::FirstSolution`](crate::driver::StopCondition) and
/// custom predicates carry problem-typed values / closures and are
/// deliberately not encodable: a cache key must fully determine the
/// run from plain data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopSpec {
    /// Run until every node has output and halted.
    FullTermination,
    /// Stop after exactly this many rounds.
    RoundBudget(u64),
}

impl StopSpec {
    /// Canonical encoding (`full` or `budget:N`).
    pub fn canonical(&self) -> String {
        match self {
            StopSpec::FullTermination => "full".to_string(),
            StopSpec::RoundBudget(r) => format!("budget:{r}"),
        }
    }

    /// Parses the canonical encoding.
    pub fn parse(s: &str) -> Result<StopSpec, SpecError> {
        let bad = || SpecError::BadValue {
            field: "stop",
            value: s.to_string(),
        };
        match s.split_once(':') {
            None if s == "full" => Ok(StopSpec::FullTermination),
            Some(("budget", r)) => Ok(StopSpec::RoundBudget(r.parse().map_err(|_| bad())?)),
            _ => Err(bad()),
        }
    }
}

// ---------------------------------------------------------------------------
// RunSpecKey
// ---------------------------------------------------------------------------

/// The canonical, owned key of one driver run: workload + algorithm +
/// network + stop + environment, all as plain data. See the
/// [module docs](self) for why `Eq` on this type certifies
/// byte-identical reports.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunSpecKey {
    /// Workload preset name (e.g. a `MedDataset` name like `duo-disk`,
    /// or `planted-hs`), resolved by the consumer. Must be a
    /// [`name token`](is_name_token).
    pub workload: String,
    /// Instance size handed to the workload generator (the instance
    /// itself derives deterministically from `(workload, elements,
    /// seed)`).
    pub elements: u64,
    /// Algorithm selection.
    pub algorithm: AlgorithmSpec,
    /// Network size.
    pub n: u64,
    /// Master seed.
    pub seed: u64,
    /// Stop condition.
    pub stop: StopSpec,
    /// Safety valve on simulated rounds.
    pub max_rounds: u64,
    /// Doubling-search budget factor (hitting set only).
    pub doubling: Option<F64Key>,
    /// Fault scenario preset name (see `lpt_workloads::Scenario`).
    pub fault: String,
    /// Topology preset name (see `lpt_workloads::TopologyPreset`).
    pub topology: String,
    /// Versioned randomness schedule.
    pub schedule: RngSchedule,
    /// Execution engine (round-synchronous by default; see
    /// `gossip_sim::event`). Encoded as a trailing `engine=` pair only
    /// when non-default, so every pre-engine canonical string stays
    /// valid and byte-identical.
    pub engine: Engine,
}

/// Whether `s` is a valid preset-name token: non-empty ASCII
/// lowercase/digit/hyphen. Name fields of a [`RunSpecKey`] must satisfy
/// this so the space-separated canonical encoding can never be
/// ambiguous.
pub fn is_name_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

impl RunSpecKey {
    /// A key with the driver's defaults for everything but the workload
    /// and network: full termination, 20 000-round safety valve, no
    /// doubling, the perfect fault scenario, the complete topology, and
    /// the default schedule.
    pub fn new(workload: &str, elements: u64, n: u64, seed: u64) -> RunSpecKey {
        RunSpecKey {
            workload: workload.to_string(),
            elements,
            algorithm: AlgorithmSpec::LowLoad,
            n,
            seed,
            stop: StopSpec::FullTermination,
            max_rounds: 20_000,
            doubling: None,
            fault: "perfect".to_string(),
            topology: "complete".to_string(),
            schedule: RngSchedule::default(),
            engine: Engine::default(),
        }
    }

    /// The canonical string encoding: one line, versioned, fixed field
    /// order, space-separated `key=value` pairs. Equal keys encode to
    /// equal strings and vice versa ([`RunSpecKey::parse`] round-trips).
    ///
    /// ```
    /// use lpt_gossip::spec::RunSpecKey;
    /// let key = RunSpecKey::new("duo-disk", 4096, 256, 42);
    /// let s = key.canonical();
    /// assert_eq!(RunSpecKey::parse(&s).unwrap(), key);
    /// ```
    pub fn canonical(&self) -> String {
        let doubling = match self.doubling {
            Some(f) => f.to_string(),
            None => "-".to_string(),
        };
        let mut s = format!(
            "{} workload={} elements={} alg={} n={} seed={} stop={} max_rounds={} \
             doubling={} fault={} topology={} schedule={}",
            SPEC_VERSION,
            self.workload,
            self.elements,
            self.algorithm.canonical(),
            self.n,
            self.seed,
            self.stop.canonical(),
            self.max_rounds,
            doubling,
            self.fault,
            self.topology,
            self.schedule.name(),
        );
        // Trailing optional field: the default engine stays off the
        // string, so pre-engine encodings (and their cached replies)
        // are bit-for-bit unchanged.
        if !self.engine.is_default() {
            s.push_str(" engine=");
            s.push_str(&self.engine.name());
        }
        s
    }

    /// Parses a [`RunSpecKey::canonical`] string.
    pub fn parse(s: &str) -> Result<RunSpecKey, SpecError> {
        let mut parts = s.split_ascii_whitespace();
        let version = parts.next().ok_or(SpecError::BadVersion)?;
        if version != SPEC_VERSION {
            return Err(SpecError::BadVersion);
        }
        // Fixed field order keeps the encoding canonical: the same key
        // can never encode two ways.
        const FIELDS: [&str; 11] = [
            "workload",
            "elements",
            "alg",
            "n",
            "seed",
            "stop",
            "max_rounds",
            "doubling",
            "fault",
            "topology",
            "schedule",
        ];
        let mut values = Vec::with_capacity(FIELDS.len());
        for field in FIELDS {
            let pair = parts.next().ok_or(SpecError::MissingField(field))?;
            let value = pair
                .strip_prefix(field)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or(SpecError::MissingField(field))?;
            values.push(value);
        }
        // Optional trailing `engine=` pair (absent on every pre-engine
        // string); anything else trailing is an error.
        let engine = match parts.next() {
            None => Engine::default(),
            Some(pair) => {
                let value = pair
                    .strip_prefix("engine")
                    .and_then(|rest| rest.strip_prefix('='))
                    .ok_or(SpecError::TrailingInput)?;
                let engine = Engine::parse(value).ok_or_else(|| SpecError::BadValue {
                    field: "engine",
                    value: value.to_string(),
                })?;
                if parts.next().is_some() {
                    return Err(SpecError::TrailingInput);
                }
                engine
            }
        };
        let uint = |field: &'static str, v: &str| {
            v.parse::<u64>().map_err(|_| SpecError::BadValue {
                field,
                value: v.to_string(),
            })
        };
        let name = |field: &'static str, v: &str| {
            if is_name_token(v) {
                Ok(v.to_string())
            } else {
                Err(SpecError::BadValue {
                    field,
                    value: v.to_string(),
                })
            }
        };
        let key = RunSpecKey {
            workload: name("workload", values[0])?,
            elements: uint("elements", values[1])?,
            algorithm: AlgorithmSpec::parse(values[2])?,
            n: uint("n", values[3])?,
            seed: uint("seed", values[4])?,
            stop: StopSpec::parse(values[5])?,
            max_rounds: uint("max_rounds", values[6])?,
            doubling: match values[7] {
                "-" => None,
                v => Some(v.parse::<F64Key>().map_err(|_| SpecError::BadValue {
                    field: "doubling",
                    value: v.to_string(),
                })?),
            },
            fault: name("fault", values[8])?,
            topology: name("topology", values[9])?,
            schedule: RngSchedule::parse(values[10]).ok_or_else(|| SpecError::BadValue {
                field: "schedule",
                value: values[10].to_string(),
            })?,
            engine,
        };
        Ok(key)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a canonical spec string could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// The leading version tag is missing or not [`SPEC_VERSION`].
    BadVersion,
    /// A required `key=value` pair is missing or out of order.
    MissingField(&'static str),
    /// A field's value does not parse.
    BadValue {
        /// The field.
        field: &'static str,
        /// The rejected value.
        value: String,
    },
    /// Extra input after the last field.
    TrailingInput,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadVersion => {
                write!(f, "spec string must start with {SPEC_VERSION:?}")
            }
            SpecError::MissingField(field) => {
                write!(f, "spec string is missing field {field:?} (order is fixed)")
            }
            SpecError::BadValue { field, value } => {
                write!(f, "spec field {field:?} has invalid value {value:?}")
            }
            SpecError::TrailingInput => write!(f, "trailing input after the last spec field"),
        }
    }
}

impl std::error::Error for SpecError {}

impl ErrorCode for SpecError {
    fn code(&self) -> u16 {
        match self {
            SpecError::BadVersion => 120,
            SpecError::MissingField(_) => 121,
            SpecError::BadValue { .. } => 122,
            SpecError::TrailingInput => 123,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            SpecError::BadVersion => "spec-bad-version",
            SpecError::MissingField(_) => "spec-missing-field",
            SpecError::BadValue { .. } => "spec-bad-value",
            SpecError::TrailingInput => "spec-trailing-input",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn full_key() -> RunSpecKey {
        RunSpecKey {
            workload: "planted-hs".to_string(),
            elements: 512,
            algorithm: AlgorithmSpec::HittingSet { d: 3 },
            n: 128,
            seed: u64::MAX,
            stop: StopSpec::RoundBudget(77),
            max_rounds: 5_000,
            doubling: Some(F64Key::new(12.5).unwrap()),
            fault: "hostile".to_string(),
            topology: "ring16".to_string(),
            schedule: RngSchedule::V1Compat,
            engine: Engine::parse("event-uniform-1-4").unwrap(),
        }
    }

    #[test]
    fn canonical_roundtrip_defaults() {
        let key = RunSpecKey::new("duo-disk", 4096, 256, 42);
        let s = key.canonical();
        assert_eq!(
            s,
            "spec-v1 workload=duo-disk elements=4096 alg=low-load n=256 seed=42 \
             stop=full max_rounds=20000 doubling=- fault=perfect topology=complete \
             schedule=v2batched"
        );
        assert_eq!(RunSpecKey::parse(&s).unwrap(), key);
    }

    #[test]
    fn canonical_roundtrip_all_fields() {
        let key = full_key();
        let parsed = RunSpecKey::parse(&key.canonical()).unwrap();
        assert_eq!(parsed, key);
        // Round-trip is idempotent at the string level too.
        assert_eq!(parsed.canonical(), key.canonical());
    }

    #[test]
    fn canonical_roundtrip_every_algorithm() {
        for alg in [
            AlgorithmSpec::LowLoad,
            AlgorithmSpec::HighLoad,
            AlgorithmSpec::Accelerated(F64Key::new(0.5).unwrap()),
            AlgorithmSpec::Accelerated(F64Key::new(1.0 / 3.0).unwrap()),
            AlgorithmSpec::Hypercube,
            AlgorithmSpec::HittingSet { d: 9 },
        ] {
            assert_eq!(AlgorithmSpec::parse(&alg.canonical()).unwrap(), alg);
        }
    }

    #[test]
    fn equal_keys_hash_equal_and_float_bits_matter() {
        let a = full_key();
        let b = RunSpecKey::parse(&a.canonical()).unwrap();
        let hash = |k: &RunSpecKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let mut c = a.clone();
        c.doubling = Some(F64Key::new(12.500000000000002).unwrap());
        assert_ne!(a, c, "different float bits must be different keys");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(RunSpecKey::parse(""), Err(SpecError::BadVersion));
        assert_eq!(
            RunSpecKey::parse("spec-v0 workload=a"),
            Err(SpecError::BadVersion)
        );
        assert_eq!(
            RunSpecKey::parse("spec-v1 elements=1"),
            Err(SpecError::MissingField("workload"))
        );
        let ok = RunSpecKey::new("duo-disk", 64, 8, 1).canonical();
        assert!(RunSpecKey::parse(&(ok.clone() + " extra=1")).is_err());
        assert!(RunSpecKey::parse(&ok.replace("seed=1", "seed=x")).is_err());
        assert!(RunSpecKey::parse(&ok.replace("fault=perfect", "fault=Perfect")).is_err());
        assert!(RunSpecKey::parse(&ok.replace("schedule=v2batched", "schedule=v9")).is_err());
        assert_eq!(
            RunSpecKey::parse(&(ok.clone() + " engine=event-warp")),
            Err(SpecError::BadValue {
                field: "engine",
                value: "event-warp".to_string(),
            })
        );
        assert!(RunSpecKey::parse(&(ok + " engine=event-unit extra=1")).is_err());
    }

    #[test]
    fn engine_field_is_trailing_and_default_invisible() {
        let mut key = RunSpecKey::new("duo-disk", 64, 8, 1);
        let default_encoding = key.canonical();
        assert!(
            !default_encoding.contains("engine="),
            "default engine must stay off the canonical string: {default_encoding}"
        );
        key.engine = Engine::parse("event-unit").unwrap();
        let s = key.canonical();
        assert!(s.ends_with(" engine=event-unit"), "{s}");
        assert_eq!(RunSpecKey::parse(&s).unwrap(), key);
        // An explicit default spelling parses to the same key the bare
        // string does (the cache is keyed by the struct, not the text).
        assert_eq!(
            RunSpecKey::parse(&(default_encoding.clone() + " engine=round-sync")).unwrap(),
            RunSpecKey::parse(&default_encoding).unwrap()
        );
    }

    #[test]
    fn name_tokens() {
        assert!(is_name_token("duo-disk"));
        assert!(is_name_token("rr8"));
        assert!(!is_name_token(""));
        assert!(!is_name_token("Duo"));
        assert!(!is_name_token("a b"));
        assert!(!is_name_token("a=b"));
    }

    #[test]
    fn f64_key_display_roundtrips_bits() {
        for v in [0.5, 1.0 / 3.0, 1e-300, 12.500000000000002, 0.0] {
            let k = F64Key::new(v).unwrap();
            let back: F64Key = k.to_string().parse().unwrap();
            assert_eq!(back, k, "{v}");
        }
        assert!(F64Key::new(f64::NAN).is_none());
        assert!(F64Key::new(f64::INFINITY).is_none());
    }
}
