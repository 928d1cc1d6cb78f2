//! The typed trace-event vocabulary and its JSONL form.
//!
//! Every convergence run narrates itself as a stream of these events, keyed
//! by node / destination / stage. The [`TraceEvent`] declaration below is
//! the only statement of the trace format — the enum is the schema. It is
//! written inside `trace_events!`, which derives the type tags
//! ([`TraceEvent::kind`], [`TraceEvent::KINDS`]), the encoder
//! ([`TraceEvent::to_json`]) and the decoder ([`TraceEvent::from_json`])
//! from the one variant and field list. A JSONL line is an object whose
//! `type` is the variant name, followed by exactly the variant's fields in
//! declaration order, each an unsigned integer of the declared width.
//! Decoding is validation: `cargo xtask obs` reads traces through the
//! decoder.
//!
//! Numeric conventions: AS identities are raw `u32` AS numbers; `stage` is
//! the stage engine's 1-based stage counter, under the lock-step and the
//! session transport alike (0 for pre-stage origin advertisements); costs
//! and prices are raw `u64` values where `u64::MAX` encodes the protocol's
//! `∞`.

use crate::json::{self, JsonError, JsonValue};
use std::collections::BTreeMap;
use std::fmt;

/// Raw encoding of an infinite cost/price (`Cost::INFINITE` upstream).
pub const INFINITE: u64 = u64::MAX;

/// Declares the event enum and derives its tags, encoder and decoder from
/// the variant and field list. Every variant must carry a `stage` field
/// (the [`TraceEvent::stage`] accessor reads it) and only unsigned integer
/// fields.
macro_rules! trace_events {
    (
        $(#[$enum_meta:meta])* pub enum TraceEvent {
            $(
                $(#[$kind_meta:meta])*
                $kind:ident {
                    $( $(#[$field_meta:meta])* $field:ident: $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$enum_meta])* pub enum TraceEvent {
            $( $(#[$kind_meta])* $kind { $( $(#[$field_meta])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// Every event kind's type tag, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$(stringify!($kind)),*];

            /// The event's type tag, as it appears in the JSONL `type`
            /// field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$kind { .. } => stringify!($kind),)*
                }
            }

            /// The stage (or async sequence number) the event is keyed by.
            pub fn stage(&self) -> u64 {
                match *self {
                    $(TraceEvent::$kind { stage, .. } => stage,)*
                }
            }

            /// Encodes the event as one compact JSON object (no trailing
            /// newline): the `type` tag, then every field in declaration
            /// order, so traces diff cleanly.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(96);
                out.push_str("{\"type\":");
                json::write_string(&mut out, self.kind());
                match *self {
                    $(TraceEvent::$kind { $($field),* } => {
                        $(push_field(&mut out, stringify!($field), $field);)*
                    })*
                }
                out.push('}');
                out
            }

            /// [`TraceEvent::from_json`] on an already parsed value.
            pub(crate) fn from_json_value(value: &JsonValue) -> Result<TraceEvent, DecodeError> {
                let JsonValue::Object(object) = value else {
                    return Err(DecodeError::NotAnEvent);
                };
                let Some(kind) = object.get("type").and_then(JsonValue::as_str) else {
                    return Err(DecodeError::NotAnEvent);
                };
                match kind {
                    $(stringify!($kind) => {
                        let fields = Fields { kind: stringify!($kind), object };
                        let event = TraceEvent::$kind {
                            $($field: fields.get(stringify!($field))?,)*
                        };
                        fields.exactly(&[$(stringify!($field)),*])?;
                        Ok(event)
                    })*
                    _ => Err(DecodeError::UnknownKind(kind.to_string())),
                }
            }
        }
    };
}

trace_events! {
/// One structured event in a convergence trace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEvent {
    /// A synchronous stage began (deliveries from stage `stage - 1` are
    /// about to be processed).
    StageStart {
        /// 1-based stage number.
        stage: u64,
    },
    /// A node advertised a (new or changed) selected route.
    RouteSelected {
        /// The advertising AS.
        node: u32,
        /// The destination AS.
        dest: u32,
        /// Stage (or async sequence) of the advertisement.
        stage: u64,
        /// Number of ASes on the advertised path, endpoints included.
        hops: u32,
        /// Advertised transit cost of the path ([`INFINITE`] never occurs
        /// for a selected route).
        path_cost: u64,
    },
    /// A node advertised its price entry for transit node `k` toward
    /// `dest`.
    PriceRelaxed {
        /// The AS holding the price entry.
        node: u32,
        /// The destination AS.
        dest: u32,
        /// The transit AS being priced.
        k: u32,
        /// Stage (or async sequence) of the advertisement.
        stage: u64,
        /// The advertised entry ([`INFINITE`] when a delta raised it to
        /// `∞`).
        new: u64,
    },
    /// A node advertised that it lost its route to `dest`.
    Withdrawn {
        /// The advertising AS.
        node: u32,
        /// The destination AS.
        dest: u32,
        /// Stage (or async sequence) of the withdrawal.
        stage: u64,
    },
    /// The run reached quiescence: no queued messages anywhere.
    Quiescent {
        /// Last stage in which advertised state changed (the convergence
        /// stage the paper bounds).
        stage: u64,
        /// Total messages delivered over the run.
        messages: u64,
    },
    /// A seeded chaos fault perturbed the message fabric (see the
    /// `chaos` module of the BGP crate and `docs/ROBUSTNESS.md`).
    FaultInjected {
        /// Stage (or async sequence) of the injection.
        stage: u64,
        /// The AS whose traffic or state was hit (the sender, for
        /// channel faults).
        node: u32,
        /// The receiving AS for channel faults; `u32::MAX` for node-level
        /// faults (crash, restart).
        peer: u32,
        /// Fault code: 0 drop, 1 duplicate, 2 delay, 3 link flap,
        /// 4 crash.
        fault: u32,
    },
    /// A sender re-sent a sequenced frame that stayed unacknowledged past
    /// the retransmit timer.
    Retransmit {
        /// Stage of the re-send.
        stage: u64,
        /// The retransmitting AS.
        from: u32,
        /// The neighbor the frame is addressed to.
        to: u32,
        /// Sequence number of the re-sent frame.
        seq: u64,
    },
    /// A receiver reset its per-neighbor transport session (a new epoch
    /// was accepted, or the hold timer tore the session down).
    SessionReset {
        /// Stage of the reset.
        stage: u64,
        /// The AS resetting its session state.
        node: u32,
        /// The neighbor the session belongs to.
        peer: u32,
    },
    /// A crashed node rejoined the protocol with empty state.
    NodeRestart {
        /// Stage of the rejoin.
        stage: u64,
        /// The restarting AS.
        node: u32,
    },
    /// A Byzantine adversary perturbed an outgoing advertisement on the
    /// wire (see the `adversary` module of the BGP crate and
    /// `docs/ROBUSTNESS.md`).
    AdversaryInjected {
        /// Stage of the perturbed send.
        stage: u64,
        /// The adversarial (sending) AS.
        node: u32,
        /// The neighbor the perturbed copy was delivered to.
        peer: u32,
        /// Strategy code: 0 price-inflate, 1 cost-understate,
        /// 2 equivocate, 3 replay, 4 phantom-withdraw.
        strategy: u32,
    },
    /// The online auditor caught a node advertising something other than
    /// what the honest protocol, fed the same inbox, would have advertised.
    AuditViolation {
        /// Stage at which the divergence was established.
        stage: u64,
        /// The accused AS.
        node: u32,
        /// The destination whose advertisement diverged.
        dest: u32,
        /// Path cost the honest replay expected ([`INFINITE`] = expected
        /// a withdrawal / no advertisement).
        expected: u64,
        /// Path cost actually seen on the wire ([`INFINITE`] = observed a
        /// withdrawal / silence).
        advertised: u64,
        /// Violation code: 0 divergence from the honest replay,
        /// 1 equivocation across neighbors.
        violation: u32,
    },
    /// An accused node was cut from the topology (NodeDown quarantine) so
    /// the honest residual graph can reconverge.
    NodeQuarantined {
        /// Stage of the quarantine.
        stage: u64,
        /// The quarantined AS.
        node: u32,
    },
    /// A streaming health detector fired (see the `health` module and
    /// `docs/OBSERVABILITY.md` §health-SLOs). At most one verdict per
    /// detector is emitted per run.
    HealthVerdict {
        /// Stage at which the detector fired.
        stage: u64,
        /// Detector code: 0 route oscillation, 1 price-churn spike,
        /// 2 convergence stall.
        detector: u32,
        /// The AS the finding concerns (`u32::MAX` for run-wide findings).
        node: u32,
        /// The destination the finding concerns (`u32::MAX` for run-wide
        /// findings).
        dest: u32,
        /// The measured quantity that crossed the threshold (revisits,
        /// relaxations in the spike stage, quiet stages).
        count: u64,
        /// The configured threshold the measurement crossed.
        threshold: u64,
    },
    /// End-of-run profile line for one engine phase (see the `profile`
    /// module; span ids are the fixed `profile::span` table).
    SpanSummary {
        /// Final stage of the profiled run.
        stage: u64,
        /// Span id in the fixed engine span table.
        span: u32,
        /// Times the span was entered.
        count: u64,
        /// Inclusive nanoseconds (children included).
        total_nanos: u64,
        /// Exclusive nanoseconds (children subtracted).
        self_nanos: u64,
    },
}
}

impl TraceEvent {
    /// Decodes one JSONL trace line: an object with a known `type` tag and
    /// exactly that kind's fields, each an unsigned integer that fits its
    /// declared width.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] the line exhibits.
    pub fn from_json(line: &str) -> Result<TraceEvent, DecodeError> {
        let value = json::parse(line).map_err(DecodeError::Json)?;
        TraceEvent::from_json_value(&value)
    }
}

/// Appends `,"key":value` to an event object under construction.
fn push_field(out: &mut String, key: &str, value: impl Into<u64>) {
    out.push(',');
    json::write_string(out, key);
    out.push(':');
    json::write_uint(out, value.into());
}

/// One JSON object being decoded as the event kind `kind`.
struct Fields<'a> {
    kind: &'static str,
    object: &'a BTreeMap<String, JsonValue>,
}

impl Fields<'_> {
    /// The field `name` as an unsigned integer of width `T`.
    fn get<T: TryFrom<u64>>(&self, name: &'static str) -> Result<T, DecodeError> {
        let value = self.object.get(name).ok_or(DecodeError::MissingField {
            kind: self.kind,
            field: name,
        })?;
        value
            .as_u64()
            .and_then(|v| T::try_from(v).ok())
            .ok_or(DecodeError::BadField {
                kind: self.kind,
                field: name,
            })
    }

    /// Fails on the first key that is neither `type` nor one of `names`.
    fn exactly(&self, names: &[&str]) -> Result<(), DecodeError> {
        match self
            .object
            .keys()
            .find(|key| *key != "type" && !names.contains(&key.as_str()))
        {
            Some(key) => Err(DecodeError::UnknownField {
                kind: self.kind,
                field: key.clone(),
            }),
            None => Ok(()),
        }
    }
}

/// Why a JSONL line is not a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The line is valid JSON but not an object with a string `type`.
    NotAnEvent,
    /// The `type` tag names no event kind.
    UnknownKind(String),
    /// A field of the kind is missing.
    MissingField {
        /// The event kind being decoded.
        kind: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// A field is not an unsigned integer of its declared width.
    BadField {
        /// The event kind being decoded.
        kind: &'static str,
        /// The offending field.
        field: &'static str,
    },
    /// The object carries a field the kind does not have.
    UnknownField {
        /// The event kind being decoded.
        kind: &'static str,
        /// The unexpected field.
        field: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Json(e) => write!(f, "{e}"),
            DecodeError::NotAnEvent => {
                write!(f, "line is not an object with a string `type` tag")
            }
            DecodeError::UnknownKind(kind) => write!(f, "unknown event kind `{kind}`"),
            DecodeError::MissingField { kind, field } => {
                write!(f, "{kind}: required field `{field}` is missing")
            }
            DecodeError::BadField { kind, field } => {
                write!(f, "{kind}: field `{field}` has the wrong type/width")
            }
            DecodeError::UnknownField { kind, field } => {
                write!(f, "{kind}: field `{field}` is not part of the event")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of `kind` with every `u32` field set to `small` and every
    /// `u64` field to `big`; `None` for a kind with no sample yet.
    fn sample(kind: &str, small: u32, big: u64) -> Option<TraceEvent> {
        Some(match kind {
            "StageStart" => TraceEvent::StageStart { stage: big },
            "RouteSelected" => TraceEvent::RouteSelected {
                node: small,
                dest: small,
                stage: big,
                hops: small,
                path_cost: big,
            },
            "PriceRelaxed" => TraceEvent::PriceRelaxed {
                node: small,
                dest: small,
                k: small,
                stage: big,
                new: big,
            },
            "Withdrawn" => TraceEvent::Withdrawn {
                node: small,
                dest: small,
                stage: big,
            },
            "Quiescent" => TraceEvent::Quiescent {
                stage: big,
                messages: big,
            },
            "FaultInjected" => TraceEvent::FaultInjected {
                stage: big,
                node: small,
                peer: small,
                fault: small,
            },
            "Retransmit" => TraceEvent::Retransmit {
                stage: big,
                from: small,
                to: small,
                seq: big,
            },
            "SessionReset" => TraceEvent::SessionReset {
                stage: big,
                node: small,
                peer: small,
            },
            "NodeRestart" => TraceEvent::NodeRestart {
                stage: big,
                node: small,
            },
            "AdversaryInjected" => TraceEvent::AdversaryInjected {
                stage: big,
                node: small,
                peer: small,
                strategy: small,
            },
            "AuditViolation" => TraceEvent::AuditViolation {
                stage: big,
                node: small,
                dest: small,
                expected: big,
                advertised: big,
                violation: small,
            },
            "NodeQuarantined" => TraceEvent::NodeQuarantined {
                stage: big,
                node: small,
            },
            "HealthVerdict" => TraceEvent::HealthVerdict {
                stage: big,
                detector: small,
                node: small,
                dest: small,
                count: big,
                threshold: big,
            },
            "SpanSummary" => TraceEvent::SpanSummary {
                stage: big,
                span: small,
                count: big,
                total_nanos: big,
                self_nanos: big,
            },
            _ => return None,
        })
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        assert_eq!(
            TraceEvent::KINDS,
            [
                "StageStart",
                "RouteSelected",
                "PriceRelaxed",
                "Withdrawn",
                "Quiescent",
                "FaultInjected",
                "Retransmit",
                "SessionReset",
                "NodeRestart",
                "AdversaryInjected",
                "AuditViolation",
                "NodeQuarantined",
                "HealthVerdict",
                "SpanSummary",
            ]
        );
        let mut kinds = TraceEvent::KINDS.to_vec();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), TraceEvent::KINDS.len());
    }

    #[test]
    fn every_kind_round_trips_at_zero_mid_and_max() {
        for &kind in TraceEvent::KINDS {
            for (small, big) in [
                (0, 0),
                (1 << 31, 1 << 63),
                (0x8765_4321, 0x1234_5678_9abc_def0),
                (u32::MAX, u64::MAX),
            ] {
                let event = sample(kind, small, big)
                    .unwrap_or_else(|| panic!("no round-trip sample for `{kind}`"));
                assert_eq!(event.kind(), kind);
                assert_eq!(event.stage(), big);
                assert_eq!(TraceEvent::from_json(&event.to_json()), Ok(event));
            }
        }
    }

    #[test]
    fn json_encoding_is_exact() {
        let event = TraceEvent::PriceRelaxed {
            node: 3,
            dest: 5,
            k: 4,
            stage: 2,
            new: INFINITE,
        };
        assert_eq!(
            event.to_json(),
            format!(
                "{{\"type\":\"PriceRelaxed\",\"node\":3,\"dest\":5,\"k\":4,\
                 \"stage\":2,\"new\":{INFINITE}}}"
            )
        );
    }

    #[test]
    fn encoding_formats_extremes() {
        let zero = TraceEvent::StageStart { stage: 0 }.to_json();
        assert_eq!(zero, "{\"type\":\"StageStart\",\"stage\":0}");
        let max = TraceEvent::StageStart { stage: u64::MAX }.to_json();
        assert_eq!(
            max,
            format!("{{\"type\":\"StageStart\",\"stage\":{}}}", u64::MAX)
        );
    }

    #[test]
    fn decoder_ignores_key_order_and_whitespace() {
        assert_eq!(
            TraceEvent::from_json(" { \"messages\" : 2 , \"stage\":1,\"type\":\"Quiescent\" } "),
            Ok(TraceEvent::Quiescent {
                stage: 1,
                messages: 2
            })
        );
    }

    #[test]
    fn decoder_rejects_what_is_not_an_event() {
        let missing = |field| DecodeError::MissingField {
            kind: "Withdrawn",
            field,
        };
        let bad = |field| DecodeError::BadField {
            kind: "StageStart",
            field,
        };
        assert!(matches!(
            TraceEvent::from_json("not json"),
            Err(DecodeError::Json(_))
        ));
        // A repeated key is malformed JSON, not "last value wins".
        assert!(matches!(
            TraceEvent::from_json(
                "{\"type\":\"StageStart\",\"type\":\"Quiescent\",\"stage\":1,\"messages\":2}"
            ),
            Err(DecodeError::Json(_))
        ));
        for line in ["[1]", "{\"stage\":1}", "{\"type\":3,\"stage\":1}"] {
            assert_eq!(
                TraceEvent::from_json(line),
                Err(DecodeError::NotAnEvent),
                "{line}"
            );
        }
        assert_eq!(
            TraceEvent::from_json("{\"type\":\"Mystery\",\"stage\":1}"),
            Err(DecodeError::UnknownKind("Mystery".into()))
        );
        assert_eq!(
            TraceEvent::from_json("{\"type\":\"StageStart\"}"),
            Err(DecodeError::MissingField {
                kind: "StageStart",
                field: "stage"
            })
        );
        // An event missing any declared field is not an event.
        assert_eq!(
            TraceEvent::from_json("{\"type\":\"Withdrawn\",\"node\":4,\"dest\":1}"),
            Err(missing("stage"))
        );
        for value in ["1.5", "1e3", "-1", "\"1\"", "null", "true", "[1]"] {
            assert_eq!(
                TraceEvent::from_json(&format!("{{\"type\":\"StageStart\",\"stage\":{value}}}")),
                Err(bad("stage")),
                "{value}"
            );
        }
        // A u32 field rejects 2^32; a u64 field takes it.
        assert_eq!(
            TraceEvent::from_json(
                "{\"type\":\"Withdrawn\",\"node\":4294967296,\"dest\":1,\"stage\":1}"
            ),
            Err(DecodeError::BadField {
                kind: "Withdrawn",
                field: "node"
            })
        );
        assert_eq!(
            TraceEvent::from_json("{\"type\":\"StageStart\",\"stage\":4294967296}"),
            Ok(TraceEvent::StageStart { stage: 1 << 32 })
        );
        assert_eq!(
            TraceEvent::from_json("{\"type\":\"StageStart\",\"stage\":1,\"extra\":2}"),
            Err(DecodeError::UnknownField {
                kind: "StageStart",
                field: "extra".into()
            })
        );
    }
}
