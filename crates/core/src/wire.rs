//! Wire format for the campaign server: hand-rolled JSON for
//! [`CampaignRequest`]/[`CampaignResponse`].
//!
//! The workspace builds offline with no serialization library, so this
//! module is the transport encoding: a small JSON value model, a
//! recursive-descent parser, and explicit encoders/decoders for the two
//! wire types.
//!
//! Design rules:
//!
//! * **Policy by name** — approaches serialize as
//!   `{"policy": "<registry name>", ...}` using the same identifiers as
//!   [`Approach::registered_policies`], so wire clients, the
//!   `run_campaigns --policy` flag and the CI policy matrix all speak one
//!   vocabulary.
//! * **Estimator by name** — revocation estimators serialize as
//!   `{"kind": "<registry name>", ...}` using the identifiers of
//!   [`EstimatorSpec::registered_estimators`]; a request with no
//!   `estimator` field decodes to the default `oracle(0.9)` spec, so
//!   pre-registry encodings replay bit-identically.
//! * **Forward compatibility** — decoders read the fields they know and
//!   *tolerate unknown fields*, so a newer client can attach metadata
//!   without breaking an older server.
//! * **Exactness** — `u64` fields round-trip as JSON integers (never
//!   through `f64`), and finite `f64` fields print their shortest
//!   round-trip representation, so `decode(encode(x)) == x` bit-for-bit.
//!   JSON has no NaN/∞: non-finite floats (never produced by valid
//!   campaigns) encode as `null`, keeping the output parseable and making
//!   the decode fail loudly on the offending field.

use crate::campaign::{
    Approach, CampaignRequest, CampaignResponse, SingleSpotKind, DEFAULT_HYBRID_STRIKES,
};
use crate::report::HptReport;
use spottune_market::{EstimatorSpec, MarketScenario, SimDur};
use spottune_mlsim::{Algorithm, HpSetting, HpValue, Workload};
use std::fmt;

/// Error produced by the wire decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }

    /// Public constructor for callers that detect protocol violations the
    /// decoders can't see (e.g. a well-formed frame of the wrong kind).
    pub fn from_message(msg: impl Into<String>) -> Self {
        WireError::new(msg)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value. Integers keep their exact width instead of passing
/// through `f64` (u64 seeds/ids would lose precision past 2⁵³).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) | Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Member lookup; unknown keys in the object are simply never asked for,
    /// which is what makes the decoders forward-compatible.
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn require<'a>(&'a self, key: &str) -> Result<&'a Json> {
        self.get(key)
            .ok_or_else(|| WireError::new(format!("missing field {key:?}")))
    }

    fn as_u64(&self) -> Result<u64> {
        match *self {
            Json::UInt(v) => Ok(v),
            Json::Int(v) if v >= 0 => Ok(v as u64),
            _ => Err(WireError::new(format!("expected unsigned integer, got {}", self.type_name()))),
        }
    }

    fn as_f64(&self) -> Result<f64> {
        match *self {
            Json::Float(v) => Ok(v),
            Json::UInt(v) => Ok(v as f64),
            Json::Int(v) => Ok(v as f64),
            _ => Err(WireError::new(format!("expected number, got {}", self.type_name()))),
        }
    }

    fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(WireError::new(format!("expected string, got {}", self.type_name()))),
        }
    }

    fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(WireError::new(format!("expected array, got {}", self.type_name()))),
        }
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::UInt(n) => out.push_str(&n.to_string()),
        Json::Int(n) => out.push_str(&n.to_string()),
        // {:?} prints the shortest representation that round-trips. JSON
        // has no NaN/inf; encode them as null so the output stays valid
        // JSON and decoders fail loudly ("expected number, got null")
        // instead of choking on malformed text.
        Json::Float(x) if !x.is_finite() => out.push_str("null"),
        Json::Float(x) => out.push_str(&format!("{x:?}")),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_json(out, v);
            }
            out.push('}');
        }
    }
}

fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_json(&mut out, v);
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn err(&self, msg: &str) -> WireError {
        WireError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `parse` one container deeper. The parser recurses per level,
    /// so the cap is what keeps a line of brackets from overflowing a
    /// connection thread's stack.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        if float {
            // `"1e999".parse::<f64>()` yields Ok(inf); reject it here so
            // the no-non-finite contract holds on the decode side too.
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                Ok(_) => Err(self.err("number overflows f64")),
                Err(_) => Err(self.err("malformed number")),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("malformed integer"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("malformed integer"))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let code = if (0xd800..0xdc00).contains(&code) {
                                // RFC 8259 surrogate pair: a high surrogate
                                // must be followed by an escaped low one.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let len = utf8_len(b);
                    let end = self.pos - 1 + len;
                    let chunk = self
                        .bytes
                        .get(self.pos - 1..end)
                        .ok_or_else(|| self.err("truncated utf-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| self.err("malformed utf-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse(text: &str) -> Result<Json> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Domain encoders/decoders
// ---------------------------------------------------------------------------

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn kind_name(kind: SingleSpotKind) -> &'static str {
    match kind {
        SingleSpotKind::Cheapest => "cheapest",
        SingleSpotKind::Fastest => "fastest",
    }
}

fn kind_from_name(name: &str) -> Result<SingleSpotKind> {
    match name {
        "cheapest" => Ok(SingleSpotKind::Cheapest),
        "fastest" => Ok(SingleSpotKind::Fastest),
        other => Err(WireError::new(format!("unknown instance kind {other:?}"))),
    }
}

fn approach_to_json(a: &Approach) -> Json {
    let mut members = vec![("policy", Json::Str(a.policy_name().to_string()))];
    match *a {
        Approach::SpotTune { theta } => members.push(("theta", Json::Float(theta))),
        Approach::SingleSpot(_) => {}
        Approach::OnDemand(kind) => {
            members.push(("kind", Json::Str(kind_name(kind).to_string())));
        }
        Approach::Hybrid { theta, max_revocations } => {
            members.push(("theta", Json::Float(theta)));
            members.push(("max_revocations", Json::UInt(u64::from(max_revocations))));
        }
        Approach::BidAware { theta } => members.push(("theta", Json::Float(theta))),
        Approach::MigrationAware { theta } => members.push(("theta", Json::Float(theta))),
    }
    obj(members)
}

fn approach_from_json(v: &Json) -> Result<Approach> {
    let policy = v.require("policy")?.as_str()?;
    let theta = || -> Result<f64> { v.require("theta")?.as_f64() };
    match policy {
        "spottune" => Ok(Approach::SpotTune { theta: theta()? }),
        "single-spot-cheapest" => Ok(Approach::SingleSpot(SingleSpotKind::Cheapest)),
        "single-spot-fastest" => Ok(Approach::SingleSpot(SingleSpotKind::Fastest)),
        "on-demand" => {
            let kind = match v.get("kind") {
                Some(k) => kind_from_name(k.as_str()?)?,
                None => SingleSpotKind::Cheapest,
            };
            Ok(Approach::OnDemand(kind))
        }
        "hybrid" => {
            let max_revocations = match v.get("max_revocations") {
                Some(n) => u32::try_from(n.as_u64()?)
                    .map_err(|_| WireError::new("max_revocations out of range"))?,
                None => DEFAULT_HYBRID_STRIKES,
            };
            Ok(Approach::Hybrid { theta: theta()?, max_revocations })
        }
        "bid-aware" => Ok(Approach::BidAware { theta: theta()? }),
        "migration-aware" => Ok(Approach::MigrationAware { theta: theta()? }),
        other => Err(WireError::new(format!(
            "unknown policy {other:?} (registered: {})",
            Approach::registered_policies().join(", ")
        ))),
    }
}

fn estimator_to_json(spec: &EstimatorSpec) -> Json {
    let mut members = vec![("kind", Json::Str(spec.kind_name().to_string()))];
    match *spec {
        EstimatorSpec::Oracle { confidence } => {
            members.push(("confidence", Json::Float(confidence)));
        }
        EstimatorSpec::Constant { p } => members.push(("p", Json::Float(p))),
        EstimatorSpec::RevPred | EstimatorSpec::Tributary | EstimatorSpec::Logistic => {}
    }
    obj(members)
}

fn estimator_from_json(v: &Json) -> Result<EstimatorSpec> {
    let kind = v.require("kind")?.as_str()?;
    let spec = match kind {
        // A bare `{"kind":"oracle"}` means the default confidence, mirroring
        // the textual registry grammar (`oracle` vs `oracle(0.8)`).
        "oracle" => match v.get("confidence") {
            Some(c) => EstimatorSpec::Oracle { confidence: c.as_f64()? },
            None => EstimatorSpec::default(),
        },
        "constant" => EstimatorSpec::Constant { p: v.require("p")?.as_f64()? },
        "revpred" => EstimatorSpec::RevPred,
        "tributary" => EstimatorSpec::Tributary,
        "logistic" => EstimatorSpec::Logistic,
        other => {
            return Err(WireError::new(format!(
                "unknown estimator {other:?} (registered: {})",
                EstimatorSpec::registered_estimators().join(", ")
            )))
        }
    };
    spec.validate().map_err(WireError::new)?;
    Ok(spec)
}

fn hp_value_to_json(v: &HpValue) -> Json {
    match v {
        HpValue::Int(i) => obj(vec![("int", Json::Int(*i))]),
        HpValue::Float(f) => obj(vec![("float", Json::Float(*f))]),
        HpValue::Text(s) => obj(vec![("text", Json::Str(s.clone()))]),
    }
}

fn hp_value_from_json(v: &Json) -> Result<HpValue> {
    if let Some(i) = v.get("int") {
        let raw = match *i {
            Json::Int(x) => x,
            Json::UInt(x) => i64::try_from(x).map_err(|_| WireError::new("int out of range"))?,
            _ => return Err(WireError::new("hp int must be an integer")),
        };
        return Ok(HpValue::Int(raw));
    }
    if let Some(f) = v.get("float") {
        return Ok(HpValue::Float(f.as_f64()?));
    }
    if let Some(s) = v.get("text") {
        return Ok(HpValue::Text(s.as_str()?.to_string()));
    }
    Err(WireError::new("hp value needs one of int/float/text"))
}

fn hp_setting_to_json(hp: &HpSetting) -> Json {
    Json::Arr(
        hp.entries()
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), hp_value_to_json(v)]))
            .collect(),
    )
}

fn hp_setting_from_json(v: &Json) -> Result<HpSetting> {
    let mut hp = HpSetting::new();
    for entry in v.as_arr()? {
        let pair = entry.as_arr()?;
        if pair.len() != 2 {
            return Err(WireError::new("hp entry must be a [key, value] pair"));
        }
        hp = hp.with(pair[0].as_str()?, hp_value_from_json(&pair[1])?);
    }
    Ok(hp)
}

fn workload_to_json(w: &Workload) -> Json {
    obj(vec![
        ("algorithm", Json::Str(w.algorithm().name().to_string())),
        ("max_trial_steps", Json::UInt(w.max_trial_steps())),
        ("grid", Json::Arr(w.hp_grid().iter().map(hp_setting_to_json).collect())),
    ])
}

fn workload_from_json(v: &Json) -> Result<Workload> {
    let name = v.require("algorithm")?.as_str()?;
    let algorithm = Algorithm::all()
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| WireError::new(format!("unknown algorithm {name:?}")))?;
    let max_trial_steps = v.require("max_trial_steps")?.as_u64()?;
    let grid = v
        .require("grid")?
        .as_arr()?
        .iter()
        .map(hp_setting_from_json)
        .collect::<Result<Vec<_>>>()?;
    if grid.is_empty() {
        return Err(WireError::new("workload grid must not be empty"));
    }
    Ok(Workload::custom(algorithm, max_trial_steps, grid))
}

fn scenario_to_json(s: &MarketScenario) -> Json {
    obj(vec![("trace_mins", Json::UInt(s.trace_mins)), ("seed", Json::UInt(s.seed))])
}

fn scenario_from_json(v: &Json) -> Result<MarketScenario> {
    Ok(MarketScenario {
        trace_mins: v.require("trace_mins")?.as_u64()?,
        seed: v.require("seed")?.as_u64()?,
    })
}

fn f64_arr(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Float(x)).collect())
}

fn report_to_json(r: &HptReport) -> Json {
    obj(vec![
        ("approach", Json::Str(r.approach.clone())),
        ("workload", Json::Str(r.workload.clone())),
        ("theta", Json::Float(r.theta)),
        ("cost", Json::Float(r.cost)),
        ("refunded", Json::Float(r.refunded)),
        ("gross", Json::Float(r.gross)),
        ("jct_secs", Json::UInt(r.jct.as_secs())),
        ("cost_with_continuation", Json::Float(r.cost_with_continuation)),
        ("jct_with_continuation_secs", Json::UInt(r.jct_with_continuation.as_secs())),
        ("train_time_secs", Json::UInt(r.train_time.as_secs())),
        ("overhead_time_secs", Json::UInt(r.overhead_time.as_secs())),
        ("free_steps", Json::UInt(r.free_steps)),
        ("charged_steps", Json::UInt(r.charged_steps)),
        ("predicted_finals", f64_arr(&r.predicted_finals)),
        ("true_finals", f64_arr(&r.true_finals)),
        (
            "selected",
            Json::Arr(r.selected.iter().map(|&i| Json::UInt(i as u64)).collect()),
        ),
        ("deployments", Json::UInt(r.deployments)),
        ("revocations", Json::UInt(r.revocations)),
        ("lost_steps", Json::UInt(r.lost_steps)),
        ("migrations", Json::UInt(r.migrations)),
    ])
}

fn report_from_json(v: &Json) -> Result<HptReport> {
    let floats = |key: &str| -> Result<Vec<f64>> {
        v.require(key)?.as_arr()?.iter().map(Json::as_f64).collect()
    };
    Ok(HptReport {
        approach: v.require("approach")?.as_str()?.to_string(),
        workload: v.require("workload")?.as_str()?.to_string(),
        theta: v.require("theta")?.as_f64()?,
        cost: v.require("cost")?.as_f64()?,
        refunded: v.require("refunded")?.as_f64()?,
        gross: v.require("gross")?.as_f64()?,
        jct: SimDur::from_secs(v.require("jct_secs")?.as_u64()?),
        cost_with_continuation: v.require("cost_with_continuation")?.as_f64()?,
        jct_with_continuation: SimDur::from_secs(
            v.require("jct_with_continuation_secs")?.as_u64()?,
        ),
        train_time: SimDur::from_secs(v.require("train_time_secs")?.as_u64()?),
        overhead_time: SimDur::from_secs(v.require("overhead_time_secs")?.as_u64()?),
        free_steps: v.require("free_steps")?.as_u64()?,
        charged_steps: v.require("charged_steps")?.as_u64()?,
        predicted_finals: floats("predicted_finals")?,
        true_finals: floats("true_finals")?,
        selected: v
            .require("selected")?
            .as_arr()?
            .iter()
            .map(|i| i.as_u64().map(|n| n as usize))
            .collect::<Result<Vec<_>>>()?,
        deployments: v.require("deployments")?.as_u64()?,
        revocations: v.require("revocations")?.as_u64()?,
        // Absent in reports encoded before the grace-window model: default
        // to zero so old payloads keep decoding.
        lost_steps: match v.get("lost_steps") {
            Some(n) => n.as_u64()?,
            None => 0,
        },
        migrations: match v.get("migrations") {
            Some(n) => n.as_u64()?,
            None => 0,
        },
    })
}

fn request_members(request: &CampaignRequest) -> Vec<(&'static str, Json)> {
    vec![
        ("id", Json::UInt(request.id)),
        ("approach", approach_to_json(&request.approach)),
        ("workload", workload_to_json(&request.workload)),
        ("scenario", scenario_to_json(&request.scenario)),
        ("seed", Json::UInt(request.seed)),
        ("estimator", estimator_to_json(&request.estimator)),
    ]
}

fn request_from_json(v: &Json) -> Result<CampaignRequest> {
    Ok(CampaignRequest {
        id: v.require("id")?.as_u64()?,
        approach: approach_from_json(v.require("approach")?)?,
        workload: workload_from_json(v.require("workload")?)?,
        scenario: scenario_from_json(v.require("scenario")?)?,
        seed: v.require("seed")?.as_u64()?,
        // Requests encoded before the estimator registry carry no spec;
        // the default reproduces their behaviour bit-identically.
        estimator: match v.get("estimator") {
            Some(spec) => estimator_from_json(spec)?,
            None => EstimatorSpec::default(),
        },
    })
}

/// Encodes a [`CampaignRequest`] as one JSON object.
pub fn encode_request(request: &CampaignRequest) -> String {
    to_string(&obj(request_members(request)))
}

/// Decodes a [`CampaignRequest`], tolerating unknown fields at every level.
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON, missing required fields, or an
/// unregistered policy name.
pub fn decode_request(text: &str) -> Result<CampaignRequest> {
    request_from_json(&parse(text)?)
}

/// Encodes a [`CampaignResponse`] as one JSON object.
pub fn encode_response(response: &CampaignResponse) -> String {
    to_string(&obj(vec![
        ("id", Json::UInt(response.id)),
        ("report", report_to_json(&response.report)),
    ]))
}

/// Decodes a [`CampaignResponse`], tolerating unknown fields.
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON or missing required fields.
pub fn decode_response(text: &str) -> Result<CampaignResponse> {
    let v = parse(text)?;
    Ok(CampaignResponse {
        id: v.require("id")?.as_u64()?,
        report: report_from_json(v.require("report")?)?,
    })
}

// ---------------------------------------------------------------------------
// Connection frames (the newline-delimited TCP protocol)
// ---------------------------------------------------------------------------

/// Longest frame, newline included, either end of the wire buffers (the
/// perf ledger's largest frame is a few KB). A server answers a longer
/// line with one anonymous `malformed` frame, discards it through its
/// newline and keeps the connection; a client reports a longer reply as a
/// [`WireError`].
pub const MAX_FRAME_BYTES: u64 = 1 << 20;

/// Deepest nesting of arrays and objects either decoder accepts (the
/// protocol's own frames nest at most six deep). A deeper frame is
/// `malformed`; without the cap, a line of 10 000 `[` overflowed a 2 MiB
/// thread stack and aborted the server.
pub const MAX_DEPTH: usize = 64;

/// The error-frame kinds a server may put on the wire. The names are a
/// registry (like [`Approach::registered_policies`]): clients match on
/// them, the docs list them, and `tcp_chaos` requires every kind to be
/// provoked over a real socket.
///
/// To add a kind: extend this enum, [`ErrorKind::name`] and
/// [`ErrorKind::ALL`], then add a test that puts the new frame on the wire
/// (see CONTRIBUTING.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The bounded request queue is at capacity; retry after backoff.
    Overloaded,
    /// The connection exceeded its token-bucket admission rate.
    Throttled,
    /// The request's deadline passed before a worker picked it up; the
    /// campaign was cancelled without running.
    DeadlineExceeded,
    /// The frame was not a decodable request (garbage, truncated JSON,
    /// unknown policy/estimator).
    Malformed,
    /// The request decoded but failed semantic validation.
    Rejected,
    /// The server is draining for shutdown and accepts no new work.
    Draining,
}

impl ErrorKind {
    /// Every kind, in registry order.
    pub const ALL: [ErrorKind; 6] = [
        ErrorKind::Overloaded,
        ErrorKind::Throttled,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Malformed,
        ErrorKind::Rejected,
        ErrorKind::Draining,
    ];

    /// The registry name carried on the wire.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Throttled => "throttled",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::Malformed => "malformed",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Draining => "draining",
        }
    }

    /// Inverse of [`ErrorKind::name`].
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether a client may usefully retry the same request later.
    /// Malformed/rejected frames are permanent (the request itself is
    /// bad); deadline-exceeded is a client-policy decision, reported as
    /// non-retryable so replays stay deterministic.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorKind::Overloaded | ErrorKind::Throttled | ErrorKind::Draining)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The wire name of every error-frame kind, in registry order
/// ([`ErrorKind::ALL`] through [`ErrorKind::name`]).
pub fn registered_error_kinds() -> [&'static str; 6] {
    ErrorKind::ALL.map(ErrorKind::name)
}

/// One error frame: the typed refusal a server sends instead of a
/// response. `id` is absent when the frame could not be attributed to a
/// request (e.g. garbage that never decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The offending request's id, when known.
    pub id: Option<u64>,
    /// Which registered kind this is.
    pub kind: ErrorKind,
    /// Human-readable detail (reason text; never needed for dispatch).
    pub message: String,
}

/// A frame a client sends to the server: one line on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// A campaign to run, with an optional queue deadline in
    /// milliseconds from receipt.
    Request {
        /// The campaign request itself.
        request: CampaignRequest,
        /// Milliseconds the request may wait in the queue before it is
        /// cancelled with a deadline-exceeded frame.
        deadline_ms: Option<u64>,
    },
    /// `{"stats":true}`: asks for a stats frame.
    Stats,
    /// `{"shutdown":true}`: asks the server to drain gracefully.
    Shutdown,
}

/// A frame a server sends to a client: one line on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// A completed campaign.
    Response(CampaignResponse),
    /// A typed refusal.
    Error(ErrorFrame),
    /// Flattened counter snapshot answering a stats request.
    Stats(Vec<(String, u64)>),
}

/// Encodes a request frame, optionally carrying a queue deadline.
/// Without a deadline this is byte-identical to [`encode_request`]
/// (decoders tolerate the extra field either way).
pub fn encode_request_frame(request: &CampaignRequest, deadline_ms: Option<u64>) -> String {
    let mut members = request_members(request);
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms", Json::UInt(ms)));
    }
    to_string(&obj(members))
}

/// Encodes the `{"stats":true}` admin frame.
pub fn encode_stats_request() -> String {
    to_string(&obj(vec![("stats", Json::Bool(true))]))
}

/// Encodes the `{"shutdown":true}` admin frame.
pub fn encode_shutdown_request() -> String {
    to_string(&obj(vec![("shutdown", Json::Bool(true))]))
}

/// Decodes one client line into a [`ClientFrame`].
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON or an undecodable request —
/// the server answers those with a `malformed` error frame.
pub fn decode_client_frame(text: &str) -> Result<ClientFrame> {
    let v = parse(text)?;
    if let Some(flag) = v.get("stats") {
        if *flag == Json::Bool(true) {
            return Ok(ClientFrame::Stats);
        }
    }
    if let Some(flag) = v.get("shutdown") {
        if *flag == Json::Bool(true) {
            return Ok(ClientFrame::Shutdown);
        }
    }
    let deadline_ms = match v.get("deadline_ms") {
        Some(ms) => Some(ms.as_u64()?),
        None => None,
    };
    Ok(ClientFrame::Request { request: request_from_json(&v)?, deadline_ms })
}

/// Encodes an error frame.
pub fn encode_error_frame(frame: &ErrorFrame) -> String {
    let mut members = Vec::new();
    if let Some(id) = frame.id {
        members.push(("id", Json::UInt(id)));
    }
    members.push((
        "error",
        obj(vec![
            ("kind", Json::Str(frame.kind.name().to_string())),
            ("message", Json::Str(frame.message.clone())),
        ]),
    ));
    to_string(&obj(members))
}

/// Encodes a stats frame from flattened `(name, value)` counters.
pub fn encode_stats_frame(fields: &[(&str, u64)]) -> String {
    let members = fields.iter().map(|&(k, v)| (k, Json::UInt(v))).collect();
    to_string(&obj(vec![("stats", obj(members))]))
}

/// Decodes one server line into a [`ServerFrame`]: an error frame if it
/// carries `error`, a stats frame if it carries a `stats` object, and a
/// campaign response otherwise.
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON, an unregistered error kind or
/// a frame that is none of the three shapes.
pub fn decode_server_frame(text: &str) -> Result<ServerFrame> {
    let v = parse(text)?;
    if let Some(e) = v.get("error") {
        let kind_name = e.require("kind")?.as_str()?;
        let kind = ErrorKind::from_name(kind_name).ok_or_else(|| {
            WireError::new(format!(
                "unknown error kind {kind_name:?} (registered: {})",
                registered_error_kinds().join(", ")
            ))
        })?;
        let message = match e.get("message") {
            Some(m) => m.as_str()?.to_string(),
            None => String::new(),
        };
        let id = match v.get("id") {
            Some(id) => Some(id.as_u64()?),
            None => None,
        };
        return Ok(ServerFrame::Error(ErrorFrame { id, kind, message }));
    }
    if let Some(stats) = v.get("stats") {
        let Json::Obj(members) = stats else {
            return Err(WireError::new(format!(
                "expected stats object, got {}",
                stats.type_name()
            )));
        };
        let fields = members
            .iter()
            .map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
            .collect::<Result<Vec<_>>>()?;
        return Ok(ServerFrame::Stats(fields));
    }
    Ok(ServerFrame::Response(CampaignResponse {
        id: v.require("id")?.as_u64()?,
        report: report_from_json(v.require("report")?)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_mlsim::{Algorithm, CurveCache};

    fn tiny_workload() -> Workload {
        let base = Workload::benchmark(Algorithm::Svm); // exercises text HPs
        Workload::custom(Algorithm::Svm, 25, base.hp_grid()[..3].to_vec())
    }

    fn request(approach: Approach) -> CampaignRequest {
        CampaignRequest {
            id: 7,
            approach,
            workload: tiny_workload(),
            scenario: MarketScenario::from_days(2, 13),
            seed: u64::MAX - 5, // exercises exact u64 round-tripping
            estimator: EstimatorSpec::default(),
        }
    }

    #[test]
    fn request_round_trips_every_registered_policy() {
        for name in Approach::registered_policies() {
            let approach = Approach::from_policy_name(name, 0.65).expect("registered");
            let req = request(approach);
            let text = encode_request(&req);
            assert!(text.contains(&format!("\"policy\":\"{name}\"")), "policy name on the wire");
            let back = decode_request(&text).expect("round trip");
            assert_eq!(back, req, "{name}: decode(encode(x)) must equal x");
        }
    }

    #[test]
    fn response_round_trips_bit_identically() {
        let req = request(Approach::Hybrid { theta: 0.7, max_revocations: 5 });
        let pool = req.scenario.build();
        let report = req.run_serial(&pool, &CurveCache::global());
        let resp = CampaignResponse { id: req.id, report };
        let back = decode_response(&encode_response(&resp)).expect("round trip");
        assert_eq!(back, resp);
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let req = request(Approach::BidAware { theta: 0.8 });
        let text = encode_request(&req);
        // A newer client appends metadata at the top level and inside
        // nested objects; an older decoder must ignore all of it.
        let padded = text
            .replacen('{', "{\"client_version\":\"2.3\",\"priority\":9,", 1)
            .replacen(
                "\"policy\"",
                "\"comment\":\"from the fleet scheduler\",\"policy\"",
                1,
            );
        let back = decode_request(&padded).expect("unknown fields tolerated");
        assert_eq!(back, req);
    }

    #[test]
    fn estimator_specs_round_trip_exactly() {
        // Every registered kind, including floats whose shortest decimal
        // form must survive bit-for-bit, and a u64-exact seed alongside.
        let specs = [
            EstimatorSpec::default(),
            EstimatorSpec::Oracle { confidence: 0.8250000000000001 },
            EstimatorSpec::Constant { p: 0.1 + 0.2 }, // 0.30000000000000004
            EstimatorSpec::Constant { p: 0.0 },
            EstimatorSpec::RevPred,
            EstimatorSpec::Tributary,
            EstimatorSpec::Logistic,
        ];
        for spec in specs {
            let mut req = request(Approach::SpotTune { theta: 0.7 });
            req.estimator = spec;
            let text = encode_request(&req);
            assert!(
                text.contains(&format!("\"kind\":\"{}\"", spec.kind_name())),
                "estimator kind on the wire: {text}"
            );
            let back = decode_request(&text).expect("round trip");
            assert_eq!(back, req, "{spec}: decode(encode(x)) must equal x");
            assert_eq!(back.seed, u64::MAX - 5, "u64 exactness unaffected");
        }
    }

    #[test]
    fn missing_estimator_field_decodes_to_the_default_spec() {
        // A pre-registry client omits the field entirely.
        let req = request(Approach::SpotTune { theta: 0.7 });
        let text = encode_request(&req);
        let start = text.find(",\"estimator\"").expect("estimator on the wire");
        let legacy = format!("{}{}", &text[..start], "}");
        let back = decode_request(&legacy).expect("legacy request decodes");
        assert_eq!(back.estimator, EstimatorSpec::default());
        assert_eq!(back, req);
    }

    #[test]
    fn estimator_tolerates_unknown_fields_and_bare_oracle() {
        let req = request(Approach::SpotTune { theta: 0.7 });
        let text = encode_request(&req).replace(
            "{\"kind\":\"oracle\"",
            "{\"trained_at\":\"2026-07-29\",\"kind\":\"oracle\"",
        );
        assert_eq!(decode_request(&text).expect("unknown fields tolerated"), req);
        // `{"kind":"oracle"}` with no confidence means the default, like
        // the bare `oracle` registry string.
        let bare = encode_request(&req).replace(
            "{\"kind\":\"oracle\",\"confidence\":0.9}",
            "{\"kind\":\"oracle\"}",
        );
        assert_eq!(decode_request(&bare).expect("bare oracle"), req);
    }

    #[test]
    fn malformed_estimator_specs_are_rejected() {
        let text = encode_request(&request(Approach::SpotTune { theta: 0.7 }));
        // Unknown kind: rejected with the registry listing.
        let unknown = text.replace("\"kind\":\"oracle\"", "\"kind\":\"psychic\"");
        let err = decode_request(&unknown).expect_err("unknown estimator");
        let msg = err.to_string();
        assert!(msg.contains("psychic"), "{msg}");
        assert!(msg.contains("tributary"), "listing of registered estimators: {msg}");
        // Out-of-range arguments: rejected at the boundary, not mid-campaign.
        for (from, to, needle) in [
            ("\"confidence\":0.9", "\"confidence\":1.5", "confidence"),
            ("\"confidence\":0.9", "\"confidence\":0.2", "confidence"),
            ("\"kind\":\"oracle\",\"confidence\":0.9", "\"kind\":\"constant\",\"p\":-0.1", "probability"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "replacement must apply");
            let err = decode_request(&bad).expect_err("malformed spec");
            assert!(err.to_string().contains(needle), "{err}");
        }
        // A constant spec needs its argument.
        let missing =
            text.replace("\"kind\":\"oracle\",\"confidence\":0.9", "\"kind\":\"constant\"");
        let err = decode_request(&missing).expect_err("constant without p");
        assert!(err.to_string().contains("p"), "{err}");
    }

    #[test]
    fn decoded_but_semantically_malformed_requests_fail_validate() {
        // The untrusted-input contract (spotlint rule P1): a structurally
        // well-formed request with nonsense values decodes fine — the wire
        // layer checks shape, not semantics — and is then caught by
        // `CampaignRequest::validate` at the server boundary instead of
        // panicking a worker mid-campaign.
        let text = encode_request(&request(Approach::SpotTune { theta: 0.7 }));
        for (from, to, needle) in [
            ("\"theta\":0.7", "\"theta\":2.5", "theta"),
            ("\"theta\":0.7", "\"theta\":-1", "theta"),
            ("\"trace_mins\":2880", "\"trace_mins\":0", "scenario"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "replacement must apply: {from}");
            let decoded = decode_request(&bad).expect("structurally valid");
            let err = decoded.validate().expect_err("semantically malformed");
            assert!(err.contains(needle), "{err}");
        }
        // The unmodified request passes.
        decode_request(&text).expect("valid").validate().expect("valid request");
    }

    #[test]
    fn unknown_policy_is_rejected_with_a_listing() {
        let text = encode_request(&request(Approach::SpotTune { theta: 0.7 }))
            .replace("\"policy\":\"spottune\"", "\"policy\":\"warp-drive\"");
        let err = decode_request(&text).expect_err("unknown policy");
        let msg = err.to_string();
        assert!(msg.contains("warp-drive"), "{msg}");
        assert!(msg.contains("bid-aware"), "listing of registered policies: {msg}");
    }

    #[test]
    fn non_finite_floats_stay_valid_json_and_fail_decode_loudly() {
        let req = request(Approach::SpotTune { theta: f64::INFINITY });
        let text = encode_request(&req);
        assert!(text.contains("\"theta\":null"), "{text}");
        // The output is still parseable JSON; the decode fails on the
        // field, not with a parser error.
        let err = decode_request(&text).expect_err("non-finite theta");
        assert!(err.to_string().contains("expected number"), "{err}");
        // Overflowing literals are rejected at parse time instead of
        // smuggling Infinity past the contract.
        let overflow = encode_request(&request(Approach::SpotTune { theta: 0.7 }))
            .replace("\"theta\":0.7", "\"theta\":1e999");
        let err = decode_request(&overflow).expect_err("overflowing literal");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn missing_fields_and_garbage_fail_cleanly() {
        assert!(decode_request("{}").is_err());
        assert!(decode_request("not json").is_err());
        assert!(decode_request("{\"id\":1}  x").is_err());
        let req = request(Approach::SpotTune { theta: 0.7 });
        let text = encode_request(&req).replace("\"seed\"", "\"sead\"");
        let err = decode_request(&text).expect_err("missing seed");
        assert!(err.to_string().contains("seed"));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // Standard encoders (e.g. Python's json with ensure_ascii) write
        // astral-plane characters as RFC 8259 surrogate pairs.
        let req = request(Approach::SpotTune { theta: 0.7 });
        let text = encode_request(&req)
            .replace("\"policy\":\"spottune\"", "\"note\":\"\\ud83d\\ude80\",\"policy\":\"spottune\"");
        let back = decode_request(&text).expect("surrogate pairs decode");
        assert_eq!(back, req);
        // Lone or malformed surrogates fail cleanly instead of corrupting.
        for bad in ["\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\""] {
            assert!(super::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn error_kinds_round_trip_through_the_registry() {
        assert_eq!(registered_error_kinds().len(), 6);
        for name in registered_error_kinds() {
            let kind = ErrorKind::from_name(name).expect("registered kind resolves");
            assert_eq!(kind.name(), name);
            let frame = ErrorFrame { id: Some(3), kind, message: format!("demo {name}") };
            let text = encode_error_frame(&frame);
            assert!(text.contains(&format!("\"kind\":\"{name}\"")), "{text}");
            match decode_server_frame(&text).expect("round trip") {
                ServerFrame::Error(back) => assert_eq!(back, frame),
                other => panic!("expected error frame, got {other:?}"),
            }
        }
        assert!(ErrorKind::from_name("psychic").is_none());
        // Retryability split: transient server states retry, bad requests
        // and expired deadlines do not.
        assert!(ErrorKind::Overloaded.is_retryable());
        assert!(ErrorKind::Throttled.is_retryable());
        assert!(ErrorKind::Draining.is_retryable());
        assert!(!ErrorKind::Malformed.is_retryable());
        assert!(!ErrorKind::Rejected.is_retryable());
        assert!(!ErrorKind::DeadlineExceeded.is_retryable());
    }

    #[test]
    fn anonymous_error_frames_omit_the_id() {
        let frame =
            ErrorFrame { id: None, kind: ErrorKind::Malformed, message: "not json".to_string() };
        let text = encode_error_frame(&frame);
        assert!(!text.contains("\"id\""), "{text}");
        match decode_server_frame(&text).expect("round trip") {
            ServerFrame::Error(back) => assert_eq!(back, frame),
            other => panic!("expected error frame, got {other:?}"),
        }
        // Unregistered kinds fail with the registry listing.
        let bad = text.replace("malformed", "psychic");
        let err = decode_server_frame(&bad).expect_err("unknown kind");
        assert!(err.to_string().contains("throttled"), "{err}");
    }

    #[test]
    fn client_frames_decode_requests_admin_and_deadlines() {
        let req = request(Approach::SpotTune { theta: 0.7 });
        // A plain encoded request is a request frame without a deadline.
        match decode_client_frame(&encode_request(&req)).expect("request frame") {
            ClientFrame::Request { request, deadline_ms } => {
                assert_eq!(request, req);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("expected request frame, got {other:?}"),
        }
        // With a deadline the extra field rides along...
        let framed = encode_request_frame(&req, Some(1500));
        assert!(framed.contains("\"deadline_ms\":1500"), "{framed}");
        match decode_client_frame(&framed).expect("deadline frame") {
            ClientFrame::Request { deadline_ms, .. } => assert_eq!(deadline_ms, Some(1500)),
            other => panic!("expected request frame, got {other:?}"),
        }
        // ...and an old decoder that only knows requests tolerates it.
        assert_eq!(decode_request(&framed).expect("unknown field tolerated"), req);
        // Admin frames.
        assert_eq!(decode_client_frame(&encode_stats_request()), Ok(ClientFrame::Stats));
        assert_eq!(decode_client_frame(&encode_shutdown_request()), Ok(ClientFrame::Shutdown));
        // `{"stats":false}` is not an admin frame (and not a request either).
        assert!(decode_client_frame("{\"stats\":false}").is_err());
    }

    #[test]
    fn stats_frames_round_trip_flattened_counters() {
        let text = encode_stats_frame(&[("submitted", 12), ("queue_depth", 3), ("expired", 1)]);
        match decode_server_frame(&text).expect("stats frame") {
            ServerFrame::Stats(fields) => {
                assert_eq!(
                    fields,
                    vec![
                        ("submitted".to_string(), 12),
                        ("queue_depth".to_string(), 3),
                        ("expired".to_string(), 1),
                    ]
                );
            }
            other => panic!("expected stats frame, got {other:?}"),
        }
        // A response still decodes as a response through the frame path.
        let req = request(Approach::SpotTune { theta: 0.7 });
        let pool = req.scenario.build();
        let report = req.run_serial(&pool, &CurveCache::global());
        let resp = CampaignResponse { id: req.id, report };
        match decode_server_frame(&encode_response(&resp)).expect("response frame") {
            ServerFrame::Response(back) => assert_eq!(back, resp),
            other => panic!("expected response frame, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_survive() {
        let mut req = request(Approach::SpotTune { theta: 0.7 });
        // Workload names come from the algorithm, so exercise escapes via
        // the report side, which carries free-form labels.
        let pool = MarketScenario::from_days(1, 3).build();
        let mut report = req.run_serial(&pool, &CurveCache::global());
        report.approach = "weird \"label\"\\with\nescapes\tand π".to_string();
        req.id = 1;
        let resp = CampaignResponse { id: 1, report };
        let back = decode_response(&encode_response(&resp)).expect("round trip");
        assert_eq!(back, resp);
    }

    /// Deepest array/object nesting in `text`, brackets inside strings
    /// skipped.
    fn nesting(text: &str) -> usize {
        let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
        for c in text.chars() {
            match (in_string, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') | (false, _, '"') => in_string = !in_string,
                (false, _, '[' | '{') => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                (false, _, ']' | '}') => depth -= 1,
                _ => {}
            }
        }
        deepest
    }

    #[test]
    fn protocol_frames_nest_far_below_the_cap() {
        let req = request(Approach::SpotTune { theta: 0.7 });
        let pool = req.scenario.build();
        let resp = CampaignResponse { id: 7, report: req.run_serial(&pool, &CurveCache::global()) };
        let depths = [
            nesting(&encode_request_frame(&req, Some(5))),
            nesting(&encode_response(&resp)),
            nesting(&encode_stats_frame(&[("submitted", 1)])),
        ];
        assert!(depths.iter().all(|&d| d > 0 && d <= MAX_DEPTH / 8), "{depths:?}");
    }

    #[test]
    fn nesting_is_capped_at_max_depth_in_both_decoders() {
        // The frame object is one level; `pad` nests the rest.
        let pad = |depth: usize| format!("{}{}", "[".repeat(depth - 1), "]".repeat(depth - 1));
        let client = |depth| format!("{{\"stats\":true,\"pad\":{}}}", pad(depth));
        let server = |depth| format!("{{\"stats\":{{\"n\":1}},\"pad\":{}}}", pad(depth));
        fn capped(result: Option<WireError>) -> bool {
            result.is_some_and(|e| e.to_string().contains(&format!("nesting deeper than {MAX_DEPTH}")))
        }

        // At the cap both decoders accept the frame (unknown fields are
        // tolerated); one level deeper both refuse it as malformed input.
        assert_eq!(decode_client_frame(&client(MAX_DEPTH)), Ok(ClientFrame::Stats));
        assert!(capped(decode_client_frame(&client(MAX_DEPTH + 1)).err()));
        assert_eq!(
            decode_server_frame(&server(MAX_DEPTH)),
            Ok(ServerFrame::Stats(vec![("n".to_string(), 1)]))
        );
        assert!(capped(decode_server_frame(&server(MAX_DEPTH + 1)).err()));

        // The line that overflowed a connection thread's stack: refused at
        // the cap whatever its length, on a 2 MiB-stack thread like the
        // server's readers.
        let lines = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = "[".repeat(100_000);
                let objects = "{\"a\":".repeat(100_000);
                [&deep, &objects].map(|line| {
                    capped(decode_client_frame(line).err()) && capped(decode_server_frame(line).err())
                })
            })
            .expect("spawn")
            .join()
            .expect("decoders must not overflow the stack");
        assert_eq!(lines, [true, true]);
    }
}
