//! `RunRecord::decode` and `RunRecord::encode` against their tree-based
//! oracles.
//!
//! The decoder in `src/artifact.rs` reads a record straight off the
//! JSON lexer. [`oracle_decode`] below is the decoder it replaced,
//! verbatim: parse the line into a [`Json`] tree, then pull every field
//! out with `get`. It is the specification of the accepted language —
//! any key order, unknown keys ignored, the first of a duplicated key
//! counts, a schema other than 7 / a missing key / a value of the wrong
//! kind / invalid JSON anywhere on the line decodes to `None` — and it
//! lives here, not in `src/`, because nothing but this comparison uses
//! it (the role `ReferenceQueue` plays for the timing wheel).
//!
//! The encoder writes a record straight from its field tables.
//! [`oracle_encode`] is the encoder it replaced, verbatim: build the
//! record's [`Json`] tree, render it. It is the specification of the
//! artifact's bytes.
//!
//! The properties generate every record shape `encode` can produce and
//! then damage the line the ways a file can be damaged or a foreign
//! writer can differ, and require the two decoders to return the same
//! `Option<RunRecord>` each time, and the two encoders the same bytes.

use clocksync::scenario::ScenarioKind;
use clocksync::RunCounters;
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::Rng;
use tsn_campaign::artifact::{
    BoundsRecord, PrecisionRecord, RunRecord, TransitionRecord, ARTIFACT_SCHEMA,
};
use tsn_campaign::axis::{AxisValue, Kind, AXES};
use tsn_campaign::json::Json;
use tsn_campaign::Coord;
use tsn_time::SyncState;

/// The tree-based decoder `RunRecord::decode` had up to artifact
/// schema 7's streaming rewrite, unchanged.
fn oracle_decode(line: &str) -> Option<RunRecord> {
    let v = Json::parse(line.trim_end()).ok()?;
    let schema = v.get("schema")?.as_u64()?;
    if schema != ARTIFACT_SCHEMA {
        return None;
    }
    let coord_v = v.get("coord")?;
    let mut coord = Coord::new(
        ScenarioKind::parse(coord_v.get("scenario")?.as_str()?)?,
        coord_v.get("seed")?.as_u64()?,
    );
    // One rule per axis key: present, and either `null` (inactive)
    // or a value of the axis's kind.
    for a in AXES {
        match coord_v.get(a.coord_key)? {
            Json::Null => {}
            x => (a.coord_set)(&mut coord, a.value_from_json(x)?)?,
        }
    }
    let c = v.get("counters")?;
    let mut counters = RunCounters::default();
    for (name, slot) in counters.fields_mut() {
        *slot = c.get(name)?.as_u64()?;
    }
    let b = v.get("bounds")?;
    let bounds = BoundsRecord {
        d_min_ns: b.get("d_min_ns")?.as_i64()?,
        d_max_ns: b.get("d_max_ns")?.as_i64()?,
        reading_error_ns: b.get("reading_error_ns")?.as_i64()?,
        drift_offset_ns: b.get("drift_offset_ns")?.as_i64()?,
        pi_ns: b.get("pi_ns")?.as_i64()?,
        gamma_ns: b.get("gamma_ns")?.as_i64()?,
        pi_plus_gamma_ns: b.get("pi_plus_gamma_ns")?.as_i64()?,
    };
    let precision = match v.get("precision")? {
        Json::Null => None,
        p => Some(PrecisionRecord {
            count: p.get("count")?.as_u64()?,
            mean_ns: p.get("mean_ns")?.as_f64()?,
            std_ns: p.get("std_ns")?.as_f64()?,
            min_ns: p.get("min_ns")?.as_i64()?,
            max_ns: p.get("max_ns")?.as_i64()?,
            p50_ns: p.get("p50_ns")?.as_i64()?,
            p90_ns: p.get("p90_ns")?.as_i64()?,
            p95_ns: p.get("p95_ns")?.as_i64()?,
            p99_ns: p.get("p99_ns")?.as_i64()?,
        }),
    };
    let transitions = v
        .get("transitions")?
        .as_array()?
        .iter()
        .map(|t| {
            Some(TransitionRecord {
                at_ns: t.get("at_ns")?.as_u64()?,
                node: t.get("node")?.as_u64()? as usize,
                slot: t.get("slot")?.as_u64()? as usize,
                from: SyncState::parse(t.get("from")?.as_str()?)?,
                to: SyncState::parse(t.get("to")?.as_str()?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(RunRecord {
        campaign: v.get("campaign")?.as_str()?.to_string(),
        hash: v.get("hash")?.as_str()?.to_string(),
        coord,
        seed: v.get("run_seed")?.as_u64()?,
        counters,
        bounds,
        precision,
        fraction_within_bound: v.get("fraction_within_bound")?.as_f64()?,
        transitions,
    })
}

/// The tree writer `RunRecord::encode` had up to the table-driven
/// writer, unchanged but for spelling out what private helpers did —
/// an axis value's `Json`, and the `to_json` of `BoundsRecord` and
/// `PrecisionRecord` — through public fields.
fn oracle_encode(record: &RunRecord) -> String {
    // Scenario and seed, then one key per axis of the table: the
    // value, or `null` when the axis is inactive.
    let mut coord = vec![
        (
            "scenario",
            Json::Str(record.coord.scenario.name().to_string()),
        ),
        ("seed", Json::UInt(record.coord.seed)),
    ];
    coord.extend(AXES.iter().map(|a| {
        let value = match (a.coord_get)(&record.coord) {
            None => Json::Null,
            Some(AxisValue::UInt(v)) => Json::UInt(v),
            Some(AxisValue::Bool(v)) => Json::Bool(v),
            Some(AxisValue::Name(v)) => Json::Str(v.to_string()),
        };
        (a.coord_key, value)
    }));
    let coord = Json::object(coord);
    let counters = Json::object(
        record
            .counters
            .fields()
            .map(|(name, value)| (name, Json::UInt(value)))
            .collect(),
    );
    let b = &record.bounds;
    let bounds = Json::object(vec![
        ("d_min_ns", Json::Int(b.d_min_ns)),
        ("d_max_ns", Json::Int(b.d_max_ns)),
        ("reading_error_ns", Json::Int(b.reading_error_ns)),
        ("drift_offset_ns", Json::Int(b.drift_offset_ns)),
        ("pi_ns", Json::Int(b.pi_ns)),
        ("gamma_ns", Json::Int(b.gamma_ns)),
        ("pi_plus_gamma_ns", Json::Int(b.pi_plus_gamma_ns)),
    ]);
    let precision = record.precision.map_or(Json::Null, |p| {
        Json::object(vec![
            ("count", Json::UInt(p.count)),
            ("mean_ns", Json::Float(p.mean_ns)),
            ("std_ns", Json::Float(p.std_ns)),
            ("min_ns", Json::Int(p.min_ns)),
            ("max_ns", Json::Int(p.max_ns)),
            ("p50_ns", Json::Int(p.p50_ns)),
            ("p90_ns", Json::Int(p.p90_ns)),
            ("p95_ns", Json::Int(p.p95_ns)),
            ("p99_ns", Json::Int(p.p99_ns)),
        ])
    });
    let transitions = Json::Array(
        record
            .transitions
            .iter()
            .map(|t| {
                Json::object(vec![
                    ("at_ns", Json::UInt(t.at_ns)),
                    ("node", Json::UInt(t.node as u64)),
                    ("slot", Json::UInt(t.slot as u64)),
                    ("from", Json::Str(t.from.name().to_string())),
                    ("to", Json::Str(t.to.name().to_string())),
                ])
            })
            .collect(),
    );
    let mut line = Json::object(vec![
        ("schema", Json::UInt(ARTIFACT_SCHEMA)),
        ("campaign", Json::Str(record.campaign.clone())),
        ("hash", Json::Str(record.hash.clone())),
        ("coord", coord),
        ("run_seed", Json::UInt(record.seed)),
        ("counters", counters),
        ("bounds", bounds),
        ("precision", precision),
        (
            "fraction_within_bound",
            Json::Float(record.fraction_within_bound),
        ),
        ("transitions", transitions),
    ])
    .render();
    line.push('\n');
    line
}

/// Number spellings the lexer has a rule for: `-0` is the integer 0,
/// an exponent or a magnitude past 64 bits makes a float, a bare `-`
/// and an `i64` underflow are errors, and so are the spellings RFC 8259
/// leaves out (leading zeros, a point without digits on both sides).
const NUMBER_SPELLINGS: &[&str] = &[
    "-0",
    "1e2",
    "1E+2",
    "18446744073709551616",
    "18446744073709551615",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "-18446744073709551616",
    "007",
    "-1",
    "0.0",
    "1.",
    "-",
    "-.5",
    "1e",
    "1e999",
];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn gen_char(rng: &mut StdRng) -> char {
    match rng.gen_range(0..8) {
        0 => '"',
        1 => '\\',
        2 => char::from_u32(rng.gen_range(0..0x20)).expect("control char"),
        3 => char::from_u32(rng.gen_range(0xA0..0xD800)).expect("bmp scalar"),
        4 => char::from_u32(rng.gen_range(0x1F300..0x1F600)).expect("non-bmp scalar"),
        _ => char::from_u32(rng.gen_range(0x20..0x7f)).expect("ascii"),
    }
}

fn gen_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12)).map(|_| gen_char(rng)).collect()
}

/// Mostly small magnitudes (what runs produce), sometimes the edges.
fn gen_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => rng.gen(),
        1 => u64::MAX - rng.gen_range(0..3u64),
        _ => rng.gen_range(0..100_000),
    }
}

fn gen_i64(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..4) {
        0 => rng.gen(),
        1 => i64::MIN + rng.gen_range(0..3i64),
        _ => rng.gen_range(-100_000..100_000),
    }
}

fn gen_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8) {
        // Non-finite values render as `null`, which must not decode.
        0 if rng.gen_range(0..4u32) == 0 => pick(rng, &[f64::NAN, f64::INFINITY]),
        1 => rng.gen_range(-1.0e3..1.0e3) * 10f64.powi(rng.gen_range(-200..200)),
        // Whole floats render as `3120.0`.
        2 => rng.gen_range(0..10_000) as f64,
        _ => rng.gen_range(0.0..1.0e5),
    }
}

fn gen_state(rng: &mut StdRng) -> SyncState {
    pick(
        rng,
        &[
            SyncState::Synchronized,
            SyncState::Holdover,
            SyncState::Freerun,
        ],
    )
}

/// A record of any shape `encode` can produce: every axis
/// independently inactive or at a value of its kind, precision present
/// or `null`, zero or more transitions.
fn gen_record(rng: &mut StdRng) -> RunRecord {
    let scenario = pick(rng, &ScenarioKind::ALL);
    let mut coord = Coord::new(scenario, gen_u64(rng));
    let density = rng.gen_range(0..=4);
    for a in AXES {
        if rng.gen_range(0..4) >= density {
            continue;
        }
        let value = match a.kind {
            Kind::UInt(min, max, _) => AxisValue::UInt(rng.gen_range(min..=max)),
            Kind::Bool => AxisValue::Bool(rng.gen()),
            Kind::Name(names) => AxisValue::Name(pick(rng, names)),
        };
        (a.coord_set)(&mut coord, value).expect("a value of the axis's kind");
    }
    let mut counters = RunCounters::default();
    for (_, slot) in counters.fields_mut() {
        *slot = gen_u64(rng);
    }
    RunRecord {
        campaign: gen_string(rng),
        hash: format!("{:016x}", rng.gen::<u64>()),
        coord,
        seed: gen_u64(rng),
        counters,
        bounds: BoundsRecord {
            d_min_ns: gen_i64(rng),
            d_max_ns: gen_i64(rng),
            reading_error_ns: gen_i64(rng),
            drift_offset_ns: gen_i64(rng),
            pi_ns: gen_i64(rng),
            gamma_ns: gen_i64(rng),
            pi_plus_gamma_ns: gen_i64(rng),
        },
        precision: (rng.gen_range(0..4u32) > 0).then(|| PrecisionRecord {
            count: gen_u64(rng),
            mean_ns: gen_f64(rng),
            std_ns: gen_f64(rng),
            min_ns: gen_i64(rng),
            max_ns: gen_i64(rng),
            p50_ns: gen_i64(rng),
            p90_ns: gen_i64(rng),
            p95_ns: gen_i64(rng),
            p99_ns: gen_i64(rng),
        }),
        fraction_within_bound: gen_f64(rng),
        transitions: (0..rng.gen_range(0..4))
            .map(|_| TransitionRecord {
                at_ns: gen_u64(rng),
                node: rng.gen_range(0..16),
                slot: rng.gen_range(0..2),
                from: gen_state(rng),
                to: gen_state(rng),
            })
            .collect(),
    }
}

/// [`gen_record`] with the values a writer most easily gets wrong
/// forced in more often: non-finite floats of both signs, both zeros,
/// and a `hash` that needs escapes the way `campaign` can.
fn gen_edge_record(rng: &mut StdRng) -> RunRecord {
    fn edge(rng: &mut StdRng, v: &mut f64) {
        if rng.gen_range(0..3) == 0 {
            *v = pick(
                rng,
                &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0],
            );
        }
    }
    let mut record = gen_record(rng);
    if rng.gen() {
        record.hash = gen_string(rng);
    }
    edge(rng, &mut record.fraction_within_bound);
    if let Some(p) = record.precision.as_mut() {
        edge(rng, &mut p.mean_ns);
        edge(rng, &mut p.std_ns);
    }
    record
}

struct ArbEdgeRecord;

impl proptest::strategy::Strategy for ArbEdgeRecord {
    type Value = RunRecord;
    fn generate(&self, rng: &mut StdRng) -> RunRecord {
        gen_edge_record(rng)
    }
}

fn gen_json(rng: &mut StdRng, depth: usize) -> Json {
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Int(-rng.gen_range(1..1_000_000i64)),
        3 => Json::UInt(gen_u64(rng)),
        4 => Json::Float(rng.gen_range(-1.0e6..1.0e6)),
        5 => Json::Str(gen_string(rng)),
        6 => Json::Array(
            (0..rng.gen_range(0..4))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Applies one structural mutation to one object of the document, at
/// any nesting level: reorder, duplicate a member (with the same or
/// another value, before or after the original), add an unknown
/// member, drop a member, swap a member's value for another kind, or
/// nest a value around the lexer's depth cap.
fn mutate_tree(v: &mut Json, rng: &mut StdRng) {
    // Walk to a random object: the root, or one nested in it.
    let mut target = v;
    loop {
        let nested: Vec<usize> = match &*target {
            Json::Object(pairs) => pairs
                .iter()
                .enumerate()
                .filter(|(_, (_, v))| matches!(v, Json::Object(_) | Json::Array(_)))
                .map(|(i, _)| i)
                .collect(),
            Json::Array(items) => (0..items.len()).collect(),
            _ => Vec::new(),
        };
        let is_object = matches!(*target, Json::Object(_));
        if nested.is_empty() || (is_object && rng.gen_range(0..3) == 0) {
            break;
        }
        let pick = pick(rng, &nested);
        target = match target {
            Json::Object(pairs) => &mut pairs[pick].1,
            Json::Array(items) => &mut items[pick],
            _ => unreachable!("scalars have no nested values"),
        };
    }
    let Json::Object(pairs) = target else {
        // An empty `transitions` array: make it hold a non-object.
        *target = Json::Array(vec![gen_json(rng, 1)]);
        return;
    };
    if pairs.is_empty() {
        pairs.push((gen_string(rng), gen_json(rng, 2)));
        return;
    }
    let i = rng.gen_range(0..pairs.len());
    match rng.gen_range(0..6) {
        0 => {
            // Fisher–Yates over the members.
            for k in (1..pairs.len()).rev() {
                pairs.swap(k, rng.gen_range(0..=k));
            }
        }
        1 => {
            let mut copy = pairs[i].clone();
            if rng.gen() {
                copy.1 = gen_json(rng, 2);
            }
            let at = rng.gen_range(0..=pairs.len());
            pairs.insert(at, copy);
        }
        2 => {
            let at = rng.gen_range(0..=pairs.len());
            pairs.insert(at, (gen_string(rng), gen_json(rng, 3)));
        }
        3 => {
            pairs.remove(i);
        }
        4 => pairs[i].1 = gen_json(rng, 2),
        _ => {
            // 512 open containers is the cap; the target object is
            // itself one to three levels down.
            let mut deep = Json::Null;
            for _ in 0..rng.gen_range(505..=515) {
                deep = Json::Array(vec![deep]);
            }
            let at = rng.gen_range(0..=pairs.len());
            pairs.insert(at, (gen_string(rng), deep));
        }
    }
}

/// No whitespace half of the time, else one or two characters.
fn ws(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(0..6usize).saturating_sub(3) {
        out.push(pick(rng, &[' ', '\t', '\n', '\r']));
    }
}

/// Renders `v` the way a foreign writer might: whitespace between
/// tokens, keys spelled with a `\uXXXX` escape, numbers respelled.
fn render_loose(v: &Json, rng: &mut StdRng, out: &mut String) {
    ws(rng, out);
    match v {
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_loose(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                match k.chars().next() {
                    Some(first) if (first as u32) < 0x80 && rng.gen_range(0..8) == 0 => {
                        let rest = Json::Str(k[1..].to_string()).render();
                        out.push_str(&format!("\"\\u{:04X}{}", first as u32, &rest[1..]));
                    }
                    _ => out.push_str(&Json::Str(k.clone()).render()),
                }
                ws(rng, out);
                out.push(':');
                render_loose(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        Json::Int(_) | Json::UInt(_) | Json::Float(_) if rng.gen_range(0..160) == 0 => {
            out.push_str(pick(rng, NUMBER_SPELLINGS));
        }
        scalar => out.push_str(&scalar.render()),
    }
    ws(rng, out);
}

/// Overwrites, inserts or deletes a few ASCII bytes (never splitting a
/// multi-byte character, so the line stays a `&str`).
fn flip_bytes(line: &str, rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"\"\\{}[],:-+.eE0123456789 ntfu\x01a";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] < 0x80).collect();
        if ascii.is_empty() {
            break;
        }
        let at = pick(rng, &ascii);
        let b = pick(rng, ALPHABET);
        match rng.gen_range(0..3) {
            0 => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ => {
                bytes.remove(at);
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII edits keep UTF-8 valid")
}

/// One generated line: a canonical encoding, or one damaged in one of
/// the listed ways.
struct ArbLine;

impl proptest::strategy::Strategy for ArbLine {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        let line = gen_record(rng).encode();
        match rng.gen_range(0..8) {
            0 => line,
            1 => flip_bytes(&line, rng),
            2 => {
                let cut = rng.gen_range(0..line.len());
                line[..(0..=cut)
                    .rev()
                    .find(|&i| line.is_char_boundary(i))
                    .unwrap_or(0)]
                    .to_string()
            }
            3 => format!(
                "{}{}",
                line.trim_end(),
                pick(
                    rng,
                    &["x", " 1", "{}", ",", "\u{a0}", "\n\n", " \t\r\n", "\u{2003}"]
                )
            ),
            m => {
                let mut v = Json::parse(&line).expect("own encoding parses");
                if m < 7 {
                    for _ in 0..rng.gen_range(1..4) {
                        mutate_tree(&mut v, rng);
                    }
                }
                let mut out = String::new();
                render_loose(&v, rng, &mut out);
                out
            }
        }
    }
}

fn agree(line: &str) -> Result<bool, String> {
    let expected = oracle_decode(line);
    let got = RunRecord::decode(line);
    if got != expected {
        return Err(format!(
            "decoders disagree on {line:?}:\n streaming {got:?}\n oracle    {expected:?}"
        ));
    }
    Ok(got.is_some())
}

/// `line` with the value of its first `"key":` member replaced by
/// `value` (the value must be a scalar: it ends at the next `,` or `}`).
fn with_value(line: &str, key: &str, value: &str) -> String {
    let at = line.find(&format!("\"{key}\":")).expect("key in line") + key.len() + 3;
    let end = at + line[at..].find([',', '}']).expect("scalar value");
    format!("{}{value}{}", &line[..at], &line[end..])
}

/// The spellings each typed read has a rule for, put where a `u64`, an
/// `i64`, an `f64`, an axis value, `null` or a string is read, plus
/// whitespace and escapes around keys and the trailing whitespace that
/// only `trim_end` removes. Both decoders must agree on every one.
#[test]
fn typed_reads_agree_on_targeted_damage() -> Result<(), String> {
    let mut rng = <StdRng as proptest::rand::SeedableRng>::seed_from_u64(26);
    let mut record = gen_record(&mut rng);
    record.coord.hops = Some(3);
    record.coord.election = Some(true);
    record.coord.domains = None;
    record.precision = Some(PrecisionRecord::default());
    record.fraction_within_bound = 0.5;
    record.transitions = vec![TransitionRecord {
        at_ns: 7,
        node: 1,
        slot: 0,
        from: SyncState::Synchronized,
        to: SyncState::Holdover,
    }];
    let line = record.encode();
    assert_eq!(RunRecord::decode(&line), Some(record));

    const SPELLINGS: &[&str] = &[
        "1234567890123456789",
        "12345678901234567890",
        "99999999999999999999",
        "18446744073709551615",
        "18446744073709551616",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "-0",
        "0",
        "07",
        "-07",
        "7.0",
        "7e0",
        "7E+0",
        "-7",
        "null",
        "nul",
        "nullx",
        "Null",
        "true",
        "\"7\"",
    ];
    // A `u64` at each level, an `i64`, two `f64`s, an active integer
    // axis, an inactive one, a switch axis, `precision` and a string.
    const KEYS: &[&str] = &[
        "schema",
        "run_seed",
        "seed",
        "tx_timestamp_timeouts",
        "at_ns",
        "d_min_ns",
        "mean_ns",
        "fraction_within_bound",
        "hops",
        "domains",
        "election",
        "precision",
        "from",
    ];
    let mut decoded = 0;
    for key in KEYS {
        let value_at = line.find(&format!("\"{key}\":")).expect("key in line");
        let mut damaged: Vec<String> = SPELLINGS
            .iter()
            .filter(|_| *key != "precision")
            .map(|s| with_value(&line, key, s))
            .collect();
        if *key == "precision" {
            damaged.extend(["null", "nul", "nullx", "Null", "0"].map(|s| {
                let end = value_at + line[value_at..].find('}').expect("object end") + 1;
                format!("{}\"precision\":{s}{}", &line[..value_at], &line[end..])
            }));
        }
        // Whitespace before the key, around the colon and before the
        // value, and the key spelled with a `\uXXXX` escape.
        let (head, tail) = line.split_at(value_at);
        let rest = &tail[key.len() + 3..];
        for ws in [" ", "\t", "\n", "\r\n "] {
            damaged.push(format!("{head}{ws}\"{key}\":{rest}"));
            damaged.push(format!("{head}\"{key}\"{ws}:{rest}"));
            damaged.push(format!("{head}\"{key}\":{ws}{rest}"));
        }
        damaged.push(format!(
            "{head}\"\\u{:04x}{}\":{rest}",
            key.as_bytes()[0],
            &key[1..]
        ));
        for text in &damaged {
            if agree(text)? {
                decoded += 1;
            }
        }
    }
    for end in [
        "\u{a0}",
        "\u{2028}",
        "\u{a0}\n",
        "\n\u{2028}",
        "\u{b}",
        "\u{c}\n",
        " \n",
    ] {
        assert!(agree(&format!("{}{end}", line.trim_end()))?, "{end:?}");
    }
    assert!(decoded > 100, "only {decoded} damaged lines decoded");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    /// Canonical and damaged lines decode identically under both
    /// decoders.
    #[test]
    fn streaming_decode_agrees_with_the_tree_oracle(line in ArbLine) {
        agree(&line)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The table-driven writer writes the tree writer's bytes, through
    /// both entry points.
    #[test]
    fn encode_agrees_with_the_tree_oracle(record in ArbEdgeRecord) {
        let expected = oracle_encode(&record);
        prop_assert_eq!(&record.encode(), &expected);
        let mut streamed = Vec::new();
        record.encode_to(&mut streamed).expect("writing to memory cannot fail");
        prop_assert_eq!(String::from_utf8(streamed).expect("the line is UTF-8"), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every encoding decodes to the record it encodes (a non-finite
    /// float renders as `null` and must not decode), and cut at any
    /// offset both decoders refuse it — except where only the trailing
    /// newline is missing.
    #[test]
    fn every_truncation_agrees(seed in any::<u64>()) {
        let mut rng = <StdRng as proptest::rand::SeedableRng>::seed_from_u64(seed);
        let record = gen_record(&mut rng);
        let line = record.encode();
        let finite = record.fraction_within_bound.is_finite()
            && record
                .precision
                .is_none_or(|p| p.mean_ns.is_finite() && p.std_ns.is_finite());
        prop_assert_eq!(RunRecord::decode(&line), finite.then_some(record));
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            let decoded = agree(&line[..cut])?;
            prop_assert!(!decoded || cut == line.len() - 1, "prefix of length {cut} decoded");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// Arbitrary bytes (lossily decoded — the API takes `&str`) never
    /// panic the decoder, and the two decoders agree on them too.
    #[test]
    fn decode_never_panics_on_arbitrary_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..96)
    ) {
        agree(&String::from_utf8_lossy(&bytes))?;
    }

    /// The same over an alphabet that gets past the first token.
    #[test]
    fn decode_never_panics_on_json_shaped_input(
        picks in proptest::collection::vec(0usize..22, 0..64)
    ) {
        const TOKENS: [&str; 22] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\"schema\"", "7", "\"coord\"",
            "\"counters\"", "null", "true", "-", "1e", "\\u00", " ", "\"transitions\"",
            "\"precision\"", "0", "é",
        ];
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        agree(&text)?;
    }
}
