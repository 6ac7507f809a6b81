//! The one place the `BENCH_*.json` snapshot schema lives.
//!
//! Every `exp_*` binary that tracks a performance trajectory across PRs
//! writes its measurements through [`Snapshot::to_json`] and re-reads
//! committed snapshots through [`Snapshot::parse`]:
//!
//! ```json
//! {
//!   "bench": "<experiment name>",
//!   "schema": 1,
//!   ...optional experiment-wide metadata ("backend": ...),
//!   "rows": [ {"n": 10000, "procs": 4, "speedup": 1.52, ...}, ... ]
//! }
//! ```
//!
//! Rows are flat objects of numbers and strings.  `schema` versions the
//! layout in one place; snapshots written before the field existed parse
//! as version 1.
//!
//! The module also implements the **CI perf-regression gate**: every
//! snapshot binary accepts `--check <committed.json>`, re-runs its
//! experiment at the committed grid and fails (exit 1) only when a gated
//! figure — a paired speedup or throughput measured back-to-back within
//! one run, higher is better — regressed by more than
//! [`CHECK_TOLERANCE`]× against the committed value.  The tolerance is
//! deliberately generous: shared CI runners are noisy, and the gate exists
//! to catch a PR that quietly *destroys* a won speedup, not to police
//! percent-level drift.

use std::fmt::Write as _;

/// Current snapshot schema version (bump when the layout changes).
///
/// Version history: **1** — the original flat layout; **2** — service
/// rows gained a string `"scenario"` id column (`"uniform"` / `"skewed"` /
/// `"tiny"`).  The parser is tolerant in both directions: unknown columns
/// ride along as row values, and version-1 snapshots (or pre-`schema`
/// snapshots) still parse — `--check` matches rows on explicit id keys,
/// never on the version.
pub const SCHEMA_VERSION: u64 = 2;

/// How many times a committed paired ratio may shrink before the `--check`
/// gate fails the run.
pub const CHECK_TOLERANCE: f64 = 2.0;

/// A flat row/metadata value: everything the snapshots need.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number (integers survive exactly up to 2⁵³).
    Num(f64),
    /// A string (payload names, backend names).
    Str(String),
}

impl Value {
    /// Numeric view, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Str(_) => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x:.4}");
                }
            }
            Value::Str(s) => {
                debug_assert!(
                    !s.contains(['"', '\\']),
                    "snapshot strings are plain names; got {s:?}"
                );
                let _ = write!(out, "\"{s}\"");
            }
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Num(x as f64)
    }
}

impl From<u128> for Value {
    fn from(x: u128) -> Self {
        Value::Num(x as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

/// One measurement row: ordered `(key, value)` pairs (order is preserved in
/// the emitted JSON, so diffs stay readable).
pub type Row = Vec<(String, Value)>;

/// Builds a [`Row`] from `(key, value)` pairs.
pub fn row<const N: usize>(pairs: [(&str, Value); N]) -> Row {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Looks a key up in a row.
pub fn get<'a>(row: &'a Row, key: &str) -> Option<&'a Value> {
    row.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A machine-readable benchmark snapshot (see the module docs for the
/// layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Experiment name (`"exchange"`, `"resident"`, `"fused"`,
    /// `"service"`).
    pub bench: String,
    /// Schema version the snapshot was written with.
    pub schema: u64,
    /// Experiment-wide metadata (e.g. the backend used).
    pub meta: Vec<(String, Value)>,
    /// The measurement rows.
    pub rows: Vec<Row>,
}

impl Snapshot {
    /// A fresh snapshot at the current [`SCHEMA_VERSION`].
    pub fn new(bench: &str) -> Self {
        Snapshot {
            bench: bench.to_string(),
            schema: SCHEMA_VERSION,
            meta: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds an experiment-wide metadata field.
    pub fn meta(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.meta.push((key.to_string(), value.into()));
        self
    }

    /// Serializes in the committed `BENCH_*.json` layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"bench\": \"{}\",\n  \"schema\": {},\n",
            self.bench, self.schema
        );
        for (key, value) in &self.meta {
            let _ = write!(out, "  \"{key}\": ");
            value.write_json(&mut out);
            out.push_str(",\n");
        }
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            for (j, (key, value)) in row.iter().enumerate() {
                let _ = write!(out, "\"{key}\": ");
                value.write_json(&mut out);
                if j + 1 < row.len() {
                    out.push_str(", ");
                }
            }
            out.push('}');
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the snapshot to `path` (and says so on stdout).
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.to_json())
            .unwrap_or_else(|e| panic!("cannot write snapshot {path}: {e}"));
        println!("snapshot written to {path}");
    }

    /// Parses a snapshot (tolerantly: unknown top-level fields become
    /// [`Snapshot::meta`], a missing `schema` reads as version 1 — the
    /// layout used before the field existed).
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let json = Json::parse(text)?;
        let Json::Obj(fields) = json else {
            return Err("snapshot root is not an object".to_string());
        };
        let mut snapshot = Snapshot {
            bench: String::new(),
            schema: 1,
            meta: Vec::new(),
            rows: Vec::new(),
        };
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("bench", Json::Str(s)) => snapshot.bench = s,
                ("schema", Json::Num(x)) => snapshot.schema = x as u64,
                ("rows", Json::Arr(items)) => {
                    for item in items {
                        let Json::Obj(fields) = item else {
                            return Err("snapshot row is not an object".to_string());
                        };
                        let mut row = Row::new();
                        for (k, v) in fields {
                            row.push((k, v.into_value()?));
                        }
                        snapshot.rows.push(row);
                    }
                }
                (_, v) => snapshot.meta.push((key, v.into_value()?)),
            }
        }
        if snapshot.bench.is_empty() {
            return Err("snapshot has no \"bench\" field".to_string());
        }
        Ok(snapshot)
    }

    /// Reads and parses a committed snapshot from disk.
    pub fn read(path: &str) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Snapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Distinct numeric values of `key` across the rows, in first-seen
    /// order — how `--check` re-derives the committed measurement grid.
    pub fn distinct(&self, key: &str) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for row in &self.rows {
            if let Some(x) = get(row, key).and_then(Value::as_num) {
                let x = x as usize;
                if !out.contains(&x) {
                    out.push(x);
                }
            }
        }
        out
    }
}

/// The verdict of one `--check` comparison.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Human-readable failure lines (empty means the gate passes).
    pub failures: Vec<String>,
    /// How many `(row, ratio key)` pairs were compared.
    pub compared: usize,
}

impl CheckOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the verdict and returns the process exit code (0 or 1).
    pub fn report(&self, bench: &str) -> i32 {
        if self.passed() {
            println!(
                "--check PASS: {} gated figure(s) of '{bench}' within {CHECK_TOLERANCE}x \
                 of the committed snapshot",
                self.compared
            );
            0
        } else {
            for line in &self.failures {
                println!("--check FAIL: {line}");
            }
            println!(
                "--check FAIL: {}/{} comparison(s) regressed more than {CHECK_TOLERANCE}x \
                 vs the committed '{bench}' snapshot",
                self.failures.len(),
                self.compared
            );
            1
        }
    }
}

/// Compares the gated columns (paired ratios or throughputs, higher is
/// better) of a fresh re-run against the committed snapshot.
///
/// Rows are matched on `id_keys` (all must be equal); for each matched row
/// every `ratio_keys` column must satisfy `fresh >= committed /`
/// [`CHECK_TOLERANCE`].  A committed row with no matching fresh row is a
/// failure (the re-run must cover the committed grid); extra fresh rows are
/// ignored.
pub fn check_ratios(
    committed: &Snapshot,
    fresh: &Snapshot,
    id_keys: &[&str],
    ratio_keys: &[&str],
) -> CheckOutcome {
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for crow in &committed.rows {
        let ident = |row: &Row| {
            id_keys
                .iter()
                .map(|k| {
                    get(row, k)
                        .map(|v| match v {
                            Value::Num(x) => format!("{k}={x}"),
                            Value::Str(s) => format!("{k}={s}"),
                        })
                        .unwrap_or_else(|| format!("{k}=?"))
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let Some(frow) = fresh
            .rows
            .iter()
            .find(|f| id_keys.iter().all(|k| get(f, k) == get(crow, k)))
        else {
            failures.push(format!("no fresh row matching [{}]", ident(crow)));
            continue;
        };
        for key in ratio_keys {
            let (Some(was), Some(now)) = (
                get(crow, key).and_then(Value::as_num),
                get(frow, key).and_then(Value::as_num),
            ) else {
                // A ratio column absent from the committed snapshot (older
                // schema) is not comparable — skip, don't fail.
                continue;
            };
            compared += 1;
            if now < was / CHECK_TOLERANCE {
                failures.push(format!(
                    "[{}] {key} regressed {was:.3} -> {now:.3} (more than \
                     {CHECK_TOLERANCE}x)",
                    ident(crow)
                ));
            }
        }
    }
    CheckOutcome { failures, compared }
}

/// Pulls a `--check <path>` pair out of a raw argument list, returning the
/// path and the remaining positional arguments.
pub fn split_check_arg(args: Vec<String>) -> (Option<String>, Vec<String>) {
    let mut check = None;
    let mut rest = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--check" {
            check = Some(
                iter.next()
                    .unwrap_or_else(|| panic!("--check needs a path to a committed snapshot")),
            );
        } else {
            rest.push(arg);
        }
    }
    (check, rest)
}

// ---------------------------------------------------------------------------
// A minimal JSON reader (the snapshots only use objects, arrays, strings
// and numbers; no registry crates are available in this environment).
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn into_value(self) -> Result<Value, String> {
        match self {
            Json::Num(x) => Ok(Value::Num(x)),
            Json::Str(s) => Ok(Value::Str(s)),
            other => Err(format!("expected a flat value, found {other:?}")),
        }
    }

    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = Json::parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = Json::parse_value(bytes, pos)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        other => return Err(format!("expected ',' or '}}', found {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(Json::parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
            Some(_) => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    *pos += 1;
                }
                let lit = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
                lit.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("not a number at byte {start}: {lit:?}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes.get(*pos).is_some_and(|b| b.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            want as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b == b'\\' {
            return Err("escape sequences are not used in snapshots".to_string());
        }
        if b == b'"' {
            let s = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| "invalid utf-8 in string".to_string())?
                .to_string();
            *pos += 1;
            return Ok(s);
        }
        *pos += 1;
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new("demo").meta("backend", "alg6");
        s.rows.push(row([
            ("payload", "String".into()),
            ("n", 1000usize.into()),
            ("speedup", 1.5f64.into()),
        ]));
        s.rows.push(row([
            ("payload", "u64".into()),
            ("n", 1000usize.into()),
            ("speedup", 0.98f64.into()),
        ]));
        s
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let parsed = Snapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn parses_the_pre_schema_layout() {
        // The layout committed before the schema field existed.
        let text = "{\n  \"bench\": \"exchange\",\n  \"rows\": [\n    \
                    {\"payload\": \"String\", \"n\": 1000000, \"speedup\": 1.0825}\n  ]\n}\n";
        let s = Snapshot::parse(text).unwrap();
        assert_eq!(s.bench, "exchange");
        assert_eq!(s.schema, 1, "missing schema reads as version 1");
        assert_eq!(
            get(&s.rows[0], "speedup").and_then(Value::as_num),
            Some(1.0825)
        );
        assert_eq!(s.distinct("n"), vec![1_000_000]);
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond() {
        let committed = sample();
        let mut fresh = sample();
        // Halving exactly meets the 2x tolerance (>= committed / 2 passes).
        fresh.rows[0][2].1 = Value::Num(0.75);
        let outcome = check_ratios(&committed, &fresh, &["payload", "n"], &["speedup"]);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(outcome.compared, 2);
        // Beyond 2x fails and names the row.
        fresh.rows[0][2].1 = Value::Num(0.74);
        let outcome = check_ratios(&committed, &fresh, &["payload", "n"], &["speedup"]);
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("payload=String"));
    }

    #[test]
    fn check_requires_the_committed_grid_to_be_covered() {
        let committed = sample();
        let mut fresh = sample();
        fresh.rows.remove(1);
        let outcome = check_ratios(&committed, &fresh, &["payload", "n"], &["speedup"]);
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("no fresh row"));
    }

    #[test]
    fn missing_ratio_columns_are_skipped_not_failed() {
        let mut committed = sample();
        for r in &mut committed.rows {
            r.retain(|(k, _)| k != "speedup");
        }
        let fresh = sample();
        let outcome = check_ratios(&committed, &fresh, &["payload", "n"], &["speedup"]);
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 0);
    }

    #[test]
    fn split_check_arg_extracts_the_flag_anywhere() {
        let (check, rest) = split_check_arg(vec![
            "1000".to_string(),
            "--check".to_string(),
            "BENCH_x.json".to_string(),
            "8".to_string(),
        ]);
        assert_eq!(check.as_deref(), Some("BENCH_x.json"));
        assert_eq!(rest, vec!["1000".to_string(), "8".to_string()]);
    }

    #[test]
    fn committed_snapshots_in_the_repo_parse() {
        // Guard the real files: if a hand edit breaks them, fail here, not
        // in CI's --check step.
        for name in ["service", "wire"] {
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                let snap = Snapshot::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(snap.bench, name);
                assert!(!snap.rows.is_empty());
            }
        }
    }
}
